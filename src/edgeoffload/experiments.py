"""Experiment pipelines: training-fraction sweep, solver comparison sweep,
and the bad-data-ratio sweep, each emitting a CSV, a gnuplot script and a
replayable run manifest."""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import offload_config, overlay, parse_kv_text, split_scenario, train_config
from .errors import ConfigError, EdgeOffloadError, FileFormatError
from .model import MAX_VEHICLES, generate_instances
from .mtl import (TrainConfig, decision_seconds, evaluate, infer_solution, seconds_per_item,
                  solver_metrics, train)
from .solvers import SbbConfig, label_instances, solve_sbb
from .split import InferenceScenario, eta_sweep_csv

# the experiment.* keys each kind reads, with their defaults
EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "fig5a-training-fraction": {
        "samples": 40000,
        "test_samples": 4000,
        "fractions": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    },
    "fig5b-n-avs": {
        "samples": 40000,
        "test_samples": 2000,
        "n_list": (2, 3, 4, 5, 6, 7, 8),
        # a node budget that makes the sBB baseline measurably suboptimal
        "sbb_max_nodes": 16,
    },
    "fig6-eta": {},
}
EXPERIMENT_KINDS = tuple(EXPERIMENT_DEFAULTS)

# the keys of the other families each kind does not read: a whole family, or
# one family.key that the kind's runner sets itself
_UNREAD_KEYS = {
    "fig5a-training-fraction": {"split", "train.train_fraction", "train.seed"},
    "fig5b-n-avs": {"split", "offload.n_vehicles", "train.chi_c", "train.chi_r",
                    "train.chi_l", "train.hidden_sizes", "train.seed"},
    "fig6-eta": {"offload", "train"},
}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    out_dir: Path
    seed: int = 0
    config_text: str = ""  # prefixed overrides: offload.*, train.*, split.*, experiment.*

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; choose from {EXPERIMENT_KINDS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "out_dir", Path(self.out_dir))


@dataclass
class RunManifest:
    tool_version: str
    kind: str
    seed: int
    config_text: str
    stage_seconds: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    # wall clock and environment, not digested
    measurements: dict[str, float | int | str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, raw: str | bytes, source="manifest") -> "RunManifest":
        """The manifest that ``raw`` (text, or UTF-8 bytes) holds; anything
        else is a ``FileFormatError`` that names ``source``."""
        try:
            data = json.loads(raw if isinstance(raw, str) else raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deep
            raise FileFormatError(f"{source}: not a UTF-8 JSON manifest ({exc})") from None
        keys = ("tool_version", "kind", "seed", "config_text", "stage_seconds", "digests")
        if not isinstance(data, dict) or not data.keys() >= set(keys):
            raise FileFormatError(f"{source}: a manifest is a JSON object with keys {keys}")
        seed, digests, measurements = data["seed"], data["digests"], data.get("measurements", {})
        wrong = [key for key, ok in (
            ("seed", isinstance(seed, int) and not isinstance(seed, bool)),
            ("config_text", isinstance(data["config_text"], str)),
            ("digests", isinstance(digests, dict)
             and all(isinstance(d, str) for d in digests.values())),
            ("measurements", isinstance(measurements, dict))) if not ok]
        if wrong:
            raise FileFormatError(f"{source}: the manifest's {wrong[0]} has the wrong type")
        return cls(**{key: data[key] for key in keys}, measurements=measurements)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _split_families(spec: ExperimentSpec) -> dict[str, dict[str, str]]:
    kv = parse_kv_text(spec.config_text, "<experiment config>")
    fams: dict[str, dict[str, str]] = {"offload": {}, "train": {}, "split": {}, "experiment": {}}
    unread = _UNREAD_KEYS[spec.kind]
    for key, value in kv.items():
        fam, _, rest = key.partition(".")
        if fam not in fams or not rest:
            raise ConfigError(
                f"experiment config keys must be prefixed with one of {sorted(fams)}: {key!r}"
            )
        if fam in unread or key in unread:
            raise ConfigError(f"{spec.kind} does not read config key {key!r}")
        fams[fam][rest] = value
    return fams


def resolve_config(spec: ExperimentSpec) -> dict:
    """The keyword arguments of the kind's runner, built and validated from
    the spec's config text: every family's keys overlaid on its defaults."""
    fams = _split_families(spec)
    exp = overlay(EXPERIMENT_DEFAULTS[spec.kind], fams["experiment"], "experiment")
    if spec.kind == "fig6-eta":
        scenario, eta_step = split_scenario(fams["split"])
        return {"scenario": scenario, "eta_step": eta_step}
    for key in ("samples", "test_samples"):
        if exp[key] < 1:
            raise ConfigError(f"experiment.{key} must be >= 1, got {exp[key]}")
    for key in ("fractions", "n_list"):
        if len(set(exp.get(key, ()))) < len(exp.get(key, ())):
            raise ConfigError(f"experiment.{key} repeats a value: {exp[key]}")
    n_vehicles, ranges = offload_config(fams["offload"])
    sizes = exp.get("n_list", (n_vehicles,))  # the vehicle counts the run draws
    bad = [n for n in sizes if not 1 <= n <= MAX_VEHICLES]
    if bad:
        raise ConfigError(f"vehicle counts must be in 1..{MAX_VEHICLES}, got {bad}")
    data = {"seed": spec.seed, "ranges": ranges,
            "samples": exp["samples"], "test_samples": exp["test_samples"]}
    if spec.kind == "fig5a-training-fraction":
        runs = [(frac, train_config(fams["train"], train_fraction=frac, seed=spec.seed))
                for frac in exp["fractions"]]
        return {**data, "n_vehicles": n_vehicles, "runs": runs}
    runs = [(n, train_config(fams["train"], chi_c=0.0 if n > 5 else 1.0, chi_r=1.0,
                             seed=spec.seed, hidden_sizes=(64, 64) if n > 5 else (32, 32)))
            for n in exp["n_list"]]
    return {**data, "runs": runs, "sbb": SbbConfig(max_nodes=exp["sbb_max_nodes"])}


class _Stages:
    """Stage timing, and the emitted files that the manifest digests."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.seconds: dict[str, float] = {}
        self.measurements: dict[str, float] = {}
        self.files: list[Path] = []

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            # keep the error class so the CLI exit-code mapping still applies
            cls = type(exc) if isinstance(exc, EdgeOffloadError) else EdgeOffloadError
            raise cls(f"experiment stage {name!r} failed: {exc}") from exc
        self.seconds[name] = time.perf_counter() - t0
        return result

    def emit(self, name: str, content: str) -> Path:
        path = self.out_dir / name
        path.write_text(content, encoding="utf-8")
        self.files.append(path)
        return path


def _gnuplot(csv_name: str, ylabel: str, columns: list[tuple[int, str]]) -> str:
    plots = ", ".join(
        f"'{csv_name}' using 1:{col} with linespoints title '{title}'" for col, title in columns
    )
    return (
        "set datafile separator ','\n"
        "set key outside\n"
        f"set ylabel '{ylabel}'\n"
        "set xlabel 'x'\n"
        f"plot {plots}\n"
    )


# ---------------------------------------------------------------------------
# the three pipelines
# ---------------------------------------------------------------------------

def _labeled_sets(n: int, *, seed: int, ranges: dict[str, tuple[float, float]],
                  samples: int, test_samples: int):
    """The test instances, then the exact labels of the train set (``samples``
    instances of ``n`` vehicles drawn at ``seed``) and of the test set
    (``test_samples`` instances drawn at ``seed + 1``)."""
    train_insts = generate_instances(n, samples, ranges, seed=seed)
    test_insts = generate_instances(n, test_samples, ranges, seed=seed + 1)
    return test_insts, label_instances(train_insts), label_instances(test_insts)


def _run_fig5a(stages: _Stages, *, n_vehicles: int, runs: list[tuple[float, TrainConfig]],
               **data) -> None:
    _, ds, test_ds = stages.run("label", lambda: _labeled_sets(n_vehicles, **data))

    rows = []
    for frac, cfg in runs:
        model, _ = stages.run(f"train@{frac}", lambda: train(ds, cfg))
        metrics = evaluate(model, test_ds)
        rows.append((frac, metrics.class_accuracy, metrics.reg_mse))

    csv = "fraction,accuracy,mse\n" + "".join(
        f"{f!r},{a!r},{m!r}\n" for f, a, m in rows
    )
    stages.emit("fig5a.csv", csv)
    stages.emit("fig5a.gp", _gnuplot("fig5a.csv", "accuracy / mse",
                                     [(2, "accuracy"), (3, "alloc MSE")]))


def _run_fig5b(stages: _Stages, *, runs: list[tuple[int, TrainConfig]], sbb: SbbConfig,
               **data) -> None:
    rows = []
    for n, cfg in runs:
        test_insts, ds, test_ds = stages.run(f"label@N={n}", lambda: _labeled_sets(n, **data))
        model, _ = stages.run(f"train@N={n}", lambda: train(ds, cfg))
        mtl_metrics = evaluate(model, test_ds)
        sbb_labels = stages.run(f"sbb@N={n}", lambda: label_instances(
            test_insts, "sbb", max_nodes=sbb.max_nodes))
        sbb_metrics = solver_metrics(sbb_labels, test_ds)
        rows.append((n, mtl_metrics.class_accuracy, sbb_metrics.class_accuracy,
                     mtl_metrics.reg_mse, sbb_metrics.reg_mse))
        def solve_all(test_insts=test_insts):
            return [solve_sbb(inst, sbb) for inst in test_insts]
        def infer_all(test_insts=test_insts):
            return [infer_solution(model, inst) for inst in test_insts]
        stages.measurements[f"time_mtl@N={n}"] = decision_seconds(model, test_ds)
        # the per-call pair: one infer_solution against one solve_sbb per instance
        stages.measurements[f"time_infer@N={n}"] = seconds_per_item(infer_all, len(test_insts))
        stages.measurements[f"time_sbb@N={n}"] = seconds_per_item(solve_all, len(test_insts))

    csv = "n,acc_mtl,acc_sbb,mse_mtl,mse_sbb\n" + "".join(
        f"{n},{am!r},{asb!r},{mm!r},{msb!r}\n" for n, am, asb, mm, msb in rows
    )
    stages.emit("fig5b.csv", csv)
    stages.emit("fig5b.gp", _gnuplot("fig5b.csv", "accuracy",
                                     [(2, "MTL"), (3, "budgeted sBB")]))


def _run_fig6(stages: _Stages, *, scenario: InferenceScenario, eta_step: float) -> None:
    stages.emit("fig6.csv", stages.run("sweep", lambda: eta_sweep_csv(scenario, eta_step)))
    stages.emit("fig6.gp", _gnuplot("fig6.csv", "expected weighted-sum cost",
                                    [(2, "local"), (3, "edge"), (4, "joint")]))


_RUNNERS = {
    "fig5a-training-fraction": _run_fig5a,
    "fig5b-n-avs": _run_fig5b,
    "fig6-eta": _run_fig6,
}


def run_experiment(spec: ExperimentSpec) -> RunManifest:
    """Run one experiment pipeline and write CSV + plot script + manifest."""
    job = resolve_config(spec)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    stages = _Stages(spec.out_dir)
    _RUNNERS[spec.kind](stages, **job)
    manifest = RunManifest(
        tool_version=__version__,
        kind=spec.kind,
        seed=spec.seed,
        config_text=spec.config_text,
        stage_seconds=stages.seconds,
        digests={p.name: sha256_file(p) for p in stages.files},
        measurements={**stages.measurements, **_environment()},
    )
    (spec.out_dir / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    return manifest


def _environment() -> dict[str, int | str]:
    """What a run's numbers depend on beyond its config: the interpreter, the
    numpy release (its SeedSequence/PCG64 streams drive generation), the host,
    and the BLAS that runs the matrix products (its kernel and thread count
    set the timings)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    kernel = _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 0,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_kernel": kernel.decode() if isinstance(kernel, bytes) else kernel,
        "blas_threads": _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int),
    }


def _openblas_call(symbol: str, restype):
    """``symbol()`` of the OpenBLAS bundled with numpy's wheel, or "unknown"
    where there is no such library or it lacks the symbol."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            function = getattr(ctypes.CDLL(str(path)), symbol)
        except (OSError, AttributeError):
            continue
        function.argtypes, function.restype = [], restype
        return function()
    return "unknown"


def replay_manifest(manifest_path, out_dir) -> tuple[RunManifest, RunManifest, bool]:
    """Re-run an experiment from its manifest; returns (old, new, identical)."""
    old = RunManifest.from_json(Path(manifest_path).read_bytes(), manifest_path)
    spec = ExperimentSpec(kind=old.kind, out_dir=Path(out_dir), seed=old.seed,
                          config_text=old.config_text)
    new = run_experiment(spec)
    identical = old.digests == new.digests
    return old, new, identical
