"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-n2 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it are a report of every measured number
with its unit and sample count.  The full result, with the environment
fingerprint, is written to ``.perfbench/results/``; the traced run also
writes its spans to ``.perfbench/traces/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: the workloads are single-caller loops over small matrices,
# and the value must be fixed before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hashlib
import json
import platform
import resource
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 7  # set-ups per run; setup_s is their median

# Metrics named in BENCHMARK.json, in its order.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "inst_per_s": "1/s"}
PER_LAYER = {
    "model.generate_instances.s": "s",
    "solvers.label_instances.s": "s",
    "solvers.label_instances.self_s": "s",
    "kernels.exhaustive_argmin.s": "s",
    "kernels.exhaustive_argmin.calls": "count",
    "kernels.masks": "count",
    "kernels.bytes_computed": "bytes",
    "model.instance_file.bytes": "bytes",
    "solvers.labels_file.bytes": "bytes",
    "solvers.solve_sbb.calls": "count",
    "solvers.solve_sbb.nodes": "count",
    "solvers.solve_sbb.proven_frac": "fraction",
    "mtl.train.steps": "count",
    "mtl.infer_solution.calls": "count",
    "mtl.infer_solution.fallbacks": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import ``edgeoffload`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "edgeoffload" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'edgeoffload'}")
    sys.path.insert(0, str(SRC))
    import edgeoffload

    if Path(edgeoffload.__file__).resolve().parent != SRC / "edgeoffload":
        sys.exit(f"perfbench: imported edgeoffload from {edgeoffload.__file__}, not {SRC}")
    return edgeoffload


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "edgeoffload").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".cfg"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint(edgeoffload) -> dict:
    import numpy as np

    backend = getattr(edgeoffload.kernels, "BACKEND", "numpy")
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "kernel_backend": backend,
        "EDGEOFFLOAD_KERNEL": os.environ.get("EDGEOFFLOAD_KERNEL", ""),
    }


def install_wrappers(tracer, edgeoffload) -> None:
    """Child spans for the public functions the program looks up by name."""
    import numpy as np

    def kernel_counts(args, kwargs):
        n_inst, n = np.atleast_2d(args[0]).shape
        masks = n_inst << n
        # the (n_inst, 2^N) float64 cost matrix plus inputs and outputs,
        # computed from the argument shapes, not measured
        return {"masks": masks, "bytes_computed": 8 * masks + 8 * n_inst * (3 * n + 1) + 16 * n_inst}

    tracer.wrap(edgeoffload.kernels, "exhaustive_argmin", kernel_counts)
    for name in ("loss_and_grads", "forward", "optimal_allocation"):
        tracer.wrap(edgeoffload.mtl, name)


def per_layer_metrics(table: dict) -> dict:
    def row(name):
        return table.get("edgeoffload." + name, {})

    sbb = row("solvers.solve_sbb")
    sbb_calls = sbb.get("calls", 0)
    values = {
        "model.generate_instances.s": row("model.generate_instances").get("s", 0.0),
        "solvers.label_instances.s": row("solvers.label_instances").get("s", 0.0),
        "solvers.label_instances.self_s": row("solvers.label_instances").get("self_s", 0.0),
        "kernels.exhaustive_argmin.s": row("kernels.exhaustive_argmin").get("s", 0.0),
        "kernels.exhaustive_argmin.calls": row("kernels.exhaustive_argmin").get("calls", 0),
        "kernels.masks": row("kernels.exhaustive_argmin").get("masks", 0),
        "kernels.bytes_computed": row("kernels.exhaustive_argmin").get("bytes_computed", 0),
        "model.instance_file.bytes": row("model.write_instances").get("bytes", 0),
        "solvers.labels_file.bytes": row("solvers.write_labels").get("bytes", 0),
        "solvers.solve_sbb.calls": sbb_calls,
        "solvers.solve_sbb.nodes": sbb.get("nodes", 0),
        "solvers.solve_sbb.proven_frac": sbb.get("proven", 0) / sbb_calls if sbb_calls else 0.0,
        "mtl.train.steps": row("mtl.loss_and_grads").get("calls", 0),
        "mtl.infer_solution.calls": row("mtl.infer_solution").get("calls", 0),
        "mtl.infer_solution.fallbacks": row("mtl.optimal_allocation").get("calls", 0),
    }
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def layer_report(table: dict) -> dict:
    """Every span name: time, self time, calls and counters per set-up + round."""
    out = {}
    for name in sorted(table):
        short = name.removeprefix("edgeoffload.")
        for key, value in sorted(table[name].items()):
            unit = "s" if key in ("s", "self_s") else "bytes" if "bytes" in key else "count"
            out[f"{short}.{key}"] = (value, unit)
    return out


def run(args) -> int:
    edgeoffload = import_package()
    from spans import NullTracer, Tracer, per_phase_layer_table
    from workloads import WORKLOADS, OpFailed, Ops, tail

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be > 0")
    for sub in ("work", "results", "traces"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    if args.trace:
        install_wrappers(tracer, edgeoffload)
    ops = Ops(tracer)
    workload = WORKLOADS[args.workload](args.seed, str(OUT / "work"))

    setup_s, rounds, signatures, extra = [], [], set(), {}

    def set_up():
        with tracer.span("setup"):
            t0 = time.perf_counter()
            state = workload.setup(ops)
            setup_s.append(time.perf_counter() - t0)
        return state

    try:
        state = set_up()
        timed = 0.0
        while timed < args.seconds or len(setup_s) < SETUPS:
            # the other set-ups are spread over the timed period, so that
            # they meet the same drift in host speed as the rounds
            if len(setup_s) < SETUPS and timed >= args.seconds * len(setup_s) / SETUPS:
                state = set_up()
            t0 = time.perf_counter()
            try:
                with tracer.span("round"):
                    result = workload.round(ops, state)
                rounds.append(result)
                signatures.add(result["signature"])
            except OpFailed:
                pass
            timed += time.perf_counter() - t0
        if rounds and hasattr(workload, "check"):
            with tracer.span("check"):
                extra = workload.check(ops, state, rounds[-1])
    except OpFailed:
        pass  # a set-up or the final check failed; it is counted
    finally:
        if args.trace:
            tracer.unwrap_all()
    for path in (OUT / "work").iterdir():
        path.unlink()
    if len(signatures) > 1:
        ops.failed += 1
        ops.note(f"rounds gave {len(signatures)} different outputs for one input")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report: dict[str, tuple] = {}
    e2e = {}
    if rounds:
        rates = [r["inst_per_s"] for r in rounds]
        e2e = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "inst_per_s": statistics.median(rates),
        }
        report.update({k: (v, END_TO_END[k]) for k, v in e2e.items()})
        report["error_rate"] = (ops.failed / ops.attempted, "failed/attempted")
        report["rounds"] = (len(rounds), "count")
        q, value = tail([r["seconds"] for r in rounds])
        report[f"round_p{q}_s"] = (value, "s")
        report.update(workload.report(rounds))
        report.update(extra)

    layer_metrics = {}
    if args.trace and rounds:
        try:
            table = per_phase_layer_table(tracer.spans)
        except ValueError as exc:
            ops.failed += 1
            ops.note(str(exc))
        else:
            layer_metrics = per_layer_metrics(table)
            report.update(layer_report(table))
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
        untraced = OUT / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            for key in ("inst_per_s",):
                if key in base and key in e2e:
                    report[f"tracing_overhead.{key}"] = (base[key] / e2e[key] - 1.0, "fraction")

    correct = ops.failed == 0 and bool(rounds)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "fingerprint": fingerprint(edgeoffload),
        "end_to_end": e2e,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "per_layer": {k: v["value"] for k, v in layer_metrics.items()},
        "setup_samples_s": setup_s,
        "round_inst_per_s": [r["inst_per_s"] for r in rounds],
    }
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )

    for message in ops.errors:
        print(f"# error: {message}")
    for key, (value, unit) in report.items():
        print(f"{key:42s} {value:>16.6g} {unit}")
    if not rounds:
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
