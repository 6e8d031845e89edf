"""Flat key-value config files and builders for the config families.

One format serves every config family: ``key = value`` lines, ``#`` comments,
dotted keys for grouped fields (``data_size_bits.min``).  Each family has one
set of defaults (offload: ``model.DEFAULT_RANGES``; train: the fields of
``mtl.TrainConfig``; split: the shipped ``split_default.cfg``) and the
user's keys are overlaid on them.  The documented keys are listed in the
README; unknown keys are rejected to catch typos.
"""
from __future__ import annotations

import dataclasses
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .model import DEFAULT_RANGES, CostWeights, EdgeParams, VehicleParams, validate_ranges
from .mtl import TrainConfig
from .split import AccuracyModel, InferenceScenario, LayerProfile, eta_steps

OFFLOAD_KEYS = {
    "n_vehicles",
    "data_size_bits.min", "data_size_bits.max",
    "cpu_cycles.min", "cpu_cycles.max",
    "local_freq", "local_freq.min", "local_freq.max",
    "tx_power", "tx_power.min", "tx_power.max",
    "bandwidth", "bandwidth.min", "bandwidth.max",
    "gain.min", "gain.max",
    "noise_power", "edge_freq", "kappa", "w_time", "w_energy",
}

def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_kv_file(path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_kv_text(text, source=str(path))


def default_config_text(name: str) -> str:
    """Text of a shipped default config (only ``split`` ships one)."""
    try:
        return (resources.files("edgeoffload.data") / f"{name}_default.cfg").read_text("utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"no shipped default config named {name!r}") from exc


def as_float(kv: dict[str, str], key: str) -> float:
    try:
        return float(kv[key])
    except KeyError as exc:
        raise ConfigError(f"missing config key {key!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} is not a number: {kv[key]!r}") from exc


def as_int(kv: dict[str, str], key: str) -> int:
    v = as_float(kv, key)
    if v != int(v):
        raise ConfigError(f"config key {key!r} must be an integer, got {kv[key]!r}")
    return int(v)


def _check_keys(kv: dict[str, str], allowed: set[str], family: str) -> None:
    unknown = set(kv) - allowed
    if unknown:
        raise ConfigError(f"unknown {family} config keys: {sorted(unknown)}")


def _typed(default, kv: dict[str, str], key: str):
    """``kv[key]`` parsed to the type of ``default``: an int, a float, or a
    non-empty comma list (a tuple) whose entries take the type of ``default[0]``."""
    if isinstance(default, tuple):
        entries = [s.strip() for s in kv[key].split(",") if s.strip()]
        if not entries:
            raise ConfigError(f"config key {key!r} needs at least one entry")
        return tuple(_typed(default[0], {key: s}, key) for s in entries)
    return as_int(kv, key) if isinstance(default, int) else as_float(kv, key)


def overlay(defaults: dict, kv: dict[str, str], family: str) -> dict:
    """``defaults`` with each key of ``kv`` on top, typed like its default."""
    _check_keys(kv, set(defaults), family)
    return {**defaults, **{key: _typed(defaults[key], kv, key) for key in kv}}


# ---------------------------------------------------------------------------
# offload / instance-generation config
# ---------------------------------------------------------------------------

def offload_config(kv: dict[str, str] | None = None) -> tuple[int, dict[str, tuple[float, float]]]:
    """(n_vehicles, ranges) from a key-value mapping; defaults fill the gaps."""
    kv = dict(kv or {})
    _check_keys(kv, OFFLOAD_KEYS, "offload")
    n_vehicles = as_int(kv, "n_vehicles") if "n_vehicles" in kv else 2
    ranges = dict(DEFAULT_RANGES)
    for name, (lo, hi) in DEFAULT_RANGES.items():
        lo_key, hi_key = f"{name}.min", f"{name}.max"
        bounds = lo_key in kv or hi_key in kv
        if name in kv:
            if bounds:
                raise ConfigError(f"give {name!r} or its bounds {lo_key!r}/{hi_key!r}, not both")
            v = as_float(kv, name)
            ranges[name] = (v, v)
        elif bounds:  # a bound not given keeps its default
            ranges[name] = (as_float(kv, lo_key) if lo_key in kv else lo,
                            as_float(kv, hi_key) if hi_key in kv else hi)
    validate_ranges(ranges)
    return n_vehicles, ranges


# ---------------------------------------------------------------------------
# training config
# ---------------------------------------------------------------------------

def train_config(kv: dict[str, str] | None = None, **overrides) -> TrainConfig:
    """``TrainConfig`` from a key-value mapping; ``overrides`` win over it."""
    kv = dict(kv or {})
    if "chi_l" in kv:  # accepted alias for the regression weight
        if "chi_r" in kv:
            raise ConfigError("give chi_r or its alias chi_l, not both")
        kv["chi_r"] = kv.pop("chi_l")
    defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    return TrainConfig(**{**overlay(defaults, kv, "train"), **overrides})


# ---------------------------------------------------------------------------
# split-inference config
# ---------------------------------------------------------------------------

def split_scenario(kv: dict[str, str] | None = None) -> tuple[InferenceScenario, float]:
    """(scenario, eta grid step) from the shipped scenario with ``kv`` on top."""
    user = kv or {}
    defaults = parse_kv_text(default_config_text("split"), "<split defaults>")
    kv = {**defaults, **user}
    n_layers = as_int(kv, "n_layers")
    # the shipped file names every key; layer keys go up to the run's n_layers
    allowed = {k for k in defaults if not k.startswith("layer")}
    allowed.update(f"layer{i}.{part}" for i in range(1, n_layers + 1) for part in ("cycles", "bytes"))
    _check_keys(user, allowed, "split")
    layers = []
    for i in range(1, n_layers + 1):
        layers.append((as_float(kv, f"layer{i}.cycles"), as_float(kv, f"layer{i}.bytes")))
    profile = LayerProfile(input_size=as_float(kv, "input_bytes"), layers=tuple(layers))
    total_cycles = sum(c for c, _ in profile.layers)
    vehicle = VehicleParams(
        data_size=profile.input_size * 8.0,
        cpu_cycles=total_cycles,
        local_freq=as_float(kv, "local_freq"),
        tx_power=as_float(kv, "tx_power"),
        channel_gain=as_float(kv, "gain"),
        bandwidth=as_float(kv, "bandwidth"),
    )
    edge = EdgeParams(edge_freq=as_float(kv, "edge_freq"), noise_power=as_float(kv, "noise_power"))
    weights = CostWeights(
        w_time=as_float(kv, "w_time"), w_energy=as_float(kv, "w_energy"), kappa=as_float(kv, "kappa")
    )
    acc = AccuracyModel(
        acc_snn_good=as_float(kv, "acc_snn_good"),
        acc_snn_bad=as_float(kv, "acc_snn_bad"),
        acc_full=as_float(kv, "acc_full"),
        miss_penalty=as_float(kv, "miss_penalty"),
    )
    scenario = InferenceScenario(
        vehicle=vehicle,
        edge=edge,
        weights=weights,
        profile=profile,
        acc=acc,
        split_index=as_int(kv, "split_index"),
    )
    eta_step = as_float(kv, "eta_step")
    eta_steps(eta_step)  # refuses a step that does not divide 1
    return scenario, eta_step
