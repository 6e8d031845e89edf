"""Offloading system model: problem data, cost functions, instance generation.

Cost model (weighted sum of delay and AV-side energy):
  local   : w_t * C/f + w_e * kappa * f^2 * C
  offload : w_t * (S/r + C/(alpha*F)) + w_e * p * S/r
with Shannon uplink r = B * log2(1 + p*g/sigma2). Edge-side energy and the
result download are excluded; bandwidth is orthogonal per vehicle.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    FileFormatError,
    InvalidAllocationError,
    InvalidParameterError,
    ValidationError,
)

MAX_VEHICLES = 16  # classifier head is 2^N-way; hard enumeration guard
ALLOC_SUM_TOL = 1e-9

INSTANCE_FILE_HEADER = "offload-instance v1"


def _check_positive(name: str, value: float, maximum: float | None = None) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")
    if maximum is not None and value > maximum:
        raise InvalidParameterError(f"{name} must be <= {maximum}, got {value!r}")


@dataclass(frozen=True)
class VehicleParams:
    """Per-vehicle task, radio and compute parameters."""

    data_size: float  # bits
    cpu_cycles: float  # cycles
    local_freq: float  # cycles/s
    tx_power: float  # W
    channel_gain: float  # linear power gain, <= 1
    bandwidth: float  # Hz

    def __post_init__(self) -> None:
        _check_positive("data_size", self.data_size)
        _check_positive("cpu_cycles", self.cpu_cycles)
        _check_positive("local_freq", self.local_freq)
        _check_positive("tx_power", self.tx_power)
        _check_positive("channel_gain", self.channel_gain, maximum=1.0)
        _check_positive("bandwidth", self.bandwidth)


@dataclass(frozen=True)
class EdgeParams:
    """Edge-server capacity and receiver noise."""

    edge_freq: float  # cycles/s, total divisible capacity
    noise_power: float  # W

    def __post_init__(self) -> None:
        _check_positive("edge_freq", self.edge_freq)
        _check_positive("noise_power", self.noise_power)


@dataclass(frozen=True)
class CostWeights:
    """Weights of the delay/energy terms plus the local CPU energy coefficient."""

    w_time: float  # cost per second
    w_energy: float  # cost per joule
    kappa: float  # J*s^2/cycle^3

    def __post_init__(self) -> None:
        for name in ("w_time", "w_energy"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise InvalidParameterError(f"{name} must be >= 0 and finite, got {v!r}")
        if self.w_time == 0.0 and self.w_energy == 0.0:
            raise InvalidParameterError("w_time and w_energy cannot both be zero")
        _check_positive("kappa", self.kappa)


@dataclass(frozen=True)
class OffloadInstance:
    """One offloading problem: N vehicles sharing one edge server."""

    vehicles: tuple[VehicleParams, ...]
    edge: EdgeParams
    weights: CostWeights
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        n = len(self.vehicles)
        if not 1 <= n <= MAX_VEHICLES:
            raise InvalidParameterError(f"need 1..{MAX_VEHICLES} vehicles, got {n}")

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicles)


@dataclass(frozen=True)
class OffloadSolution:
    """A feasible offloading strategy together with its achieved cost."""

    decisions: tuple[int, ...]  # 1 = offload
    alloc: tuple[float, ...]  # edge-CPU fractions, 0 for local vehicles
    cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "decisions", tuple(int(d) for d in self.decisions))
        object.__setattr__(self, "alloc", tuple(float(a) for a in self.alloc))
        if len(self.decisions) != len(self.alloc):
            raise InvalidAllocationError("decisions and alloc lengths differ")
        if any(d not in (0, 1) for d in self.decisions):
            raise InvalidAllocationError("decisions must be 0/1")
        for d, a in zip(self.decisions, self.alloc):
            if a < 0.0:
                raise InvalidAllocationError(f"negative allocation {a!r}")
            if (d == 0) != (a == 0.0):
                raise InvalidAllocationError(
                    f"alloc must be zero exactly for local vehicles (d={d}, alloc={a!r})"
                )
        if sum(self.alloc) > 1.0 + ALLOC_SUM_TOL:
            raise InvalidAllocationError(f"allocations sum to {sum(self.alloc)!r} > 1")
        if self.cost < 0.0 or not math.isfinite(self.cost):
            raise InvalidAllocationError(f"cost must be finite and >= 0, got {self.cost!r}")


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

def uplink_rate(v: VehicleParams, e: EdgeParams) -> float:
    """Shannon rate of the vehicle's orthogonal uplink, in bit/s."""
    snr = v.tx_power * v.channel_gain / e.noise_power
    return v.bandwidth * math.log2(1.0 + snr)


def local_cost(v: VehicleParams, w: CostWeights) -> float:
    """Weighted delay+energy of executing the task on the vehicle CPU."""
    delay = v.cpu_cycles / v.local_freq
    energy = w.kappa * v.local_freq**2 * v.cpu_cycles
    return w.w_time * delay + w.w_energy * energy


def offload_cost(
    v: VehicleParams, e: EdgeParams, w: CostWeights, alloc_fraction: float
) -> float:
    """Weighted cost of offloading with a given share of the edge CPU."""
    if not alloc_fraction > 0.0:
        raise InvalidAllocationError(
            f"alloc_fraction must be > 0 for an offloading vehicle, got {alloc_fraction!r}"
        )
    rate = uplink_rate(v, e)
    tx_delay = v.data_size / rate
    edge_delay = v.cpu_cycles / (alloc_fraction * e.edge_freq)
    tx_energy = v.tx_power * tx_delay
    return w.w_time * (tx_delay + edge_delay) + w.w_energy * tx_energy


def total_cost(
    inst: OffloadInstance, decisions: Sequence[int], alloc: Sequence[float]
) -> float:
    """Weighted-sum cost of a full strategy over all vehicles."""
    if len(decisions) != inst.n_vehicles or len(alloc) != inst.n_vehicles:
        raise InvalidAllocationError("decisions/alloc length must equal n_vehicles")
    total = 0.0
    for v, d, a in zip(inst.vehicles, decisions, alloc):
        if d:
            total += offload_cost(v, inst.edge, inst.weights, a)
        else:
            total += local_cost(v, inst.weights)
    return total


def raw_features(inst: OffloadInstance) -> np.ndarray:
    """Unnormalized feature vector of length 6N+4 (vehicle blocks, then globals)."""
    parts = []
    for v in inst.vehicles:
        parts.extend(
            [v.data_size, v.cpu_cycles, v.local_freq, v.tx_power, v.channel_gain, v.bandwidth]
        )
    parts.extend(
        [inst.edge.edge_freq, inst.edge.noise_power, inst.weights.w_time, inst.weights.w_energy]
    )
    return np.asarray(parts, dtype=np.float64)


_vehicle_fields = operator.attrgetter(
    "data_size", "cpu_cycles", "local_freq", "tx_power", "channel_gain", "bandwidth"
)


def batch_features(instances: Sequence[OffloadInstance]) -> np.ndarray:
    """``raw_features`` of every instance of a non-empty batch with one N, as rows."""
    if not instances:
        raise ValidationError("empty instance batch")
    n = instances[0].n_vehicles
    if any(inst.n_vehicles != n for inst in instances):
        raise ValidationError("batch instances must share n_vehicles")
    vehicles = np.fromiter(
        itertools.chain.from_iterable(
            map(_vehicle_fields, itertools.chain.from_iterable(i.vehicles for i in instances))
        ),
        dtype=np.float64,
        count=6 * n * len(instances),
    ).reshape(len(instances), 6 * n)
    globals_ = np.array(
        [
            (i.edge.edge_freq, i.edge.noise_power, i.weights.w_time, i.weights.w_energy)
            for i in instances
        ],
        dtype=np.float64,
    )
    return np.concatenate([vehicles, globals_], axis=1)


# ---------------------------------------------------------------------------
# random instance generation
# ---------------------------------------------------------------------------

# (field, per-vehicle?) in the order the documented config keys use
_RANGE_FIELDS = [
    ("data_size_bits", True),
    ("cpu_cycles", True),
    ("local_freq", True),
    ("tx_power", True),
    ("bandwidth", True),
    ("gain", True),
    ("noise_power", False),
    ("edge_freq", False),
    ("kappa", False),
    ("w_time", False),
    ("w_energy", False),
]

_VEHICLE_RANGE_FIELDS = [name for name, per_vehicle in _RANGE_FIELDS if per_vehicle]
# range field of each VehicleParams field, in the dataclass's order
_VEHICLE_PARAM_SOURCES = [
    "data_size_bits", "cpu_cycles", "local_freq", "tx_power", "gain", "bandwidth",
]
# the order generation draws the globals in (that of the constructor arguments)
_GLOBAL_DRAW_ORDER = ["edge_freq", "noise_power", "w_time", "w_energy", "kappa"]

DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "data_size_bits": (0.5e6, 4e6),
    "cpu_cycles": (0.2e9, 2e9),
    "local_freq": (1e9, 1e9),
    "tx_power": (10.0, 10.0),
    "bandwidth": (1e6, 1e6),
    "gain": (1e-7, 1e-4),
    "noise_power": (1e-9, 1e-9),
    "edge_freq": (1e10, 1e10),
    "kappa": (1e-27, 1e-27),
    "w_time": (1.0, 1.0),
    "w_energy": (1.0, 1.0),
}


def validate_ranges(ranges: dict[str, tuple[float, float]]) -> None:
    if not ranges:
        raise ConfigError("empty parameter-range config")
    for name, _ in _RANGE_FIELDS:
        if name not in ranges:
            raise ConfigError(f"missing range for {name!r}")
        lo, hi = ranges[name]
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 or lo > hi:
            raise ConfigError(f"bad range for {name!r}: ({lo!r}, {hi!r})")
    lo, hi = ranges["gain"]
    if hi > 1.0:
        raise ConfigError(f"gain range must stay <= 1, got max {hi!r}")
    if ranges["w_time"] == (0.0, 0.0) and ranges["w_energy"] == (0.0, 0.0):
        raise ConfigError("w_time and w_energy ranges cannot both be pinned to zero")


def generate_instances(
    n_vehicles: int,
    n_instances: int,
    ranges: dict[str, tuple[float, float]] | None = None,
    seed: int = 0,
) -> list[OffloadInstance]:
    """Draw i.i.d. uniform instances, deterministically in ``seed``.

    Each instance gets its own child seed from a spawned stream, so chunked
    parallel generation reproduces the sequential output.
    """
    ranges = dict(DEFAULT_RANGES if ranges is None else ranges)
    validate_ranges(ranges)
    if not 1 <= n_vehicles <= MAX_VEHICLES:
        raise InvalidParameterError(f"n_vehicles must be 1..{MAX_VEHICLES}")
    if n_instances < 0:
        raise InvalidParameterError("n_instances must be >= 0")

    # A child stream holds one uniform per vehicle and vehicle field, in
    # _RANGE_FIELDS order (pinned fields draw too, to keep it aligned), then
    # one per global that is not pinned, in _GLOBAL_DRAW_ORDER.
    n = n_vehicles
    drawn = [name for name in _GLOBAL_DRAW_ORDER if ranges[name][0] != ranges[name][1]]
    n_vehicle_draws = len(_VEHICLE_RANGE_FIELDS) * n
    k = n_vehicle_draws + len(drawn)
    children = np.random.SeedSequence(seed).spawn(n_instances)
    seeds = [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
    u = np.empty((n_instances, k))
    for row, child in zip(u, children):
        np.random.default_rng(child).random(out=row)

    def scaled(name: str, draws: np.ndarray) -> np.ndarray:
        lo, hi = (float(x) for x in ranges[name])
        return np.full(draws.shape, lo) if lo == hi else lo + (hi - lo) * draws

    # the vehicles' fields in VehicleParams order, as one flat list consumed
    # six at a time, so no per-vehicle row list is built
    fields = np.empty((n_instances, n, len(_VEHICLE_PARAM_SOURCES)))
    for j, name in enumerate(_VEHICLE_RANGE_FIELDS):
        fields[:, :, _VEHICLE_PARAM_SOURCES.index(name)] = scaled(name, u[:, j * n : (j + 1) * n])
    values = iter(fields.ravel().tolist())
    vehicles = (VehicleParams(*six) for six in zip(*[values] * len(_VEHICLE_PARAM_SOURCES)))
    globals_ = {name: [ranges[name][0]] * n_instances for name in _GLOBAL_DRAW_ORDER}
    for j, name in enumerate(drawn):
        globals_[name] = scaled(name, u[:, n_vehicle_draws + j]).tolist()
    return [
        OffloadInstance(
            vehicles=tuple(itertools.islice(vehicles, n)),
            edge=EdgeParams(edge_freq=edge_freq, noise_power=noise_power),
            weights=CostWeights(w_time=w_time, w_energy=w_energy, kappa=kappa),
            seed=inst_seed,
        )
        for edge_freq, noise_power, w_time, w_energy, kappa, inst_seed in zip(
            *(globals_[name] for name in _GLOBAL_DRAW_ORDER), seeds
        )
    ]


# ---------------------------------------------------------------------------
# instance file I/O (line-delimited JSON under a versioned header)
# ---------------------------------------------------------------------------

def instance_to_record(inst: OffloadInstance) -> str:
    e, w = inst.edge, inst.weights
    payload = {
        "seed": inst.seed,
        "vehicles": [
            {
                "data_size": v.data_size,
                "cpu_cycles": v.cpu_cycles,
                "local_freq": v.local_freq,
                "tx_power": v.tx_power,
                "channel_gain": v.channel_gain,
                "bandwidth": v.bandwidth,
            }
            for v in inst.vehicles
        ],
        "edge": {"edge_freq": e.edge_freq, "noise_power": e.noise_power},
        "weights": {"w_time": w.w_time, "w_energy": w.w_energy, "kappa": w.kappa},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def instance_from_record(line: str) -> OffloadInstance:
    payload = json.loads(line)
    return OffloadInstance(
        vehicles=tuple(VehicleParams(**v) for v in payload["vehicles"]),
        edge=EdgeParams(**payload["edge"]),
        weights=CostWeights(**payload["weights"]),
        seed=int(payload["seed"]),
    )


def write_instances(path, instances: Iterable[OffloadInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(INSTANCE_FILE_HEADER + "\n")
        for inst in instances:
            fh.write(instance_to_record(inst) + "\n")


def read_instances(path) -> list[OffloadInstance]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != INSTANCE_FILE_HEADER:
            raise FileFormatError(f"{path}: expected header {INSTANCE_FILE_HEADER!r}, got {header!r}")
        out = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(instance_from_record(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise FileFormatError(f"{path}:{lineno}: malformed instance record: {exc}") from exc
    return out
