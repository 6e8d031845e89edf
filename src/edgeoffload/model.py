"""Offloading system model: problem data, cost functions, instance generation.

Cost model (weighted sum of delay and AV-side energy):
  local   : w_t * C/f + w_e * kappa * f^2 * C
  offload : w_t * (S/r + C/(alpha*F)) + w_e * p * S/r
with Shannon uplink r = B * log2(1 + p*g/sigma2). Edge-side energy and the
result download are excluded; bandwidth is orthogonal per vehicle.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
# json.dumps with options builds an encoder per call; instance records share this one
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# the record writers format this many records or rows per chunk
CHUNK_ROWS = 1024

# feature layout: one block per vehicle (the VehicleParams fields, in order),
# then edge_freq, noise_power, w_time and w_energy
PER_VEHICLE_FEATURES = 6
N_GLOBAL_FEATURES = 4


def feature_count(n_vehicles: int) -> int:
    return PER_VEHICLE_FEATURES * n_vehicles + N_GLOBAL_FEATURES


_FLOAT_MAX = sys.float_info.max  # not math.inf: 10**400 < math.inf holds for an int


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
        try:  # every field in one chained test; the per-field checks name a refusal
            if (0.0 < self.data_size <= _FLOAT_MAX and 0.0 < self.cpu_cycles <= _FLOAT_MAX
                    and 0.0 < self.local_freq <= _FLOAT_MAX and 0.0 < self.tx_power <= _FLOAT_MAX
                    and 0.0 < self.channel_gain <= 1.0 and 0.0 < self.bandwidth <= _FLOAT_MAX):
                return
        except (TypeError, ValueError):
            pass
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
        try:  # as in VehicleParams
            if 0.0 < self.edge_freq <= _FLOAT_MAX and 0.0 < self.noise_power <= _FLOAT_MAX:
                return
        except (TypeError, ValueError):
            pass
        _check_positive("edge_freq", self.edge_freq)
        _check_positive("noise_power", self.noise_power)


@dataclass(frozen=True)
class CostWeights:
    """Weights of the delay/energy terms plus the local CPU energy coefficient."""

    w_time: float  # cost per second
    w_energy: float  # cost per joule
    kappa: float  # J*s^2/cycle^3

    def __post_init__(self) -> None:
        try:  # as in VehicleParams
            if (0.0 <= self.w_time <= _FLOAT_MAX and 0.0 <= self.w_energy <= _FLOAT_MAX
                    and (self.w_time != 0.0 or self.w_energy != 0.0)
                    and 0.0 < self.kappa <= _FLOAT_MAX):
                return
        except (TypeError, ValueError):
            pass
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
        if type(self.vehicles) is not tuple:
            object.__setattr__(self, "vehicles", tuple(self.vehicles))
        n = len(self.vehicles)
        if not 1 <= n <= MAX_VEHICLES:
            raise InvalidParameterError(f"need 1..{MAX_VEHICLES} vehicles, got {n}")
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:  # as a file holds it
            raise InvalidParameterError(f"seed must be an int in [0, 2**64), got {self.seed!r}")

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
        decisions, alloc = tuple(self.decisions), tuple(map(float, self.alloc))
        if len(decisions) != len(alloc):
            raise InvalidAllocationError("decisions and alloc lengths differ")
        total = 0.0  # the shares add left to right, as the label reader adds them
        for d, a in zip(decisions, alloc):
            if d == 1:
                if not a > 0.0:  # refuses nan too
                    raise InvalidAllocationError(f"an offloading vehicle needs a share > 0, "
                                                 f"got {a!r}")
            elif d == 0:
                if a != 0.0:
                    raise InvalidAllocationError(f"a local vehicle's share must be exactly 0, "
                                                 f"got {a!r}")
            else:
                raise InvalidAllocationError(f"decisions must be 0/1, got {d!r}")
            total += a
        if total > 1.0 + ALLOC_SUM_TOL:
            raise InvalidAllocationError(f"allocations sum to {total!r} > 1")
        object.__setattr__(self, "decisions", tuple(map(int, decisions)))
        object.__setattr__(self, "alloc", alloc)
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
        count=PER_VEHICLE_FEATURES * n * len(instances),
    ).reshape(len(instances), PER_VEHICLE_FEATURES * n)
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

# the order generation draws the vehicle fields in (that of the config keys)
_VEHICLE_RANGE_FIELDS = [
    "data_size_bits", "cpu_cycles", "local_freq", "tx_power", "bandwidth", "gain",
]
# range field of each VehicleParams field, in the dataclass's order
_VEHICLE_PARAM_SOURCES = [
    "data_size_bits", "cpu_cycles", "local_freq", "tx_power", "gain", "bandwidth",
]
# the order generation draws the globals in (that of the constructor arguments)
_GLOBAL_DRAW_ORDER = ["edge_freq", "noise_power", "w_time", "w_energy", "kappa"]

# Default offloading-problem ranges, the defaults of the offload config
# family.  Per-vehicle parameters are drawn uniformly from [min, max]; a
# pinned value has min == max.  The CPU frequencies and 10 W transmit power
# follow the case-study setting; the remaining constants are calibration
# defaults, not reported values.
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
    """Refuse a config that lacks a key of ``DEFAULT_RANGES``, holds a range
    that is not finite, has min <= 0 or min > max, or lets gain exceed 1."""
    if not ranges:
        raise ConfigError("empty parameter-range config")
    for name in DEFAULT_RANGES:
        if name not in ranges:
            raise ConfigError(f"missing range for {name!r}")
        lo, hi = ranges[name]
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 or lo > hi:
            raise ConfigError(f"bad range for {name!r}: ({lo!r}, {hi!r})")
    lo, hi = ranges["gain"]
    if hi > 1.0:
        raise ConfigError(f"gain range must stay <= 1, got max {hi!r}")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as 64-bit halves, the low half also as
# 32-bit limbs for the emulated 64x64 -> 128-bit product
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_PCG_MULT_LO0, _PCG_MULT_LO1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32


def _hash_consts(init: int, mult: int):
    """SeedSequence's hash-constant stream: (xor constant, multiplier) pairs."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hash(value, consts):
    """SeedSequence's ``hashmix`` of a uint32 word (int or uint64 column)."""
    xor_const, mult = next(consts)
    value = (value ^ xor_const) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's ``mix`` of a pool word with a hashed word."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's step ``state * mult + inc`` mod 2**128 on uint64 half-columns."""
    lo0, lo1 = lo & _MASK32, lo >> 32
    p01, p10 = lo0 * _PCG_MULT_LO1, lo1 * _PCG_MULT_LO0
    carry = ((lo0 * _PCG_MULT_LO0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = (hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + lo1 * _PCG_MULT_LO1
          + (p01 >> 32) + (p10 >> 32) + (carry >> 32) + inc_hi)
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _child_streams(seed: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed words and first ``k`` uniforms of children ``0..n-1`` of ``SeedSequence(seed)``.

    Row ``i`` equals ``SeedSequence(seed).spawn(n)[i]``'s
    ``generate_state(1, np.uint64)[0]`` and ``default_rng(child).random(k)``
    bit for bit. The children share all entropy but their spawn index, so
    the shared words are mixed once as ints and everything after runs on
    ``(n,)`` uint64 columns.
    """
    entropy = [seed & _MASK32]  # little-endian 32-bit words, as numpy coerces an int
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    entropy += [0] * (_POOL_SIZE - len(entropy))  # numpy pads run entropy when spawning
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hash(word, consts) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for word in [*entropy[_POOL_SIZE:], np.arange(n, dtype=np.uint64)]:  # spawn key last
        pool = [_mix(p, _hash(word, consts)) for p in pool]

    # generate_state(4, np.uint64): eight uint32 words, paired little-endian
    consts = _hash_consts(_INIT_B, _MULT_B)
    half = [_hash(pool[j % _POOL_SIZE], consts) for j in range(8)]
    words = [half[j] | (half[j + 1] << 32) for j in (0, 2, 4, 6)]

    # PCG64 seeding (pcg_setseq_128_srandom_r): inc = 2*words[2:4] + 1;
    # state = inc + words[0:2], stepped once
    inc_hi = (words[2] << 1) | (words[3] >> 63)
    inc_lo = (words[3] << 1) | 1
    lo = inc_lo + words[1]
    hi, lo = _lcg_step(inc_hi + words[0] + (lo < inc_lo), lo, inc_hi, inc_lo)
    u = np.empty((k, n))
    for row in u:
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        out = hi ^ lo  # XSL-RR output, then random()'s 53-bit double
        rot = hi >> 58
        out = (out >> rot) | (out << ((64 - rot) & 63))
        np.multiply(out >> 11, 2.0**-53, out=row)
    return words[0], u.T


def generate_instances(
    n_vehicles: int,
    n_instances: int,
    ranges: dict[str, tuple[float, float]] | None = None,
    seed: int = 0,
) -> list[OffloadInstance]:
    """Draw i.i.d. uniform instances, deterministically in ``seed``.

    Instance ``i`` draws from child ``i`` of ``numpy.random.SeedSequence(seed)``
    through PCG64 (``default_rng(child).random``); its ``seed`` field is the
    child's first ``generate_state(1, np.uint64)`` word. The streams of all
    children are computed column-wise, bit-exact to numpy's.
    """
    ranges = dict(DEFAULT_RANGES if ranges is None else ranges)
    validate_ranges(ranges)
    if not 1 <= n_vehicles <= MAX_VEHICLES:
        raise InvalidParameterError(f"n_vehicles must be 1..{MAX_VEHICLES}")
    if not 0 <= n_instances < 2**32:
        raise InvalidParameterError(f"n_instances must be in [0, 2**32), got {n_instances!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")

    # A child stream holds one uniform per vehicle and vehicle field, in
    # _VEHICLE_RANGE_FIELDS order (pinned fields draw too, to keep it aligned), then
    # one per global that is not pinned, in _GLOBAL_DRAW_ORDER.
    n = n_vehicles
    drawn = [name for name in _GLOBAL_DRAW_ORDER if ranges[name][0] != ranges[name][1]]
    n_vehicle_draws = len(_VEHICLE_RANGE_FIELDS) * n
    k = n_vehicle_draws + len(drawn)
    seeds, u = _child_streams(int(seed), n_instances, k)

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

    def shared(cls, names):
        """Each instance's ``cls`` of the globals ``names``, one frozen object per
        distinct tuple; drawn values are > 0, so no key confuses 0.0 with -0.0."""
        keys = list(zip(*(globals_[name] for name in names)))
        made = {key: cls(*key) for key in dict.fromkeys(keys)}
        return map(made.__getitem__, keys)

    return [
        OffloadInstance(
            vehicles=tuple(itertools.islice(vehicles, n)), edge=edge, weights=weights, seed=inst_seed
        )
        for edge, weights, inst_seed in zip(
            shared(EdgeParams, _GLOBAL_DRAW_ORDER[:2]),
            shared(CostWeights, _GLOBAL_DRAW_ORDER[2:]),
            seeds.tolist(),
        )
    ]


# ---------------------------------------------------------------------------
# data files: a versioned header line, then one record per line
# ---------------------------------------------------------------------------

def write_records(path, header: str, records: Iterable[str]) -> None:
    """Write ``header``, then each record on its own line, one at a time, to a
    new file beside ``path`` that replaces it only once the last record is
    written, so a write that raises leaves ``path`` as it was."""
    part = f"{os.fspath(path)}.{os.urandom(6).hex()}.part"
    fh = open(part, "x", encoding="utf-8")  # made with the mode open(path, "w") gives
    try:
        with fh:
            fh.write(header + "\n")
            fh.writelines(map("{}\n".format, records))  # no loop variable holds a record
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


def read_records(path, header: str, parse: Callable[[str], object]) -> list:
    """``parse`` of every non-blank line after the header line ``header``.

    A record ``parse`` cannot read (``ValueError``, ``KeyError``, ``TypeError``,
    ``OverflowError``, or ``RecursionError`` from JSON nested too deep) is a
    ``FileFormatError``; a ``ValidationError`` or ``FileFormatError`` from
    ``parse`` keeps its class.  Either message starts with ``path:line:``.
    Bytes that are not UTF-8 read as U+FFFD and are refused like any other.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        found = fh.readline().rstrip("\n")
        if found != header:
            raise FileFormatError(f"{path}: expected header {header!r}, got {found!r}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse(line))
            except (ValidationError, FileFormatError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                raise FileFormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return records


def _float_strings(values: np.ndarray) -> str | list[str]:
    """``float.__repr__`` of each value of a 1-D float64 column, or one string
    for a column whose values share one bit pattern (0.0 and -0.0 do not)."""
    bits = values.view(np.int64)
    if (bits == bits[0]).all():
        return float.__repr__(float(values[0]))
    return list(map(float.__repr__, values.tolist()))


def _fill_rows(template: str, fields: list[str | list[str]], n: int) -> Iterator[str]:
    """``template % row`` for the ``n`` rows of ``fields``, one per ``%s`` of
    ``template``: a string (a formatted number, so it holds no ``%``) is every
    row's value, a list holds one per row."""
    columns = [f for f in fields if not isinstance(f, str)]
    template %= tuple(f if isinstance(f, str) else "%s" for f in fields)
    if not columns:
        return itertools.repeat(template, n)
    return map(template.__mod__, zip(*columns))


# the record's keys at each level, in the order the encoder sorts them
_EDGE_KEYS, _VEHICLE_KEYS, _WEIGHT_KEYS = (
    sorted(field.name for field in dataclasses.fields(cls))
    for cls in (EdgeParams, VehicleParams, CostWeights)
)
# a record's values in that order: edge, seed, vehicles, weights
_record_head = operator.attrgetter(*(f"edge.{key}" for key in _EDGE_KEYS), "seed")
_record_vehicle = operator.attrgetter(*_VEHICLE_KEYS)
_record_tail = operator.attrgetter(*(f"weights.{key}" for key in _WEIGHT_KEYS))
_vehicles_of = operator.attrgetter("vehicles")


def _record_template(n_vehicles: int) -> str:
    """An N-vehicle instance record with ``%s`` in place of every value."""
    payload = {
        "seed": "%s",
        "vehicles": [dict.fromkeys(_VEHICLE_KEYS, "%s")] * n_vehicles,
        "edge": dict.fromkeys(_EDGE_KEYS, "%s"),
        "weights": dict.fromkeys(_WEIGHT_KEYS, "%s"),
    }
    return _RECORD_ENCODER.encode(payload).replace('"%s"', "%s")


def _encode_column(column: Sequence) -> str | list[str]:
    """One record field's values as ``_RECORD_ENCODER`` writes them."""
    kinds = {*map(type, column)}
    if kinds == {float}:
        values = np.fromiter(column, np.float64, len(column))
        if np.isfinite(values).all():  # the encoder writes these with float.__repr__
            return _float_strings(values)
    elif kinds == {int}:
        return list(map(int.__repr__, column))
    elif bool in kinds:  # the encoder would write true or false, which no reader takes
        raise ValidationError("instance parameters must be numbers, not True or False")
    return list(map(_RECORD_ENCODER.encode, column))


def _chunk_records(chunk: list[OffloadInstance]) -> Iterator[str]:
    """The records of instances with one N, formatted a field at a time."""
    n = len(chunk[0].vehicles)
    vehicle_values = list(itertools.chain.from_iterable(
        map(_record_vehicle, itertools.chain.from_iterable(map(_vehicles_of, chunk)))
    ))
    width = len(_VEHICLE_KEYS) * n
    columns = [
        *zip(*map(_record_head, chunk)),
        *(vehicle_values[j::width] for j in range(width)),
        *zip(*map(_record_tail, chunk)),
    ]
    return _fill_rows(_record_template(n), list(map(_encode_column, columns)), len(chunk))


def _records(instances: Iterable[OffloadInstance]) -> Iterator[str]:
    """The record of each instance, over chunks of at most ``CHUNK_ROWS``
    consecutive instances with one N."""
    for _, run in itertools.groupby(instances, key=lambda inst: len(inst.vehicles)):
        while chunk := list(itertools.islice(run, CHUNK_ROWS)):
            yield from _chunk_records(chunk)


def instance_to_record(inst: OffloadInstance) -> str:
    return next(_records([inst]))


def _refuse_bools(payload) -> None:
    """Raise if a parsed JSON record is or holds a true or false anywhere."""
    values = [payload]
    while values:
        value = values.pop()
        if isinstance(value, bool):
            raise FileFormatError("instance records hold numbers, not true or false")
        if isinstance(value, dict):
            values.extend(value.values())
        elif isinstance(value, list):
            values.extend(value)


def instance_from_record(line: str) -> OffloadInstance:
    payload = json.loads(line)
    seed = payload["seed"]
    if type(seed) is not int:  # 1.5, "7" and true are not seeds
        raise FileFormatError(f"the seed must be a JSON integer, got {seed!r}")
    if not 0 <= seed < 1 << 64:  # every written seed is a uint64 word
        raise FileFormatError(f"the seed must be in [0, 2**64), got {seed!r}")
    try:
        inst = OffloadInstance(
            vehicles=tuple(VehicleParams(**v) for v in payload["vehicles"]),
            edge=EdgeParams(**payload["edge"]),
            weights=CostWeights(**payload["weights"]),
            seed=seed,
        )
    except ValidationError:
        _refuse_bools(payload)  # a false fails every positive-value check as 0
        raise
    # The range checks read a true as 1 and a false as 0, which only the
    # weights may be, so only a line that spells true or a record with a
    # zero weight is searched for a bool: one text search per line, where
    # "true" and "false" would be two.
    w = inst.weights
    if "true" in line or 0 in (w.w_time, w.w_energy):
        _refuse_bools(payload)
    return inst


def write_instances(path, instances: Iterable[OffloadInstance]) -> None:
    write_records(path, INSTANCE_FILE_HEADER, _records(instances))


def read_instances(path) -> list[OffloadInstance]:
    return read_records(path, INSTANCE_FILE_HEADER, instance_from_record)
