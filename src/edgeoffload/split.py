"""Edge-vehicle joint inference over a segmented detection network.

A layer profile gives per-layer compute cycles and output byte sizes; the
vehicle runs the first k layers (the shallow part), optionally uploads the
intermediate feature map and lets the edge server finish.  Detection quality
is a three-parameter model and enters the per-frame cost as an expected
miss penalty; sweeping the bad-data ratio eta yields the local / edge /
joint comparison curves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidParameterError, ValidationError
from .model import CostWeights, EdgeParams, VehicleParams, uplink_rate

STRATEGIES = ("local", "edge", "joint")

BITS_PER_BYTE = 8


@dataclass(frozen=True)
class LayerProfile:
    """Input size plus ordered (compute_cycles, output_bytes) per layer."""

    input_size: float  # bytes
    layers: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple((float(c), float(s)) for c, s in self.layers))
        if not self.layers:
            raise InvalidParameterError("layer profile must be nonempty")
        if self.input_size <= 0 or not math.isfinite(self.input_size):
            raise InvalidParameterError("input_size must be positive and finite")
        for c, s in self.layers:
            if c <= 0 or s <= 0 or not (math.isfinite(c) and math.isfinite(s)):
                raise InvalidParameterError("layer cycles and output sizes must be positive")

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class AccuracyModel:
    """Parametric detection quality; no real vision model is involved."""

    acc_snn_good: float
    acc_snn_bad: float
    acc_full: float
    miss_penalty: float  # cost units per expected misdetection

    def __post_init__(self) -> None:
        for name in ("acc_snn_good", "acc_snn_bad", "acc_full"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParameterError(f"{name} must be in [0, 1], got {v!r}")
        if not self.acc_snn_bad <= self.acc_snn_good <= self.acc_full:
            raise InvalidParameterError("need acc_snn_bad <= acc_snn_good <= acc_full")
        if self.miss_penalty < 0.0:
            raise InvalidParameterError("miss_penalty must be >= 0")


@dataclass(frozen=True)
class InferenceScenario:
    vehicle: VehicleParams
    edge: EdgeParams
    weights: CostWeights
    profile: LayerProfile
    acc: AccuracyModel
    split_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.split_index <= self.profile.n_layers:
            raise InvalidParameterError(
                f"split_index must be in 0..{self.profile.n_layers}, got {self.split_index}"
            )


@dataclass(frozen=True)
class EtaSweepRecord:
    eta: float
    cost_local: float
    cost_edge: float
    cost_joint: float


# ---------------------------------------------------------------------------
# per-frame path costs
# ---------------------------------------------------------------------------

def segment_cost(sc: InferenceScenario, k: int) -> float:
    """Cost of running layers 1..k locally, uploading what crosses the split
    (the raw input at k=0, layer k's output for 0 < k < L, nothing at k=L)
    and finishing on edge."""
    L = sc.profile.n_layers
    if not 0 <= k <= L:
        raise InvalidParameterError(f"split index {k} out of range 0..{L}")
    w = sc.weights
    v = sc.vehicle
    local_cycles = sum(c for c, _ in sc.profile.layers[:k])
    edge_cycles = sum(c for c, _ in sc.profile.layers[k:])
    tx_delay = 0.0
    if k < L:
        upload_bytes = sc.profile.layers[k - 1][1] if k else sc.profile.input_size
        tx_delay = BITS_PER_BYTE * upload_bytes / uplink_rate(v, sc.edge)
    delay = local_cycles / v.local_freq + tx_delay + edge_cycles / sc.edge.edge_freq
    energy = w.kappa * v.local_freq**2 * local_cycles + v.tx_power * tx_delay
    return w.w_time * delay + w.w_energy * energy


def _snn_only_cost(sc: InferenceScenario, k: int) -> float:
    """Local execution of the first k layers with no upload or edge share."""
    w = sc.weights
    v = sc.vehicle
    cycles = sum(c for c, _ in sc.profile.layers[:k])
    return w.w_time * cycles / v.local_freq + w.w_energy * w.kappa * v.local_freq**2 * cycles


def best_split(sc: InferenceScenario) -> tuple[int, float]:
    """Split point minimizing the full offload-path cost; ties take the
    smallest k.  k=L uploads nothing (pure local execution)."""
    cost, k = min((segment_cost(sc, k), k) for k in range(sc.profile.n_layers + 1))
    return k, cost


def strategy_cost(sc: InferenceScenario, strategy: str, eta: float) -> float:
    """Expected per-frame cost of one inference strategy at bad-data ratio eta.

    local: the vehicle runs the entire network; good frames reach full
    accuracy, bad frames degrade the on-vehicle pipeline to the shallow-bad
    level.  edge: raw upload, full accuracy regardless of frame quality.
    joint: good frames exit locally at the shallow stack, bad frames offload
    the intermediate feature map (quality gating is assumed perfect).
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameterError(f"eta must be in [0, 1], got {eta!r}")
    acc = sc.acc
    mp = acc.miss_penalty
    if strategy == "local":
        compute = segment_cost(sc, sc.profile.n_layers)
        penalty = eta * (1.0 - acc.acc_snn_bad) + (1.0 - eta) * (1.0 - acc.acc_full)
        return compute + mp * penalty
    if strategy == "edge":
        return segment_cost(sc, 0) + mp * (1.0 - acc.acc_full)
    if strategy == "joint":
        k = sc.split_index
        good = _snn_only_cost(sc, k) + mp * (1.0 - acc.acc_snn_good)
        bad = segment_cost(sc, k) + mp * (1.0 - acc.acc_full)
        return (1.0 - eta) * good + eta * bad
    raise ConfigError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def eta_sweep(sc: InferenceScenario, etas) -> list[EtaSweepRecord]:
    """Closed-form expected costs of the three strategies over an eta grid."""
    etas = list(etas)
    if any(b < a for a, b in zip(etas, etas[1:])):
        raise ValidationError("etas must be sorted ascending")
    return [
        EtaSweepRecord(
            eta=e,
            cost_local=strategy_cost(sc, "local", e),
            cost_edge=strategy_cost(sc, "edge", e),
            cost_joint=strategy_cost(sc, "joint", e),
        )
        for e in etas
    ]


def eta_steps(eta_step: float) -> int:
    """The number of equal steps ``eta_step`` divides [0, 1] into; a step
    outside (0, 1] or that does not divide 1 is a ``ConfigError``."""
    if not 0.0 < eta_step <= 1.0 or abs(round(1.0 / eta_step) * eta_step - 1.0) > 1e-9:
        raise ConfigError("eta_step must be in (0, 1] and divide 1 into equal steps, "
                          f"got {eta_step!r}")
    return round(1.0 / eta_step)


def eta_sweep_csv(sc: InferenceScenario, eta_step: float) -> str:
    """The fig6 CSV: the three strategy costs on the grid i / n, i = 0..n,
    of the n = ``eta_steps(eta_step)`` steps."""
    n_steps = eta_steps(eta_step)
    records = eta_sweep(sc, [i / n_steps for i in range(n_steps + 1)])
    return "eta,cost_local,cost_edge,cost_joint\n" + "".join(
        f"{r.eta!r},{r.cost_local!r},{r.cost_edge!r},{r.cost_joint!r}\n" for r in records
    )


def local_joint_crossover(sc: InferenceScenario) -> float | None:
    """Eta where the local and joint cost lines intersect, if inside [0, 1]."""

    def diff(eta: float) -> float:
        return strategy_cost(sc, "local", eta) - strategy_cost(sc, "joint", eta)

    d0, d1 = diff(0.0), diff(1.0)
    if d0 == d1:
        return None
    eta = -d0 / (d1 - d0)  # both curves are affine in eta
    return eta if 0.0 <= eta <= 1.0 else None
