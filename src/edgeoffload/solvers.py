"""Exact solvers for the offloading MINLP.

For a fixed 0/1 decision vector the continuous subproblem (splitting the
edge CPU over the offloading set O) has the closed form

    alloc_i = sqrt(C_i) / sum_{j in O} sqrt(C_j)

which makes the cost of a decision mask cheap to evaluate; the exhaustive
solver enumerates all 2^N masks through the batched kernel, the grid solver
reproduces simplex-grid traversal, and the branch-and-bound solver searches
partial binary fixings with an admissible per-vehicle bound.
"""
from __future__ import annotations

import heapq
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    FileFormatError,
    InvalidAllocationError,
    SizeLimitError,
    ValidationError,
)
from .model import (
    OffloadInstance,
    OffloadSolution,
    batch_features,
    local_cost,
    total_cost,
    uplink_rate,
)

LABELS_FILE_HEADER = "offload-labels v1"

BRANCHING_RULES = ("most-fractional-first", "lowest-index")


@dataclass(frozen=True)
class SbbConfig:
    """Budget and search-order knobs of the branch-and-bound solver."""

    max_nodes: int = 1 << 20
    gap_tolerance: float = 0.0
    branching_rule: str = "most-fractional-first"

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ConfigError("max_nodes must be >= 1")
        if self.gap_tolerance < 0.0:
            raise ConfigError("gap_tolerance must be >= 0")
        if self.branching_rule not in BRANCHING_RULES:
            raise ConfigError(f"unknown branching rule {self.branching_rule!r}")


@dataclass(frozen=True)
class SolveReport:
    solution: OffloadSolution
    nodes_explored: int
    proven_optimal: bool
    wall_time: float


# ---------------------------------------------------------------------------
# closed-form allocation and mask arithmetic
# ---------------------------------------------------------------------------

def mask_to_decisions(mask: int, n: int) -> tuple[int, ...]:
    """Bit-vector of a mask; vehicle 0 is the most significant bit, so the
    integer order of masks equals lexicographic order of decision vectors."""
    return tuple((mask >> (n - 1 - i)) & 1 for i in range(n))


def decisions_to_mask(decisions) -> int:
    mask = 0
    for d in decisions:
        mask = (mask << 1) | (1 if d else 0)
    return mask


def optimal_allocation(inst: OffloadInstance, decisions) -> np.ndarray:
    """Minimizing edge-CPU split for a fixed decision vector.

    Proportional to sqrt(C_i) over the offloading set; the full budget is
    always spent because each offloader's cost is decreasing in its share.
    """
    decisions = [1 if d else 0 for d in decisions]
    if len(decisions) != inst.n_vehicles:
        raise ValidationError("decision vector length must equal n_vehicles")
    alloc = np.zeros(inst.n_vehicles)
    offs = [i for i, d in enumerate(decisions) if d]
    if not offs:
        return alloc
    roots = np.sqrt([inst.vehicles[i].cpu_cycles for i in offs])
    alloc[offs] = roots / roots.sum()
    return alloc


def _instance_arrays(inst: OffloadInstance):
    """Per-vehicle terms feeding the mask-cost closed form."""
    w = inst.weights
    local = np.array([local_cost(v, w) for v in inst.vehicles])
    tx_delay = np.array([v.data_size / uplink_rate(v, inst.edge) for v in inst.vehicles])
    powers = np.array([v.tx_power for v in inst.vehicles])
    off_base = w.w_time * tx_delay + w.w_energy * powers * tx_delay
    sqrt_c = np.sqrt([v.cpu_cycles for v in inst.vehicles])
    wt_over_f = w.w_time / inst.edge.edge_freq
    return local, off_base, sqrt_c, wt_over_f


def _report_for_mask(inst: OffloadInstance, mask: int, nodes: int, proven: bool, t0: float) -> SolveReport:
    decisions = mask_to_decisions(mask, inst.n_vehicles)
    alloc = optimal_allocation(inst, decisions)
    cost = total_cost(inst, decisions, alloc)
    sol = OffloadSolution(decisions=decisions, alloc=tuple(alloc), cost=cost)
    return SolveReport(
        solution=sol,
        nodes_explored=nodes,
        proven_optimal=proven,
        wall_time=time.perf_counter() - t0,
    )


def _feature_columns(features: np.ndarray):
    """Views of ``batch_features`` rows: the six (n_inst, N) vehicle fields in
    ``VehicleParams`` order, then edge_freq, noise_power, w_time and w_energy
    as (n_inst, 1) columns."""
    n = (features.shape[1] - 4) // 6
    vehicles = features[:, : 6 * n].reshape(len(features), n, 6)
    return [vehicles[:, :, j] for j in range(6)] + [features[:, 6 * n + j, None] for j in range(4)]


def _batch_arrays(instances: list[OffloadInstance], features: np.ndarray):
    """``_instance_arrays`` of every instance as (n_inst, N) columns, plus the
    uplink delay, from the instances' ``batch_features`` rows.

    Each value is computed with the same operations in the same order as the
    scalar cost functions, so every row equals ``_instance_arrays`` exactly;
    ``**`` and ``math.log2`` run per element because numpy's vectorized
    power and log2 can differ from them in the last bit.
    """
    data, cycles, freq, power, gain, bandwidth, edge_freq, noise, w_time, w_energy = (
        _feature_columns(features)
    )
    kappa = np.array([inst.weights.kappa for inst in instances])[:, None]
    freq_sq = np.array([f**2 for f in freq.ravel().tolist()]).reshape(freq.shape)
    local = w_time * (cycles / freq) + w_energy * (kappa * freq_sq * cycles)
    snr = (power * gain / noise).ravel().tolist()
    rate = bandwidth * np.array([math.log2(1.0 + x) for x in snr]).reshape(freq.shape)
    tx_delay = data / rate
    off_base = w_time * tx_delay + w_energy * power * tx_delay
    return local, off_base, np.sqrt(cycles), (w_time / edge_freq)[:, 0], tx_delay


def _exhaustive_columns(instances: list[OffloadInstance], features: np.ndarray):
    """Exhaustive optimum of every instance: (mask, alloc, cost) columns.

    Allocation and cost repeat ``optimal_allocation`` and ``total_cost``
    operation for operation: the allocation denominator is numpy's 1-D sum of
    the offloaders' roots in vehicle order (pairwise from 8 terms on, so it is
    taken as a row sum over rows with the same offloader count), and the cost
    adds the vehicles left to right.
    """
    local, off_base, sqrt_c, wt_over_f, tx_delay = _batch_arrays(instances, features)
    n_inst, n = local.shape
    mask, _ = kernels.exhaustive_argmin(local, off_base, sqrt_c, wt_over_f)
    offload = ((mask[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)
    counts = offload.sum(axis=1)
    roots = sqrt_c[offload]  # the offloaders' roots, row by row, in vehicle order
    starts = np.cumsum(counts) - counts
    denom = np.ones(n_inst)
    for k in range(1, n + 1):
        rows = np.flatnonzero(counts == k)
        if rows.size:
            denom[rows] = roots[starts[rows, None] + np.arange(k)].sum(axis=1)
    alloc = np.where(offload, sqrt_c / denom[:, None], 0.0)

    _, cycles, _, power, _, _, edge_freq, _, w_time, w_energy = _feature_columns(features)
    edge_delay = cycles / (np.where(offload, alloc, 1.0) * edge_freq)
    per_vehicle = np.where(
        offload, w_time * (tx_delay + edge_delay) + w_energy * (power * tx_delay), local
    )
    cost = per_vehicle[:, 0].copy()
    for i in range(1, n):
        cost += per_vehicle[:, i]
    if not np.all(np.isfinite(cost)):
        raise InvalidAllocationError("non-finite optimal cost")
    return mask, alloc, cost


# ---------------------------------------------------------------------------
# exhaustive enumeration (the labeling oracle)
# ---------------------------------------------------------------------------

def solve_exhaustive(inst: OffloadInstance) -> SolveReport:
    """Enumerate all 2^N decisions with the closed-form allocation."""
    return batch_solve_exhaustive([inst])[0]


def batch_solve_exhaustive(instances: list[OffloadInstance]) -> list[SolveReport]:
    """Vectorized exhaustive solve of a homogeneous batch (same N).

    Each report's ``wall_time`` is the batch's time per instance.
    """
    if not instances:
        return []
    t0 = time.perf_counter()
    n = instances[0].n_vehicles
    mask, alloc, cost = _exhaustive_columns(instances, batch_features(instances))
    wall_time = (time.perf_counter() - t0) / len(instances)
    return [
        SolveReport(
            solution=OffloadSolution(decisions=mask_to_decisions(m, n), alloc=a, cost=c),
            nodes_explored=1 << n,
            proven_optimal=True,
            wall_time=wall_time,
        )
        for m, a, c in zip(mask.tolist(), alloc.tolist(), cost.tolist())
    ]


# ---------------------------------------------------------------------------
# simplex-grid traversal
# ---------------------------------------------------------------------------

GRID_COMBINATION_CAP = 10**8


def _compositions(total: int, parts: int):
    """All tuples of nonnegative ints of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def solve_grid(inst: OffloadInstance, grid_step: float) -> SolveReport:
    """Traverse decisions x allocation vectors on the simplex grid."""
    t0 = time.perf_counter()
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError(f"grid_step must be in (0, 0.5], got {grid_step!r}")
    n = inst.n_vehicles
    steps = round(1.0 / grid_step)
    if steps**n > GRID_COMBINATION_CAP:
        raise SizeLimitError(
            f"(1/grid_step)^N = {steps}^{n} exceeds the {GRID_COMBINATION_CAP:.0e} cap"
        )
    local, off_base, sqrt_c, wt_over_f = _instance_arrays(inst)
    cycles = sqrt_c**2
    best_cost = math.inf
    best_mask = 0
    best_alloc: tuple[float, ...] = (0.0,) * n
    evaluated = 0
    for mask in range(1 << n):
        offs = [i for i in range(n) if (mask >> (n - 1 - i)) & 1]
        base = sum(off_base[i] if i in offs else local[i] for i in range(n))
        if not offs:
            evaluated += 1
            if base < best_cost:
                best_cost, best_mask, best_alloc = base, mask, (0.0,) * n
            continue
        for combo in _compositions(steps, len(offs)):
            evaluated += 1
            if 0 in combo:
                continue  # an offloader with zero share has infinite cost
            edge = sum(
                wt_over_f * cycles[i] * steps / k for i, k in zip(offs, combo)
            )
            cost = base + edge
            if cost < best_cost:
                alloc = [0.0] * n
                for i, k in zip(offs, combo):
                    alloc[i] = k / steps
                best_cost, best_mask, best_alloc = cost, mask, tuple(alloc)
    decisions = mask_to_decisions(best_mask, n)
    cost = total_cost(inst, decisions, best_alloc)
    sol = OffloadSolution(decisions=decisions, alloc=best_alloc, cost=cost)
    return SolveReport(
        solution=sol,
        nodes_explored=evaluated,
        proven_optimal=False,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# branch and bound over binary fixings
# ---------------------------------------------------------------------------

def solve_sbb(inst: OffloadInstance, cfg: SbbConfig | None = None) -> SolveReport:
    """Best-first branch and bound over partial offload/local fixings.

    Node lower bound: committed vehicles pay their exact side cost with the
    optimistic full-budget share; each free vehicle pays its best unilateral
    outcome min(local, offload at alpha=1). Admissible because real shares
    never exceed 1 and offload cost is decreasing in the share.  Incumbents
    come from greedy completion (free vehicles pick the cheaper of local vs.
    an equal 1/N share) re-costed with the closed-form allocation.
    """
    cfg = cfg or SbbConfig()
    t0 = time.perf_counter()
    n = inst.n_vehicles
    local, off_base, sqrt_c, wt_over_f = _instance_arrays(inst)
    cycles = sqrt_c**2
    off_full = off_base + wt_over_f * cycles  # offload cost at alpha = 1
    off_share = off_base + wt_over_f * cycles * n  # offload cost at alpha = 1/N
    per_best = np.minimum(local, off_full)
    ambiguity = np.abs(local - off_full)

    def greedy_mask(fixed_mask: int, dec_mask: int) -> int:
        mask = dec_mask
        for i in range(n):
            bit = 1 << (n - 1 - i)
            if not fixed_mask & bit and off_share[i] < local[i]:
                mask |= bit
        return mask

    mask_cost = kernels.mask_cost(local, off_base, sqrt_c, wt_over_f)
    inc_mask = greedy_mask(0, 0)
    inc_cost = mask_cost(inc_mask)

    def consider(mask: int) -> None:
        nonlocal inc_mask, inc_cost
        cost = mask_cost(mask)
        if cost < inc_cost or (cost == inc_cost and mask < inc_mask):
            inc_cost, inc_mask = cost, mask

    # heap entries: (lower bound, insertion order, fixed_mask, dec_mask)
    root_lb = float(per_best.sum())
    heap = [(root_lb, 0, 0, 0)]
    pushes = 1
    nodes = 0
    proven = False
    lowest_open = root_lb
    while heap:
        lb, _, fixed_mask, dec_mask = heapq.heappop(heap)
        lowest_open = lb
        if nodes >= cfg.max_nodes:
            break
        nodes += 1
        gap = (inc_cost - lb) / max(abs(inc_cost), 1e-300)
        if gap <= cfg.gap_tolerance:
            proven = True
            break
        if lb > inc_cost:
            continue
        free = [i for i in range(n) if not (fixed_mask >> (n - 1 - i)) & 1]
        if not free:
            consider(dec_mask)
            continue
        if cfg.branching_rule == "lowest-index":
            var = free[0]
        else:
            var = min(free, key=lambda i: (ambiguity[i], i))
        bit = 1 << (n - 1 - var)
        for take in (0, bit):
            child_fixed = fixed_mask | bit
            child_dec = dec_mask | take
            side = off_full[var] if take else local[var]
            child_lb = lb - per_best[var] + side
            consider(greedy_mask(child_fixed, child_dec))
            if child_lb <= inc_cost:
                pushes += 1
                heapq.heappush(heap, (child_lb, pushes, child_fixed, child_dec))
    else:
        proven = True  # heap exhausted: every open node was pruned or expanded
        lowest_open = inc_cost
    if not proven:
        gap = (inc_cost - lowest_open) / max(abs(inc_cost), 1e-300)
        proven = gap <= cfg.gap_tolerance
    if proven and cfg.gap_tolerance == 0.0:
        # a node bound equals the cost of a mask below it only if that mask
        # has at most one offloader, so pruning or stopping at a bound equal
        # to the optimum can hide only such ties; check them all so exact
        # ties go to the smallest mask
        for mask in (0, *(1 << i for i in range(n))):
            consider(mask)
    return _report_for_mask(inst, inc_mask, nodes=nodes, proven=proven, t0=t0)


# ---------------------------------------------------------------------------
# labeled datasets
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Oracle-labeled training data for the learned solver."""

    features: np.ndarray  # (n_samples, 6N+4) raw feature vectors
    decision: np.ndarray  # (n_samples,) mask index in 0..2^N-1
    alloc: np.ndarray  # (n_samples, N)
    cost: np.ndarray  # (n_samples,)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_vehicles(self) -> int:
        return self.alloc.shape[1]


_SOLVERS = {
    "exhaustive": lambda inst, kw: solve_exhaustive(inst),
    "grid": lambda inst, kw: solve_grid(inst, **kw),
    "sbb": lambda inst, kw: solve_sbb(inst, SbbConfig(**kw)) if kw else solve_sbb(inst),
}


def solve_batch(
    instances: list[OffloadInstance],
    solver: str = "exhaustive",
    solver_kwargs: dict | None = None,
) -> list[SolveReport]:
    """Solve a batch with one of the named solvers, preserving input order."""
    if solver not in _SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; choose from {sorted(_SOLVERS)}")
    if solver == "exhaustive":
        return batch_solve_exhaustive(instances)
    kw = dict(solver_kwargs or {})
    fn = _SOLVERS[solver]
    return [fn(inst, kw) for inst in instances]


def _report_columns(reports: list[SolveReport]):
    decision = np.array(
        [decisions_to_mask(r.solution.decisions) for r in reports], dtype=np.int64
    )
    alloc = np.array([r.solution.alloc for r in reports])
    cost = np.array([r.solution.cost for r in reports])
    return decision, alloc, cost


def _label_chunk(args):
    """(decision, alloc, cost) columns of one chunk of a labeling job."""
    instances, features, solver, kw = args
    if solver == "exhaustive":
        return _exhaustive_columns(instances, features)
    return _report_columns(solve_batch(instances, solver, kw))


def label_instances(
    instances: list[OffloadInstance],
    solver: str = "exhaustive",
    solver_kwargs: dict | None = None,
    workers: int = 1,
) -> LabeledDataset:
    """Solve every instance and assemble (features, label) rows in input order.

    The batch must be non-empty and share one N.
    """
    if solver not in _SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; choose from {sorted(_SOLVERS)}")
    if not instances:
        raise ValidationError("no instances to label")
    kw = dict(solver_kwargs or {})
    features = batch_features(instances)
    if workers > 1 and len(instances) > 1:
        chunks = np.array_split(np.arange(len(instances)), workers)
        jobs = [
            ([instances[i] for i in idx], features[idx], solver, kw) for idx in chunks if len(idx)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_label_chunk, jobs))
        decision, alloc, cost = (np.concatenate(col) for col in zip(*parts))
    else:
        decision, alloc, cost = _label_chunk((instances, features, solver, kw))
    return LabeledDataset(features=features, decision=decision, alloc=alloc, cost=cost)


def reports_to_dataset(
    instances: list[OffloadInstance], reports: list[SolveReport]
) -> LabeledDataset:
    decision, alloc, cost = _report_columns(reports)
    return LabeledDataset(
        features=batch_features(instances), decision=decision, alloc=alloc, cost=cost
    )


def write_labels(path, ds: LabeledDataset) -> None:
    rows = zip(
        ds.features.tolist(),
        np.asarray(ds.decision, dtype=np.int64).tolist(),
        ds.alloc.tolist(),
        ds.cost.tolist(),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LABELS_FILE_HEADER + "\n")
        for features, decision, alloc, cost in rows:
            fh.write(
                ",".join([*map(repr, features), str(decision), *map(repr, alloc), repr(cost)])
                + "\n"
            )


def read_labels(path) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != LABELS_FILE_HEADER:
            raise FileFormatError(f"{path}: expected header {LABELS_FILE_HEADER!r}, got {header!r}")
        feats, decs, allocs, costs = [], [], [], []
        n_vehicles = None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cols = line.split(",")
            # 6N+4 features + decision + N alloc entries + cost  =>  7N+6 columns
            if n_vehicles is None:
                if (len(cols) - 6) % 7:
                    raise FileFormatError(f"{path}:{lineno}: bad column count {len(cols)}")
                n_vehicles = (len(cols) - 6) // 7
            if len(cols) != 7 * n_vehicles + 6:
                raise FileFormatError(f"{path}:{lineno}: bad column count {len(cols)}")
            try:
                k = 6 * n_vehicles + 4
                feats.append([float(x) for x in cols[:k]])
                decs.append(int(cols[k]))
                allocs.append([float(x) for x in cols[k + 1 : k + 1 + n_vehicles]])
                costs.append(float(cols[-1]))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: malformed label record: {exc}") from exc
    if n_vehicles is None:
        raise FileFormatError(f"{path}: no label records")
    return LabeledDataset(
        features=np.array(feats),
        decision=np.array(decs, dtype=np.int64),
        alloc=np.array(allocs),
        cost=np.array(costs),
    )
