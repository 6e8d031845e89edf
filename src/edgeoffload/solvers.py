"""Exact solvers for the offloading MINLP.

For a fixed 0/1 decision vector the continuous subproblem (splitting the
edge CPU over the offloading set O) has the closed form

    alloc_i = sqrt(C_i) / sum_{j in O} sqrt(C_j)

which makes the cost of a decision mask cheap to evaluate; the exhaustive
solver enumerates all 2^N masks through the batched kernel, and the
branch-and-bound solver searches partial binary fixings with an admissible
per-vehicle bound under a node budget.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    FileFormatError,
    InvalidAllocationError,
    ValidationError,
)
from .model import (
    ALLOC_SUM_TOL,
    CHUNK_ROWS,
    MAX_VEHICLES,
    N_GLOBAL_FEATURES,
    PER_VEHICLE_FEATURES,
    OffloadInstance,
    OffloadSolution,
    _fill_rows,
    _float_strings,
    batch_features,
    feature_count,
    local_cost,
    read_records,
    uplink_rate,
    write_records,
)

LABELS_FILE_HEADER = "offload-labels v1"

SOLVERS = ("exhaustive", "sbb")


@dataclass(frozen=True)
class SbbConfig:
    """Node budget of the branch-and-bound solver."""

    max_nodes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ConfigError("max_nodes must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    solution: OffloadSolution
    nodes_explored: int
    proven_optimal: bool


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


def _instance_terms(inst: OffloadInstance):
    """Per-vehicle terms of the mask-cost closed form, as Python floats:
    ``(local, off_base, roots, wt_over_f, tx_delay)``.

    ``local`` is ``local_cost``, ``tx_delay`` is the data size over
    ``uplink_rate``, ``off_base = w_t*tx + w_e*p*tx`` and ``roots`` holds
    sqrt(C_i); ``_batch_arrays`` computes the same values as columns.
    """
    w, e = inst.weights, inst.edge
    w_time, w_energy = w.w_time, w.w_energy
    local = [local_cost(v, w) for v in inst.vehicles]
    tx_delay = [v.data_size / uplink_rate(v, e) for v in inst.vehicles]
    off_base = [w_time * tx + w_energy * v.tx_power * tx
                for v, tx in zip(inst.vehicles, tx_delay)]
    roots = [math.sqrt(v.cpu_cycles) for v in inst.vehicles]
    return local, off_base, roots, w_time / e.edge_freq, tx_delay


def _report_for_mask(inst: OffloadInstance, terms, mask: int, nodes: int,
                     proven: bool) -> SolveReport:
    """The solution of a mask, priced from ``_instance_terms`` bit for bit as
    ``optimal_allocation`` and ``total_cost`` price it: the share denominator
    is numpy's sum of the offloaders' roots, and the cost adds the vehicles
    left to right, an offloader by ``offload_cost``'s operations."""
    local, _, roots, _, tx_delay = terms
    decisions = mask_to_decisions(mask, inst.n_vehicles)
    offloaders = [r for r, d in zip(roots, decisions) if d]
    # numpy's reduction, pairwise from 8 terms on, as optimal_allocation's sum
    denom = float(np.add.reduce(offloaders)) if offloaders else 1.0
    w_time, w_energy = inst.weights.w_time, inst.weights.w_energy
    edge_freq = inst.edge.edge_freq
    alloc = []
    cost = 0.0
    for v, d, loc, r, tx in zip(inst.vehicles, decisions, local, roots, tx_delay):
        if d:
            a = r / denom
            cost += w_time * (tx + v.cpu_cycles / (a * edge_freq)) + w_energy * (v.tx_power * tx)
        else:
            a = 0.0
            cost += loc
        alloc.append(a)
    sol = OffloadSolution(decisions=decisions, alloc=tuple(alloc), cost=cost)
    return SolveReport(solution=sol, nodes_explored=nodes, proven_optimal=proven)


def _feature_columns(features: np.ndarray):
    """Views of ``batch_features`` rows: the six (n_inst, N) vehicle fields in
    ``VehicleParams`` order, then edge_freq, noise_power, w_time and w_energy
    as (n_inst, 1) columns."""
    k = features.shape[1] - N_GLOBAL_FEATURES
    n = k // PER_VEHICLE_FEATURES
    vehicles = features[:, :k].reshape(len(features), n, PER_VEHICLE_FEATURES)
    return [vehicles[:, :, j] for j in range(PER_VEHICLE_FEATURES)] + [
        features[:, k + j, None] for j in range(N_GLOBAL_FEATURES)]


def _batch_arrays(instances: list[OffloadInstance], features: np.ndarray):
    """``_instance_terms`` of every instance as (n_inst, N) columns, from the
    instances' ``batch_features`` rows.

    Each value is computed with the same operations in the same order as the
    scalar cost functions, so every row equals ``_instance_terms`` exactly;
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
# branch and bound over binary fixings
# ---------------------------------------------------------------------------

def solve_sbb(inst: OffloadInstance, cfg: SbbConfig | None = None) -> SolveReport:
    """Best-first branch and bound over partial offload/local fixings.

    Node lower bound: committed vehicles pay their exact side cost with the
    optimistic full-budget share; each free vehicle pays its best unilateral
    outcome min(local, offload at alpha=1). Admissible because real shares
    never exceed 1 and offload cost is decreasing in the share.  Incumbents
    come from greedy completion re-costed with the closed-form allocation:
    each free vehicle offloads when its cost at an equal 1/N share is below
    its local cost.  Those vehicles are the bits of ``share_bits``, so the
    completion of a node is ``dec | (share_bits & ~fixed)``.  It branches on
    the free vehicle whose local and full-share offload costs are closest
    (ties to the lower index); that order is fixed per instance, so a node at
    depth d has fixed exactly the first d vehicles of it.  The incumbent is
    proven optimal once the lowest open bound reaches its cost.

    Of a node's two children, the one that fixes the branching vehicle the
    way greedy completion would (``take == share_bits & bit``) has its
    parent's completion, which was priced when the parent was pushed (or as
    the root incumbent); pricing a mask again cannot change the incumbent,
    so only the other child is priced.  For the same reason a leaf, whose
    completion is its own mask, needs no pricing when it is popped.
    """
    cfg = cfg or SbbConfig()
    n = inst.n_vehicles
    terms = _instance_terms(inst)
    local, off_base, roots, wt_over_f, _ = terms
    off_full, per_best, ambiguity = [], [], []
    share_bits = 0
    for i, (loc, base, r) in enumerate(zip(local, off_base, roots)):
        cycles = r * r  # the kernel's (s*s) for a lone offloader
        full = base + wt_over_f * cycles  # offload cost at alpha = 1
        if base + wt_over_f * cycles * n < loc:  # offload cost at alpha = 1/N
            share_bits |= 1 << (n - 1 - i)
        off_full.append(full)
        per_best.append(min(loc, full))
        ambiguity.append(abs(loc - full))
    root_lb = float(np.add.reduce(per_best))  # numpy's sum: pairwise from 8 terms on
    order = sorted(range(n), key=lambda i: (ambiguity[i], i))  # branching order
    bits = [1 << (n - 1 - i) for i in order]
    fixed = [0]  # fixed[d]: the vehicles a node at depth d has fixed
    for bit in bits:
        fixed.append(fixed[-1] | bit)
    mask_cost = kernels.mask_cost(local, off_base, roots, wt_over_f)
    inc_mask = share_bits
    inc_cost = mask_cost(inc_mask)

    def consider(mask: int) -> None:
        nonlocal inc_mask, inc_cost
        cost = mask_cost(mask)
        if cost < inc_cost or (cost == inc_cost and mask < inc_mask):
            inc_cost, inc_mask = cost, mask

    # heap entries: (lower bound, insertion order, depth, dec_mask)
    heap = [(root_lb, 0, 0, 0)]
    pushes = 1
    nodes = 0
    proven = False
    while heap:
        lb, _, depth, dec_mask = heapq.heappop(heap)
        if nodes >= cfg.max_nodes:
            proven = lb >= inc_cost
            break
        nodes += 1
        if lb >= inc_cost:
            proven = True
            break
        if depth == n:
            continue  # a leaf's mask was priced when the leaf was pushed
        var, bit = order[depth], bits[depth]
        greedy_take = share_bits & bit
        child_free = ~fixed[depth + 1]
        base = lb - per_best[var]
        for take in (0, bit):
            child_dec = dec_mask | take
            if take != greedy_take:
                consider(child_dec | (share_bits & child_free))
            child_lb = base + (off_full[var] if take else local[var])
            if child_lb <= inc_cost:
                pushes += 1
                heapq.heappush(heap, (child_lb, pushes, depth + 1, child_dec))
    else:
        proven = True  # heap exhausted: every open node was pruned or expanded
    if proven:
        # a node bound equals the cost of a mask below it only if that mask
        # has at most one offloader, so pruning or stopping at a bound equal
        # to the optimum can hide only such ties; check them all so exact
        # ties go to the smallest mask
        for mask in (0, *(1 << i for i in range(n))):
            consider(mask)
    return _report_for_mask(inst, terms, inc_mask, nodes=nodes, proven=proven)


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


def _sbb_config(solver: str, max_nodes: int | None) -> SbbConfig:
    """The node budget of a solve; a budget given to any solver but sbb is
    refused rather than ignored."""
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; choose from {list(SOLVERS)}")
    if max_nodes is None:
        return SbbConfig()
    if solver != "sbb":
        raise ConfigError(f"max_nodes is an sbb budget; the {solver} solver takes none")
    return SbbConfig(max_nodes)


def solve_batch(
    instances: list[OffloadInstance],
    solver: str = "exhaustive",
    max_nodes: int | None = None,
) -> list[SolveReport]:
    """Solve a batch with one of the named solvers, preserving input order.

    ``max_nodes`` is sbb's node budget (default: ``SbbConfig``'s).
    """
    cfg = _sbb_config(solver, max_nodes)
    if solver == "sbb":
        return [solve_sbb(inst, cfg) for inst in instances]
    if not instances:
        return []
    n = instances[0].n_vehicles
    mask, alloc, cost = _exhaustive_columns(instances, batch_features(instances))
    return [SolveReport(OffloadSolution(decisions=mask_to_decisions(m, n), alloc=a, cost=c),
                        nodes_explored=1 << n, proven_optimal=True)
            for m, a, c in zip(mask.tolist(), alloc.tolist(), cost.tolist())]


def _report_columns(reports: list[SolveReport]):
    decision = np.array(
        [decisions_to_mask(r.solution.decisions) for r in reports], dtype=np.int64
    )
    alloc = np.array([r.solution.alloc for r in reports])
    cost = np.array([r.solution.cost for r in reports])
    return decision, alloc, cost


def _label_chunk(args):
    """(decision, alloc, cost) columns of one chunk of a labeling job."""
    instances, features, solver, max_nodes = args
    if solver == "exhaustive":
        return _exhaustive_columns(instances, features)
    return _report_columns(solve_batch(instances, solver, max_nodes))


def label_instances(
    instances: list[OffloadInstance],
    solver: str = "exhaustive",
    max_nodes: int | None = None,
    workers: int = 1,
) -> LabeledDataset:
    """Solve every instance and assemble (features, label) rows in input order.

    The batch must be non-empty and share one N.  ``max_nodes`` is sbb's
    node budget, as in ``solve_batch``.  ``workers`` (at least 1) caps the
    processes; no more start than there are CPUs or instances.
    """
    _sbb_config(solver, max_nodes)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if not instances:
        raise ValidationError("no instances to label")
    features = batch_features(instances)
    procs = min(workers, os.cpu_count() or 1, len(instances))
    if procs > 1:
        # imported here: the pool's modules add about 2 MB to every process
        # that imports the package, and only this branch uses them
        from concurrent.futures import ProcessPoolExecutor

        jobs = [
            ([instances[i] for i in idx], features[idx], solver, max_nodes)
            for idx in np.array_split(np.arange(len(instances)), procs)
        ]
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(_label_chunk, jobs))
        decision, alloc, cost = (np.concatenate(col) for col in zip(*parts))
    else:
        decision, alloc, cost = _label_chunk((instances, features, solver, max_nodes))
    return LabeledDataset(features=features, decision=decision, alloc=alloc, cost=cost)


def write_labels(path, ds: LabeledDataset) -> None:
    """One row per sample: the features, the decision, the alloc shares and the
    cost, each float as ``repr`` writes it, formatted a column at a time over
    chunks of ``CHUNK_ROWS`` rows."""
    k = ds.features.shape[1]
    template = ",".join(["%s"] * (k + ds.n_vehicles + 2))

    def chunk_rows(start: int):
        part = slice(start, start + CHUNK_ROWS)
        floats = np.concatenate(
            [ds.features[part], ds.alloc[part], ds.cost[part, None]], axis=1, dtype=np.float64
        )
        fields = [_float_strings(col) for col in floats.T]
        fields.insert(k, list(map(str, np.asarray(ds.decision[part], dtype=np.int64).tolist())))
        return _fill_rows(template, fields, floats.shape[0])

    write_records(path, LABELS_FILE_HEADER, itertools.chain.from_iterable(
        map(chunk_rows, range(0, ds.n_samples, CHUNK_ROWS))
    ))


def _label_refusal(ds: LabeledDataset) -> str | None:
    """What some row of a labeled dataset holds that no solver writes, or None.

    A row's alloc shares must split the edge CPU over its decision's
    offloaders.  Each rule reads one row at a time, so a dataset breaks one
    only where one of its rows does.
    """
    alloc, cost = ds.alloc, ds.cost
    if not (np.isfinite(ds.features).all() and np.isfinite(alloc).all()
            and np.isfinite(cost).all()):
        return "a value that is not finite"
    # the rules of VehicleParams, EdgeParams and CostWeights
    data, cycles, freq, power, gain, bandwidth, edge_freq, noise, w_time, w_energy = (
        _feature_columns(ds.features)
    )
    if any((col <= 0.0).any() for col in (data, cycles, freq, power, gain, bandwidth,
                                          edge_freq, noise)):
        return "a vehicle field, edge_freq or noise_power that is not > 0"
    if (gain > 1.0).any():
        return "a channel_gain above 1"
    if ((w_time < 0.0) | (w_energy < 0.0) | ((w_time == 0.0) & (w_energy == 0.0))).any():
        return "a negative weight or two zero weights"
    if (cost < 0.0).any():
        return "a negative cost"
    if (alloc < 0.0).any():
        return "a negative alloc share"
    offload = ((ds.decision[:, None] >> np.arange(ds.n_vehicles - 1, -1, -1)) & 1).astype(bool)
    if ((alloc != 0.0) & ~offload).any():
        return "an alloc share for a vehicle its decision keeps local"
    if ((alloc == 0.0) & offload).any():
        return "no alloc share for a vehicle its decision offloads"
    # the shares add left to right, as sum() adds them, for one row or many
    if (functools.reduce(np.add, alloc.T) > 1.0 + ALLOC_SUM_TOL).any():
        return "alloc shares that sum above 1"
    return None


def read_labels(path) -> LabeledDataset:
    n = k = None  # the first row's column count fixes N

    def parse(line: str) -> list[float]:
        nonlocal n, k
        cols = line.split(",")
        # feature_count(N) features + decision + N alloc entries + cost
        if n is None:
            n = (len(cols) - N_GLOBAL_FEATURES - 2) // (PER_VEHICLE_FEATURES + 1)
            k = feature_count(n)
        if len(cols) != k + n + 2 or not 1 <= n <= MAX_VEHICLES:
            raise FileFormatError(f"bad column count {len(cols)} "
                                  f"(N={n}, allowed 1..{MAX_VEHICLES})")
        decision = int(cols[k])
        if not 0 <= decision < 1 << n:
            raise FileFormatError(f"decision {decision} is not in 0..2^N-1")
        return list(map(float, cols))

    table = np.array(read_records(path, LABELS_FILE_HEADER, parse))
    if n is None:
        raise FileFormatError(f"{path}: no label records")

    def dataset(rows: np.ndarray) -> LabeledDataset:
        return LabeledDataset(features=rows[:, :k].copy(), decision=rows[:, k].astype(np.int64),
                              alloc=rows[:, k + 1 : -1].copy(), cost=rows[:, -1].copy())

    ds = dataset(table)
    if _label_refusal(ds) is not None:
        # the dataset keeps no line numbers: read again, checking each row
        # alone, which raises at the first refused row's line
        def parse_checked(line: str) -> None:
            reason = _label_refusal(dataset(np.array([parse(line)])))
            if reason is not None:
                raise FileFormatError(f"label row holds {reason}")

        read_records(path, LABELS_FILE_HEADER, parse_checked)
    return ds
