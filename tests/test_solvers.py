import ast
import concurrent.futures
import functools
import heapq
import math
import operator
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeoffload
from edgeoffload import kernels, mtl
from edgeoffload.errors import ConfigError, FileFormatError, ValidationError
from edgeoffload.model import (
    CHUNK_ROWS,
    DEFAULT_RANGES,
    MAX_VEHICLES,
    CostWeights,
    EdgeParams,
    OffloadInstance,
    OffloadSolution,
    VehicleParams,
    batch_features,
    generate_instances,
    local_cost,
    raw_features,
    total_cost,
    uplink_rate,
    write_instances,
)
from edgeoffload.mtl import MtlModel, infer_solution, normalize
from edgeoffload.solvers import (
    _batch_arrays,
    _instance_terms,
    LabeledDataset,
    SbbConfig,
    SolveReport,
    decisions_to_mask,
    label_instances,
    mask_to_decisions,
    optimal_allocation,
    read_labels,
    solve_batch,
    solve_sbb,
    write_labels,
)


def test_mask_roundtrip():
    for n in (1, 2, 5):
        for mask in range(2**n):
            dec = mask_to_decisions(mask, n)
            assert len(dec) == n
            assert decisions_to_mask(dec) == mask


def test_mask_vehicle0_is_msb():
    assert mask_to_decisions(0b10, 2) == (1, 0)
    assert mask_to_decisions(0b01, 2) == (0, 1)


def test_optimal_allocation_sqrt_proportional():
    inst = generate_instances(3, 1, seed=11)[0]
    alloc = optimal_allocation(inst, (1, 1, 1))
    c = np.array([v.cpu_cycles for v in inst.vehicles])
    expected = np.sqrt(c) / np.sqrt(c).sum()
    np.testing.assert_allclose(alloc, expected, rtol=1e-12)
    assert alloc.sum() == pytest.approx(1.0)


def test_optimal_allocation_zero_for_local():
    inst = generate_instances(3, 1, seed=12)[0]
    alloc = optimal_allocation(inst, (0, 1, 0))
    assert alloc[0] == 0.0 and alloc[2] == 0.0
    assert alloc[1] == pytest.approx(1.0)


@pytest.mark.parametrize("decisions", [(1, 1), (1, 0, 1, 1)])
def test_optimal_allocation_refuses_a_length_mismatch(decisions):
    inst = generate_instances(3, 1, seed=12)[0]
    with pytest.raises(ValidationError, match="length"):
        optimal_allocation(inst, decisions)


def test_exhaustive_beats_every_candidate():
    """The exhaustive report must cost no more than any enumerated strategy."""
    inst = generate_instances(3, 1, seed=21)[0]
    rep = solve_batch([inst])[0]
    for mask in range(2**3):
        dec = mask_to_decisions(mask, 3)
        alloc = optimal_allocation(inst, dec)
        assert rep.solution.cost <= total_cost(inst, dec, alloc) + 1e-12
    assert rep.proven_optimal


def test_exhaustive_cost_matches_total_cost():
    for inst in generate_instances(4, 20, seed=22):
        rep = solve_batch([inst])[0]
        recomputed = total_cost(inst, rep.solution.decisions, rep.solution.alloc)
        assert rep.solution.cost == pytest.approx(recomputed, rel=1e-12)


def test_batch_exhaustive_matches_scalar():
    instances = generate_instances(5, 50, seed=23)
    batch = solve_batch(instances)
    for inst, rep in zip(instances, batch):
        single = solve_batch([inst])[0]
        assert rep.solution.decisions == single.solution.decisions
        assert rep.solution.cost == pytest.approx(single.solution.cost, rel=1e-12)


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=1, max_value=6))
def test_sbb_matches_exhaustive(seed, n):
    inst = generate_instances(n, 1, seed=seed)[0]
    ex = solve_batch([inst])[0]
    bb = solve_sbb(inst)
    assert bb.proven_optimal
    assert bb.solution.decisions == ex.solution.decisions
    assert bb.solution.cost == pytest.approx(ex.solution.cost, rel=1e-9)


def test_solve_reports_are_values():
    """A report holds no clock reading: the same solve gives an equal report."""
    instances = generate_instances(8, 20, seed=24)
    for inst in instances:
        assert solve_sbb(inst, SbbConfig(16)) == solve_sbb(inst, SbbConfig(16))
    assert solve_batch(instances) == solve_batch(instances)


@pytest.mark.parametrize("module", ["solvers.py", "kernels.py", "model.py", "split.py"])
def test_solver_code_reads_no_wall_clock(module):
    """Wall time is measured around the solvers, never inside what they return."""
    source = (Path(edgeoffload.__file__).parent / module).read_text(encoding="utf-8")
    imported, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module, *(alias.name for alias in node.names)}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    assert "time" not in imported
    assert "perf_counter" not in imported | names


def test_sbb_budget_terminates_early():
    inst = generate_instances(8, 1, seed=31)[0]
    rep = solve_sbb(inst, SbbConfig(max_nodes=2))
    assert rep.nodes_explored <= 2
    # budgeted run still returns a feasible solution
    assert rep.solution.cost == pytest.approx(
        total_cost(inst, rep.solution.decisions, rep.solution.alloc), rel=1e-12
    )


def test_sbb_budgeted_cost_never_below_optimum():
    for inst in generate_instances(7, 30, seed=32):
        budgeted = solve_sbb(inst, SbbConfig(max_nodes=4))
        exact = solve_batch([inst])[0]
        assert budgeted.solution.cost >= exact.solution.cost - 1e-12


def test_solve_batch_rejects_unknown_solver():
    with pytest.raises(ConfigError):
        solve_batch(generate_instances(2, 1), "newton")


@pytest.mark.parametrize("solver", ["exhaustive", "sbb"])
def test_solve_batch_of_no_instances_is_empty(solver):
    assert solve_batch([], solver) == []


def test_node_budget_is_read_by_sbb_or_refused():
    instances = generate_instances(8, 3, seed=44)
    budgeted = solve_batch(instances, "sbb", max_nodes=2)
    assert [r.nodes_explored for r in budgeted] == [
        solve_sbb(inst, SbbConfig(max_nodes=2)).nodes_explored for inst in instances]
    assert label_instances(instances, "sbb", max_nodes=2).cost.tolist() == [
        r.solution.cost for r in budgeted]
    for call in (solve_batch, label_instances):
        with pytest.raises(ConfigError):
            call(instances, "exhaustive", max_nodes=16)
        with pytest.raises(ConfigError):
            call(instances, "sbb", max_nodes=0)


def test_label_instances_matches_exhaustive():
    instances = generate_instances(3, 40, seed=51)
    ds = label_instances(instances)
    assert ds.n_samples == 40 and ds.n_vehicles == 3
    for i, inst in enumerate(instances):
        rep = solve_batch([inst])[0]
        assert int(ds.decision[i]) == decisions_to_mask(rep.solution.decisions)
        np.testing.assert_array_equal(ds.alloc[i], rep.solution.alloc)
        assert ds.cost[i] == rep.solution.cost


# edge capacity decides how many vehicles offload: none at 1e6 cycles/s,
# most of them at 1e12
FEW_OFFLOADERS = {**DEFAULT_RANGES, "edge_freq": (1e6, 1e7), "gain": (1e-7, 1e-6)}
MANY_OFFLOADERS = {**DEFAULT_RANGES, "edge_freq": (1e11, 1e12), "gain": (1e-5, 1e-4)}
DRAWN_GLOBALS = {**DEFAULT_RANGES, "local_freq": (5e8, 2e9), "tx_power": (1.0, 10.0),
                 "noise_power": (1e-10, 1e-9), "edge_freq": (5e9, 2e10),
                 "kappa": (1e-28, 1e-27), "w_time": (0.5, 2.0), "w_energy": (0.1, 1.0)}


def _reference_labels(instances):
    """Per-instance labels from the scalar functions: mask of the kernel on
    one row, ``optimal_allocation``, ``total_cost`` and ``raw_features``."""
    masks, allocs, costs = [], [], []
    for inst in instances:
        mask, _ = kernels.exhaustive_argmin(*_instance_terms(inst)[:4])
        decisions = mask_to_decisions(int(mask[0]), inst.n_vehicles)
        alloc = optimal_allocation(inst, decisions)
        masks.append(int(mask[0]))
        allocs.append(alloc)
        costs.append(total_cost(inst, decisions, alloc))
    features = np.array([raw_features(inst) for inst in instances])
    return features, np.array(masks), np.array(allocs), np.array(costs)


@pytest.mark.parametrize("n", range(1, 17))
def test_batched_labels_equal_per_instance_reference(n):
    count = 12 if n > 12 else 30
    instances = [inst for i, ranges in enumerate((DRAWN_GLOBALS, FEW_OFFLOADERS, MANY_OFFLOADERS))
                 for inst in generate_instances(n, count, ranges, seed=100 * n + i)]
    ds = label_instances(instances)
    features, masks, allocs, costs = _reference_labels(instances)
    np.testing.assert_array_equal(ds.features, features)
    np.testing.assert_array_equal(ds.decision, masks)
    np.testing.assert_array_equal(ds.alloc, allocs)
    np.testing.assert_array_equal(ds.cost, costs)
    offloaders = [bin(m).count("1") for m in masks.tolist()]
    assert 0 in offloaders
    if n >= 8:
        # sums of 8 or more terms are where left to right and numpy's
        # pairwise reduction part ways
        assert max(offloaders) >= 8
    columns = _batch_arrays(instances, ds.features)
    for k, inst in enumerate(instances):
        for batched, scalar in zip(columns, _instance_terms(inst)):
            np.testing.assert_array_equal(batched[k], scalar)


def _offload_all_model(instances):
    """A model with no class head whose "reg" rule offloads every vehicle: each
    regression output is a bias in [1.2, 2] plus a term of the input below
    0.05, so every projected share is above 0.5/N."""
    n = instances[0].n_vehicles
    features = batch_features(instances)
    std = features.std(axis=0)
    rng = np.random.default_rng(n)
    size = sum(math.prod(s) for s in mtl._param_shapes(n, (8,), False))
    model = MtlModel(n, (8,), features.mean(axis=0), np.where(std > 0.0, std, 1.0),
                     0.1 * rng.standard_normal(size), has_class_head=False)
    model.reg_head[0][:] *= 0.01
    model.reg_head[1][:] = rng.uniform(1.2, 2.0, n)
    return model


def _shares(values, decisions):
    """Each offloader's value over the offloaders' sum, added left to right."""
    chosen = [v for v, d in zip(values, decisions) if d]
    total = functools.reduce(operator.add, chosen) if chosen else 0.0
    return [v / total if d else 0.0 for v, d in zip(values, decisions)]


@pytest.mark.parametrize("n", [8, 9, 12, 16])
def test_vehicle_sums_add_left_to_right(n):
    """Every sum over an instance's vehicles adds them left to right in
    vehicle order, also from 8 terms on, where numpy's pairwise reduction
    adds in another order."""
    instances = [*generate_instances(n, 40, MANY_OFFLOADERS, seed=400 + n),
                 *(_identical_vehicles(n, 1e12, cpu_cycles) for cpu_cycles in (1e9, 2e9))]
    ds = label_instances(instances)
    model = _offload_all_model(instances)
    label_offloaders = []
    for k, inst in enumerate(instances):
        terms = _instance_terms(inst)
        assert kernels.mask_cost(*terms[:4])(0) == functools.reduce(operator.add, terms[0])
        roots = [math.sqrt(v.cpu_cycles) for v in inst.vehicles]
        label = mask_to_decisions(int(ds.decision[k]), n)
        for decisions in ((1,) * n, label):
            assert optimal_allocation(inst, decisions).tolist() == _shares(roots, decisions)
        assert ds.alloc[k].tolist() == _shares(roots, label)
        sol = infer_solution(model, inst, decision_source="reg")
        assert sum(sol.decisions) == n
        _, alloc_pred = mtl._decide(model, normalize(raw_features(inst)[None], model), "reg")
        assert list(sol.alloc) == _shares(alloc_pred[0].tolist(), sol.decisions)
        label_offloaders.append(int(ds.decision[k]).bit_count())
    assert max(label_offloaders) >= 8


def test_label_instances_rejects_empty_batch():
    with pytest.raises(ValidationError):
        label_instances([])


def test_label_instances_rejects_mixed_sizes():
    with pytest.raises(ValidationError):
        label_instances(generate_instances(2, 2) + generate_instances(3, 2))


def test_label_instances_parallel_order_preserved():
    instances = generate_instances(2, 60, seed=52)
    serial = label_instances(instances, workers=1)
    parallel = label_instances(instances, workers=3)
    np.testing.assert_array_equal(serial.decision, parallel.decision)
    np.testing.assert_allclose(serial.features, parallel.features, rtol=0)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no
    process and maps in this one."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        assert len(jobs) == self.sizes[-1]
        return map(fn, jobs)


@pytest.mark.parametrize("workers, n_instances, pool_size", [
    (1000, 60, 4),  # bounded by the CPU count
    (1000, 3, 3),   # bounded by the instance count
    (2, 60, 2),
    (1, 60, None),  # serial: no pool
])
def test_label_instances_bounds_its_pool(monkeypatch, workers, n_instances, pool_size):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    instances = generate_instances(2, n_instances, seed=55)
    ds = label_instances(instances, workers=workers)
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    serial = solve_batch(instances)
    np.testing.assert_array_equal(ds.cost, [r.solution.cost for r in serial])


@pytest.mark.parametrize("workers", [0, -5])
def test_label_instances_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        label_instances(generate_instances(2, 3), workers=workers)


def test_labels_io_roundtrip(tmp_path):
    ds = label_instances(generate_instances(3, 15, seed=53))
    path = tmp_path / "labels.csv"
    write_labels(path, ds)
    back = read_labels(path)
    np.testing.assert_array_equal(back.decision, ds.decision)
    np.testing.assert_allclose(back.features, ds.features, rtol=0)
    np.testing.assert_allclose(back.alloc, ds.alloc, rtol=0)
    np.testing.assert_allclose(back.cost, ds.cost, rtol=0)


def _reference_label_rows(ds):
    """The rows of a label file, one row formatted at a time."""
    return [
        ",".join([*map(repr, f), str(d), *map(repr, a), repr(c)])
        for f, d, a, c in zip(ds.features.tolist(), ds.decision.tolist(), ds.alloc.tolist(),
                              ds.cost.tolist())
    ]


@pytest.mark.parametrize("n, count", [(1, 7), (2, CHUNK_ROWS + 5), (5, 40)])
def test_written_label_rows_match_the_per_row_reference(tmp_path, n, count):
    ds = label_instances(generate_instances(n, count, seed=56 + n))
    # a pinned feature column that holds one -0.0 among its 0.0s (no solver
    # writes that), and an alloc column of one value in every row
    ds.features[:, 2] = 0.0
    ds.features[count // 2, 2] = -0.0
    ds.alloc[:, 0] = 0.25
    path = tmp_path / "labels.csv"
    write_labels(path, ds)
    assert path.read_text().splitlines() == ["offload-labels v1", *_reference_label_rows(ds)]


def test_file_writers_hold_one_chunk_at_a_time(tmp_path):
    """The writers' peaks at 40 000 N=2 records stay within twice their peaks at 1 000."""
    peaks = {}
    for count in (1000, 40_000):
        instances = generate_instances(2, count, seed=60)
        ds = label_instances(instances)
        for write, data in ((write_instances, instances), (write_labels, ds)):
            tracemalloc.start()
            try:
                write(tmp_path / "out", data)
                peaks[write, count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for write in (write_instances, write_labels):
        assert peaks[write, 40_000] <= 2 * peaks[write, 1000], write.__name__


def test_labels_io_rejects_truncated_row(tmp_path):
    ds = label_instances(generate_instances(2, 3, seed=54))
    path = tmp_path / "labels.csv"
    write_labels(path, ds)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(Exception) as excinfo:
        read_labels(path)
    assert "3" in str(excinfo.value)  # names the offending line


def test_labels_io_refuses_a_file_with_no_rows(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("offload-labels v1\n\n")  # a blank line is no record
    with pytest.raises(FileFormatError, match=r"labels\.csv: no label records"):
        read_labels(path)


@pytest.mark.parametrize("n_cols", [1, 5, 6, 7 * (MAX_VEHICLES + 1) + 6])
def test_labels_io_rejects_a_vehicle_count_outside_the_range(tmp_path, n_cols):
    """Six columns would read as N = 0 and 7 * 17 + 6 as N = 17: no model
    can be trained on either."""
    path = tmp_path / "labels.csv"
    path.write_text("offload-labels v1\n" + ",".join(["0"] * n_cols) + "\n")  # every column parses
    with pytest.raises(FileFormatError, match=r"labels\.csv:2: bad column count"):
        read_labels(path)


@pytest.mark.parametrize("decision", ["999", "4", "-1", "1.0"])
def test_labels_io_rejects_a_decision_that_is_no_mask(tmp_path, decision):
    ds = label_instances(generate_instances(2, 3, seed=55))
    path = tmp_path / "labels.csv"
    write_labels(path, ds)
    lines = path.read_text().splitlines()
    cols = lines[3].split(",")
    cols[16] = decision  # the 6N+4 = 16 features come first
    lines[3] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=r"labels\.csv:4: "):
        read_labels(path)


# N=2 label rows: 16 features, the decision, two alloc shares and the cost
@pytest.mark.parametrize("column, values, reason", [
    (16, ["3", "nan", "0.5"], "not finite"),
    (0, ["inf"], "not finite"),
    (16, ["3", "-5.0", "7.0"], "negative alloc share"),
    (19, ["-1.0"], "negative cost"),
    (16, ["0", "0.5", "0.0"], "a vehicle its decision keeps local"),
    (16, ["3", "1.0", "0.0"], "a vehicle its decision offloads"),
    (16, ["3", "0.6", "0.6"], "sum above 1"),
])
def test_labels_io_refuses_values_no_solver_writes(tmp_path, column, values, reason):
    path = tmp_path / "labels.csv"
    write_labels(path, label_instances(generate_instances(2, 3, seed=55)))
    lines = path.read_text().splitlines()
    cols = lines[3].split(",")
    cols[column : column + len(values)] = values
    lines[3] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=rf"labels\.csv:4: label row holds .*{reason}"):
        read_labels(path)


@pytest.mark.parametrize("n_vehicles, solver, max_nodes", [
    (2, "exhaustive", None), (8, "exhaustive", None), (2, "sbb", None), (8, "sbb", 2),
])
def test_labels_io_loads_what_either_solver_writes(tmp_path, n_vehicles, solver, max_nodes):
    ds = label_instances(generate_instances(n_vehicles, 40, seed=56), solver, max_nodes)
    path = tmp_path / "labels.csv"
    write_labels(path, ds)
    np.testing.assert_array_equal(read_labels(path).alloc, ds.alloc)


def _identical_vehicles(n, edge_freq, cpu_cycles=1e9):
    v = VehicleParams(data_size=1e6, cpu_cycles=cpu_cycles, local_freq=1e9,
                      tx_power=10.0, channel_gain=1e-5, bandwidth=1e6)
    return OffloadInstance(
        vehicles=(v,) * n,
        edge=EdgeParams(edge_freq=edge_freq, noise_power=1e-9),
        weights=CostWeights(w_time=1.0, w_energy=1.0, kappa=1e-27),
    )


def test_sbb_tie_break_matches_exhaustive_lexicographic():
    # identical vehicles make every mask with the same number of offloaders
    # cost the same; the optimum offloads one vehicle at edge_freq=1e9 and
    # two at 3e9, so 4 and 6 masks tie
    for edge_freq, offloaders in ((1e9, 1), (3e9, 2)):
        inst = _identical_vehicles(4, edge_freq)
        mask_cost = kernels.mask_cost(*_instance_terms(inst)[:4])
        costs = [mask_cost(m) for m in range(16)]
        ties = [m for m, c in enumerate(costs) if c == min(costs)]
        assert len(ties) == math.comb(4, offloaders)
        ex = solve_batch([inst])[0]
        assert decisions_to_mask(ex.solution.decisions) == ties[0]
        assert solve_sbb(inst).solution.decisions == ex.solution.decisions


@pytest.mark.parametrize("cpu_cycles", [1e9, 2e9])
@pytest.mark.parametrize("edge_freq", [1e9, 2e9, 3e9, 5e9, 1e10, 3e10])
def test_exact_sbb_ties_match_exhaustive_for_identical_vehicles(cpu_cycles, edge_freq):
    # every mask with the same number of offloaders ties; sBB prices masks
    # with the kernel's own operations, so it must pick the kernel's mask
    for n in range(2, 11):
        inst = _identical_vehicles(n, edge_freq, cpu_cycles)
        ex = solve_batch([inst])[0]
        bb = solve_sbb(inst)
        assert bb.proven_optimal
        assert bb.solution.decisions == ex.solution.decisions, n


def _reference_arrays(inst):
    """Per-vehicle terms as numpy arrays, from the scalar cost functions."""
    w = inst.weights
    local = np.array([local_cost(v, w) for v in inst.vehicles])
    tx_delay = np.array([v.data_size / uplink_rate(v, inst.edge) for v in inst.vehicles])
    powers = np.array([v.tx_power for v in inst.vehicles])
    off_base = w.w_time * tx_delay + w.w_energy * powers * tx_delay
    sqrt_c = np.sqrt([v.cpu_cycles for v in inst.vehicles])
    return local, off_base, sqrt_c, w.w_time / inst.edge.edge_freq


def _reference_mask_cost(local, off_base, sqrt_c, wt_over_f):
    """The kernel's cost of a mask, one bit at a time from bit 0 upward."""
    base = functools.reduce(operator.add, local.tolist())
    delta = (off_base - local)[::-1].tolist()
    roots = sqrt_c[::-1].tolist()

    def cost(mask):
        total, s, j = base, 0.0, 0
        while mask:
            if mask & 1:
                total += delta[j]
                s += roots[j]
            mask >>= 1
            j += 1
        return total + (s * s) * wt_over_f

    return cost


def _solve_sbb_reference(inst, cfg):
    """Reference: the node loop that ``solve_sbb`` used to run, on numpy
    scalars, with an n-step greedy completion and both children priced; its
    terms, mask pricing and report are this module's own, the report through
    ``optimal_allocation`` and ``total_cost``."""
    n = inst.n_vehicles
    local, off_base, sqrt_c, wt_over_f = _reference_arrays(inst)
    cycles = sqrt_c**2
    off_full = off_base + wt_over_f * cycles
    off_share = off_base + wt_over_f * cycles * n
    per_best = np.minimum(local, off_full)
    ambiguity = np.abs(local - off_full)

    def greedy_mask(fixed_mask, dec_mask):
        mask = dec_mask
        for i in range(n):
            bit = 1 << (n - 1 - i)
            if not fixed_mask & bit and off_share[i] < local[i]:
                mask |= bit
        return mask

    mask_cost = _reference_mask_cost(local, off_base, sqrt_c, wt_over_f)
    inc_mask = greedy_mask(0, 0)
    inc_cost = mask_cost(inc_mask)

    def consider(mask):
        nonlocal inc_mask, inc_cost
        cost = mask_cost(mask)
        if cost < inc_cost or (cost == inc_cost and mask < inc_mask):
            inc_cost, inc_mask = cost, mask

    heap = [(functools.reduce(operator.add, per_best.tolist()), 0, 0, 0)]
    pushes = 1
    nodes = 0
    proven = False
    while heap:
        lb, _, fixed_mask, dec_mask = heapq.heappop(heap)
        if nodes >= cfg.max_nodes:
            proven = lb >= inc_cost
            break
        nodes += 1
        if lb >= inc_cost:
            proven = True
            break
        free = [i for i in range(n) if not (fixed_mask >> (n - 1 - i)) & 1]
        if not free:
            consider(dec_mask)
            continue
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
        proven = True
    if proven:
        for mask in (0, *(1 << i for i in range(n))):
            consider(mask)
    decisions = mask_to_decisions(inc_mask, n)
    alloc = optimal_allocation(inst, decisions)
    sol = OffloadSolution(decisions, tuple(alloc), total_cost(inst, decisions, alloc))
    return SolveReport(solution=sol, nodes_explored=nodes, proven_optimal=proven)


def _sbb_outcome(rep):
    sol = rep.solution
    return sol.decisions, sol.alloc, sol.cost.hex(), rep.nodes_explored, rep.proven_optimal


@pytest.mark.parametrize("n", [*range(1, 11), 12, 14, 16])
def test_sbb_matches_reference_node_loop(n):
    budgets = [1, 2, 16] + ([SbbConfig().max_nodes] if n <= 10 else [])
    for k, ranges in enumerate((DEFAULT_RANGES, DRAWN_GLOBALS, FEW_OFFLOADERS, MANY_OFFLOADERS)):
        for inst in generate_instances(n, 16, ranges, seed=200 * n + k):
            for max_nodes in budgets:
                cfg = SbbConfig(max_nodes=max_nodes)
                assert _sbb_outcome(solve_sbb(inst, cfg)) == _sbb_outcome(
                    _solve_sbb_reference(inst, cfg)), (k, max_nodes)


def test_sbb_matches_reference_node_loop_on_ties():
    for edge_freq in (1e9, 2e9, 3e9, 5e9, 1e10, 3e10):
        for cpu_cycles in (1e9, 2e9):
            for n in range(2, 11):
                inst = _identical_vehicles(n, edge_freq, cpu_cycles)
                for max_nodes in (1, 2, 16, SbbConfig().max_nodes):
                    cfg = SbbConfig(max_nodes=max_nodes)
                    assert _sbb_outcome(solve_sbb(inst, cfg)) == _sbb_outcome(
                        _solve_sbb_reference(inst, cfg)), (edge_freq, cpu_cycles, n)


def _priced_by_the_scalar_functions(inst, sol):
    alloc = optimal_allocation(inst, sol.decisions)
    cost = total_cost(inst, sol.decisions, alloc)
    assert sol.alloc == tuple(alloc)
    assert sol.cost.hex() == cost.hex()


@pytest.mark.parametrize("n", range(1, 17))
def test_sbb_solution_is_priced_by_optimal_allocation_and_total_cost(n):
    count = 12 if n > 12 else 30
    for k, ranges in enumerate((DEFAULT_RANGES, DRAWN_GLOBALS, FEW_OFFLOADERS, MANY_OFFLOADERS)):
        for inst in generate_instances(n, count, ranges, seed=300 * n + k):
            for max_nodes in (1, 16):
                _priced_by_the_scalar_functions(inst, solve_sbb(inst, SbbConfig(max_nodes)).solution)
    for edge_freq in (1e9, 3e9, 3e10):
        for cpu_cycles in (1e9, 2e9):
            inst = _identical_vehicles(n, edge_freq, cpu_cycles)
            _priced_by_the_scalar_functions(inst, solve_sbb(inst, SbbConfig(16)).solution)
