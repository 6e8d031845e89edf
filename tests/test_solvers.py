import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeoffload import kernels
from edgeoffload.errors import ConfigError, SizeLimitError, ValidationError
from edgeoffload.model import (
    DEFAULT_RANGES,
    CostWeights,
    EdgeParams,
    OffloadInstance,
    VehicleParams,
    generate_instances,
    raw_features,
    total_cost,
)
from edgeoffload.solvers import (
    BRANCHING_RULES,
    _batch_arrays,
    _instance_arrays,
    LabeledDataset,
    SbbConfig,
    batch_solve_exhaustive,
    decisions_to_mask,
    label_instances,
    mask_to_decisions,
    optimal_allocation,
    read_labels,
    solve_batch,
    solve_exhaustive,
    solve_grid,
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


def test_exhaustive_beats_every_candidate():
    """The exhaustive report must cost no more than any enumerated strategy."""
    inst = generate_instances(3, 1, seed=21)[0]
    rep = solve_exhaustive(inst)
    for mask in range(2**3):
        dec = mask_to_decisions(mask, 3)
        alloc = optimal_allocation(inst, dec)
        assert rep.solution.cost <= total_cost(inst, dec, alloc) + 1e-12
    assert rep.proven_optimal


def test_exhaustive_cost_matches_total_cost():
    for inst in generate_instances(4, 20, seed=22):
        rep = solve_exhaustive(inst)
        recomputed = total_cost(inst, rep.solution.decisions, rep.solution.alloc)
        assert rep.solution.cost == pytest.approx(recomputed, rel=1e-12)


def test_batch_exhaustive_matches_scalar():
    instances = generate_instances(5, 50, seed=23)
    batch = batch_solve_exhaustive(instances)
    for inst, rep in zip(instances, batch):
        single = solve_exhaustive(inst)
        assert rep.solution.decisions == single.solution.decisions
        assert rep.solution.cost == pytest.approx(single.solution.cost, rel=1e-12)


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=1, max_value=6))
def test_sbb_matches_exhaustive(seed, n):
    inst = generate_instances(n, 1, seed=seed)[0]
    ex = solve_exhaustive(inst)
    bb = solve_sbb(inst)
    assert bb.proven_optimal
    assert bb.solution.decisions == ex.solution.decisions
    assert bb.solution.cost == pytest.approx(ex.solution.cost, rel=1e-9)


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
        exact = solve_exhaustive(inst)
        assert budgeted.solution.cost >= exact.solution.cost - 1e-12


def test_grid_converges_to_exhaustive():
    inst = generate_instances(3, 1, seed=41)[0]
    exact = solve_exhaustive(inst).solution.cost
    gaps = [solve_grid(inst, step).solution.cost - exact for step in (0.5, 0.1, 0.02)]
    assert all(g >= -1e-9 for g in gaps)
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] < 1e-3 * exact


def test_grid_never_beats_exhaustive():
    for inst in generate_instances(2, 25, seed=42):
        assert solve_grid(inst, 0.05).solution.cost >= solve_exhaustive(inst).solution.cost - 1e-12


def test_grid_combination_guard():
    inst = generate_instances(8, 1, seed=43)[0]
    with pytest.raises(SizeLimitError):
        solve_grid(inst, 1e-3)


def test_solve_batch_rejects_unknown_solver():
    with pytest.raises(ConfigError):
        solve_batch(generate_instances(2, 1), "newton")


def test_label_instances_matches_exhaustive():
    instances = generate_instances(3, 40, seed=51)
    ds = label_instances(instances)
    assert ds.n_samples == 40 and ds.n_vehicles == 3
    for i, inst in enumerate(instances):
        rep = solve_exhaustive(inst)
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
        local, off_base, sqrt_c, wt_over_f = _instance_arrays(inst)
        mask, _ = kernels.exhaustive_argmin(local, off_base, sqrt_c, wt_over_f)
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
    if n >= 9:
        assert max(offloaders) >= 8  # where numpy's sum stops being sequential
    local, off_base, sqrt_c, wt_over_f, _ = _batch_arrays(instances, ds.features)
    for k, inst in enumerate(instances):
        row = _instance_arrays(inst)
        for batched, scalar in zip((local[k], off_base[k], sqrt_c[k], wt_over_f[k]), row):
            np.testing.assert_array_equal(batched, scalar)


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


def test_labels_io_roundtrip(tmp_path):
    ds = label_instances(generate_instances(3, 15, seed=53))
    path = tmp_path / "labels.csv"
    write_labels(path, ds)
    back = read_labels(path)
    np.testing.assert_array_equal(back.decision, ds.decision)
    np.testing.assert_allclose(back.features, ds.features, rtol=0)
    np.testing.assert_allclose(back.alloc, ds.alloc, rtol=0)
    np.testing.assert_allclose(back.cost, ds.cost, rtol=0)


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
        mask_cost = kernels.mask_cost(*_instance_arrays(inst))
        costs = [mask_cost(m) for m in range(16)]
        ties = [m for m, c in enumerate(costs) if c == min(costs)]
        assert len(ties) == math.comb(4, offloaders)
        ex = solve_exhaustive(inst)
        assert decisions_to_mask(ex.solution.decisions) == ties[0]
        for rule in BRANCHING_RULES:
            bb = solve_sbb(inst, SbbConfig(branching_rule=rule))
            assert bb.solution.decisions == ex.solution.decisions


@pytest.mark.parametrize("cpu_cycles", [1e9, 2e9])
@pytest.mark.parametrize("edge_freq", [1e9, 2e9, 3e9, 5e9, 1e10, 3e10])
@pytest.mark.parametrize("rule", BRANCHING_RULES)
def test_exact_sbb_ties_match_exhaustive_for_identical_vehicles(cpu_cycles, edge_freq, rule):
    # every mask with the same number of offloaders ties; sBB prices masks
    # with the kernel's own operations, so it must pick the kernel's mask
    for n in range(2, 11):
        inst = _identical_vehicles(n, edge_freq, cpu_cycles)
        ex = solve_exhaustive(inst)
        bb = solve_sbb(inst, SbbConfig(branching_rule=rule))
        assert bb.proven_optimal
        assert bb.solution.decisions == ex.solution.decisions, n
