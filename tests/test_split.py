import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeoffload.config import split_scenario
from edgeoffload.errors import ConfigError, InvalidParameterError, ValidationError
from edgeoffload.model import uplink_rate
from edgeoffload.split import (
    BITS_PER_BYTE,
    best_split,
    eta_sweep,
    eta_sweep_csv,
    local_joint_crossover,
    segment_cost,
    strategy_cost,
)


@pytest.fixture(scope="module")
def scenario():
    sc, _ = split_scenario(None)  # shipped defaults
    return sc


def test_segment_cost_golden(scenario):
    """Hand-computed against the link/compute parameters in the default config."""
    v, e, w = scenario.vehicle, scenario.edge, scenario.weights
    rate = v.bandwidth * math.log2(1.0 + v.tx_power * v.channel_gain / e.noise_power)
    k = 2
    local_cycles = sum(c for c, _ in scenario.profile.layers[:k])
    remote_cycles = sum(c for c, _ in scenario.profile.layers[k:])
    upload_bits = 8.0 * scenario.profile.layers[k - 1][1]
    expected = (
        w.w_time * (local_cycles / v.local_freq + upload_bits / rate
                    + remote_cycles / e.edge_freq)
        + w.w_energy * (w.kappa * v.local_freq**2 * local_cycles
                        + v.tx_power * upload_bits / rate)
    )
    assert segment_cost(scenario, k) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [-1, 7])
def test_segment_cost_rejects_a_split_outside_the_network(scenario, k):
    assert scenario.profile.n_layers == 6
    with pytest.raises(InvalidParameterError, match="out of range 0..6"):
        segment_cost(scenario, k)


def test_split_at_layer_zero_uploads_the_input(scenario):
    """k=0 runs nothing locally and uploads the raw input; k=L uploads nothing."""
    v, e, w = scenario.vehicle, scenario.edge, scenario.weights
    tx = 8.0 * scenario.profile.input_size / uplink_rate(v, e)
    cycles = sum(c for c, _ in scenario.profile.layers)
    assert segment_cost(scenario, 0) == pytest.approx(
        w.w_time * (tx + cycles / e.edge_freq) + w.w_energy * v.tx_power * tx, rel=1e-12)
    assert segment_cost(scenario, 6) == pytest.approx(
        w.w_time * cycles / v.local_freq + w.w_energy * w.kappa * v.local_freq**2 * cycles,
        rel=1e-12)


def test_best_split_is_exhaustive_minimum(scenario):
    k, cost = best_split(scenario)
    costs = [segment_cost(scenario, j) for j in range(scenario.profile.n_layers + 1)]
    assert cost == min(costs)
    assert k == costs.index(min(costs))


def test_edge_cost_constant_in_eta(scenario):
    costs = {strategy_cost(scenario, "edge", e) for e in (0.0, 0.3, 1.0)}
    assert len(costs) == 1


def test_strategy_costs_affine_in_eta(scenario):
    for name in ("local", "joint"):
        c0 = strategy_cost(scenario, name, 0.0)
        c1 = strategy_cost(scenario, name, 1.0)
        mid = strategy_cost(scenario, name, 0.5)
        assert mid == pytest.approx(0.5 * (c0 + c1), rel=1e-12)


def test_unknown_strategy_rejected(scenario):
    with pytest.raises(ConfigError):
        strategy_cost(scenario, "quantum", 0.3)


@pytest.mark.parametrize("eta", [-0.1, 1.5, math.nan])
def test_strategy_cost_rejects_eta_outside_the_unit_interval(scenario, eta):
    with pytest.raises(InvalidParameterError, match=r"eta must be in \[0, 1\]"):
        strategy_cost(scenario, "edge", eta)


def test_eta_sweep_golden(scenario):
    """Endpoint values frozen from an independent closed-form evaluation."""
    records = eta_sweep(scenario, [0.0, 0.5, 1.0])
    assert records[0].cost_local == pytest.approx(0.7124360000000001, rel=1e-12)
    assert records[0].cost_edge == pytest.approx(0.9873295725421862, rel=1e-12)
    assert records[0].cost_joint == pytest.approx(0.7697439999999998, rel=1e-12)
    assert records[1].cost_local == pytest.approx(1.7627579999999998, rel=1e-12)
    assert records[1].cost_joint == pytest.approx(1.7245622870506234, rel=1e-12)


def test_eta_sweep_requires_sorted(scenario):
    with pytest.raises(ValidationError):
        eta_sweep(scenario, [0.5, 0.1])


def test_eta_sweep_rejects_out_of_range(scenario):
    with pytest.raises(InvalidParameterError):
        eta_sweep(scenario, [-0.1, 0.5])


def test_eta_sweep_csv_prints_the_decimal_grid(scenario):
    etas = [line.split(",")[0] for line in eta_sweep_csv(scenario, 0.05).splitlines()[1:]]
    assert etas == [repr(round(0.05 * i, 2)) for i in range(21)]
    assert etas[3] == "0.15" and etas[-1] == "1.0"


@pytest.mark.parametrize("step", [0.3, 0.0, 1.5, math.nan])
def test_eta_sweep_csv_refuses_a_step_that_does_not_divide_one(scenario, step):
    with pytest.raises(ConfigError, match="divide 1"):
        eta_sweep_csv(scenario, step)


def test_eta_sweep_monotone_non_decreasing(scenario):
    etas = [i / 20 for i in range(21)]
    records = eta_sweep(scenario, etas)
    for a, b in zip(records, records[1:]):
        assert b.cost_local >= a.cost_local - 1e-12
        assert b.cost_edge >= a.cost_edge - 1e-12
        assert b.cost_joint >= a.cost_joint - 1e-12


def test_crossover_matches_curve_intersection(scenario):
    eta = local_joint_crossover(scenario)
    assert eta is not None
    assert strategy_cost(scenario, "local", eta) == pytest.approx(
        strategy_cost(scenario, "joint", eta), rel=1e-9
    )


def test_crossover_none_when_lines_meet_outside_range(scenario):
    # at this penalty the affine curves intersect beyond eta = 1
    off = replace(scenario, acc=replace(scenario.acc, miss_penalty=3.0))
    assert local_joint_crossover(off) is None


@given(eta=st.floats(min_value=0.0, max_value=1.0))
def test_costs_finite_and_positive(eta):
    sc, _ = split_scenario(None)
    for name in ("local", "edge", "joint"):
        c = strategy_cost(sc, name, eta)
        assert c > 0.0 and c < 1e9


# ---------------------------------------------------------------------------
# the costs as they were computed when eta was a scenario field and the
# caller passed the upload size: kept verbatim as a reference, except that
# LayerProfile.output_size(k) is inlined as _old_output_size
# ---------------------------------------------------------------------------

def _old_output_size(profile, k):
    return profile.input_size if k == 0 else profile.layers[k - 1][1]


def _old_segment_cost(sc, k: int, upload_bytes: float) -> float:
    L = sc.profile.n_layers
    if not 0 <= k <= L:
        raise InvalidParameterError(f"split index {k} out of range 0..{L}")
    if upload_bytes < 0:
        raise InvalidParameterError("upload_bytes must be >= 0")
    w = sc.weights
    v = sc.vehicle
    local_cycles = sum(c for c, _ in sc.profile.layers[:k])
    edge_cycles = sum(c for c, _ in sc.profile.layers[k:])
    tx_delay = 0.0
    if upload_bytes > 0:
        tx_delay = BITS_PER_BYTE * upload_bytes / uplink_rate(v, sc.edge)
    delay = local_cycles / v.local_freq + tx_delay + edge_cycles / sc.edge.edge_freq
    energy = w.kappa * v.local_freq**2 * local_cycles + v.tx_power * tx_delay
    return w.w_time * delay + w.w_energy * energy


def _old_snn_only_cost(sc, k: int) -> float:
    w = sc.weights
    v = sc.vehicle
    cycles = sum(c for c, _ in sc.profile.layers[:k])
    return w.w_time * cycles / v.local_freq + w.w_energy * w.kappa * v.local_freq**2 * cycles


def _old_best_split(sc) -> tuple[int, float]:
    L = sc.profile.n_layers
    best_k = 0
    best_cost = math.inf
    for k in range(L + 1):
        upload = 0.0 if k == L else _old_output_size(sc.profile, k)
        cost = _old_segment_cost(sc, k, upload)
        if cost < best_cost:
            best_k, best_cost = k, cost
    return best_k, best_cost


def _old_strategy_cost(sc, strategy: str) -> float:
    acc = sc.acc
    mp = acc.miss_penalty
    eta = sc.eta
    if strategy == "local":
        compute = _old_segment_cost(sc, sc.profile.n_layers, 0.0)
        penalty = eta * (1.0 - acc.acc_snn_bad) + (1.0 - eta) * (1.0 - acc.acc_full)
        return compute + mp * penalty
    if strategy == "edge":
        compute = _old_segment_cost(sc, 0, sc.profile.input_size)
        return compute + mp * (1.0 - acc.acc_full)
    if strategy == "joint":
        k = sc.split_index
        upload = 0.0 if k == sc.profile.n_layers else _old_output_size(sc.profile, k)
        good = _old_snn_only_cost(sc, k) + mp * (1.0 - acc.acc_snn_good)
        bad = _old_segment_cost(sc, k, upload) + mp * (1.0 - acc.acc_full)
        return (1.0 - eta) * good + eta * bad
    raise ConfigError(f"unknown strategy {strategy!r}")


@pytest.mark.parametrize("kv", [
    {},
    {"split_index": "4", "w_time": "0.3", "w_energy": "2.5"},
    {"split_index": "0"},
    {"split_index": "6"},
], ids=["shipped", "weighted", "split0", "splitL"])
def test_costs_equal_the_stored_eta_reference(kv):
    sc, _ = split_scenario(kv)
    L = sc.profile.n_layers
    for k in range(L + 1):
        upload = 0.0 if k == L else _old_output_size(sc.profile, k)
        assert segment_cost(sc, k) == _old_segment_cost(sc, k, upload)
    assert best_split(sc) == _old_best_split(sc)
    for eta in [i / 20 for i in range(21)]:  # the shipped fig6 grid
        with_eta = SimpleNamespace(**vars(sc), eta=eta)
        for name in ("local", "edge", "joint"):
            assert strategy_cost(sc, name, eta) == _old_strategy_cost(with_eta, name)
