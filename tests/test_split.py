from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeoffload.config import split_scenario
from edgeoffload.errors import ConfigError, InvalidParameterError, ValidationError
from edgeoffload.split import (
    best_split,
    eta_sweep,
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
    import math

    v, e, w = scenario.vehicle, scenario.edge, scenario.weights
    rate = v.bandwidth * math.log2(1.0 + v.tx_power * v.channel_gain / e.noise_power)
    k = 2
    local_cycles = sum(c for c, _ in scenario.profile.layers[:k])
    remote_cycles = sum(c for c, _ in scenario.profile.layers[k:])
    upload_bits = 8.0 * scenario.profile.output_size(k)
    expected = (
        w.w_time * (local_cycles / v.local_freq + upload_bits / rate
                    + remote_cycles / e.edge_freq)
        + w.w_energy * (w.kappa * v.local_freq**2 * local_cycles
                        + v.tx_power * upload_bits / rate)
    )
    got = segment_cost(scenario, k, scenario.profile.output_size(k))
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [-1, 7])
def test_segment_cost_rejects_a_split_outside_the_network(scenario, k):
    assert scenario.profile.n_layers == 6
    with pytest.raises(InvalidParameterError, match="out of range 0..6"):
        segment_cost(scenario, k, 0.0)


def test_output_size_layer_zero_is_input(scenario):
    assert scenario.profile.output_size(0) == scenario.profile.input_size


def test_best_split_is_exhaustive_minimum(scenario):
    k, cost = best_split(scenario)
    L = scenario.profile.n_layers
    costs = [
        segment_cost(scenario, j, 0.0 if j == L else scenario.profile.output_size(j))
        for j in range(L + 1)
    ]
    assert cost == min(costs)
    assert k == costs.index(min(costs))


def test_edge_cost_constant_in_eta(scenario):
    costs = {strategy_cost(replace(scenario, eta=e), "edge") for e in (0.0, 0.3, 1.0)}
    assert len(costs) == 1


def test_strategy_costs_affine_in_eta(scenario):
    for name in ("local", "joint"):
        c0 = strategy_cost(replace(scenario, eta=0.0), name)
        c1 = strategy_cost(replace(scenario, eta=1.0), name)
        mid = strategy_cost(replace(scenario, eta=0.5), name)
        assert mid == pytest.approx(0.5 * (c0 + c1), rel=1e-12)


def test_unknown_strategy_rejected(scenario):
    with pytest.raises(ConfigError):
        strategy_cost(scenario, "quantum")


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
    at = replace(scenario, eta=eta)
    assert strategy_cost(at, "local") == pytest.approx(
        strategy_cost(at, "joint"), rel=1e-9
    )


def test_crossover_none_when_lines_meet_outside_range(scenario):
    # at this penalty the affine curves intersect beyond eta = 1
    off = replace(scenario, acc=replace(scenario.acc, miss_penalty=3.0))
    assert local_joint_crossover(off) is None


@given(eta=st.floats(min_value=0.0, max_value=1.0))
def test_costs_finite_and_positive(eta):
    sc, _ = split_scenario(None)
    at = replace(sc, eta=eta)
    for name in ("local", "edge", "joint"):
        c = strategy_cost(at, name)
        assert c > 0.0 and c < 1e9
