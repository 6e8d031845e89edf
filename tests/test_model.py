import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeoffload.errors import (
    FileFormatError,
    InvalidAllocationError,
    InvalidParameterError,
    ValidationError,
)
from edgeoffload.model import (
    DEFAULT_RANGES,
    CostWeights,
    EdgeParams,
    OffloadInstance,
    OffloadSolution,
    VehicleParams,
    batch_features,
    generate_instances,
    instance_to_record,
    local_cost,
    offload_cost,
    raw_features,
    read_instances,
    total_cost,
    uplink_rate,
    validate_ranges,
    write_instances,
)

# SNR 1e4 with these numbers; rate frozen from a 40-digit mpmath evaluation
# of 1e6 * log2(1 + 1e4).
GOLDEN_RATE_VEHICLE = VehicleParams(
    data_size=1e6, cpu_cycles=5e8, local_freq=1e9,
    tx_power=10.0, channel_gain=1e-6, bandwidth=1e6,
)
GOLDEN_EDGE = EdgeParams(edge_freq=1e10, noise_power=1e-9)
GOLDEN_WEIGHTS = CostWeights(w_time=1.0, w_energy=1.0, kappa=1e-27)
GOLDEN_RATE = 13287856.64184054394


def test_uplink_rate_golden():
    assert uplink_rate(GOLDEN_RATE_VEHICLE, GOLDEN_EDGE) == pytest.approx(
        GOLDEN_RATE, rel=1e-12
    )


def test_local_cost_golden():
    # delay 5e8/1e9 = 0.5 s; energy 1e-27 * (1e9)^2 * 5e8 = 0.5 J
    assert local_cost(GOLDEN_RATE_VEHICLE, GOLDEN_WEIGHTS) == pytest.approx(1.0, rel=1e-12)


def test_offload_cost_golden():
    v, e, w = GOLDEN_RATE_VEHICLE, GOLDEN_EDGE, GOLDEN_WEIGHTS
    tx = 1e6 / GOLDEN_RATE
    expected = (tx + 5e8 / (0.5 * 1e10)) + 10.0 * tx
    assert offload_cost(v, e, w, 0.5) == pytest.approx(expected, rel=1e-12)


def test_total_cost_mixes_local_and_offload():
    inst = OffloadInstance(
        vehicles=(GOLDEN_RATE_VEHICLE, GOLDEN_RATE_VEHICLE),
        edge=GOLDEN_EDGE,
        weights=GOLDEN_WEIGHTS,
    )
    got = total_cost(inst, (0, 1), (0.0, 1.0))
    expected = local_cost(GOLDEN_RATE_VEHICLE, GOLDEN_WEIGHTS) + offload_cost(
        GOLDEN_RATE_VEHICLE, GOLDEN_EDGE, GOLDEN_WEIGHTS, 1.0
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_offload_cost_rejects_zero_allocation():
    with pytest.raises(InvalidAllocationError):
        offload_cost(GOLDEN_RATE_VEHICLE, GOLDEN_EDGE, GOLDEN_WEIGHTS, 0.0)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_cost_scales_linearly_in_weights(scale):
    w = CostWeights(w_time=scale, w_energy=scale, kappa=1e-27)
    base = CostWeights(w_time=1.0, w_energy=1.0, kappa=1e-27)
    assert local_cost(GOLDEN_RATE_VEHICLE, w) == pytest.approx(
        scale * local_cost(GOLDEN_RATE_VEHICLE, base), rel=1e-12
    )
    assert offload_cost(GOLDEN_RATE_VEHICLE, GOLDEN_EDGE, w, 0.3) == pytest.approx(
        scale * offload_cost(GOLDEN_RATE_VEHICLE, GOLDEN_EDGE, base, 0.3), rel=1e-12
    )


@given(frac=st.floats(min_value=1e-6, max_value=0.999))
def test_offload_cost_decreases_with_allocation(frac):
    lo = offload_cost(GOLDEN_RATE_VEHICLE, GOLDEN_EDGE, GOLDEN_WEIGHTS, frac)
    hi = offload_cost(GOLDEN_RATE_VEHICLE, GOLDEN_EDGE, GOLDEN_WEIGHTS, min(1.0, frac * 1.5))
    assert hi <= lo


class TestOffloadSolution:
    def test_alloc_zero_iff_local(self):
        with pytest.raises(InvalidAllocationError):
            OffloadSolution(decisions=(0, 1), alloc=(0.2, 0.8), cost=1.0)
        with pytest.raises(InvalidAllocationError):
            OffloadSolution(decisions=(1, 1), alloc=(0.0, 1.0), cost=1.0)

    def test_alloc_sum_capped(self):
        with pytest.raises(InvalidAllocationError):
            OffloadSolution(decisions=(1, 1), alloc=(0.7, 0.7), cost=1.0)

    def test_cost_must_be_finite(self):
        with pytest.raises(InvalidAllocationError):
            OffloadSolution(decisions=(0,), alloc=(0.0,), cost=math.inf)

    def test_valid_solution_accepted(self):
        sol = OffloadSolution(decisions=(1, 0), alloc=(1.0, 0.0), cost=0.5)
        assert sol.decisions == (1, 0)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        VehicleParams(data_size=-1, cpu_cycles=1e9, local_freq=1e9,
                      tx_power=10, channel_gain=1e-5, bandwidth=1e6)
    with pytest.raises(InvalidParameterError):
        VehicleParams(data_size=1e6, cpu_cycles=1e9, local_freq=1e9,
                      tx_power=10, channel_gain=2.0, bandwidth=1e6)
    with pytest.raises(InvalidParameterError):
        CostWeights(w_time=0.0, w_energy=0.0, kappa=1e-27)
    with pytest.raises(InvalidParameterError):
        EdgeParams(edge_freq=0.0, noise_power=1e-9)


def test_generation_is_deterministic_and_in_range():
    a = generate_instances(3, 100, seed=42)
    b = generate_instances(3, 100, seed=42)
    assert a == b
    lo, hi = DEFAULT_RANGES["data_size_bits"]
    for inst in a:
        assert inst.n_vehicles == 3
        for v in inst.vehicles:
            assert lo <= v.data_size <= hi


def test_generation_seed_changes_output():
    assert generate_instances(2, 10, seed=0) != generate_instances(2, 10, seed=1)


def _generate_per_child(n_vehicles, n_instances, ranges, seed):
    """Reference: the per-child draw loop that generation used to run."""
    children = np.random.SeedSequence(seed).spawn(n_instances)
    out = []
    for child in children:
        inst_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        rng = np.random.default_rng(child)

        def draw(name, size=None):
            lo, hi = ranges[name]
            if size is None:
                return lo if lo == hi else float(rng.uniform(lo, hi))
            if lo == hi:
                rng.uniform(0.0, 1.0, size=size)
                return np.full(size, lo)
            return rng.uniform(lo, hi, size=size)

        cols = {name: draw(name, n_vehicles) for name in
                ("data_size_bits", "cpu_cycles", "local_freq", "tx_power", "bandwidth", "gain")}
        vehicles = tuple(
            VehicleParams(
                data_size=float(cols["data_size_bits"][i]),
                cpu_cycles=float(cols["cpu_cycles"][i]),
                local_freq=float(cols["local_freq"][i]),
                tx_power=float(cols["tx_power"][i]),
                channel_gain=float(cols["gain"][i]),
                bandwidth=float(cols["bandwidth"][i]),
            )
            for i in range(n_vehicles)
        )
        edge = EdgeParams(edge_freq=draw("edge_freq"), noise_power=draw("noise_power"))
        weights = CostWeights(w_time=draw("w_time"), w_energy=draw("w_energy"),
                              kappa=draw("kappa"))
        out.append(OffloadInstance(vehicles=vehicles, edge=edge, weights=weights, seed=inst_seed))
    return out


ALL_DRAWN_RANGES = {
    **DEFAULT_RANGES,
    "local_freq": (5e8, 2e9),
    "tx_power": (1.0, 10.0),
    "bandwidth": (1e6, 2e6),
    "noise_power": (1e-10, 1e-9),
    "edge_freq": (5e9, 2e10),
    "kappa": (1e-28, 1e-27),
    "w_time": (0.5, 2.0),
    "w_energy": (0.1, 1.0),
}


@pytest.mark.parametrize("ranges", [DEFAULT_RANGES, ALL_DRAWN_RANGES], ids=["default", "all-drawn"])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_generation_matches_per_child_draws(ranges, n):
    ref = _generate_per_child(n, 40, ranges, seed=n)
    new = generate_instances(n, 40, ranges, seed=n)
    assert new == ref
    assert [instance_to_record(i) for i in new] == [instance_to_record(i) for i in ref]


def test_generation_of_zero_instances():
    assert generate_instances(3, 0) == []


def test_instance_record_is_the_dataclass_fields():
    for inst in generate_instances(3, 10, ALL_DRAWN_RANGES, seed=4):
        payload = {"seed": inst.seed, "vehicles": [asdict(v) for v in inst.vehicles],
                   "edge": asdict(inst.edge), "weights": asdict(inst.weights)}
        assert instance_to_record(inst) == json.dumps(payload, sort_keys=True,
                                                      separators=(",", ":"))


def test_validate_ranges_rejects_inverted():
    bad = dict(DEFAULT_RANGES)
    bad["cpu_cycles"] = (2e9, 1e9)
    with pytest.raises(Exception):
        validate_ranges(bad)


def test_raw_features_layout():
    inst = generate_instances(2, 1, seed=5)[0]
    feats = raw_features(inst)
    assert feats.shape == (6 * 2 + 4,)
    v0 = inst.vehicles[0]
    assert feats[0] == v0.data_size
    assert feats[-2] == inst.weights.w_time
    assert feats[-1] == inst.weights.w_energy


def test_batch_features_rows_are_raw_features():
    instances = generate_instances(4, 20, ALL_DRAWN_RANGES, seed=6)
    np.testing.assert_array_equal(batch_features(instances),
                                  np.array([raw_features(i) for i in instances]))


def test_batch_features_rejects_empty_and_mixed_batches():
    with pytest.raises(ValidationError):
        batch_features([])
    with pytest.raises(ValidationError):
        batch_features(generate_instances(2, 1) + generate_instances(3, 1))


def test_instance_io_roundtrip(tmp_path):
    instances = generate_instances(4, 25, seed=9)
    path = tmp_path / "inst.txt"
    write_instances(path, instances)
    assert read_instances(path) == instances
    # rerun with same seed -> byte-identical file
    path2 = tmp_path / "inst2.txt"
    write_instances(path2, generate_instances(4, 25, seed=9))
    assert path.read_bytes() == path2.read_bytes()


def test_instance_io_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-header\n")
    with pytest.raises(FileFormatError):
        read_instances(path)
