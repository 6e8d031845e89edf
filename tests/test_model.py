import json
import math
import re
import sys
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeoffload import model
from edgeoffload.errors import (
    ConfigError,
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
    _child_streams,
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

    @pytest.mark.parametrize("decisions, alloc", [
        pytest.param((1, 1), (math.nan, 0.5), id="nan-share"),
        pytest.param((0, 1), (math.nan, 0.5), id="nan-share-local"),
        pytest.param((2, 0), (0.5, 0.0), id="decision-2"),
        pytest.param((1, -1), (0.5, 0.0), id="decision-minus-1"),
        pytest.param((1, 1), (-0.5, 0.5), id="negative-share"),
        pytest.param((0, 1), (-0.5, 0.5), id="negative-share-local"),
        pytest.param((1, 1), (0.5,), id="unequal-lengths"),
    ])
    def test_refuses(self, decisions, alloc):
        with pytest.raises(InvalidAllocationError):
            OffloadSolution(decisions=decisions, alloc=alloc, cost=1.0)

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


# seeds of one, two, three and five 32-bit words; entropy longer than the
# four-word pool goes through SeedSequence's last mixing loop
WIDE_SEEDS = [0, 2**32 - 1, 2**32 + 5, 2**64 + 12345, 2**130 + 7]


@pytest.mark.parametrize("ranges", [DEFAULT_RANGES, ALL_DRAWN_RANGES], ids=["default", "all-drawn"])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_generation_matches_per_child_draws(ranges, n):
    for seed, n_instances in [(n, 40), (n, 1), (n, 1000), *((s, 40) for s in WIDE_SEEDS)]:
        ref = _generate_per_child(n, n_instances, ranges, seed=seed)
        new = generate_instances(n, n_instances, ranges, seed=seed)
        assert new == ref
        assert [instance_to_record(i) for i in new] == [instance_to_record(i) for i in ref]


@pytest.mark.parametrize("seed", [1, 3, 7919, *WIDE_SEEDS])
def test_child_streams_match_numpy(seed):
    # k = 101 is N=16 with every global drawn
    for n, k in [(1, 1), (5, 6), (37, 101)]:
        seeds, u = _child_streams(seed, n, k)
        children = np.random.SeedSequence(seed).spawn(n)
        assert seeds.dtype == np.uint64 and u.shape == (n, k)
        assert seeds.tolist() == [int(c.generate_state(1, np.uint64)[0]) for c in children]
        assert np.array_equal(u, [np.random.default_rng(c).random(k) for c in children])


def test_generation_builds_no_per_child_generator(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("generation must not build numpy seed sequences or generators")

    for name in ("SeedSequence", "default_rng", "Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, forbidden)
    monkeypatch.setattr(np.random.bit_generator, "SeedSequence", forbidden)
    assert len(generate_instances(16, 50, ALL_DRAWN_RANGES, seed=3)) == 50


def test_child_streams_memory_is_bounded_by_the_output():
    tracemalloc.start()
    try:
        _, u = _child_streams(7, 20_000, 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * u.nbytes


def test_generation_rejects_bad_seed_and_count():
    for seed in (-1, -(2**64), 1.0, "0", None):
        with pytest.raises(InvalidParameterError, match="seed"):
            generate_instances(2, 3, seed=seed)
    for count in (-1, 2**32):
        with pytest.raises(InvalidParameterError, match="n_instances"):
            generate_instances(2, count)


def test_generation_refuses_a_bool_seed():
    for seed in (True, False):
        with pytest.raises(InvalidParameterError, match="seed"):
            generate_instances(2, 3, seed=seed)


@pytest.mark.parametrize("seed", [math.nan, 1.5, True, False, -4, 2**64, np.int64(3), np.uint64(3)],
                         ids=["nan", "fraction", "true", "false", "negative", "2**64", "int64",
                              "uint64"])
def test_instance_refuses_a_seed_no_instance_file_holds(seed):
    inst = generate_instances(2, 1)[0]
    with pytest.raises(InvalidParameterError, match="seed"):
        OffloadInstance(inst.vehicles, inst.edge, inst.weights, seed=seed)


def test_instance_file_round_trips_the_extreme_seeds(tmp_path):
    inst = generate_instances(2, 1)[0]
    instances = [OffloadInstance(inst.vehicles, inst.edge, inst.weights, seed=seed)
                 for seed in (0, 2**64 - 1)]
    write_instances(tmp_path / "inst.txt", instances)
    assert read_instances(tmp_path / "inst.txt") == instances


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


@pytest.mark.parametrize("ranges, message", [
    ({}, "empty"),
    ({k: v for k, v in DEFAULT_RANGES.items() if k != "kappa"}, "missing range for 'kappa'"),
    ({**DEFAULT_RANGES, "gain": (1e-7, 1.5)}, "gain range must stay <= 1"),
], ids=["empty", "missing-key", "gain-above-one"])
def test_validate_ranges_refuses(ranges, message):
    with pytest.raises(ConfigError, match=message):
        validate_ranges(ranges)


def test_generation_refuses_zero_vehicles():
    with pytest.raises(InvalidParameterError, match="n_vehicles"):
        generate_instances(0, 3)


@pytest.mark.parametrize("decisions, alloc", [([1], [1.0, 0.0]), ([1, 0], [1.0])])
def test_total_cost_refuses_a_length_mismatch(decisions, alloc):
    inst = generate_instances(2, 1)[0]
    with pytest.raises(InvalidAllocationError, match="length"):
        total_cost(inst, decisions, alloc)


@pytest.mark.parametrize("part", ["vehicle", "weights"])
def test_writing_a_bool_parameter_is_refused(tmp_path, part):
    """A bool passes the positive checks as 1, but the file would hold true."""
    a, b = generate_instances(2, 2, seed=3)
    if part == "vehicle":
        b = replace(b, vehicles=(replace(b.vehicles[0], data_size=True), b.vehicles[1]))
    else:
        b = replace(b, weights=replace(b.weights, w_time=True))
    for batch in ([a, b], [b]):
        with pytest.raises(ValidationError, match="not True or False"):
            write_instances(tmp_path / "inst.txt", batch)


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


def _instance_file_with(tmp_path, key, value):
    """An N=2 instance file whose second record (line 3) holds ``value`` as ``key``."""
    path = tmp_path / "inst.txt"
    write_instances(path, generate_instances(2, 3, seed=9))
    lines = path.read_text().splitlines()
    payload = json.loads(lines[2])
    for target in (payload, payload["vehicles"][0], payload["weights"]):
        if key in target:
            target[key] = "@"
    lines[2] = json.dumps(payload, separators=(",", ":")).replace('"@"', value)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("key, value, error", [
    pytest.param("data_size", "1" + "0" * 400, FileFormatError, id="int-too-large-for-a-float"),
    ("data_size", "true", FileFormatError),
    ("seed", "true", FileFormatError),
    ("data_size", "false", FileFormatError),  # fails the positive check as 0
    ("w_energy", "false", FileFormatError),  # would read as a weight of 0
    ("seed", "false", FileFormatError),
    ("seed", "1.5", FileFormatError),
    ("seed", "7.0", FileFormatError),
    ("seed", '"7"', FileFormatError),
    pytest.param("seed", "-3", FileFormatError, id="negative-seed"),
    pytest.param("seed", str(2**64), FileFormatError, id="seed-2**64"),
    ("data_size", "-5.0", InvalidParameterError),
])
def test_instance_io_refuses_a_value_by_file_and_line(tmp_path, key, value, error):
    path = _instance_file_with(tmp_path, key, value)
    with pytest.raises(error, match=r"inst\.txt:3: "):
        read_instances(path)


def test_instance_io_reads_a_zero_weight_and_seed(tmp_path):
    path = _instance_file_with(tmp_path, "w_energy", "0.0")
    lines = path.read_text().splitlines()
    lines[2] = re.sub(r'"seed":\d+', '"seed":0', lines[2])
    path.write_text("\n".join(lines) + "\n")
    inst = read_instances(path)[1]
    assert (inst.weights.w_energy, inst.seed) == (0.0, 0)


def test_instance_io_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "inst.txt"
    write_instances(path, generate_instances(2, 2, seed=9))
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, "", first, "  ", second]) + "\n")
    assert read_instances(path) == generate_instances(2, 2, seed=9)
    path.write_text("\n".join([header, "", first, "", "{"]) + "\n")
    with pytest.raises(FileFormatError, match=r"inst\.txt:5: malformed record"):
        read_instances(path)
    path.write_text(header + "\n\n")
    assert read_instances(path) == []


_REFERENCE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _reference_record(inst):
    """The record of one instance, encoded whole from its fields."""
    return _REFERENCE_ENCODER.encode({
        "seed": inst.seed,
        "vehicles": [asdict(v) for v in inst.vehicles],
        "edge": asdict(inst.edge),
        "weights": asdict(inst.weights),
    })


def _assert_written_as_reference(tmp_path, instances):
    path = tmp_path / "inst.txt"
    write_instances(path, instances)
    expected = "".join(f"{line}\n" for line in ["offload-instance v1",
                                                *map(_reference_record, instances)])
    assert path.read_text() == expected


@pytest.mark.parametrize("ranges", [DEFAULT_RANGES, ALL_DRAWN_RANGES], ids=["default", "all-drawn"])
@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_written_records_match_the_whole_record_encoder(tmp_path, ranges, n):
    instances = generate_instances(n, 30, ranges, seed=20 + n)
    _assert_written_as_reference(tmp_path, instances)
    assert [instance_to_record(i) for i in instances] == list(map(_reference_record, instances))


def test_written_records_of_mixed_sizes_and_many_chunks(tmp_path):
    chunk = model.CHUNK_ROWS
    # runs of one N that end inside, at and past a chunk's end
    instances = [*generate_instances(2, chunk + 3, seed=30), *generate_instances(3, 1, seed=31),
                 *generate_instances(2, 5, ALL_DRAWN_RANGES, seed=32),
                 *generate_instances(1, chunk, ALL_DRAWN_RANGES, seed=33)]
    _assert_written_as_reference(tmp_path, instances)
    _assert_written_as_reference(tmp_path, [])


def test_hand_written_values_are_rewritten_byte_identically(tmp_path):
    path = tmp_path / "inst.txt"
    write_instances(path, generate_instances(2, 6, seed=34))
    header, *records = path.read_text().splitlines()
    payloads = [json.loads(r) for r in records]
    payloads[1]["vehicles"][0]["tx_power"] = 10  # an int field
    payloads[2]["vehicles"][1]["data_size"] = 2000000
    for p in payloads:  # a column of 0.0 weights that holds one -0.0
        p["weights"]["w_energy"] = 0.0
    payloads[4]["weights"]["w_energy"] = -0.0
    payloads[5]["weights"]["w_time"] = 2
    written = [_REFERENCE_ENCODER.encode(p) for p in payloads]
    assert '"tx_power":10}' in written[1] and '"w_energy":-0.0,' in written[4]
    path.write_text("\n".join([header, *written]) + "\n")
    back = read_instances(path)
    assert type(back[1].vehicles[0].tx_power) is int
    rewritten = tmp_path / "again.txt"
    write_instances(rewritten, back)
    assert rewritten.read_bytes() == path.read_bytes()
    assert [instance_to_record(i) for i in back] == written


# Reference: the per-field checks the parameter classes ran on every field
# before the one chained test was put in front of them.
def _check_positive_reference(name, value, maximum=None):
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")
    if maximum is not None and value > maximum:
        raise InvalidParameterError(f"{name} must be <= {maximum}, got {value!r}")


def _vehicle_checks_reference(v):
    for name in ("data_size", "cpu_cycles", "local_freq", "tx_power"):
        _check_positive_reference(name, v[name])
    _check_positive_reference("channel_gain", v["channel_gain"], maximum=1.0)
    _check_positive_reference("bandwidth", v["bandwidth"])


def _edge_checks_reference(e):
    _check_positive_reference("edge_freq", e["edge_freq"])
    _check_positive_reference("noise_power", e["noise_power"])


def _weights_checks_reference(w):
    for name in ("w_time", "w_energy"):
        v = w[name]
        if not math.isfinite(v) or v < 0.0:
            raise InvalidParameterError(f"{name} must be >= 0 and finite, got {v!r}")
    if w["w_time"] == 0.0 and w["w_energy"] == 0.0:
        raise InvalidParameterError("w_time and w_energy cannot both be zero")
    _check_positive_reference("kappa", w["kappa"])


def _outcome(check, fields):
    """None if ``check(**fields)`` accepts, else the class and message it raises."""
    try:
        check(**fields)
    except Exception as exc:
        return type(exc), str(exc)
    return None


_CHECKED_VALUES = [math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -3.5, 10**400,
                   int(sys.float_info.max) + 1, sys.float_info.max, 5e-324, 1.0,
                   math.nextafter(1.0, 2.0), True, False, 7, "5", None]


@pytest.mark.parametrize("cls, valid, reference", [
    (VehicleParams, asdict(GOLDEN_RATE_VEHICLE), _vehicle_checks_reference),
    (EdgeParams, asdict(GOLDEN_EDGE), _edge_checks_reference),
    (CostWeights, asdict(GOLDEN_WEIGHTS), _weights_checks_reference),
], ids=["vehicle", "edge", "weights"])
def test_chained_checks_refuse_as_the_per_field_checks(cls, valid, reference):
    cases = [{**valid, name: value} for name in valid for value in _CHECKED_VALUES]
    if cls is CostWeights:  # both weights zero, in every sign
        cases += [{**valid, "w_time": a, "w_energy": b} for a in (0, 0.0, -0.0, False)
                  for b in (0, 0.0, -0.0, False)]
    outcomes = []
    for fields in cases:
        expected = _outcome(lambda **f: reference(f), fields)
        assert _outcome(cls, fields) == expected, fields
        outcomes.append(expected)
    assert None in outcomes and any(o and o[0] is InvalidParameterError for o in outcomes)
    assert any(o and o[0] is OverflowError for o in outcomes)  # 10**400 is refused


def test_chained_checks_keep_the_per_field_bounds():
    gain = {**asdict(GOLDEN_RATE_VEHICLE), "channel_gain": 1.0}
    VehicleParams(**gain)
    with pytest.raises(InvalidParameterError, match="channel_gain must be <= 1.0"):
        VehicleParams(**{**gain, "channel_gain": math.nextafter(1.0, 2.0)})
    huge = int(sys.float_info.max) + 1  # rounds to the largest float, so it is finite
    assert VehicleParams(**{**gain, "data_size": huge}).data_size == huge
    with pytest.raises(OverflowError):
        VehicleParams(**{**gain, "data_size": 10**400})
    assert CostWeights(w_time=True, w_energy=0.0, kappa=1e-27).w_time is True


def test_generation_shares_one_object_per_distinct_globals():
    def distinct(instances, field):
        return len({id(getattr(i, field)) for i in instances})

    pinned = generate_instances(2, 50, seed=1)
    assert (distinct(pinned, "edge"), distinct(pinned, "weights")) == (1, 1)
    drawn_weights = generate_instances(2, 50, {**DEFAULT_RANGES, "w_time": (0.5, 2.0)}, seed=1)
    assert (distinct(drawn_weights, "edge"), distinct(drawn_weights, "weights")) == (1, 50)
    drawn = generate_instances(2, 50, ALL_DRAWN_RANGES, seed=1)
    assert (distinct(drawn, "edge"), distinct(drawn, "weights")) == (50, 50)
    assert generate_instances(2, 50, ALL_DRAWN_RANGES, seed=1) == drawn
