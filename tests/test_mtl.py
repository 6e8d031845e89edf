import math
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from edgeoffload.errors import ConfigError, FileFormatError, ShapeError, ValidationError
from edgeoffload.model import (
    OffloadSolution,
    batch_features,
    feature_count,
    generate_instances,
    raw_features,
    total_cost,
)
from edgeoffload import mtl
from edgeoffload.mtl import (
    MtlModel,
    TrainConfig,
    evaluate,
    forward,
    infer_solution,
    load_model_bytes,
    loss_and_grads,
    normalize,
    save_model_bytes,
    solver_metrics,
    split_dataset,
    train,
    write_training_log,
)
from edgeoffload.solvers import (
    SbbConfig,
    decisions_to_mask,
    label_instances,
    mask_to_decisions,
    optimal_allocation,
    solve_batch,
    solve_sbb,
)


def _tensors(model):
    """Every parameter tensor of ``model``, in ``weights`` order."""
    heads = (*model.trunk, model.class_head, model.reg_head)
    return [t for pair in heads if pair is not None for t in pair]


def _grad_like(model):
    """A zeroed gradient buffer: a copy of ``model`` with its own weights."""
    return replace(model, weights=np.zeros_like(model.weights))


def _assert_same_log(log, ref_log, chi_c):
    """Equal logs; at chi_c = 0 ``ce_term`` is nan (not computed), and nan != nan."""
    keys = ["epoch", "loss", "mse_term"] + (["ce_term"] if chi_c != 0.0 else [])
    assert [[row[k] for k in keys] for row in log] == [[row[k] for k in keys] for row in ref_log]
    if chi_c == 0.0:
        assert all(math.isnan(row["ce_term"]) for row in log)


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def small_ds():
    return label_instances(generate_instances(2, 300, seed=100))


@pytest.fixture(scope="module")
def trained(small_ds):
    cfg = TrainConfig(epochs=60, seed=0)
    return train(small_ds, cfg)


def test_feature_count():
    assert feature_count(2) == 16
    assert feature_count(8) == 52


def test_forward_shapes(trained, small_ds):
    model, _ = trained
    logits, y, alloc = forward(model, normalize(small_ds.features[:7], model))
    probs = _softmax(logits)
    assert probs.shape == (7, 4)
    assert y.shape == (7, 2)
    assert alloc.shape == (7, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(16,), (3, 15)])
def test_normalize_takes_rows_of_the_feature_count_only(trained, shape):
    with pytest.raises(ShapeError):
        normalize(np.ones(shape), trained[0])


def test_forward_alloc_projected_to_simplex(trained, small_ds):
    model, _ = trained
    x = normalize(small_ds.features, model)
    logits, _, alloc = forward(model, x, with_class=False)
    assert logits is None
    assert (alloc >= -1e-12).all()
    assert (alloc.sum(axis=1) <= 1.0 + 1e-9).all()
    np.testing.assert_array_equal(forward(model, x)[2], alloc)


def test_training_reduces_loss(trained):
    _, log = trained
    assert log[-1]["loss"] < log[0]["loss"]


def test_training_is_deterministic(small_ds):
    cfg = TrainConfig(epochs=5, seed=7)
    m1, _ = train(small_ds, cfg)
    m2, _ = train(small_ds, cfg)
    assert save_model_bytes(m1) == save_model_bytes(m2)


def test_training_seed_changes_model(small_ds):
    m1, _ = train(small_ds, TrainConfig(epochs=5, seed=0))
    m2, _ = train(small_ds, TrainConfig(epochs=5, seed=1))
    assert save_model_bytes(m1) != save_model_bytes(m2)


def test_overfit_tiny_batch():
    """A hard sanity check on the optimizer: 32 samples must be memorized."""
    ds = label_instances(generate_instances(2, 32, seed=101))
    cfg = TrainConfig(epochs=5000, learning_rate=1e-2, batch_size=32, seed=0)
    model, log = train(ds, cfg)
    assert log[-1]["loss"] < 1e-2
    metrics = evaluate(model, ds)
    assert metrics.class_accuracy == 1.0


def test_split_dataset_partitions(small_ds):
    tr_idx, te_idx = split_dataset(small_ds, 0.75, seed=0)
    assert len(tr_idx) == 225 and len(te_idx) == 75
    # a true partition: every sample lands in exactly one side
    both = np.sort(np.concatenate([tr_idx, te_idx]))
    np.testing.assert_array_equal(both, np.arange(small_ds.n_samples))


def test_infer_solution_feasible_and_consistent(trained):
    model, _ = trained
    for inst in generate_instances(2, 50, seed=102):
        sol = infer_solution(model, inst)
        assert isinstance(sol, OffloadSolution)
        assert sol.cost == pytest.approx(
            total_cost(inst, sol.decisions, sol.alloc), rel=1e-12
        )


def test_every_solver_returns_a_python_float_cost(trained):
    model, _ = trained
    instances = generate_instances(2, 20, seed=104)
    solutions = [
        *(solve_sbb(inst).solution for inst in instances),
        *(rep.solution for rep in solve_batch(instances, "exhaustive")),
        *(rep.solution for rep in solve_batch(instances, "sbb", max_nodes=1)),
        *(infer_solution(model, inst) for inst in instances),
    ]
    assert all(type(sol.cost) is float for sol in solutions)


def test_infer_solution_reg_source(trained):
    model, _ = trained
    inst = generate_instances(2, 1, seed=103)[0]
    sol = infer_solution(model, inst, decision_source="reg")
    assert sol.cost >= 0.0


def _infer_solution_per_call(model, inst, decision_source):
    """Reference: the per-call inference it used to run, with its own
    normalization, softmax forward pass and thresholding loop."""
    feats = (raw_features(inst) - model.feature_mean) / model.feature_std
    h = feats[None, :]
    for w, b in model.trunk:
        h = np.maximum(h @ w + b, 0.0)
    wr, br = model.reg_head
    r = np.maximum(h @ wr + br, 0.0)
    s = r.sum(axis=1, keepdims=True)
    alloc_pred = np.where(s > 1.0, r / np.where(s > 0.0, s, 1.0), r)[0]
    n = model.n_vehicles
    if decision_source == "class":
        wc, bc = model.class_head
        mask = int(np.argmax(_softmax(h @ wc + bc)[0]))
    else:
        mask = 0
        for i in range(n):
            if alloc_pred[i] > 0.5 / n:
                mask |= 1 << (n - 1 - i)
    decisions = mask_to_decisions(mask, n)
    chosen = np.array(decisions, dtype=bool)
    masked = np.where(chosen, alloc_pred, 0.0)
    total = masked.sum()
    if chosen.any() and (total <= 0.0 or np.any(masked[chosen] <= 0.0)):
        alloc = optimal_allocation(inst, decisions)
    elif chosen.any():
        alloc = masked / total
    else:
        alloc = np.zeros(n)
    return decisions, tuple(alloc), total_cost(inst, decisions, alloc)


@pytest.fixture(scope="module")
def models_by_n():
    """Models at N = 1, 2, 3, 5 and 8, and a chi_c = 0 model (no 2^16 head) at N = 16."""
    return {n: train(label_instances(generate_instances(n, 400, seed=120 + n)),
                     TrainConfig(chi_c=float(n < 16), epochs=4, hidden_sizes=(16, 16), seed=0))[0]
            for n in (1, 2, 3, 5, 8, 16)}


# every (N, decision source) pair of models_by_n; its N=16 model decides by "reg" only
SOURCES_BY_N = [(n, source) for n in (1, 2, 3, 5, 8) for source in ("class", "reg")]
SOURCES_BY_N.append((16, "reg"))


@pytest.mark.parametrize("n, source", SOURCES_BY_N)
def test_infer_solution_matches_per_call_reference(models_by_n, n, source):
    model = models_by_n[n]
    for inst in generate_instances(n, 400, seed=130 + n):
        sol = infer_solution(model, inst, decision_source=source)
        decisions, alloc, cost = _infer_solution_per_call(model, inst, source)
        assert sol.decisions == decisions
        assert sol.alloc == alloc
        assert sol.cost == cost


@pytest.mark.parametrize("n, source", SOURCES_BY_N)
def test_infer_solution_mask_is_row_of_batched_rule(models_by_n, n, source):
    model = models_by_n[n]
    instances = generate_instances(n, 300, seed=140 + n)
    masks, alloc = mtl._decide(model, normalize(batch_features(instances), model), source)
    assert masks.shape == (300,) and alloc.shape == (300, n)
    for inst, mask in zip(instances, masks.tolist()):
        sol = infer_solution(model, inst, decision_source=source)
        assert decisions_to_mask(sol.decisions) == mask


def test_passes_and_fallbacks_go_through_module_globals(models_by_n, small_ds, monkeypatch):
    """The traced benchmark counts these calls by patching the module attributes."""
    calls = {"forward": 0, "optimal_allocation": 0, "loss_and_grads": 0}
    for name in calls:
        original = getattr(mtl, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mtl, name, counted)
    instances = generate_instances(3, 50, seed=133)
    for inst in instances:
        infer_solution(models_by_n[3], inst, decision_source="class")
    assert calls["forward"] == 50
    assert 0 < calls["optimal_allocation"] <= 50  # this model's class head falls back
    train(small_ds, TrainConfig(epochs=2, batch_size=100, seed=0))
    assert calls["loss_and_grads"] == 6
    assert calls["forward"] == 56


def test_unknown_decision_source_rejected(trained, small_ds):
    model, _ = trained
    inst = generate_instances(2, 1, seed=103)[0]
    with pytest.raises(ConfigError):
        infer_solution(model, inst, decision_source="both")
    with pytest.raises(ConfigError):
        mtl._decide(model, normalize(small_ds.features, model), "both")


def test_evaluate_against_oracle(trained, small_ds):
    model, _ = trained
    metrics = evaluate(model, small_ds)
    assert 0.0 <= metrics.class_accuracy <= 1.0
    assert metrics.reg_mse >= 0.0
    assert mtl.decision_seconds(model, small_ds) > 0.0


def test_evaluate_makes_one_decision_pass(trained, small_ds, monkeypatch):
    """Scoring reads no clock: one ``_decide`` pass, nothing timed."""
    model, _ = trained
    calls = []
    original = mtl._decide

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mtl, "_decide", counted)
    metrics = evaluate(model, small_ds)
    assert len(calls) == 1
    masks, alloc = original(model, normalize(small_ds.features, model))
    assert metrics == mtl.EvalMetrics(float((masks == small_ds.decision).mean()),
                                      float(((alloc - small_ds.alloc) ** 2).mean()))


def _on_fake_clock(monkeypatch, work, stall_call):
    """``work`` wrapped to advance a fake ``mtl.time`` clock by 1 s per call,
    and by 1000 s on call number ``stall_call``; returns (wrapped, clock)."""
    clock = {"now": 0.0, "calls": 0}

    def timed(*args):
        clock["calls"] += 1
        clock["now"] += 1000.0 if clock["calls"] == stall_call else 1.0
        return work(*args)

    monkeypatch.setattr(mtl, "time", SimpleNamespace(perf_counter=lambda: clock["now"]))
    return timed, clock


def test_evaluate_times_the_median_repeat(trained, small_ds, monkeypatch):
    """One stalled repeat does not move the decision time of ``decision_seconds``."""
    model, _ = trained
    decide, clock = _on_fake_clock(monkeypatch, mtl._decide, stall_call=2)
    monkeypatch.setattr(mtl, "_decide", decide)
    monkeypatch.setattr(mtl, "MIN_TIMED_PASSES", 2 * small_ds.n_samples)
    assert mtl.decision_seconds(model, small_ds) == 2.0 / (2 * small_ds.n_samples)
    assert clock["calls"] == mtl.TIMED_REPEATS * 2


@pytest.mark.parametrize("solver", ["mtl", "sbb"])
def test_seconds_per_item_ignores_a_stalled_repeat(trained, monkeypatch, solver):
    """Both sides of the learned-vs-sBB comparison are timed by one estimator."""
    model, _ = trained
    instances = generate_instances(2, 20, seed=106)
    x = normalize(batch_features(instances), model)
    work = {"mtl": lambda: mtl._decide(model, x),
            "sbb": lambda: [solve_sbb(inst, SbbConfig(16)) for inst in instances]}[solver]
    run, clock = _on_fake_clock(monkeypatch, work, stall_call=7)
    monkeypatch.setattr(mtl, "MIN_TIMED_PASSES", 3 * len(instances))
    assert mtl.seconds_per_item(run, len(instances)) == 3.0 / (3 * len(instances))
    assert clock["calls"] == mtl.TIMED_REPEATS * 3


def test_seconds_per_item_needs_an_item():
    with pytest.raises(ValidationError):
        mtl.seconds_per_item(lambda: None, 0)


def test_solver_metrics_perfect_for_oracle(small_ds):
    instances = generate_instances(2, 30, seed=104)
    ds = label_instances(instances)
    reports = [solve_sbb(inst) for inst in instances]
    metrics = solver_metrics(reports, ds)
    assert metrics.class_accuracy == 1.0
    assert metrics.reg_mse == pytest.approx(0.0, abs=1e-20)


def test_budgeted_sbb_metrics_degrade():
    instances = generate_instances(8, 120, seed=105)
    ds = label_instances(instances)
    budgeted = solver_metrics([solve_sbb(i, SbbConfig(max_nodes=2)) for i in instances], ds)
    assert budgeted.class_accuracy < 1.0


def test_model_serialization_roundtrip(trained):
    model, _ = trained
    blob = save_model_bytes(model)
    back = load_model_bytes(blob)
    assert save_model_bytes(back) == blob
    x = np.random.default_rng(0).normal(size=(4, feature_count(2)))
    l1, _, a1 = forward(model, x)
    l2, _, a2 = forward(back, x)
    p1, p2 = _softmax(l1), _softmax(l2)
    # float32 storage quantizes the weights once; reload is then exact
    np.testing.assert_allclose(p1, p2, atol=1e-5)
    np.testing.assert_allclose(a1, a2, atol=1e-5)


def _golden_model(has_class_head=True):
    """An N=1 model with one hidden layer of width 2 and hand-set weights,
    and its model file packed by hand."""
    d = feature_count(1)
    model = mtl._init_model(1, (2,), np.arange(d) / 2.0, np.arange(1, d + 1) / 4.0,
                            np.random.default_rng(0), has_class_head)
    trunk = [np.arange(20.0).reshape(d, 2), [0.5, -0.5]]  # trunk W (d_in, d_out), b
    class_head = [[[1.0, 2.0], [3.0, 4.0]], [-1.0, -2.0]]  # class head W (h, 2^N), b
    reg_head = [[[0.25], [0.75]], [0.125]]                 # regression head W (h, N), b
    tensors = trunk + (class_head if has_class_head else []) + reg_head
    assert [p.shape for p in _tensors(model)] == [
        (d, 2), (2,), *([(2, 2), (2,)] if has_class_head else []), (2, 1), (1,)]
    for p, value in zip(_tensors(model), tensors):
        p[...] = value
    blob = (b"mtl-model v2\n"
            + struct.pack("<II", 1, 1) + struct.pack("<I", 2) + struct.pack("<I", has_class_head)
            + struct.pack("<10d", *[i / 2.0 for i in range(d)])
            + struct.pack("<10d", *[(i + 1) / 4.0 for i in range(d)])
            + struct.pack("<20f", *range(20)) + struct.pack("<2f", 0.5, -0.5)
            + (struct.pack("<6f", 1.0, 2.0, 3.0, 4.0, -1.0, -2.0) if has_class_head else b"")
            + struct.pack("<3f", 0.25, 0.75, 0.125))
    return model, blob


def _assert_hand_packed_layout(has_class_head):
    """A round trip cannot see a layout change that save and load make together."""
    model, blob = _golden_model(has_class_head)
    n_weights = 31 if has_class_head else 25
    assert len(blob) == 13 + 8 + 4 * 1 + 4 + 8 * 2 * feature_count(1) + 4 * n_weights
    assert save_model_bytes(model) == blob
    back = load_model_bytes(blob)
    assert (back.n_vehicles, back.hidden_sizes) == (1, (2,))
    assert (back.class_head is None) == (not has_class_head)
    for p, q in zip(_tensors(back), _tensors(model), strict=True):
        np.testing.assert_array_equal(p, q)
    assert save_model_bytes(back) == blob


def test_model_file_matches_the_hand_packed_layout():
    _assert_hand_packed_layout(has_class_head=True)


def test_headless_model_file_matches_the_hand_packed_layout():
    _assert_hand_packed_layout(has_class_head=False)


def test_model_heads_are_views_of_the_weights():
    model, _ = _golden_model()
    model.weights[:] = 0.0
    assert not any(p.any() for p in _tensors(model))
    with pytest.raises(ShapeError, match="31 weights"):
        MtlModel(1, (2,), model.feature_mean, model.feature_std, model.weights[:-1])


def test_model_load_rejects_garbage():
    with pytest.raises(FileFormatError):
        load_model_bytes(b"not a model")


def test_model_load_refuses_a_v1_file():
    """v1 stored the feature mean and std as float32, which misnormalizes a
    near-constant column; such a file is refused, not read."""
    blob = b"mtl-model v1\n" + _golden_model()[1][len(mtl.MODEL_FILE_HEADER):]
    with pytest.raises(FileFormatError, match="v1.*float32.*retrain"):
        load_model_bytes(blob)


_GOLDEN = _golden_model()[1]
_SIZES = len(b"mtl-model v2\n")  # offset of the <II N and layer count


@pytest.mark.parametrize("blob", [
    _GOLDEN[: _SIZES + 5],  # inside the sizes
    _GOLDEN[: _SIZES + 8 + 2],  # inside the hidden widths
    _GOLDEN[: _SIZES + 12 + 2],  # inside the class-head flag
    _GOLDEN[:_SIZES] + struct.pack("<II", 1, 1000) + _GOLDEN[_SIZES + 8 :],  # widths past the end
    _GOLDEN[:100],  # inside the mean/std
    _GOLDEN[:-1],  # inside the weights
    _GOLDEN + b"\0",  # one trailing byte
    _golden_model(False)[1][:-4],  # a head-less file is 24 bytes shorter than this one
], ids=["sizes", "widths", "flag", "layer-count", "stats", "weights", "trailing", "headless-cut"])
def test_model_load_rejects_a_cut_or_padded_file(blob):
    with pytest.raises(FileFormatError):
        load_model_bytes(blob)


_MEAN = _SIZES + 16  # offset of the first feature_mean float64
_STD = _MEAN + 8 * feature_count(1)  # offset of the first feature_std float64
_WEIGHTS = _STD + 8 * feature_count(1)  # offset of the first float32 weight


@pytest.mark.parametrize("at, fmt, value", [
    (_WEIGHTS + 4 * 7, "<f", float("nan")), (_WEIGHTS, "<f", float("inf")),
    (len(_GOLDEN) - 4, "<f", float("-inf")),
    (_MEAN, "<d", float("nan")), (_STD + 8 * 3, "<d", float("inf")),
    (_STD + 8 * 3, "<d", 0.0), (_STD, "<d", -0.25),
], ids=["weight-nan", "weight-inf", "last-weight-ninf", "mean-nan", "std-inf", "std-zero",
        "std-negative"])
def test_model_load_rejects_a_corrupt_float(at, fmt, value):
    blob = bytearray(_GOLDEN)
    blob[at : at + struct.calcsize(fmt)] = struct.pack(fmt, value)
    with pytest.raises(FileFormatError):
        load_model_bytes(bytes(blob))


def _assert_rejected_before_the_layout(monkeypatch, n, width, flag):
    def no_layout(*args):
        raise AssertionError("layout built for out-of-range sizes")

    monkeypatch.setattr(mtl, "_param_shapes", no_layout)
    blob = _GOLDEN[:_SIZES] + struct.pack("<IIII", n, 1, width, flag) + _GOLDEN[_SIZES + 16 :]
    with pytest.raises(FileFormatError, match="out of range"):
        load_model_bytes(blob)


@pytest.mark.parametrize("n, width", [(0, 2), (17, 2), (1 << 31, 2), (1, 0)])
def test_model_load_rejects_sizes_before_building_the_layout(monkeypatch, n, width):
    _assert_rejected_before_the_layout(monkeypatch, n, width, 1)


@pytest.mark.parametrize("flag", [2, 0xFFFFFFFF])
def test_model_load_rejects_a_class_head_flag_other_than_0_or_1(monkeypatch, flag):
    _assert_rejected_before_the_layout(monkeypatch, 1, 2, flag)


def test_default_model_under_2kb(trained):
    model, _ = trained
    assert len(save_model_bytes(model)) == 2041 <= 2048  # the README figures
    d = feature_count(8)
    for has_class_head, size in ((True, 99713), (False, 33153)):
        n8 = mtl._init_model(8, (64, 64), np.zeros(d), np.ones(d), np.random.default_rng(0),
                             has_class_head)
        assert len(save_model_bytes(n8)) == size


def _held_out_masks(model, n, seed):
    rows = normalize(batch_features(generate_instances(n, 500, seed=seed)), model)
    return mtl._decide(model, rows)


@pytest.mark.parametrize("n, chi_c, hidden", [(2, 1.0, (12, 12)), (5, 1.0, (32, 32)),
                                              (8, 0.0, (64, 64))])
def test_a_model_read_back_decides_as_the_trained_model(n, chi_c, hidden):
    """The pinned noise_power column has a training std near 1e-22; its mean
    and std must survive the file exactly for the inputs to normalize alike."""
    ds = label_instances(generate_instances(n, 1000, seed=180 + n))
    model, _ = train(ds, TrainConfig(chi_c=chi_c, epochs=3, hidden_sizes=hidden, seed=0))
    assert (model.class_head is None) == (chi_c == 0.0)
    back = load_model_bytes(save_model_bytes(model))
    np.testing.assert_array_equal(back.feature_mean, model.feature_mean)
    np.testing.assert_array_equal(back.feature_std, model.feature_std)
    masks, alloc = _held_out_masks(model, n, 190 + n)
    back_masks, back_alloc = _held_out_masks(back, n, 190 + n)
    np.testing.assert_array_equal(back_masks, masks)
    np.testing.assert_allclose(back_alloc, alloc, atol=1e-5)


def test_loss_decomposition(trained, small_ds):
    model, _ = trained
    x = normalize(small_ds.features[:64], model)
    batch = (model, x, small_ds.decision[:64], small_ds.alloc[:64])
    ce_only = loss_and_grads(*batch, 1.0, 0.0, _grad_like(model))[0]
    mse_only = loss_and_grads(*batch, 0.0, 1.0, _grad_like(model))[0]
    both = loss_and_grads(*batch, 1.0, 1.0, _grad_like(model))[0]
    assert both == pytest.approx(ce_only + mse_only, rel=1e-12)


def test_training_log_format(tmp_path, trained):
    _, log = trained
    path = tmp_path / "log.csv"
    write_training_log(path, log)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss,ce_term,mse_term"
    assert len(lines) == len(log) + 1


def _train_per_tensor(ds, cfg):
    """Reference: training with the per-tensor Adam loop it used to run."""
    train_idx, _ = split_dataset(ds, cfg.train_fraction, cfg.seed)
    x_raw = ds.features[train_idx]
    mean = x_raw.mean(axis=0)
    std = x_raw.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    x = (x_raw - mean) / std
    cls, alloc = ds.decision[train_idx], ds.alloc[train_idx]
    rng = np.random.default_rng(cfg.seed + 1)
    model = mtl._init_model(ds.n_vehicles, tuple(cfg.hidden_sizes), mean, std, rng,
                            cfg.chi_c != 0.0)
    grad = _grad_like(model)
    params, grads = _tensors(model), _tensors(grad)
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    t, log = 0, []
    for epoch in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        tot = ce_sum = mse_sum = 0.0
        n_batches = 0
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value, ce, mse = mtl.loss_and_grads(
                model, x[idx], cls[idx], alloc[idx], cfg.chi_c, cfg.chi_r, grad
            )
            t += 1
            lr_t = cfg.learning_rate * (
                np.sqrt(1.0 - cfg.adam_beta2**t) / (1.0 - cfg.adam_beta1**t)
            )
            for p, g, m_s, v_s in zip(params, grads, m_state, v_state):
                m_s *= cfg.adam_beta1
                m_s += (1.0 - cfg.adam_beta1) * g
                v_s *= cfg.adam_beta2
                v_s += (1.0 - cfg.adam_beta2) * g**2
                p -= lr_t * m_s / (np.sqrt(v_s) + cfg.adam_epsilon)
            tot += value
            ce_sum += ce
            mse_sum += mse
            n_batches += 1
        log.append({"epoch": epoch, "loss": tot / n_batches,
                    "ce_term": ce_sum / n_batches, "mse_term": mse_sum / n_batches})
    return model, log


@pytest.mark.parametrize("chi_c, n, hidden", [(1.0, 2, (12, 12)), (0.0, 2, (12, 12)),
                                              (0.0, 5, (16,)), (1.0, 3, (8, 6, 4))])
def test_fused_adam_matches_per_tensor_loop(chi_c, n, hidden):
    ds = label_instances(generate_instances(n, 200, seed=110 + n))
    cfg = TrainConfig(chi_c=chi_c, epochs=6, batch_size=32, hidden_sizes=hidden, seed=3,
                      train_fraction=0.9)
    model, log = train(ds, cfg)
    ref_model, ref_log = _train_per_tensor(ds, cfg)
    _assert_same_log(log, ref_log, chi_c)
    assert save_model_bytes(model) == save_model_bytes(ref_model)
    for p, q in zip(_tensors(model), _tensors(ref_model), strict=True):
        np.testing.assert_array_equal(p, q)
    assert (model.class_head is None) == (chi_c == 0.0)


def _loss_and_grads_full_backward(model, x, class_idx, alloc_labels, chi_c, chi_r, grad):
    """Reference: the step it used to run, with the class head's forward and
    backward passes at every chi_c, the 0/1 blend of the two projection
    branches and one concatenation of every gradient into ``grad``.  A
    head-less model (chi_c = 0) runs with a zero class head whose gradient
    is dropped."""
    batch = x.shape[0]
    if batch == 0:
        raise ValidationError("empty batch")
    acts: list[np.ndarray] = []
    _, y, alloc = forward(model, x, with_class=False, acts=acts)
    h = acts[-1]
    n_classes = 1 << model.n_vehicles
    wc, bc = model.class_head or (np.zeros((h.shape[1], n_classes)), np.zeros(n_classes))
    probs = _softmax(h @ wc + bc)

    rows = np.arange(batch)
    p_true = np.clip(probs[rows, class_idx], 1e-300, None)
    ce = float(-np.log(p_true).mean())
    n_out = alloc.shape[1]
    diff = alloc - alloc_labels
    mse = float((diff**2).mean())
    loss = chi_c * ce + chi_r * mse

    # classification head
    dlogits = probs.copy()
    dlogits[rows, class_idx] -= 1.0
    dlogits *= chi_c / batch

    # regression head, through the clamp/renormalize projection
    dalloc = diff * (2.0 * chi_r / (batch * n_out))
    r = np.maximum(y, 0.0)
    s = r.sum(axis=1, keepdims=True)
    renorm = (s > 1.0).astype(np.float64)
    safe_s = np.where(s > 0.0, s, 1.0)
    # rows with s > 1:   d alloc_i / d r_j = delta_ij/s - r_i/s^2
    dr_renorm = dalloc / safe_s - (dalloc * r).sum(axis=1, keepdims=True) / safe_s**2
    dr = renorm * dr_renorm + (1.0 - renorm) * dalloc
    dy = dr * (y > 0.0)

    wr, _ = model.reg_head
    g_wc = h.T @ dlogits
    g_bc = dlogits.sum(axis=0)
    g_wr = h.T @ dy
    g_br = dy.sum(axis=0)

    dh = dlogits @ wc.T + dy @ wr.T
    trunk_grads: list[tuple[np.ndarray, np.ndarray]] = []
    for li in range(len(model.trunk) - 1, -1, -1):
        w, _ = model.trunk[li]
        pre_act = acts[li + 1]
        dz = dh * (pre_act > 0.0)
        trunk_grads.append((acts[li].T @ dz, dz.sum(axis=0)))
        dh = dz @ w.T
    trunk_grads.reverse()

    grads: list[np.ndarray] = []
    for gw, gb in trunk_grads:
        grads.extend([gw, gb])
    grads.extend([g_wc, g_bc] if model.class_head else [])
    grads.extend([g_wr, g_br])
    np.concatenate([g.ravel() for g in grads], out=grad.weights)
    return loss, ce, mse


@pytest.mark.parametrize("chi_c, n, hidden", [(0.0, 6, (64, 64)), (0.0, 8, (64, 64)),
                                              (1.0, 2, (12, 12)), (1.0, 5, (32, 32))])
def test_training_step_matches_the_full_backward_reference(monkeypatch, chi_c, n, hidden):
    ds = label_instances(generate_instances(n, 300, seed=150 + n))
    cfg = TrainConfig(chi_c=chi_c, epochs=4, batch_size=64, hidden_sizes=hidden, seed=5)
    model, log = train(ds, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(mtl, "loss_and_grads", _loss_and_grads_full_backward)
        ref_model, ref_log = train(ds, cfg)
    _assert_same_log(log, ref_log, chi_c)
    np.testing.assert_array_equal(model.weights, ref_model.weights)
    assert save_model_bytes(model) == save_model_bytes(ref_model)
    if chi_c == 0.0:
        assert model.class_head is None
        assert ref_log[-1]["ce_term"] > 0.0  # the reference still computes it


def test_chi_c_zero_gradient_check():
    """Central differences over every entry of a head-less chi_c = 0 step;
    on a model with a class head, its slice of ``grad`` is left as passed in."""
    ds = label_instances(generate_instances(3, 64, seed=160))
    model, _ = train(ds, TrainConfig(chi_c=0.0, epochs=2, hidden_sizes=(8, 6), seed=0))
    assert model.class_head is None
    x = normalize(ds.features[:8], model)
    step = (model, x, ds.decision[:8], ds.alloc[:8], 0.0, 0.7)
    grad = _grad_like(model)
    grad.weights[:] = np.random.default_rng(162).normal(size=grad.weights.size)
    loss, ce, mse = loss_and_grads(*step, grad)
    assert math.isnan(ce) and loss == 0.7 * mse
    scratch, p, eps, worst = _grad_like(model), model.weights, 1e-6, 0.0
    for j in range(p.size):
        orig = p[j]
        p[j] = orig + eps
        hi = loss_and_grads(*step, scratch)[0]
        p[j] = orig - eps
        lo = loss_and_grads(*step, scratch)[0]
        p[j] = orig
        fd = (hi - lo) / (2 * eps)
        worst = max(worst, abs(fd - grad.weights[j]) / max(abs(fd), abs(grad.weights[j]), 1e-8))
    assert worst < 1e-4

    headed = mtl._init_model(3, (8, 6), model.feature_mean, model.feature_std,
                             np.random.default_rng(161))
    grad = _grad_like(headed)
    grad.weights[:] = np.random.default_rng(163).normal(size=grad.weights.size)
    passed_in = replace(grad, weights=grad.weights.copy())
    loss_and_grads(headed, *step[1:], grad)
    for g, g_in in zip(grad.class_head, passed_in.class_head):
        np.testing.assert_array_equal(g, g_in)


def test_init_draws_the_class_head_in_blocks_as_one_call():
    """The class head's normals come in CHUNK_BYTES row blocks, with or
    without the head, and equal the one-call draw of each tensor; the
    generator ends in the same state."""
    n, hidden, d = 12, (64, 64), feature_count(12)  # a 2 MiB class head: two blocks
    model = mtl._init_model(n, hidden, np.zeros(d), np.ones(d), np.random.default_rng(4))
    headless_rng = np.random.default_rng(4)
    headless = mtl._init_model(n, hidden, np.zeros(d), np.ones(d), headless_rng, False)
    ref_rng = np.random.default_rng(4)
    ref = [ref_rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape) for w, _ in model.trunk]
    ref_wc = ref_rng.normal(0.0, np.sqrt(1.0 / 64), size=(64, 1 << n))
    ref_wr = ref_rng.normal(0.0, np.sqrt(1.0 / 64), size=(64, n))
    for m in (model, headless):
        for (w, _), r in zip(m.trunk, ref, strict=True):
            np.testing.assert_array_equal(w, r)
        np.testing.assert_array_equal(m.reg_head[0], ref_wr)
    np.testing.assert_array_equal(model.class_head[0], ref_wc)
    assert headless.class_head is None
    assert headless_rng.bit_generator.state == ref_rng.bit_generator.state


def test_class_decisions_need_a_class_head():
    ds = label_instances(generate_instances(3, 64, seed=164))
    model, _ = train(ds, TrainConfig(chi_c=0.0, epochs=1, hidden_sizes=(8,), seed=0))
    x = normalize(ds.features, model)
    np.testing.assert_array_equal(mtl._decide(model, x)[0], mtl._decide(model, x, "reg")[0])
    inst = generate_instances(3, 1, seed=165)[0]
    assert infer_solution(model, inst) == infer_solution(model, inst, decision_source="reg")
    for call in (lambda: mtl._decide(model, x, "class"),
                 lambda: infer_solution(model, inst, decision_source="class"),
                 lambda: loss_and_grads(model, x, ds.decision, ds.alloc, 1.0, 1.0,
                                        _grad_like(model))):
        with pytest.raises(ConfigError, match="'reg'"):
            call()


def test_headless_n16_training_memory_and_file_are_bounded():
    """At N=16 the 2^16-wide class head would be 99.7 % of a 64x64 model;
    a chi_c = 0 model neither trains nor stores it."""
    ds = label_instances(generate_instances(16, 2000, seed=166))
    cfg = TrainConfig(chi_c=0.0, epochs=2, hidden_sizes=(64, 64), seed=0)
    tracemalloc.start()
    try:
        model, _ = train(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(save_model_bytes(model)) < 64 * 2**10


def test_class_decisions_memory_bounded_by_chunk_budget():
    # 600 N=12 rows of float64 logits alone would be 18.75 MiB
    n = 12
    d = feature_count(n)
    model = mtl._init_model(n, (16, 16), np.zeros(d), np.ones(d), np.random.default_rng(170))
    x = np.random.default_rng(171).normal(size=(600, d))
    expected = forward(model, x)[0].argmax(axis=1)
    tracemalloc.start()
    try:
        masks, alloc = mtl._decide(model, x, "class")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(masks, expected)
    assert alloc.shape == (600, n)
    assert peak < 3 * mtl.CHUNK_BYTES


def _loss_and_grads_before_trims(model, x, class_idx, alloc_labels, chi_c, chi_r, grad):
    """Reference: the step with ``ndarray.mean`` for both loss terms and
    ``np.clip`` for the probability floor, as it ran before those calls were
    trimmed to ``np.add.reduce`` and ``np.maximum``."""
    batch = x.shape[0]
    acts: list[np.ndarray] = []
    logits, y, alloc = forward(model, x, with_class=chi_c != 0.0, acts=acts)
    h = acts[-1]
    n_out = alloc.shape[1]
    diff = alloc - alloc_labels
    mse = float((diff**2).mean())

    dalloc = diff * (2.0 * chi_r / (batch * n_out))
    r = np.maximum(y, 0.0)
    s = r.sum(axis=1, keepdims=True)
    safe_s = np.where(s > 0.0, s, 1.0)
    dr_renorm = dalloc / safe_s - (dalloc * r).sum(axis=1, keepdims=True) / safe_s**2
    dy = np.where(s > 1.0, dr_renorm, dalloc) * (y > 0.0)

    (wr, _), (g_wr, g_br) = model.reg_head, grad.reg_head
    np.matmul(h.T, dy, out=g_wr)
    dy.sum(axis=0, out=g_br)
    dh = dy @ wr.T

    if logits is None:
        ce, loss = math.nan, chi_r * mse
    else:
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        esum = e.sum(axis=1, keepdims=True)
        rows = np.arange(batch)
        p_true = np.clip(e[rows, class_idx] / esum[:, 0], 1e-300, None)
        ce = float(-np.log(p_true).mean())
        loss = chi_c * ce + chi_r * mse
        dlogits = e / esum
        dlogits[rows, class_idx] -= 1.0
        dlogits *= chi_c / batch
        (wc, _), (g_wc, g_bc) = model.class_head, grad.class_head
        np.matmul(h.T, dlogits, out=g_wc)
        dlogits.sum(axis=0, out=g_bc)
        dh = dlogits @ wc.T + dh

    for li in range(len(model.trunk) - 1, -1, -1):
        dz = dh * (acts[li + 1] > 0.0)
        g_w, g_b = grad.trunk[li]
        np.matmul(acts[li].T, dz, out=g_w)
        dz.sum(axis=0, out=g_b)
        if li:
            dh = dz @ model.trunk[li][0].T
    return loss, ce, mse


def _float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("chi_c", [0.0, 1.0])
@pytest.mark.parametrize("n, hidden", [(1, (12, 12)), (2, (12, 12)), (8, (64, 64))])
def test_training_matches_the_untrimmed_step_bit_for_bit(monkeypatch, n, hidden, chi_c):
    # 0.7 of 430 rows is 301 training rows, which 64-row batches do not divide
    ds = label_instances(generate_instances(n, 430, seed=180 + n))
    cfg = TrainConfig(chi_c=chi_c, epochs=5, batch_size=64, hidden_sizes=hidden, seed=2,
                      train_fraction=0.7)
    model, log = train(ds, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(mtl, "loss_and_grads", _loss_and_grads_before_trims)
        ref_model, ref_log = _train_per_tensor(ds, cfg)
    keys = ["loss", "ce_term", "mse_term"]
    np.testing.assert_array_equal(_float_bits([[row[k] for k in keys] for row in log]),
                                  _float_bits([[row[k] for k in keys] for row in ref_log]))
    assert [row["epoch"] for row in log] == list(range(cfg.epochs))
    np.testing.assert_array_equal(_float_bits(model.weights), _float_bits(ref_model.weights))
    assert save_model_bytes(model) == save_model_bytes(ref_model)
