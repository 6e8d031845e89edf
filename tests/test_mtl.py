import numpy as np
import pytest

from edgeoffload.errors import FileFormatError
from edgeoffload.model import OffloadSolution, generate_instances, total_cost
from edgeoffload import mtl
from edgeoffload.mtl import (
    MtlModel,
    TrainConfig,
    evaluate,
    feature_count,
    forward,
    infer_solution,
    load_model_bytes,
    loss,
    save_model_bytes,
    solver_metrics,
    split_dataset,
    train,
    write_training_log,
)
from edgeoffload.solvers import label_instances, solve_sbb, SbbConfig


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
    probs, alloc = forward(model, small_ds.features[:7])
    assert probs.shape == (7, 4)
    assert alloc.shape == (7, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_alloc_projected_to_simplex(trained, small_ds):
    model, _ = trained
    _, alloc = forward(model, small_ds.features)
    assert (alloc >= -1e-12).all()
    assert (alloc.sum(axis=1) <= 1.0 + 1e-9).all()


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
    metrics = evaluate(model, ds, min_timed_passes=1)
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


def test_infer_solution_reg_source(trained):
    model, _ = trained
    inst = generate_instances(2, 1, seed=103)[0]
    sol = infer_solution(model, inst, decision_source="reg")
    assert sol.cost >= 0.0


def test_evaluate_against_oracle(trained, small_ds):
    model, _ = trained
    metrics = evaluate(model, small_ds, min_timed_passes=1)
    assert 0.0 <= metrics.class_accuracy <= 1.0
    assert metrics.reg_mse >= 0.0
    assert metrics.mean_inference_time > 0.0


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
    p1, a1 = forward(model, x)
    p2, a2 = forward(back, x)
    # float32 storage quantizes the weights once; reload is then exact
    np.testing.assert_allclose(p1, p2, atol=1e-5)
    np.testing.assert_allclose(a1, a2, atol=1e-5)


def test_model_load_rejects_garbage():
    with pytest.raises(FileFormatError):
        load_model_bytes(b"not a model")


def test_default_model_under_2kb(trained):
    model, _ = trained
    assert len(save_model_bytes(model)) <= 2048


def test_loss_decomposition(trained, small_ds):
    model, _ = trained
    from edgeoffload.mtl import featurize, normalize

    x = normalize(small_ds.features[:64], model)
    ce_only = loss(model, x, small_ds.decision[:64], small_ds.alloc[:64], 1.0, 0.0)
    mse_only = loss(model, x, small_ds.decision[:64], small_ds.alloc[:64], 0.0, 1.0)
    both = loss(model, x, small_ds.decision[:64], small_ds.alloc[:64], 1.0, 1.0)
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
    model = mtl._init_model(ds.n_vehicles, tuple(cfg.hidden_sizes), mean, std, rng)
    params = model.params()
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    t, log = 0, []
    for epoch in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        tot = ce_sum = mse_sum = 0.0
        n_batches = 0
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value, ce, mse, grads = mtl.loss_and_grads(
                model, x[idx], cls[idx], alloc[idx], cfg.chi_c, cfg.chi_r
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
    assert log == ref_log
    assert save_model_bytes(model) == save_model_bytes(ref_model)
    for p, q in zip(model.params(), ref_model.params()):
        np.testing.assert_array_equal(p, q)
