"""Acceptance suite: one test per shipped claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
on passing runs too (pytest captures stdout otherwise).
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from edgeoffload.config import split_scenario
from edgeoffload.experiments import (ExperimentSpec, _environment, replay_manifest,
                                     run_experiment)
from edgeoffload.model import generate_instances, total_cost
from edgeoffload.mtl import (
    TrainConfig,
    decision_seconds,
    evaluate,
    infer_solution,
    loss_and_grads,
    normalize,
    save_model_bytes,
    seconds_per_item,
    solver_metrics,
    train,
)
from edgeoffload.solvers import (
    SbbConfig,
    label_instances,
    optimal_allocation,
    solve_batch,
    solve_sbb,
)
from edgeoffload.split import eta_sweep, local_joint_crossover


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, detail


def test_criterion_1_sbb_matches_exhaustive():
    """Unbudgeted branch and bound is exact on 1000 instances per N in 2..8."""
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in range(2, 9):
        instances = generate_instances(n, 1000, seed=1000 + n)
        exact = solve_batch(instances)
        for inst, ex in zip(instances, exact):
            bb = solve_sbb(inst)
            checked += 1
            same_dec = bb.solution.decisions == ex.solution.decisions
            same_cost = abs(bb.solution.cost - ex.solution.cost) <= 1e-9 * ex.solution.cost
            if not (same_dec and same_cost and bb.proven_optimal):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        mismatches == 0 and elapsed < 300.0,
        f"{checked} instances, {mismatches} mismatches, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_2_kkt_vs_grid():
    """Closed-form allocation is never beaten by a step-1e-3 grid search."""
    worst_rel = 0.0
    violations = 0
    # N=2, full-offload pair: 1-D grid over alpha in (0, 1)
    alphas = np.arange(1, 1000) / 1000.0
    for inst in generate_instances(2, 1000, seed=2000):
        closed = total_cost(inst, (1, 1), optimal_allocation(inst, (1, 1)))
        best_grid = min(total_cost(inst, (1, 1), (a, 1.0 - a)) for a in alphas)
        if closed > best_grid + 1e-12:
            violations += 1
        worst_rel = max(worst_rel, (best_grid - closed) / closed)
    # a few N=3 all-offload instances against the 2-D simplex grid
    m = 1000
    a = np.arange(1, m - 1)
    aa, bb = np.meshgrid(a, a, indexing="ij")
    keep = (aa + bb) < m
    g0, g1 = aa[keep] / m, bb[keep] / m
    g2 = 1.0 - g0 - g1
    for inst in generate_instances(3, 10, seed=2001):
        closed = total_cost(inst, (1, 1, 1), optimal_allocation(inst, (1, 1, 1)))
        from edgeoffload.model import offload_cost, uplink_rate

        w, e = inst.weights, inst.edge
        tx = np.array(
            [v.data_size / uplink_rate(v, e) * (w.w_time + w.w_energy * v.tx_power)
             for v in inst.vehicles]
        )
        cyc = np.array([v.cpu_cycles for v in inst.vehicles])
        grid = (
            tx.sum()
            + w.w_time * (cyc[0] / (g0 * e.edge_freq) + cyc[1] / (g1 * e.edge_freq)
                          + cyc[2] / (g2 * e.edge_freq))
        )
        best_grid = float(grid.min())
        if closed > best_grid + 1e-12:
            violations += 1
        worst_rel = max(worst_rel, (best_grid - closed) / closed)
    _verdict(
        2,
        violations == 0 and worst_rel <= 1e-4,
        f"1010 instances, 0 expected violations got {violations}, "
        f"worst grid excess {worst_rel:.2e} (<= 1e-4)",
    )


def test_criterion_3_gradient_check():
    """Analytic gradients match central finite differences on 20 mini-batches."""
    ds = label_instances(generate_instances(2, 256, seed=3000))
    model, _ = train(ds, TrainConfig(epochs=3, seed=0))
    rng = np.random.default_rng(3001)
    worst = 0.0
    for _ in range(20):
        idx = rng.choice(ds.n_samples, size=8, replace=False)
        x = normalize(ds.features[idx], model)
        ci, al = ds.decision[idx], ds.alloc[idx]
        grad = replace(model, weights=np.zeros_like(model.weights))
        loss_and_grads(model, x, ci, al, 1.0, 1.0, grad)
        g, p = grad.weights, model.weights
        scratch = replace(model, weights=np.zeros_like(p))  # for the perturbed steps
        eps = 1e-6
        for j in range(p.size):
            orig = p[j]
            p[j] = orig + eps
            hi = loss_and_grads(model, x, ci, al, 1.0, 1.0, scratch)[0]
            p[j] = orig - eps
            lo = loss_and_grads(model, x, ci, al, 1.0, 1.0, scratch)[0]
            p[j] = orig
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd), abs(g[j]), 1e-8)
            worst = max(worst, abs(fd - g[j]) / denom)
    _verdict(3, worst < 1e-4, f"20 mini-batches, max rel grad error {worst:.2e} (< 1e-4)")


def test_criterion_4_training_fraction_trend():
    """More training data helps, for 3 of 3 seeds, inside the time budget."""
    t0 = time.perf_counter()
    wins = 0
    details = []
    for seed in (0, 1, 2):
        ds = label_instances(generate_instances(2, 40000, seed=4000 + seed))
        test_ds = label_instances(generate_instances(2, 4000, seed=4100 + seed))
        # 4 000 test rows: one batched pass per timed repeat
        lo = evaluate(train(ds, TrainConfig(train_fraction=0.1, seed=seed))[0], test_ds)
        hi = evaluate(train(ds, TrainConfig(train_fraction=1.0, seed=seed))[0], test_ds)
        ok = hi.class_accuracy > lo.class_accuracy and hi.reg_mse < lo.reg_mse
        wins += ok
        details.append(f"seed {seed}: acc {lo.class_accuracy:.4f}->{hi.class_accuracy:.4f} "
                       f"mse {lo.reg_mse:.2e}->{hi.reg_mse:.2e}")
    elapsed = time.perf_counter() - t0
    _verdict(4, wins == 3 and elapsed < 600.0,
             f"{wins}/3 seeds improved ({'; '.join(details)}); {elapsed:.0f}s (< 600s)")


def test_criterion_5_mtl_beats_budgeted_sbb():
    """At N=8 the learned solver out-scores node-budgeted sBB and is >=100x faster."""
    n = 8
    ds = label_instances(generate_instances(n, 40000, seed=5000))
    test_instances = generate_instances(n, 2000, seed=5001)
    test_ds = label_instances(test_instances)
    cfg = TrainConfig(chi_c=0.0, chi_r=1.0, epochs=60, hidden_sizes=(64, 64), seed=0)
    model, _ = train(ds, cfg)
    assert model.class_head is None  # so the MTL decides by its regression head

    def solve_all():
        return [solve_sbb(inst, SbbConfig(max_nodes=16)) for inst in test_instances]

    mtl = evaluate(model, test_ds)
    sbb = solver_metrics(label_instances(test_instances, "sbb", max_nodes=16), test_ds)
    mtl_s = decision_seconds(model, test_ds)
    sbb_s = seconds_per_item(solve_all, len(test_instances))
    ratio = sbb_s / mtl_s
    ok = mtl.class_accuracy > sbb.class_accuracy and ratio >= 100.0
    _verdict(
        5,
        ok,
        f"N=8 accuracy MTL {mtl.class_accuracy:.3f} vs sBB@16 {sbb.class_accuracy:.3f}; "
        f"time MTL {mtl_s:.2e}s vs sBB {sbb_s:.2e}s ({ratio:.0f}x, >= 100x); "
        f"MTL blas_threads {_environment()['blas_threads']}",
    )


def test_criterion_6_eta_crossover():
    """Shipped split config lands the local/joint crossover in [0.25, 0.35]."""
    sc, step = split_scenario(None)
    eta_star = local_joint_crossover(sc)
    records = eta_sweep(sc, [i * step for i in range(int(round(1 / step)) + 1)])
    by_eta = {round(r.eta, 6): r for r in records}
    at_01, at_05 = by_eta[0.1], by_eta[0.5]
    edge_constant = len({r.cost_edge for r in records}) == 1
    monotone = all(
        b.cost_local >= a.cost_local - 1e-12
        and b.cost_edge >= a.cost_edge - 1e-12
        and b.cost_joint >= a.cost_joint - 1e-12
        for a, b in zip(records, records[1:])
    )
    ok = (
        eta_star is not None
        and 0.25 <= eta_star <= 0.35
        and at_01.cost_local < at_01.cost_joint
        and at_05.cost_local > at_05.cost_joint
        and edge_constant
        and monotone
    )
    _verdict(
        6,
        ok,
        f"crossover eta*={eta_star:.4f} in [0.25, 0.35]; "
        f"local<joint at 0.1: {at_01.cost_local:.4f}<{at_01.cost_joint:.4f}; "
        f"local>joint at 0.5: {at_05.cost_local:.4f}>{at_05.cost_joint:.4f}; "
        f"edge constant: {edge_constant}; monotone: {monotone}",
    )


def test_criterion_7_model_size():
    """The default N=2 model serializes to at most 2 KB."""
    ds = label_instances(generate_instances(2, 200, seed=7000))
    model, _ = train(ds, TrainConfig(epochs=2, seed=0))
    size = len(save_model_bytes(model))
    _verdict(7, size <= 2048, f"serialized default N=2 model is {size} bytes (<= 2048)")


def test_criterion_8_manifest_replay(tmp_path):
    """Replaying a RunManifest reproduces byte-identical CSV artifacts."""
    small = ("experiment.samples = 2000\nexperiment.test_samples = 500\n"
             "experiment.fractions = 0.2,1.0\ntrain.epochs = 20\n")
    small_5b = ("experiment.samples = 300\nexperiment.test_samples = 80\n"
                "experiment.n_list = 2,6\ntrain.epochs = 5\n")
    results = []
    for kind, cfg in (("fig6-eta", ""), ("fig5a-training-fraction", small),
                      ("fig5b-n-avs", small_5b)):
        run_dir = tmp_path / kind
        run_experiment(ExperimentSpec(kind=kind, out_dir=run_dir, seed=8, config_text=cfg))
        _, _, identical = replay_manifest(run_dir / "manifest.json", tmp_path / (kind + "-replay"))
        csv = next(run_dir.glob("*.csv")).name
        same_bytes = (
            (run_dir / csv).read_bytes()
            == (tmp_path / (kind + "-replay") / csv).read_bytes()
        )
        results.append(identical and same_bytes)
    _verdict(8, all(results),
             f"fig6 replay identical: {results[0]}; fig5a replay identical: {results[1]}; "
             f"fig5b replay identical: {results[2]}")


def test_criterion_9_feasibility_fuzz():
    """100000 randomized inference calls never emit an infeasible solution."""
    total = 0
    violations = 0
    plan = ((2, 50000), (3, 30000), (5, 20000))
    for n, count in plan:
        ds = label_instances(generate_instances(n, 300, seed=9000 + n))
        model, _ = train(ds, TrainConfig(epochs=5, seed=0))
        instances = generate_instances(n, count, seed=9100 + n)
        for i, inst in enumerate(instances):
            try:
                infer_solution(model, inst, decision_source="reg" if i % 2 else "class")
            except Exception:
                violations += 1
            total += 1
    _verdict(9, total == 100000 and violations == 0,
             f"{total} infer calls, {violations} invariant violations")
