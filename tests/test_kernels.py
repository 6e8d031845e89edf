import tracemalloc

import numpy as np
import pytest

from edgeoffload import kernels
from edgeoffload.model import generate_instances
from edgeoffload.solvers import _instance_terms, decisions_to_mask, solve_batch


def _arrays(n, count, seed):
    instances = generate_instances(n, count, seed=seed)
    rows = [_instance_terms(inst) for inst in instances]
    return instances, tuple(
        np.ascontiguousarray(np.stack([r[i] for r in rows])) for i in range(3)
    ) + (np.ascontiguousarray(np.array([r[3] for r in rows])),)


def _random_arrays(n, count, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0.5, 3.0, (count, n)),
        rng.uniform(0.1, 2.0, (count, n)),
        rng.uniform(1e4, 5e4, (count, n)),
        rng.uniform(1e-11, 1e-9, count),
    )


def _brute_force(local, off_base, sqrt_c, wt_over_f):
    """First-hit argmin of ``kernels.mask_cost`` over every mask, per row."""
    n = local.shape[1]
    masks, costs = [], []
    for k in range(local.shape[0]):
        best_mask, best_cost = 0, np.inf
        mask_cost = kernels.mask_cost(local[k], off_base[k], sqrt_c[k], wt_over_f[k])
        for mask in range(1 << n):
            cost = mask_cost(mask)
            if cost < best_cost:
                best_mask, best_cost = mask, cost
        masks.append(best_mask)
        costs.append(best_cost)
    return np.array(masks), np.array(costs)


def test_ref_kernel_matches_scalar_solver():
    instances, arrays = _arrays(4, 30, seed=60)
    masks, costs = kernels.exhaustive_argmin(*arrays)
    for inst, mask, cost in zip(instances, masks, costs):
        rep = solve_batch([inst])[0]
        assert int(mask) == decisions_to_mask(rep.solution.decisions)
        assert cost == pytest.approx(rep.solution.cost, rel=1e-12)


@pytest.mark.parametrize(
    "n, count, chunk_rows", [(n, 12, None) for n in range(1, 11)] + [(14, 10, 4)]
)
def test_kernel_matches_brute_force(n, count, chunk_rows, monkeypatch):
    if chunk_rows:  # 10 rows in chunks of 4, 4 and 2
        monkeypatch.setattr(kernels, "CHUNK_BYTES", chunk_rows * 8 << n)
    _, arrays = _arrays(n, count, seed=70 + n)
    masks, costs = kernels.exhaustive_argmin(*arrays)
    bf_masks, bf_costs = _brute_force(*arrays)
    assert masks.dtype == np.int64
    np.testing.assert_array_equal(masks, bf_masks)
    np.testing.assert_array_equal(costs, bf_costs)


def test_chunked_batch_equals_single_rows():
    n = 14
    rows = kernels.CHUNK_BYTES // (8 << n)
    count = 2 * rows + rows // 3  # three chunks, the last one partial
    arrays = _random_arrays(n, count, seed=85)
    masks, costs = kernels.exhaustive_argmin(*arrays)
    for k in range(count):
        mask, cost = kernels.exhaustive_argmin(*(a[k : k + 1] for a in arrays))
        assert (masks[k], costs[k]) == (mask[0], cost[0])


def test_kernel_memory_bounded_by_chunk_budget():
    # the full (200, 2^16) float64 cost matrix alone would be 100 MiB
    arrays = _random_arrays(16, 200, seed=86)
    tracemalloc.start()
    try:
        masks, _ = kernels.exhaustive_argmin(*arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.shape == (200,)
    assert peak < 3 * kernels.CHUNK_BYTES
