"""Batched exhaustive enumeration of the 2^N offload decisions.

With the closed-form edge-CPU split, the cost of a decision mask m is

    cost(m) = sum_i [(1-b_i)*local_i + b_i*off_base_i]
              + (w_t/F) * (sum_{i in m} sqrt(C_i))^2

so enumerating all 2^N masks only needs per-vehicle precomputed terms.
Masks are ordered so that the integer value equals the lexicographic order
of the decision bit-vector (vehicle 0 is the most significant bit);
argmin with first-hit tie-breaking then matches the contract's
"lexicographically smallest decision" rule.  ``mask_cost`` prices single
masks with the kernel's own operations in the kernel's order, so a scalar
search breaks exact ties the way the kernel does.
"""
from __future__ import annotations

import numpy as np

# Bytes per (rows, 2^N) float64 working array; the kernel holds two of them,
# so its memory stays bounded for every N and batch size.  Both arrays fit a
# 2 MiB per-core L2 cache: on such a Xeon, 500 N=14 rows took 30 ms at 1 MiB
# and 42 ms at 16 MiB, and every smaller budget down to 1 MiB was faster.
CHUNK_BYTES = 1 << 20


def exhaustive_argmin(
    local: np.ndarray,
    off_base: np.ndarray,
    sqrt_cycles: np.ndarray,
    wt_over_f: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best mask and its cost per instance; ties go to the smallest mask.

    ``local``, ``off_base`` and ``sqrt_cycles`` are (n_inst, N) (a single
    row may be 1-D) and ``wt_over_f`` holds one value per instance.  The
    batch is walked in chunks of at most ``CHUNK_BYTES`` per working array.
    Inside a chunk the mask costs are filled in place by doubling: bit j
    (from the least significant) is vehicle N-1-j, so the masks in
    [2^j, 2^(j+1)) are the masks in [0, 2^j) plus that vehicle.
    """
    local = np.atleast_2d(np.asarray(local, dtype=np.float64))
    sqrt_cycles = np.atleast_2d(np.asarray(sqrt_cycles, dtype=np.float64))
    delta = np.atleast_2d(np.asarray(off_base, dtype=np.float64)) - local
    wt_over_f = np.asarray(wt_over_f, dtype=np.float64).reshape(-1, 1)
    n_inst, n = local.shape
    n_masks = 1 << n
    rows = max(1, CHUNK_BYTES // (8 * n_masks))
    cost_buf = np.empty((min(rows, n_inst), n_masks))
    sums_buf = np.empty_like(cost_buf)
    best_mask = np.empty(n_inst, dtype=np.int64)
    best_cost = np.empty(n_inst)
    for start in range(0, n_inst, rows):
        stop = min(start + rows, n_inst)
        cost = cost_buf[: stop - start]
        sums = sums_buf[: stop - start]
        cost[:, 0] = local[start:stop].sum(axis=1)
        sums[:, 0] = 0.0
        for j in range(n):
            w = 1 << j
            i = n - 1 - j
            np.add(cost[:, :w], delta[start:stop, i, None], out=cost[:, w : 2 * w])
            np.add(sums[:, :w], sqrt_cycles[start:stop, i, None], out=sums[:, w : 2 * w])
        np.square(sums, out=sums)
        sums *= wt_over_f[start:stop]
        cost += sums
        best = cost.argmin(axis=1)
        best_mask[start:stop] = best
        best_cost[start:stop] = cost[np.arange(stop - start), best]
    return best_mask, best_cost


def mask_cost(local, off_base, sqrt_cycles, wt_over_f: float):
    """Scalar cost of a mask of one instance, bit for bit as
    ``exhaustive_argmin`` computes it: ``mask_cost(...)(mask)``.

    The kernel starts from the all-local sum ``local.sum()`` and adds each
    offloader's ``off_base - local`` and root, from vehicle N-1 (the lowest
    bit) down to vehicle 0, then adds ``(s*s) * wt_over_f``.  The arguments
    are one instance's 1-D rows; the sum and the deltas are taken once here.
    """
    local = np.asarray(local, dtype=np.float64)
    base = float(local.sum())
    # index j holds vehicle N-1-j, the vehicle of bit j
    delta = (np.asarray(off_base, dtype=np.float64) - local)[::-1].tolist()
    roots = np.asarray(sqrt_cycles, dtype=np.float64)[::-1].tolist()
    wt_over_f = float(wt_over_f)

    def cost(mask: int) -> float:
        total, s, j = base, 0.0, 0
        while mask:
            if mask & 1:
                total += delta[j]
                s += roots[j]
            mask >>= 1
            j += 1
        return total + (s * s) * wt_over_f

    return cost
