"""The Hessian kernel: Q29.3 reduction of J^T J and J^T r (paper 3.4).

Per LM iteration the 6x6 Gauss-Newton Hessian ``H = sum_t J_t^T J_t``
and the steepest-descent vector ``b = sum_t J_t^T r_t`` are accumulated
over every feature.  On the PIM this runs in 32-bit lanes (80 features
per word line): each of the 21 unique symmetric products plus the 6
``b`` entries is one lane-multiply (``(Q14.2 x Q14.2) >> 1 ->
Q29.3``) followed by a saturating add into a per-product accumulator
row; a final logarithmic shift-add tree folds the 80 lanes into lane 0.

The paper observes that 16-bit accumulation makes the LM solver fail
while 32-bit Q29.3 suffices - behaviour the ablation bench reproduces.

The naive mapping computes all 36 products of the full (non-symmetric)
matrix, the extra cost Fig. 9-b's LM bar reflects.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.fixedpoint import Q29_3, ops
from repro.kernels.common import shift_pixels
from repro.obs.metrics import get_registry
from repro.pim.device import TMP

__all__ = ["HESSIAN_FORMAT", "SYM_PAIRS", "reduction_shifts",
           "hessian_float", "hessian_fast", "hessian_pim",
           "hessian_pim_naive", "hessian_reduce_pim", "unpack_symmetric"]

#: Hessian / steepest-descent accumulator format.
HESSIAN_FORMAT = Q29_3

#: The 21 unique entries of the symmetric 6x6 Hessian, row-major upper.
SYM_PAIRS: List[Tuple[int, int]] = [(i, j) for i in range(6)
                                    for j in range(i, 6)]

_ACC_BITS = 32
#: ``(Q14.2)^2 = scale 2^4`` -> Q29.3 needs one right shift.
_PROD_SHIFT = 1


def reduction_shifts(lanes: int) -> List[int]:
    """Shift schedule of the lane-reduction tree.

    Each step adds the word line shifted by ``s`` lanes onto itself,
    halving (at least) the live prefix; ``s >= m/2`` guarantees lanes
    below ``s`` are never polluted by consumed lanes.
    """
    shifts = []
    m = lanes
    while m > 1:
        s = 1 << ((m - 1).bit_length() - 1)
        shifts.append(s)
        m = s
    return shifts


def hessian_float(jacobians: np.ndarray, residuals: np.ndarray) -> tuple:
    """Float reference: ``(H, b) = (J^T J, J^T r)``."""
    j = np.asarray(jacobians, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    return j.T @ j, j.T @ r


def hessian_fast(j_raw: np.ndarray, r_raw: np.ndarray,
                 lanes: int = 80, acc_bits: int = _ACC_BITS) -> tuple:
    """Quantized reduction with exact PIM arithmetic and batch structure.

    Bit-identical to :func:`hessian_pim` over ``lanes``-wide batches
    followed by :func:`hessian_reduce_pim`: every product saturates to
    the lane, the first batch is copied into the accumulators and later
    batches add with saturation.

    One bound, taken before any product is formed, decides whether any
    of that saturation can happen.  With ``m = max|[J | r]|`` every
    shifted product lies in ``[-ceil(m*m/2), floor(m*m/2)]``
    (``floor(-m*m/2) = -ceil(m*m/2)``), so every lane prefix over
    ``batches`` batches lies within ``batches * ceil(m*m/2)`` of zero.
    When that is at most the lane maximum (and ``2**31 - 1``), and
    ``m <= 2**15`` (the 16-bit multiplier operand, so
    ``|J_p * J_q| <= 2**30``), nothing saturates: the 27 products are
    formed in int32 and each lane is one plain int32 sum over the
    batches.  Otherwise the sequential saturating loop runs and the
    call is counted.

    The lane-reduction tree is checked the same way: each of its
    partial sums is a sum over a subset of lanes, so when ``sum|acc|``
    of every row is at most the lane maximum nothing clamps and the
    tree equals the plain row sum.  Otherwise the saturating shift-add
    tree runs and ``kernels_hessian_reduce_saturated_total`` counts the
    call.  ``j_raw`` and ``r_raw`` are read in their own dtype (int32
    input is not widened).

    Args:
        j_raw: (N x 6) Jacobian raws (Q14.2).
        r_raw: (N,) residual raws (Q14.2).
        lanes: SIMD lanes of the accumulation precision (80 at 32-bit).
        acc_bits: Accumulator lane width (32 in the paper; 16 fails).

    Returns:
        ``(h_raw, b_raw)``: 21 upper-triangular raws and 6 vector raws
        in Q29.3.
    """
    j = np.asarray(j_raw)
    r = np.asarray(r_raw).reshape(-1)
    n = r.size
    batches = max(1, -(-n // lanes))
    hi = (1 << (acc_bits - 1)) - 1
    m = max(-int(j.min()), int(j.max()), -int(r.min()), int(r.max())) \
        if n else 0
    fits = m <= 1 << 15 and \
        batches * -((-m * m) >> _PROD_SHIFT) <= min(hi, (1 << 31) - 1)

    jr = np.zeros((7, batches * lanes),
                  dtype=np.int32 if fits else np.int64)
    jr[:6, :n] = j.T
    jr[6, :n] = r
    prods = np.empty((27, batches * lanes), dtype=jr.dtype)
    k = 0
    for p in range(6):                    # SYM_PAIRS row p: J_p * J_p..5
        np.multiply(jr[p], jr[p:6], out=prods[k:k + 6 - p])
        k += 6 - p
    np.multiply(jr[:6], jr[6], out=prods[21:])    # J_i * r for b
    prods >>= _PROD_SHIFT
    if fits:
        # Lane sums in int32 (they fit, by the bound); einsum sums the
        # middle axis about three times faster than ``sum(axis=1)``.
        acc = np.einsum("kbl->kl", prods.reshape(27, batches, lanes))
    else:
        get_registry().counter(
            "kernels_hessian_saturated_total",
            "hessian_fast calls the overflow bound could not clear, "
            "which ran the sequential saturating loop").inc()
        prods = ops.saturate(prods, acc_bits).reshape(27, batches, lanes)
        acc = prods[:, 0]
        for batch in range(1, batches):
            acc = ops.sat_add(acc, prods[:, batch], acc_bits)

    if np.abs(acc).sum(axis=1).max() <= hi:
        out = acc.sum(axis=1)
    else:
        get_registry().counter(
            "kernels_hessian_reduce_saturated_total",
            "hessian_fast calls whose lane sums could saturate, which "
            "ran the saturating shift-add tree").inc()
        for s in reduction_shifts(lanes):
            acc = ops.sat_add(acc, shift_pixels(acc, s), acc_bits)
        out = acc[:, 0]
    return out[:21].copy(), out[21:].copy()


def hessian_pim(device, j_rows, r_row: int, acc_rows,
                first_batch: bool) -> None:
    """Optimized device program: accumulate one 32-bit batch.

    Args:
        device: PIM device already holding the batch in 32-bit lanes.
        j_rows: Six rows with the Jacobian columns of this batch.
        r_row: Row with the residuals of this batch.
        acc_rows: 27 accumulator rows (21 Hessian + 6 b).
        first_batch: Initialize instead of accumulate.
    """
    device.set_precision(_ACC_BITS)
    for idx, (p, q) in enumerate(SYM_PAIRS):
        device.mul(TMP, j_rows[p], j_rows[q], rshift=_PROD_SHIFT,
                   multiplier_bits=16)
        if first_batch:
            device.copy(acc_rows[idx], TMP)
        else:
            device.add(acc_rows[idx], acc_rows[idx], TMP, saturate=True)
    for i in range(6):
        device.mul(TMP, j_rows[i], r_row, rshift=_PROD_SHIFT,
                   multiplier_bits=16)
        if first_batch:
            device.copy(acc_rows[21 + i], TMP)
        else:
            device.add(acc_rows[21 + i], acc_rows[21 + i], TMP,
                       saturate=True)


def hessian_pim_naive(device, j_rows, r_row: int, acc_rows,
                      first_batch: bool) -> None:
    """Naive device program: all 36 products of the full matrix.

    The symmetric half is recomputed rather than reused, which is the
    extra LM cost the naive bar of Fig. 9-b carries.  ``acc_rows`` must
    provide 42 rows (36 + 6).
    """
    device.set_precision(_ACC_BITS)
    idx = 0
    for p in range(6):
        for q in range(6):
            device.mul(TMP, j_rows[p], j_rows[q], rshift=_PROD_SHIFT,
                       multiplier_bits=16)
            if first_batch:
                device.copy(acc_rows[idx], TMP)
            else:
                device.add(acc_rows[idx], acc_rows[idx], TMP,
                           saturate=True)
            idx += 1
    for i in range(6):
        device.mul(TMP, j_rows[i], r_row, rshift=_PROD_SHIFT,
                   multiplier_bits=16)
        if first_batch:
            device.copy(acc_rows[idx], TMP)
        else:
            device.add(acc_rows[idx], acc_rows[idx], TMP, saturate=True)
        idx += 1


def hessian_reduce_pim(device, acc_rows) -> np.ndarray:
    """Fold each accumulator row's lanes into lane 0 (shift-add tree).

    Returns:
        Array of lane-0 values, one per accumulator row (Q29.3 raws).
    """
    device.set_precision(_ACC_BITS)
    lanes = device.lanes
    for row in acc_rows:
        for s in reduction_shifts(lanes):
            device.shift_lanes(TMP, row, s, signed=True)
            device.add(row, row, TMP, saturate=True)
    return np.array([int(device.store(row)[0]) for row in acc_rows])


def unpack_symmetric(h21: np.ndarray) -> np.ndarray:
    """Expand 21 upper-triangular values into the symmetric 6x6."""
    h21 = np.asarray(h21, dtype=np.float64).reshape(-1)
    if h21.size != 21:
        raise ValueError("expected 21 upper-triangular entries")
    h = np.zeros((6, 6))
    for idx, (p, q) in enumerate(SYM_PAIRS):
        h[p, q] = h21[idx]
        h[q, p] = h21[idx]
    return h
