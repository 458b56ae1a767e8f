"""The Jacobian kernel (paper Fig. 5-c/d), quantized to Q14.2.

For a feature warped to keyframe coordinates ``(X, Y, Z)`` with DT
gradient lookups ``(I_u, I_v)`` (pre-multiplied by the focal length, as
in the paper's formulation), the 6-DOF Jacobian row is::

    J = [ Iu/Z,  Iv/Z,  -(X Iu + Y Iv)/Z^2,
          -(Y (X Iu + Y Iv)/Z^2 + Iv),
            X (X Iu + Y Iv)/Z^2 + Iu,
          (X Iv - Y Iu)/Z ]

The optimized pipeline (Fig. 5-d) shares the three subexpressions
``w = 1/Z``, ``rx = X/Z``, ``ry = Y/Z`` (the latter two fall out of the
warp for free) and ``K = rx Iu + ry Iv = (X Iu + Y Iv)/Z``:

    J1 = Iu w         J2 = Iv w         J3 = -(K w)
    J4 = -(ry K + Iv) J5 = rx K + Iu    J6 = rx Iv - ry Iu

which costs 9 multiplies and 1 divide per feature batch.  The naive
mapping evaluates each entry from the raw formula, recomputing
``(X Iu + Y Iv)`` and the divisions (12 multiplies, 8 divides).

Note the scaled coordinates: the warp works with ``(X~, Y~, Z~) =
(X, Y, Z)/d``; since ``rx, ry`` are ratios they are scale-free, and
``w = 1/Z = c/Z~`` is recovered with one extra divide by the stored
inverse depth ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint import Q14_2, ops
from repro.kernels.common import peak, shr_peak
from repro.kernels.warp import FEATURE_FORMAT, WarpResult, _qdiv
from repro.obs.metrics import get_registry
from repro.pim.device import TMP, Imm

__all__ = ["JACOBIAN_FORMAT", "jacobian_float", "jacobian_fast",
           "jacobian_pim", "jacobian_pim_naive", "JacobianRows"]

#: Jacobian entry format (paper section 3.4).
JACOBIAN_FORMAT = Q14_2

_LANE_BITS = 16


def jacobian_float(x, y, z, grad_u, grad_v) -> np.ndarray:
    """Float reference Jacobian (N x 6) from *real-scale* coordinates.

    Depths with ``|z| < 1e-12`` are divided as ``1e-12``.  The six
    columns are written into one C-ordered ``(..., 6)`` array.

    Args:
        x, y, z: Warped point in keyframe coordinates (real scale).
        grad_u, grad_v: DT gradient at the warped pixel, pre-multiplied
            by the focal length (``Iu = fx dDT/du``).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    iu = np.asarray(grad_u, dtype=np.float64)
    iv = np.asarray(grad_v, dtype=np.float64)
    safe_z = z
    if np.any(np.abs(z) < 1e-12):
        safe_z = np.where(np.abs(z) < 1e-12, 1e-12, z)
    k = (x * iu + y * iv) / safe_z
    w = 1.0 / safe_z
    rx, ry = x / safe_z, y / safe_z
    jac = np.empty(k.shape + (6,))
    np.multiply(iu, w, out=jac[..., 0])               # J1 = Iu w
    np.multiply(iv, w, out=jac[..., 1])               # J2 = Iv w
    col = jac[..., 2]                                 # J3 = -(K w)
    np.multiply(k, w, out=col)
    np.negative(col, out=col)
    col = jac[..., 3]                                 # J4 = -(ry K + Iv)
    np.multiply(ry, k, out=col)
    col += iv
    np.negative(col, out=col)
    col = jac[..., 4]                                 # J5 = rx K + Iu
    np.multiply(rx, k, out=col)
    col += iu
    col = jac[..., 5]                                 # J6 = rx Iv - ry Iu
    np.multiply(rx, iv, out=col)
    col -= ry * iu
    return jac


def _qmul(a, b, f: int) -> np.ndarray:
    """Saturating ``(a * b) >> f`` on 16-bit lanes (PIM mul semantics)."""
    return ops.saturate(
        np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64) >> f,
        _LANE_BITS)


def jacobian_fast(warp: WarpResult, c_raw, iu_raw, iv_raw,
                  feature_frac: int = FEATURE_FORMAT.fraction_bits
                  ) -> np.ndarray:
    """Quantized Jacobian with exact PIM arithmetic.

    Bit-identical to :func:`jacobian_pim`.  One bound, taken before any
    product is formed, decides whether any of its saturation can
    happen: the peaks ``max|.|`` of ``rx``, ``ry``, ``Iu``, ``Iv`` and
    ``w = c / Z~`` are pushed through the nine products and the adds of
    Fig. 5-d.  When every operand is a 16-bit lane (so every product
    fits int32) and every intermediate peak is at most ``2**15 - 1``
    (so no add, subtract or negation clamps), the six rows are formed in
    int32 with no clip, into one ``(6, n)`` block returned as its
    ``(n, 6)`` transpose view.  Otherwise the saturating op sequence
    runs and ``kernels_jacobian_saturated_total`` counts the call.

    Args:
        warp: Output of the quantized warp (``rx``, ``ry``, ``z`` raws).
        c_raw: Inverse-depth raws of the features (feature format).
            ``c_raw`` and ``warp.z`` are 16-bit lanes, as for
            :func:`~repro.kernels.warp.warp_fast`, which rejects
            features outside the lane and saturates ``z``; the divide
            ``c / z`` does not check them again.
        iu_raw, iv_raw: Gradient lookups as Q14.2 raws.

    Returns:
        (N x 6) array of Q14.2 raws.
    """
    f = feature_frac
    w = _qdiv(np.asarray(c_raw).astype(np.int32, copy=False) << f,
              np.asarray(warp.z).astype(np.int32, copy=False))
    rx, ry, iu, iv = (np.asarray(x) for x in (warp.rx, warp.ry, iu_raw,
                                              iv_raw))
    n = w.size
    if n:
        mrx, mry, miu, miv, mw = (peak(x) for x in (rx, ry, iu, iv, w))
        mk = shr_peak(mrx * miu, f) + shr_peak(mry * miv, f)
        peaks = (shr_peak(miu * mw, f), shr_peak(miv * mw, f), mk,
                 shr_peak(mk * mw, f), shr_peak(mry * mk, f) + miv,
                 shr_peak(mrx * mk, f) + miu,
                 shr_peak(mrx * miv, f) + shr_peak(mry * miu, f))
        narrow = (max(mrx, mry, miu, miv, mw) <= 1 << 15
                  and max(peaks) <= (1 << (_LANE_BITS - 1)) - 1)
    else:
        narrow = True
    if narrow:
        rx, ry, iu, iv = (x.astype(np.int32, copy=False)
                          for x in (rx, ry, iu, iv))
        jac = np.empty((6, n), dtype=np.int32)
        j1, j2, j3, j4, j5, j6 = jac
        np.multiply(iu, w, out=j1)                    # J1 = Iu w
        j1 >>= f
        np.multiply(iv, w, out=j2)                    # J2 = Iv w
        j2 >>= f
        k = rx * iu                                   # K = rx Iu + ry Iv
        k >>= f
        t = ry * iv
        t >>= f
        k += t
        np.multiply(k, w, out=j3)                     # J3 = -K w
        j3 >>= f
        np.negative(j3, out=j3)
        np.multiply(ry, k, out=t)                     # J4 = -(ry K + Iv)
        t >>= f
        t += iv
        np.negative(t, out=j4)
        np.multiply(rx, k, out=j5)                    # J5 = rx K + Iu
        j5 >>= f
        j5 += iu
        np.multiply(rx, iv, out=j6)                   # J6 = rx Iv - ry Iu
        j6 >>= f
        np.multiply(ry, iu, out=t)
        t >>= f
        j6 -= t
        return jac.T

    get_registry().counter(
        "kernels_jacobian_saturated_total",
        "jacobian_fast calls the overflow bound could not clear, which "
        "ran the saturating op sequence").inc()
    j1 = _qmul(iu, w, f)
    j2 = _qmul(iv, w, f)
    k = ops.sat_add(_qmul(rx, iu, f), _qmul(ry, iv, f), _LANE_BITS)
    j3 = ops.sat_sub(np.int64(0), _qmul(k, w, f), _LANE_BITS)
    j4 = ops.sat_sub(np.int64(0),
                     ops.sat_add(_qmul(ry, k, f), iv, _LANE_BITS),
                     _LANE_BITS)
    j5 = ops.sat_add(_qmul(rx, k, f), iu, _LANE_BITS)
    j6 = ops.sat_sub(_qmul(rx, iv, f), _qmul(ry, iu, f), _LANE_BITS)
    return np.stack([j1, j2, j3, j4, j5, j6], axis=-1)


@dataclass
class JacobianRows:
    """Row allocation of one Jacobian batch inside the PIM array."""

    rx: int
    ry: int
    z: int
    c: int
    iu: int
    iv: int
    w: int
    k: int
    j: tuple  # six destination rows


def jacobian_pim(device, rows: JacobianRows, count: int,
                 feature_frac: int = FEATURE_FORMAT.fraction_bits
                 ) -> np.ndarray:
    """Optimized device program (Fig. 5-d) for one feature batch.

    Expects ``rows.rx/ry/z`` already produced by :func:`warp_pim` and
    ``rows.c/iu/iv`` DMA-loaded.  9 multiplies + 1 divide.
    """
    device.set_precision(_LANE_BITS)
    f = feature_frac
    j1, j2, j3, j4, j5, j6 = rows.j
    device.div(rows.w, rows.c, rows.z, lshift=f)       # w = c / Z~
    device.mul(j1, rows.iu, rows.w, rshift=f)          # J1 = Iu w
    device.mul(j2, rows.iv, rows.w, rshift=f)          # J2 = Iv w
    device.mul(rows.k, rows.rx, rows.iu, rshift=f)     # rx Iu
    device.mul(TMP, rows.ry, rows.iv, rshift=f)        # ry Iv
    device.add(rows.k, rows.k, TMP, saturate=True)     # K
    device.mul(TMP, rows.k, rows.w, rshift=f)          # K w
    device.sub(j3, Imm(0), TMP, saturate=True)         # J3 = -K w
    device.mul(TMP, rows.ry, rows.k, rshift=f)         # ry K
    device.add(TMP, TMP, rows.iv, saturate=True)
    device.sub(j4, Imm(0), TMP, saturate=True)         # J4
    device.mul(TMP, rows.rx, rows.k, rshift=f)         # rx K
    device.add(j5, TMP, rows.iu, saturate=True)        # J5
    device.mul(j6, rows.rx, rows.iv, rshift=f)         # rx Iv
    device.mul(TMP, rows.ry, rows.iu, rshift=f)        # ry Iu
    device.sub(j6, j6, TMP, saturate=True)             # J6
    return np.stack([device.store(r)[:count] for r in rows.j], axis=-1)


def jacobian_pim_naive(device, rows: JacobianRows, count: int,
                       x_row: int, y_row: int,
                       feature_frac: int = FEATURE_FORMAT.fraction_bits
                       ) -> np.ndarray:
    """Naive device program: every entry from the raw Fig. 5-c formula.

    No subexpression sharing: ``(X Iu + Y Iv)`` is recomputed for J3,
    J4 and J5, and each entry performs its own division(s) by Z (12
    multiplies, 8 divides per batch).  Numerically the entries may
    differ from the optimized pipeline in the last bits (different
    rounding points); the optimized/naive agreement is validated at the
    tracking level, the cycle counts at the Fig. 9-b level.
    """
    device.set_precision(_LANE_BITS)
    f = feature_frac
    j1, j2, j3, j4, j5, j6 = rows.j
    scratch = rows.k

    def xiu_yiv(dst):
        device.mul(dst, x_row, rows.iu, rshift=f)
        device.mul(TMP, y_row, rows.iv, rshift=f)
        device.add(dst, dst, TMP, saturate=True)

    # J1 = Iu/Z * c, J2 = Iv/Z * c  (two divides, two muls).
    device.div(rows.w, rows.c, rows.z, lshift=f)
    device.mul(j1, rows.iu, rows.w, rshift=f)
    device.div(rows.w, rows.c, rows.z, lshift=f)       # recomputed!
    device.mul(j2, rows.iv, rows.w, rshift=f)
    # J3 = -(X Iu + Y Iv)/Z^2 * c^2 -> compute, divide twice.
    xiu_yiv(scratch)
    device.div(scratch, scratch, rows.z, lshift=f)
    device.mul(scratch, scratch, rows.c, rshift=f)
    device.div(scratch, scratch, rows.z, lshift=f)
    device.mul(scratch, scratch, rows.c, rshift=f)
    device.sub(j3, Imm(0), scratch, saturate=True)
    # J4 = -(Y/Z * (X Iu + Y Iv)/Z * c + Iv).
    xiu_yiv(scratch)
    device.div(scratch, scratch, rows.z, lshift=f)
    device.mul(scratch, scratch, rows.c, rshift=f)
    device.div(TMP, y_row, rows.z, lshift=f)
    device.mul(scratch, scratch, TMP, rshift=f)
    device.add(scratch, scratch, rows.iv, saturate=True)
    device.sub(j4, Imm(0), scratch, saturate=True)
    # J5 = X/Z * (X Iu + Y Iv)/Z * c + Iu.
    xiu_yiv(scratch)
    device.div(scratch, scratch, rows.z, lshift=f)
    device.mul(scratch, scratch, rows.c, rshift=f)
    device.div(TMP, x_row, rows.z, lshift=f)
    device.mul(scratch, scratch, TMP, rshift=f)
    device.add(j5, scratch, rows.iu, saturate=True)
    # J6 = (X Iv - Y Iu)/Z.
    device.mul(scratch, x_row, rows.iv, rshift=f)
    device.mul(TMP, y_row, rows.iu, rshift=f)
    device.sub(scratch, scratch, TMP, saturate=True)
    device.div(j6, scratch, rows.z, lshift=f)
    return np.stack([device.store(r)[:count] for r in rows.j], axis=-1)
