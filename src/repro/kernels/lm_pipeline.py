"""One full LM iteration as a PIM device program (paper Fig. 1-b/c).

Chains the warp, lookup, Jacobian and Hessian kernels over the whole
feature set, batched by the SIMD width (160 features per 16-bit batch,
80 per 32-bit accumulation batch), and returns the reduced ``H``/``b``
raws together with a per-phase cycle breakdown - the numbers behind the
LM bars of Fig. 9.

Residual and gradient lookups are host-assisted gathers: the DT and
gradient maps live in memory, and each feature costs one access plus
one cycle per map (three per feature).  Invalid features (behind the
camera or out of frame) are masked *on the device*: the warp's
comparison masks are combined, sign-extended with one subtraction, and
ANDed over the Jacobian columns and residuals.

The naive variant swaps in the unfactored Jacobian (Fig. 5-c evaluated
literally) and the full 36-product Hessian; Fig. 9-b's 1.4x LM gap is
the measured difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.camera import CameraIntrinsics
from repro.kernels.hessian import (
    hessian_pim,
    hessian_pim_naive,
    hessian_reduce_pim,
)
from repro.kernels.jacobian import (
    JacobianRows,
    jacobian_pim,
    jacobian_pim_naive,
)
from repro.kernels.warp import (
    QuantizedFeatures,
    QuantizedPose,
    UV_FORMAT,
    WarpRows,
    warp_pim,
)
from repro.obs.tracer import span as obs_span
from repro.pim.device import TMP, Imm
from repro.pim.isa import OpKind

__all__ = ["LMCycleBreakdown", "lm_iteration_pim", "nearest_lookup"]

_LANE16 = 16
_LANE32 = 32


@dataclass
class LMCycleBreakdown:
    """Device cycles of one LM iteration, by phase."""

    warp: int = 0
    lookup: int = 0
    jacobian: int = 0
    mask: int = 0
    hessian: int = 0
    reduce: int = 0

    @property
    def total(self) -> int:
        return (self.warp + self.lookup + self.jacobian + self.mask +
                self.hessian + self.reduce)


def nearest_lookup(grid_raw: np.ndarray, u_raw: np.ndarray,
                   v_raw: np.ndarray) -> np.ndarray:
    """Nearest-pixel gather from Q14.2 coordinates (clipped)."""
    h, w = grid_raw.shape
    half = UV_FORMAT.scale // 2
    ui = np.clip((np.asarray(u_raw) + half) >> 2, 0, w - 1).astype(
        np.int64)
    vi = np.clip((np.asarray(v_raw) + half) >> 2, 0, h - 1).astype(
        np.int64)
    return grid_raw[vi, ui]


def _batched(feats: QuantizedFeatures, lanes: int):
    """Split the feature set into lane-sized batches (zero padded)."""
    n = len(feats)
    for start in range(0, max(n, 1), lanes):
        end = min(start + lanes, n)
        count = end - start
        yield QuantizedFeatures(a=feats.a[start:end], b=feats.b[start:end],
                                c=feats.c[start:end], fmt=feats.fmt), count


def _mask_batch(device, warp_rows: WarpRows, j_rows, r_row: int,
                mask_row: int, camera: CameraIntrinsics) -> None:
    """Zero Jacobians/residuals of invalid features, on the device.

    valid = (Z > 0) AND (0 <= u <= umax) AND (0 <= v <= vmax); the 0/1
    mask is sign-extended to all-ones by ``0 - mask`` and ANDed across
    the seven data rows.
    """
    scale = UV_FORMAT.scale
    umax = (camera.width - 1) * scale
    vmax = (camera.height - 1) * scale
    device.cmp_gt(mask_row, warp_rows.z, Imm(0))             # Z > 0
    device.cmp_gt(TMP, Imm(umax + 1), warp_rows.u)           # u <= umax
    device.logic_and(mask_row, mask_row, TMP)
    device.cmp_gt(TMP, warp_rows.u, Imm(-1))                 # u >= 0
    device.logic_and(mask_row, mask_row, TMP)
    device.cmp_gt(TMP, Imm(vmax + 1), warp_rows.v)           # v <= vmax
    device.logic_and(mask_row, mask_row, TMP)
    device.cmp_gt(TMP, warp_rows.v, Imm(-1))                 # v >= 0
    device.logic_and(mask_row, mask_row, TMP)
    device.sub(mask_row, Imm(0), mask_row)                   # 0/-1 extend
    for row in list(j_rows) + [r_row]:
        device.logic_and(row, row, mask_row)


def lm_iteration_pim(device, qpose: QuantizedPose,
                     feats: QuantizedFeatures, camera: CameraIntrinsics,
                     dt_raw: np.ndarray, gu_raw: np.ndarray,
                     gv_raw: np.ndarray, residual_clamp_raw: int,
                     naive: bool = False) -> tuple:
    """Run one LM linearization on the device.

    Returns:
        ``(h_raw, b_raw, breakdown)``: 21 (+6) Q29.3 raws and the
        per-phase cycles.  With ``naive=True`` the unfactored Jacobian
        and full-matrix Hessian mappings are used instead.
    """
    breakdown = LMCycleBreakdown()

    warp_rows = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7,
                         u=8, v=9)
    jac_rows = JacobianRows(rx=6, ry=7, z=5, c=2, iu=10, iv=11, w=12,
                            k=13, j=(14, 15, 16, 17, 18, 19))
    r_row, mask_row = 20, 21
    acc_base = 22
    n_acc = 42 if naive else 27
    if device.config.num_rows < acc_base + n_acc:
        raise ValueError("device too small for the LM row plan")
    acc_rows = list(range(acc_base, acc_base + n_acc))

    lm_span = obs_span("lm_iteration", device=device, category="pipeline",
                       features=len(feats), naive=naive)
    lm_span.__enter__()
    try:
        raws = _lm_phases(device, qpose, feats, camera, dt_raw, gu_raw,
                          gv_raw, residual_clamp_raw, naive, breakdown,
                          warp_rows, jac_rows, r_row, mask_row, acc_rows)
    finally:
        lm_span.__exit__(None, None, None)

    if naive:
        # Collapse the 36 full-matrix values to the upper triangle for
        # a comparable return shape.
        full = raws[:36].reshape(6, 6)
        h_raw = np.array([full[p, q] for p in range(6)
                          for q in range(p, 6)])
        b_raw = raws[36:]
    else:
        h_raw, b_raw = raws[:21], raws[21:]
    return h_raw, b_raw, breakdown


def _lm_phases(device, qpose, feats, camera, dt_raw, gu_raw, gv_raw,
               residual_clamp_raw, naive, breakdown, warp_rows, jac_rows,
               r_row, mask_row, acc_rows) -> np.ndarray:
    """The traced phase chain of :func:`lm_iteration_pim`.

    Mutates ``breakdown`` in place and returns the reduced raws.
    """
    f = feats.fmt.fraction_bits
    all_j = []
    all_r = []
    for batch, count in _batched(feats, device.config.lanes(_LANE16)):
        before = device.ledger.cycles
        with obs_span("warp", device=device, category="kernel",
                      features=count):
            warp = warp_pim(device, qpose, batch, camera, warp_rows)
        breakdown.warp += device.ledger.cycles - before

        # Host-assisted gathers: one access + one cycle per feature per
        # map (residual DT, gradient u, gradient v).
        before = device.ledger.cycles
        with obs_span("lookup", device=device, category="kernel",
                      features=count):
            iu = nearest_lookup(gu_raw, warp.u, warp.v)
            iv = nearest_lookup(gv_raw, warp.u, warp.v)
            res = np.minimum(nearest_lookup(dt_raw, warp.u, warp.v),
                             residual_clamp_raw)
            device.ledger.charge(OpKind.COPY, cycles=3 * count,
                                 sram_reads=3 * count, logic_ops=0)
            device.set_precision(_LANE16)
            device.load(jac_rows.iu, iu)
            device.load(jac_rows.iv, iv)
            device.load(r_row, res)
        breakdown.lookup += device.ledger.cycles - before

        before = device.ledger.cycles
        with obs_span("jacobian", device=device, category="kernel",
                      features=count, naive=naive):
            if naive:
                jacobian_pim_naive(device, jac_rows, count,
                                   x_row=warp_rows.x, y_row=warp_rows.y,
                                   feature_frac=f)
            else:
                jacobian_pim(device, jac_rows, count, feature_frac=f)
        breakdown.jacobian += device.ledger.cycles - before

        before = device.ledger.cycles
        with obs_span("mask", device=device, category="kernel",
                      features=count):
            _mask_batch(device, warp_rows, jac_rows.j, r_row, mask_row,
                        camera)
        breakdown.mask += device.ledger.cycles - before

        all_j.append(np.stack(
            [device.store(row)[:count] for row in jac_rows.j], axis=-1))
        all_r.append(device.store(r_row)[:count])

    j_full = np.concatenate(all_j) if all_j else np.zeros((0, 6),
                                                          dtype=np.int64)
    r_full = np.concatenate(all_r) if all_r else np.zeros(0,
                                                          dtype=np.int64)

    # 32-bit accumulation phase.
    lanes32 = device.config.lanes(_LANE32)
    n = r_full.size
    batches = max(1, -(-n // lanes32))
    padded = batches * lanes32
    jp = np.zeros((padded, 6), dtype=np.int64)
    rp = np.zeros(padded, dtype=np.int64)
    jp[:n] = j_full
    rp[:n] = r_full
    before = device.ledger.cycles
    with obs_span("hessian", device=device, category="kernel",
                  batches=batches, naive=naive):
        device.set_precision(_LANE32)
        for bi in range(batches):
            sl = slice(bi * lanes32, (bi + 1) * lanes32)
            for col in range(6):
                device.load(col, jp[sl, col])
            device.load(6, rp[sl])
            if naive:
                hessian_pim_naive(device, list(range(6)), 6, acc_rows,
                                  first_batch=(bi == 0))
            else:
                hessian_pim(device, list(range(6)), 6, acc_rows,
                            first_batch=(bi == 0))
    breakdown.hessian += device.ledger.cycles - before

    before = device.ledger.cycles
    with obs_span("reduce", device=device, category="kernel"):
        raws = hessian_reduce_pim(device, acc_rows)
    breakdown.reduce += device.ledger.cycles - before
    return raws
