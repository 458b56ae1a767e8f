"""The NMS kernel: branch-free non-maximum suppression (paper Fig. 4).

Original (branchy) form, for centre response ``b2`` with the four
opposite-neighbour pairs ``{a1,c3}, {a3,c1}, {b1,b3}, {a2,c2}``:

``b2 > th1 AND any_pair( b2 - first > th2 AND b2 - second > th2 )``

The paper's simplification uses ``(x>y AND x>z) <=> x > max(y,z)`` and
``(x>y OR x>z) <=> x > min(y,z)``:

``b2 > th1 AND sat(b2 - th2) > min over pairs of max(pair)``

which is four branch-free ``max`` ops, three ``min`` ops, one saturated
subtraction and two comparisons - all single-cycle PIM primitives.
The mapping reuses the 2-pixel/1-pixel shifted row copies exactly like
the HPF kernel and writes the edge mask in place into the dead row
above the centre.

The naive mapping executes the branchy form literally: per pair, two
centre-alignment shifts, two subtractions, two threshold compares and
an AND, then the OR chain - every intermediate written to SRAM.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint import ops
from repro.kernels.common import (
    KERNEL_PROGRAM_CACHE,
    LANE_PAD,
    pixels_u8,
    shift_pixels,
    zero_extend,
)
from repro.obs.tracer import span as obs_span
from repro.pim.device import TMP, Imm, Rel, Tmp
from repro.pim.program import PIMProgram, program_key

__all__ = ["nms_fast", "nms_naive_fast", "nms_pim", "nms_pim_naive",
           "nms_program", "nms_pim_replay", "NMS_ROW_OFFSET"]

#: Row alignment: output row ``i`` holds the decision for input row
#: ``i + NMS_ROW_OFFSET`` (columns are centre-aligned).
NMS_ROW_OFFSET = 1


def _check_threshold(value) -> int:
    """A threshold as the unsigned 8-bit immediate the device accepts."""
    value = int(value)
    if not 0 <= value <= 255:
        raise ValueError(f"immediate {value} exceeds 8-bit range")
    return value


def nms_u8(lanes: np.ndarray, th1: int, th2: int) -> np.ndarray:
    """Branch-free NMS on flat uint8 lanes (see :func:`lpf_u8`).

    ``lanes`` is an ``(H, W + LANE_PAD)`` response whose trailing
    lanes are zero; the result is a boolean mask of the same layout
    (:func:`nms_fast`'s; a trailing lane's centre is a zero lane, so
    it is False).  Operands are offset slices of the flattened buffer,
    as in :func:`hpf_u8`.  The pair maxima and their minimum ``K`` are
    uint8 max/min; ``K`` of lane 0, whose left operands wrap to the
    row above, is re-zeroed, as the device's shifted-in lane is zero.
    The saturating ``sat(b2 - th2)`` is ``b2 - min(b2, th2)``, which
    never wraps.
    """
    th1, th2 = _check_threshold(th1), _check_threshold(th2)
    h, width = lanes.shape
    f = lanes.ravel()
    out = np.zeros(f.shape, dtype=bool)
    m = (h - 2) * width        # decisions k = 0 .. m - 1
    n = m - 2                  # pair minima k = 1 .. m - 2
    if n > 0:
        d = 2 * width
        k = np.empty(m, dtype=np.uint8)
        kc = k[1:1 + n]
        # K = min over the pairs {a1,c3}, {a3,c1}, {b1,b3}, {a2,c2} of max.
        np.maximum(f[:n], f[d + 2:d + 2 + n], out=kc)
        np.minimum(kc, np.maximum(f[2:2 + n], f[d:d + n]), out=kc)
        np.minimum(kc, np.maximum(f[width:width + n],
                                  f[width + 2:width + 2 + n]), out=kc)
        np.minimum(kc, np.maximum(f[1:1 + n], f[d + 1:d + 1 + n]), out=kc)
        k.reshape(h - 2, width)[:, 0] = 0
        b = f[width:width + m]
        low = b - np.minimum(b, th2)       # L = sat(b2 - th2)
        np.greater(low, k, out=out[:m])
        out[:m] &= b > th1
    return out.reshape(h, width)


def nms_fast(response: np.ndarray, th1: int, th2: int) -> np.ndarray:
    """Branch-free NMS with exact PIM arithmetic (vectorized).

    Args:
        response: 8-bit HPF response image; values outside
            ``[0, 255]`` raise :class:`ValueError`.
        th1: Absolute strength threshold.
        th2: Local-maximum margin.  Both thresholds are 8-bit
            immediates on the device, checked like one.

    Returns:
        Int64 0/1 mask, same shape; row ``i`` is the decision for input
        row ``i + 1``, columns centre-aligned; two bottom rows and the
        outermost columns are invalid.
    """
    img = pixels_u8(response)
    mask = nms_u8(zero_extend(img, LANE_PAD), th1, th2)
    return mask[:, :img.shape[1]].astype(np.int64)


def nms_naive_fast(response: np.ndarray, th1: int, th2: int) -> np.ndarray:
    """Naive branchy NMS, vectorized mirror (centre-aligned rows offset).

    Exactly the original compound of comparisons; produces the same
    mask as :func:`nms_fast` in the interior.
    """
    img = np.asarray(response, dtype=np.int64)
    a = img[:-2]
    b = img[1:-1]
    c = img[2:]
    pairs = [
        (shift_pixels(a, -1), shift_pixels(c, 1)),
        (shift_pixels(a, 1), shift_pixels(c, -1)),
        (shift_pixels(b, -1), shift_pixels(b, 1)),
        (a, c),
    ]
    any_dir = np.zeros_like(a)
    for first, second in pairs:
        win = (ops.greater_than(b - first, np.int64(th2)) &
               ops.greater_than(b - second, np.int64(th2)))
        any_dir |= win
    strong = ops.greater_than(b, np.int64(th1))
    out = np.zeros_like(img)
    out[:-2] = any_dir & strong
    return out


def nms_pim(device, height: int, th1: int, th2: int, base_row: int = 0,
            scratch_base: int = None) -> None:
    """Optimized device program (Fig. 4) with pipelined row shifts.

    The response image in rows ``base_row ..`` is replaced in place by
    the 0/1 edge mask (output row ``i`` = decision for input row
    ``i + 1``).  Uses 8 scratch rows.
    """
    if scratch_base is None:
        scratch_base = base_row + height
    s2 = [scratch_base + i for i in range(3)]
    s1 = [scratch_base + 3 + i for i in range(3)]
    # The running min/max chain stays in a second Tmp register when the
    # bank has one (section 5.4 extension).
    t1 = Tmp(1) if device.config.num_tmp_registers > 1 \
        else scratch_base + 6
    t2 = scratch_base + 7

    with obs_span("nms", device=device, category="kernel",
                  rows=height - 2):
        for i, r in enumerate((base_row, base_row + 1)):
            device.shift_lanes(s2[i], r, 2)
            device.shift_lanes(s1[i], r, 1)

        for r in range(base_row + 1, base_row + height - 1):
            ia = (r - 1 - base_row) % 3
            ib = (r - base_row) % 3
            ic = (r + 1 - base_row) % 3
            row_a, row_b, row_c = r - 1, r, r + 1
            device.shift_lanes(s2[ic], row_c, 2)
            device.shift_lanes(s1[ic], row_c, 1)
            device.maximum(t1, row_a, s2[ic])      # max(a1, c3)
            device.maximum(t2, s2[ia], row_c)      # max(a3, c1)
            device.minimum(t1, t1, t2)
            device.maximum(t2, row_b, s2[ib])      # max(b1, b3)
            device.minimum(t1, t1, t2)
            device.maximum(t2, s1[ia], s1[ic])     # max(a2, c2)
            device.minimum(t1, t1, t2)             # K
            device.shift_lanes(t1, t1, -1)         # centre-align K
            device.sub(TMP, row_b, Imm(th2), saturate=True,
                       signed=False)               # L = sat(b2 - th2)
            device.cmp_gt(t2, TMP, t1, signed=False)        # M = L > K
            device.cmp_gt(TMP, row_b, Imm(th1), signed=False)  # N = b2 > th1
            device.logic_and(row_a, t2, TMP)       # edge mask, in place


def _nms_row_body(rec, th1: int, th2: int, scratch_base: int) -> None:
    """Record one output row of branch-free NMS with recomputed shifts.

    Batchable sibling of :func:`nms_pim`: the shift ring is replaced by
    five write-before-read scratch rows and the only relative write
    (the in-place mask store to ``Rel(-1)``) is the final op -- the
    same structure as the HPF replay body.
    """
    sc2c, sc2a, sc2b, sc1a, sc1c = (scratch_base + i for i in range(5))
    t1 = Tmp(1) if rec.config.num_tmp_registers > 1 \
        else scratch_base + 5
    t2 = scratch_base + 6
    rec.shift_lanes(sc2c, Rel(1), 2)             # C << 2pix
    rec.shift_lanes(sc2a, Rel(-1), 2)            # A << 2pix
    rec.shift_lanes(sc2b, Rel(0), 2)             # B << 2pix
    rec.shift_lanes(sc1a, Rel(-1), 1)            # A << 1pix
    rec.shift_lanes(sc1c, Rel(1), 1)             # C << 1pix
    rec.maximum(t1, Rel(-1), sc2c)               # max(a1, c3)
    rec.maximum(t2, sc2a, Rel(1))                # max(a3, c1)
    rec.minimum(t1, t1, t2)
    rec.maximum(t2, Rel(0), sc2b)                # max(b1, b3)
    rec.minimum(t1, t1, t2)
    rec.maximum(t2, sc1a, sc1c)                  # max(a2, c2)
    rec.minimum(t1, t1, t2)                      # K
    rec.shift_lanes(t1, t1, -1)                  # centre-align K
    rec.sub(TMP, Rel(0), Imm(th2), saturate=True,
            signed=False)                        # L = sat(b2 - th2)
    rec.cmp_gt(t2, TMP, t1, signed=False)        # M = L > K
    rec.cmp_gt(TMP, Rel(0), Imm(th1), signed=False)  # N = b2 > th1
    rec.logic_and(Rel(-1), t2, TMP)              # edge mask, in place


def nms_program(config, th1: int, th2: int,
                scratch_base: int) -> PIMProgram:
    """Compiled batchable NMS row body, cached per geometry/thresholds."""
    return KERNEL_PROGRAM_CACHE.get_or_record(
        program_key("nms", (scratch_base, th1, th2), 8, config), config,
        lambda rec: _nms_row_body(rec, th1, th2, scratch_base),
        name="nms")


def nms_pim_replay(device, height: int, th1: int, th2: int,
                   base_row: int = 0, scratch_base: int = None,
                   mode: str = "auto") -> None:
    """NMS via compiled program replay; output matches :func:`nms_pim`.

    Uses 7 scratch rows from ``scratch_base`` (default: directly below
    the image).  Row-batched on devices that support it; ``mode``
    (``"auto"`` or ``"eager"``) is forwarded to
    :meth:`~repro.pim.device.PIMDevice.run_program`.
    """
    if scratch_base is None:
        scratch_base = base_row + height
    program = nms_program(device.config, th1, th2, scratch_base)
    with obs_span("nms", device=device, category="kernel",
                  rows=height - 2):
        device.run_program(program,
                           range(base_row + 1, base_row + height - 1),
                           mode=mode)


def nms_pim_naive(device, response: np.ndarray, th1: int, th2: int,
                  scratch_base: int = None) -> np.ndarray:
    """Naive device program: the branchy kernel mapped literally.

    Nine threshold comparisons and the 8-way AND/OR compound, every
    intermediate materialized in SRAM, operands shifted to centre
    alignment per pair, rows streamed in per output row.

    Returns:
        The 0/1 edge mask (centre-aligned rows).
    """
    img = np.asarray(response, dtype=np.int64)
    height, width = img.shape
    if scratch_base is None:
        scratch_base = device.config.num_rows - 9
    in_rows = [scratch_base, scratch_base + 1, scratch_base + 2]
    t1, t2 = scratch_base + 3, scratch_base + 4
    c1, c2 = scratch_base + 5, scratch_base + 6
    acc = scratch_base + 7
    pair_shifts = [((-1, 0), (1, 2)),
                   ((1, 0), (-1, 2)),
                   ((-1, 1), (1, 1)),
                   ((0, 0), (0, 2))]
    out = np.zeros_like(img)
    row_b = in_rows[1]
    for r in range(1, height - 1):
        for i, dy in enumerate((-1, 0, 1)):
            device.load(in_rows[i], img[r + dy], signed=False)
        first = True
        for (dx_l, ri_l), (dx_r, ri_r) in pair_shifts:
            left, right = in_rows[ri_l], in_rows[ri_r]
            if dx_l != 0:
                device.shift_lanes(t1, left, dx_l)
                left = t1
            if dx_r != 0:
                device.shift_lanes(t2, right, dx_r)
                right = t2
            # sat0(b2 - neighbour) > th2 for both neighbours, then AND.
            # (The unsigned saturation clamps losses to 0, which can
            # never exceed the non-negative threshold - equivalent to
            # the signed comparison of the branchy original.)
            device.sub(c1, row_b, left, saturate=True, signed=False)
            device.cmp_gt(c1, c1, Imm(th2), signed=False)
            device.sub(c2, row_b, right, saturate=True, signed=False)
            device.cmp_gt(c2, c2, Imm(th2), signed=False)
            device.logic_and(c1, c1, c2)
            if first:
                device.copy(acc, c1)
                first = False
            else:
                device.logic_or(acc, acc, c1)
        device.cmp_gt(c1, row_b, Imm(th1), signed=False)
        device.logic_and(acc, acc, c1)
        out[r] = device.store(acc, signed=False)[:width]
    return out
