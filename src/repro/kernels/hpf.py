"""The HPF kernel: saturated 4-direction SAD (paper Fig. 3).

The response at centre pixel ``(r, c)`` is

``sat8( |A(c-1)-C(c+1)| + |A(c+1)-C(c-1)| + |B(c-1)-B(c+1)|
+ |A(c)-C(c)| )``

with ``A, B, C`` the rows above/at/below the centre.  The optimized
mapping aligns every operand pair by *shifting whole rows by two
pixels* and reuses the shifted copies across output rows (when row
``r+1`` is processed, the shifts of what was row ``C`` are already in
scratch).  Partial sums chain through the Tmp register; the final
result lands in row ``r - 1``, which is dead by then, so the transform
runs in place.

The naive mapping shifts each pair to centre alignment separately,
materializes every absolute difference in SRAM, and reuses nothing.
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
from repro.pim.device import TMP, Rel, Tmp
from repro.pim.program import PIMProgram, program_key

__all__ = ["hpf_fast", "hpf_naive_fast", "hpf_pim", "hpf_pim_naive",
           "hpf_program", "hpf_pim_replay", "HPF_ROW_OFFSET"]

#: Row alignment: output row ``i`` holds the response centred at input
#: row ``i + HPF_ROW_OFFSET`` (columns are centre-aligned).
HPF_ROW_OFFSET = 1


def _abs_diff_u8(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a - b|`` on uint8 lanes as ``max - min`` (never wraps)."""
    return np.maximum(a, b) - np.minimum(a, b)


def hpf_u8(lanes: np.ndarray) -> np.ndarray:
    """The SAD response on flat uint8 lanes (see :func:`lpf_u8`).

    ``lanes`` is an ``(H, W + LANE_PAD)`` buffer whose trailing lanes
    are zero; the response has the layout of :func:`hpf_fast` and the
    same trailing zero lanes.  On the flattened buffer every operand of
    the response at ``k = r * (W + LANE_PAD) + c`` is one offset slice
    (rows ``r .. r + 2``, columns ``c - 1 .. c + 1``), and a column
    past ``W - 1`` reads a zero lane, as the device's shift does.  The
    four absolute differences are non-negative, so the device's three
    sequential saturating adds equal one clamp of their plain sum; that
    sum (at most ``4 * 255``) is formed in uint16.  Lane 0, whose left
    operands wrap to the row above, and the trailing lanes are
    re-zeroed.
    """
    h, width = lanes.shape
    f = lanes.ravel()
    out = np.zeros_like(f)
    n = (h - 2) * width - 2    # responses k = 1 .. (h - 2) * width - 2
    if n > 0:
        d = 2 * width
        acc = _abs_diff_u8(f[:n], f[d + 2:d + 2 + n]).astype(np.uint16)
        acc += _abs_diff_u8(f[2:2 + n], f[d:d + n])
        acc += _abs_diff_u8(f[width:width + n],
                            f[width + 2:width + 2 + n])
        acc += _abs_diff_u8(f[1:1 + n], f[d + 1:d + 1 + n])
        np.minimum(acc, 255, out=out[1:1 + n])
        grid = out.reshape(h, width)
        grid[:, 0] = 0
        grid[:, -LANE_PAD:] = 0
    return out.reshape(h, width)


def hpf_fast(image: np.ndarray) -> np.ndarray:
    """Optimized SAD HPF with exact PIM arithmetic (vectorized).

    Args:
        image: Smoothed 8-bit image (rows x cols); values outside
            ``[0, 255]`` raise :class:`ValueError`.

    Returns:
        Int64 response array of the same shape; row ``i`` is centred
        at input row ``i + 1``; columns are centre-aligned; column 0
        and the two rightmost columns are invalid, as are the two
        bottom rows.
    """
    img = pixels_u8(image)
    response = hpf_u8(zero_extend(img, LANE_PAD))
    return response[:, :img.shape[1]].astype(np.int64)


def hpf_naive_fast(image: np.ndarray) -> np.ndarray:
    """Naive SAD HPF (centre-aligned per pair), vectorized mirror.

    Numerically identical to :func:`hpf_fast` in the interior; the
    border behaviour differs (each pair is shifted to centre alignment
    independently, so zeros leak one column less on the left and one
    more on the right).
    """
    img = np.asarray(image, dtype=np.int64)
    a = img[:-2]
    b = img[1:-1]
    c = img[2:]
    pairs = [
        (shift_pixels(a, -1), shift_pixels(c, 1)),
        (shift_pixels(a, 1), shift_pixels(c, -1)),
        (shift_pixels(b, -1), shift_pixels(b, 1)),
        (a, c),
    ]
    acc = np.zeros_like(a)
    for left, right in pairs:
        acc = ops.sat_add(acc, ops.abs_diff(left, right), 8, signed=False)
    out = np.zeros_like(img)
    out[1:-1] = acc  # centre-aligned rows, unlike the optimized mapping
    return out


def hpf_pim(device, height: int, base_row: int = 0,
            scratch_base: int = None) -> None:
    """Optimized device program (Fig. 3) with pipelined row shifts.

    The smoothed image in rows ``base_row .. base_row + height - 1`` is
    replaced in place by the response: output row ``i`` (centred at
    input row ``i + 1``) overwrites input row ``i`` once it is dead.
    Uses 7 scratch rows: a ring of 3 x (row << 2pix, row << 1pix) plus
    one accumulator.
    """
    if scratch_base is None:
        scratch_base = base_row + height
    s2 = [scratch_base + i for i in range(3)]       # row << 2pix ring
    s1 = [scratch_base + 3 + i for i in range(3)]   # row << 1pix ring
    # With a second Tmp register (section 5.4 extension) the partial
    # sum never round-trips through SRAM.
    acc = Tmp(1) if device.config.num_tmp_registers > 1 \
        else scratch_base + 6

    with obs_span("hpf", device=device, category="kernel",
                  rows=height - 2):
        # Prologue: shifts of the first two rows enter the ring.
        for i, r in enumerate((base_row, base_row + 1)):
            device.shift_lanes(s2[i], r, 2)
            device.shift_lanes(s1[i], r, 1)

        for r in range(base_row + 1, base_row + height - 1):
            ia = (r - 1 - base_row) % 3   # ring slot of row A = r - 1
            ib = (r - base_row) % 3       # slot of row B = r
            ic = (r + 1 - base_row) % 3   # slot of row C = r + 1
            row_a, row_b, row_c = r - 1, r, r + 1
            device.shift_lanes(s2[ic], row_c, 2)
            device.shift_lanes(s1[ic], row_c, 1)
            device.abs_diff(acc, row_a, s2[ic])          # |A - C<<2|
            device.abs_diff(TMP, s2[ia], row_c)          # |A<<2 - C|
            device.add(acc, acc, TMP, saturate=True, signed=False)
            device.abs_diff(TMP, row_b, s2[ib])          # |B - B<<2|
            device.add(acc, acc, TMP, saturate=True, signed=False)
            device.abs_diff(TMP, s1[ia], s1[ic])         # |A<<1 - C<<1|
            device.add(TMP, acc, TMP, saturate=True, signed=False)
            device.shift_lanes(row_a, TMP, -1)           # centre-align, in place


def _hpf_row_body(rec, scratch_base: int) -> None:
    """Record one output row of the SAD HPF with recomputed shifts.

    Unlike :func:`hpf_pim`, whose scratch ring carries shifted rows
    *across* iterations (a cross-row dependence that forbids
    batching), this body recomputes the five shifted operands of the
    current window into absolute scratch rows, writing each before it
    is read.  The only relative write -- the final in-place store to
    ``Rel(-1)`` -- is the last op, so compiled replay is provably
    equivalent to the eager loop.  The price is 2 extra shift cycles
    per row over the pipelined ring.
    """
    sc2c, sc2a, sc2b, sc1a, sc1c = (scratch_base + i for i in range(5))
    acc = Tmp(1) if rec.config.num_tmp_registers > 1 \
        else scratch_base + 5
    rec.shift_lanes(sc2c, Rel(1), 2)             # C << 2pix
    rec.shift_lanes(sc2a, Rel(-1), 2)            # A << 2pix
    rec.shift_lanes(sc2b, Rel(0), 2)             # B << 2pix
    rec.shift_lanes(sc1a, Rel(-1), 1)            # A << 1pix
    rec.shift_lanes(sc1c, Rel(1), 1)             # C << 1pix
    rec.abs_diff(acc, Rel(-1), sc2c)             # |A - C<<2|
    rec.abs_diff(TMP, sc2a, Rel(1))              # |A<<2 - C|
    rec.add(acc, acc, TMP, saturate=True, signed=False)
    rec.abs_diff(TMP, Rel(0), sc2b)              # |B - B<<2|
    rec.add(acc, acc, TMP, saturate=True, signed=False)
    rec.abs_diff(TMP, sc1a, sc1c)                # |A<<1 - C<<1|
    rec.add(TMP, acc, TMP, saturate=True, signed=False)
    rec.shift_lanes(Rel(-1), TMP, -1)            # centre-align, in place


def hpf_program(config, scratch_base: int) -> PIMProgram:
    """Compiled batchable HPF row body, cached per geometry/scratch."""
    return KERNEL_PROGRAM_CACHE.get_or_record(
        program_key("hpf", (scratch_base,), 8, config), config,
        lambda rec: _hpf_row_body(rec, scratch_base), name="hpf")


def hpf_pim_replay(device, height: int, base_row: int = 0,
                   scratch_base: int = None, mode: str = "auto") -> None:
    """HPF via compiled program replay; output matches :func:`hpf_pim`.

    Uses 6 scratch rows from ``scratch_base`` (default: directly below
    the image).  Row-batched on devices that support it; ``mode``
    (``"auto"`` or ``"eager"``) is forwarded to
    :meth:`~repro.pim.device.PIMDevice.run_program`.
    """
    if scratch_base is None:
        scratch_base = base_row + height
    program = hpf_program(device.config, scratch_base)
    with obs_span("hpf", device=device, category="kernel",
                  rows=height - 2):
        device.run_program(program,
                           range(base_row + 1, base_row + height - 1),
                           mode=mode)


def hpf_pim_naive(device, image: np.ndarray, base_row: int = 0,
                  scratch_base: int = None) -> np.ndarray:
    """Naive device program: per-pair alignment, everything in SRAM.

    Streams three input rows per output row (host DMA, excluded from
    cycles), shifts both operands of every pair to centre alignment,
    materializes each absolute difference in a scratch row and
    accumulates in another.

    Returns:
        The centre-aligned response image.
    """
    img = np.asarray(image, dtype=np.int64)
    height, width = img.shape
    if scratch_base is None:
        scratch_base = device.config.num_rows - 8
    in_rows = [scratch_base, scratch_base + 1, scratch_base + 2]
    t1, t2, td, acc = (scratch_base + 3, scratch_base + 4,
                       scratch_base + 5, scratch_base + 6)
    pair_shifts = [((-1, 0), (1, 2)),   # (row index, dx) per operand
                   ((1, 0), (-1, 2)),
                   ((-1, 1), (1, 1)),
                   ((0, 0), (0, 2))]
    out = np.zeros_like(img)
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
            device.abs_diff(td, left, right)
            if first:
                device.copy(acc, td)
                first = False
            else:
                device.add(acc, acc, td, saturate=True, signed=False)
        out[r] = device.store(acc, signed=False)[:width]
    return out
