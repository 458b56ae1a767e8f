"""The LPF kernel: 3x3 binomial filter as two 2x2 averaging passes.

Paper Fig. 2.  The 3x3 kernel ``[1 2 1; 2 4 2; 1 2 1]/16`` factors into
two cascaded 2x2 box filters whose coefficients are all ``1/4`` -- each
realized per image row with exactly three PIM micro-ops:

1. ``C = avg(row_r, row_{r+1})`` written in place over ``row_r``,
2. ``D = C << 1pix`` into the Tmp register,
3. ``E = avg(C, D)`` written back over ``row_r``.

Everything stays in 8 bits because each stage is an average, never a
raw sum.  After both passes, position ``(r, c)`` of the output holds
the binomial response centred at ``(r + 1, c + 1)`` of the input; the
valid region is ``rows [0, H-3], cols [0, W-3]``.

The naive mapping implements the textbook 3x3 convolution directly:
for every tap, shift, pre-scale (losing low bits to stay in 8 bits) and
accumulate, with no decomposition and no inter-row reuse.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint import ops
from repro.kernels.common import (
    KERNEL_PROGRAM_CACHE,
    pixels_u8,
    shift_pixels,
)
from repro.obs.tracer import span as obs_span
from repro.pim.device import TMP, Imm, Rel, Tmp
from repro.pim.program import PIMProgram, program_key

__all__ = ["lpf_fast", "lpf_naive_fast", "lpf_pim", "lpf_pim_naive",
           "lpf_program", "LPF_OFFSET"]

#: Output (row, col) offset: ``out[r, c]`` is centred at input
#: ``(r + LPF_OFFSET, c + LPF_OFFSET)``.
LPF_OFFSET = 1

#: The 3x3 binomial taps as (dy, dx, right-shift) with shift = 4 - log2(w).
_NAIVE_TAPS = [(-1, -1, 4), (-1, 0, 3), (-1, 1, 4),
               (0, -1, 3), (0, 0, 2), (0, 1, 3),
               (1, -1, 4), (1, 0, 3), (1, 1, 4)]


def _avg_u8(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lane average ``floor((a + b) / 2)`` without widening.

    ``a + b = 2 (a & b) + (a ^ b)``: the shared bits count twice and
    the differing bits once, so the halved sum is
    ``(a & b) + ((a ^ b) >> 1)``, which never exceeds the larger
    operand and so stays in uint8.
    """
    out = np.bitwise_xor(a, b)
    out >>= 1
    out += a & b
    return out


def lpf_u8(img: np.ndarray) -> np.ndarray:
    """Both 2x2 averaging passes on uint8 lanes (the device's rows).

    Per pass: ``C = avg(row_r, row_{r+1})`` over every row but the
    last, then ``E = avg(C, C << 1pix)``; the last lane of ``C << 1pix``
    is the shifted-in zero, so it averages to ``C >> 1``.  The last
    row is never written, exactly as on the device.
    """
    a = img
    for _ in range(2):
        c = a.copy()
        c[:-1] = _avg_u8(a[:-1], a[1:])
        e = c.copy()
        e[:-1, :-1] = _avg_u8(c[:-1, :-1], c[:-1, 1:])
        e[:-1, -1] >>= 1
        a = e
    return a


def lpf_fast(image: np.ndarray) -> np.ndarray:
    """Optimized LPF with exact PIM arithmetic (vectorized).

    Args:
        image: 8-bit grayscale image (truncated to integers; values
            outside ``[0, 255]`` raise :class:`ValueError`).

    Returns:
        Smoothed image as int64, same shape; entry ``(r, c)`` is the
        binomial response at input ``(r + 1, c + 1)``; the last two
        rows/cols are invalid.
    """
    return lpf_u8(pixels_u8(image)).astype(np.int64)


def lpf_naive_fast(image: np.ndarray) -> np.ndarray:
    """Naive LPF with exact PIM arithmetic (vectorized mirror).

    Direct 3x3 convolution with per-tap pre-scaling: each tap
    contributes ``pixel >> (4 - log2 w)`` (low bits lost before the
    sum, unlike the optimized cascade).  Output is centre-aligned;
    the one-pixel border is invalid.
    """
    img = np.asarray(image, dtype=np.int64)
    acc = np.zeros_like(img)
    for dy, dx, shift in _NAIVE_TAPS:
        rows = np.roll(img, -dy, axis=0)
        if dy > 0:
            rows[-dy:] = 0
        elif dy < 0:
            rows[:-dy] = 0
        tap = shift_pixels(rows, dx) >> shift
        acc = ops.sat_add(acc, tap, 8, signed=False)
    return acc


def _lpf_row_body(rec) -> None:
    """Record one row of the 2x2 averaging pass (Fig. 2)."""
    multi_reg = rec.config.num_tmp_registers > 1
    if multi_reg:
        rec.avg(Tmp(1), Rel(0), Rel(1))      # C = (A + B) / 2
        rec.shift_lanes(TMP, Tmp(1), 1)      # D = C << 1pix
        rec.avg(Rel(0), Tmp(1), TMP)         # E = (C + D) / 2
    else:
        rec.avg(Rel(0), Rel(0), Rel(1))      # C = (A + B) / 2
        rec.shift_lanes(TMP, Rel(0), 1)      # D = C << 1pix
        rec.avg(Rel(0), Rel(0), TMP)         # E = (C + D) / 2


def lpf_program(config) -> PIMProgram:
    """Compiled per-row LPF pass body, cached per device geometry."""
    return KERNEL_PROGRAM_CACHE.get_or_record(
        program_key("lpf", (), 8, config), config, _lpf_row_body,
        name="lpf")


def lpf_pim(device, height: int, base_row: int = 0,
            mode: str = "auto") -> None:
    """Optimized device program: two in-place 2x2 passes (Fig. 2).

    The image must already reside in rows ``base_row ..
    base_row + height - 1``; the result replaces it.  Costs 5 cycles
    per row per pass with the paper's single Tmp register; with a
    second register (the section 5.4 extension) the intermediate row
    ``C`` never touches SRAM, saving one cycle and one write-back per
    row.

    The per-row body is compiled once (through
    :data:`~repro.kernels.common.KERNEL_PROGRAM_CACHE`) and replayed
    row-batched when the device supports it; cost accounting and
    memory state are identical to the eager loop either way.  ``mode``
    (``"auto"`` or ``"eager"``) is forwarded to
    :meth:`~repro.pim.device.PIMDevice.run_program`.
    """
    program = lpf_program(device.config)
    bases = range(base_row, base_row + height - 1)
    with obs_span("lpf", device=device, category="kernel",
                  rows=height - 1, passes=2):
        if hasattr(device, "run_program"):
            for _ in range(2):
                device.run_program(program, bases, mode=mode)
            return
        for _ in range(2):
            for r in bases:
                program.replay(device, r)


def lpf_pim_naive(device, image: np.ndarray, base_row: int = 0,
                  scratch_row: int = None) -> np.ndarray:
    """Naive device program: direct 3x3 convolution, no reuse.

    Processes one output row at a time: the three needed input rows are
    streamed in (host DMA, excluded from cycles per the paper), each of
    the nine taps is shifted, pre-scaled and accumulated, and the row
    is streamed back out.

    Returns:
        The filtered image (centre-aligned, border invalid).
    """
    img = np.asarray(image, dtype=np.int64)
    height, width = img.shape
    if scratch_row is None:
        scratch_row = device.config.num_rows - 1
    in_rows = [base_row, base_row + 1, base_row + 2]
    acc_row = scratch_row
    out = np.zeros_like(img)
    for r in range(1, height - 1):
        for i, dy in enumerate((-1, 0, 1)):
            device.load(in_rows[i], img[r + dy], signed=False)
        device.copy(acc_row, Imm(0), signed=False)
        for dy, dx, shift in _NAIVE_TAPS:
            src = in_rows[dy + 1]
            if dx != 0:
                device.shift_lanes(TMP, src, dx)
                device.shift_bits(TMP, TMP, -shift, signed=False)
            else:
                device.shift_bits(TMP, src, -shift, signed=False)
            device.add(acc_row, acc_row, TMP, saturate=True, signed=False)
        out[r] = device.store(acc_row, signed=False)[:width]
    return out

