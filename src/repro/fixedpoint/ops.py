"""Lane-level fixed-point arithmetic primitives.

These functions define the *numerical semantics* of the PIM accumulator
(paper section 4): n-bit lanes with two's-complement wrapping, explicit
saturation, and the branch-free multi-stage algorithms of Fig. 7
(absolute difference, min/max, multiplication, division).

All functions operate elementwise on numpy integer arrays.  Arithmetic is
carried out in int64 so that the wrap/saturate step is the only place
where word width matters - exactly as in the modelled hardware, where the
accumulator is wider than the lanes and the carry-control logic cuts the
result back to lane width.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "wrap",
    "saturate",
    "sat_add",
    "sat_sub",
    "average",
    "abs_diff",
    "branchfree_min",
    "branchfree_max",
    "greater_than",
    "multiply",
    "divide",
    "shift_right",
    "shift_left",
    "requantize",
]


def _as_i64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64)


def _bounds(bits: int, signed: bool) -> tuple[int, int]:
    if bits >= 64:
        # 64-bit lanes saturate the int64 host accumulator: the lane IS
        # the accumulator word, so signed two's-complement bounds apply
        # regardless of the requested view (an unsigned 64-bit range
        # cannot be represented in the int64 substrate).
        return -(1 << 63), (1 << 63) - 1
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def wrap(x, bits: int, signed: bool = True) -> np.ndarray:
    """Reduce ``x`` modulo ``2**bits`` into the lane's natural range.

    This models what the accumulator stores when the carry out of the
    lane's most significant slice is discarded.  At 64 bits the lane
    coincides with the int64 host word, so the value is already wrapped
    (and the "unsigned" view degenerates to the signed one -- see
    :func:`_bounds`).
    """
    x = np.asarray(x)
    if bits >= 64:
        return _as_i64(x)
    mask = (1 << bits) - 1
    if x.dtype == np.uint64:
        # Exact unsigned products arrive as uint64 (see multiply).
        u = (x & np.uint64(mask)).astype(np.int64)
    else:
        u = _as_i64(x) & mask
    if not signed:
        return u
    sign_bit = 1 << (bits - 1)
    return u - ((u & sign_bit) << 1)


def saturate(x, bits: int, signed: bool = True) -> np.ndarray:
    """Clamp ``x`` to the representable range of an n-bit lane.

    Models the saturation unit driven by the carry-extension bitmask
    (paper section 4.1).
    """
    lo, hi = _bounds(bits, signed)
    x = np.asarray(x)
    if x.dtype == np.uint64 and bits < 64:
        # Exact unsigned products arrive as uint64 (see multiply);
        # they are non-negative by construction, so only the upper
        # bound can clamp.
        return np.minimum(x, np.uint64(hi)).astype(np.int64)
    return np.clip(_as_i64(x), lo, hi)


def sat_add(a, b, bits: int, signed: bool = True) -> np.ndarray:
    """Saturating lane addition ``sat(a + b)``."""
    return saturate(_as_i64(a) + _as_i64(b), bits, signed)


def sat_sub(a, b, bits: int, signed: bool = True) -> np.ndarray:
    """Saturating lane subtraction ``sat(a - b)``.

    For unsigned lanes this clamps at zero, which is the form the
    branch-free min/max construction relies on.
    """
    return saturate(_as_i64(a) - _as_i64(b), bits, signed)


def average(a, b) -> np.ndarray:
    """Lane average ``(a + b) >> 1`` (floor), the LPF primitive.

    The hardware computes the full-width sum in the accumulator and
    shifts right by one, so no precision is lost before the shift and
    the result always fits the lane.
    """
    return (_as_i64(a) + _as_i64(b)) >> 1


def abs_diff(a, b) -> np.ndarray:
    """Absolute difference via the carry-extension trick of Fig. 7-a.

    ``M = a - b``; ``N`` is the borrow mask (all-ones where the
    subtraction went negative); the result is ``(M + N) ^ N``, which is
    the two's-complement conditional negation.

    The mask comes from comparing the *operands* (the hardware borrow),
    not the sign of ``M``: at 64-bit lane width ``M`` wraps in the
    int64 host word, so its sign bit is not the borrow.
    """
    a = _as_i64(a)
    b = _as_i64(b)
    m = a - b
    n = np.where(a < b, -1, 0).astype(np.int64)
    return (m + n) ^ n


def branchfree_max(a, b, bits: int, signed: bool = True) -> np.ndarray:
    """``max(a, b) = sat(a - b) + b`` (Fig. 7-b).

    The identity requires the saturating subtraction to clamp at zero
    from below, so for signed lanes the subtraction is saturated on the
    unsigned range ``[0, 2**bits - 1]`` of the *difference*; the
    difference of two in-range signed values always fits that range
    after clamping at zero.

    At 64-bit lane width the difference ``a - b`` can exceed the int64
    host accumulator (e.g. ``a = 2**62, b = -2**62``), so the identity
    is evaluated directly as ``max`` -- which is what the hardware's
    wider-than-lane accumulator would yield.
    """
    a = _as_i64(a)
    b = _as_i64(b)
    if bits >= 64:
        return np.maximum(a, b)
    diff = np.maximum(a - b, 0)
    return b + diff


def branchfree_min(a, b, bits: int, signed: bool = True) -> np.ndarray:
    """``min(a, b) = a - sat(a - b)`` (Fig. 7-b).

    Same 64-bit host-bound rule as :func:`branchfree_max`.
    """
    a = _as_i64(a)
    b = _as_i64(b)
    if bits >= 64:
        return np.minimum(a, b)
    diff = np.maximum(a - b, 0)
    return a - diff


def greater_than(a, b) -> np.ndarray:
    """Comparison mask ``a > b`` (1/0 per lane).

    The hardware derives this from the borrow of ``b - a`` captured in
    the carry-extension register.
    """
    return (_as_i64(a) > _as_i64(b)).astype(np.int64)


def multiply(a, b, bits: int, signed: bool = True) -> np.ndarray:
    """Full-precision lane product, MSB-first shift-add semantics.

    The PIM multiplier (Fig. 7-c) consumes unsigned operands and
    produces the exact ``2n``-bit product; signed operands are inverted
    before and after.  Functionally that is simply the integer product,
    which is what this returns -- in int64, except for unsigned lanes
    below 64 bits where the exact 2n-bit product can exceed int64
    (n = 32) and is returned as uint64; :func:`wrap`/:func:`saturate`
    narrow either dtype correctly.
    """
    lo, hi = _bounds(bits, signed)
    a = _as_i64(a)
    b = _as_i64(b)
    if np.any((a < lo) | (a > hi)) or np.any((b < lo) | (b > hi)):
        raise ValueError(f"operands exceed {bits}-bit lane range")
    if not signed and bits < 64:
        return a.astype(np.uint64) * b.astype(np.uint64)
    return a * b


def divide(a, b, bits: int, signed: bool = True) -> np.ndarray:
    """Restoring-division quotient with truncation toward zero.

    Matches Fig. 7-d: the hardware divides unsigned magnitudes and the
    sign is fixed up afterwards, giving C-style truncated division
    rather than Python's floor division.  Division by zero saturates to
    the lane maximum (the hardware's restoring loop would leave the
    all-ones quotient), preserving sign.
    """
    a = _as_i64(a)
    b = _as_i64(b)
    _, hi = _bounds(bits, signed)
    if bits >= 64:
        # |INT64_MIN| does not exist in int64 (np.abs wraps to itself),
        # so develop the magnitudes in uint64 -- exactly what the
        # restoring loop does with its unsigned partial remainder.
        # The negation wraps for non-negative lanes, whose branch
        # np.where drops; numpy warns on that only for 0-d operands.
        au = a.astype(np.uint64)
        bu = b.astype(np.uint64)
        with np.errstate(over="ignore"):
            mag_a = np.where(a < 0, ~au + np.uint64(1), au)
            mag_b = np.where(b < 0, ~bu + np.uint64(1), bu)
        mag = (mag_a // np.maximum(mag_b, np.uint64(1))).astype(np.int64)
    else:
        mag = np.abs(a) // np.maximum(np.abs(b), 1)
    sign = np.where((a < 0) ^ (b < 0), -1, 1)
    q = sign * mag
    overflow = np.where(a >= 0, hi, -hi if signed else hi)
    return np.where(b == 0, overflow, q)


def shift_right(a, n: int, arithmetic: bool = True) -> np.ndarray:
    """Shift lanes right by ``n`` bits (arithmetic by default)."""
    a = _as_i64(a)
    if arithmetic:
        return a >> n
    return np.where(a >= 0, a >> n, (a & np.int64(-1)) >> n)


def shift_left(a, n: int, bits: int, signed: bool = True) -> np.ndarray:
    """Shift lanes left by ``n`` bits, wrapping at lane width."""
    return wrap(_as_i64(a) << n, bits, signed)


def requantize(raw, from_frac: int, to_frac: int, bits: int,
               signed: bool = True) -> np.ndarray:
    """Move raws between fraction widths with saturation.

    Right shifts (``to_frac < from_frac``) truncate; left shifts
    saturate, mirroring what the shifter + saturation unit does when a
    product is folded back into a narrower Q format.
    """
    raw = _as_i64(raw)
    if to_frac >= from_frac:
        shifted = raw << (to_frac - from_frac)
    else:
        shifted = raw >> (from_frac - to_frac)
    return saturate(shifted, bits, signed)
