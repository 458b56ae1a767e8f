"""Property tests for the lane-level fixed-point primitives (Fig. 7)."""

import warnings

import numpy as np
from hypothesis import given, strategies as st

from repro.fixedpoint import ops

_INT64_EDGES = [-(1 << 63), -(1 << 63) + 1, -1, 0, 1, (1 << 63) - 1]


def lanes(bits, signed=True, size=8):
    lo = -(1 << (bits - 1)) if signed else 0
    hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=np.int64))


class TestWrapSaturate:
    @given(st.integers(-1 << 40, 1 << 40))
    def test_wrap_matches_twos_complement(self, x):
        wrapped = int(ops.wrap(x, 16))
        assert -(1 << 15) <= wrapped < (1 << 15)
        assert (wrapped - x) % (1 << 16) == 0

    @given(st.integers(-1 << 40, 1 << 40))
    def test_saturate_clamps(self, x):
        s = int(ops.saturate(x, 16))
        assert s == max(-(1 << 15), min((1 << 15) - 1, x))

    def test_wrap_unsigned(self):
        assert int(ops.wrap(256, 8, signed=False)) == 0
        assert int(ops.wrap(-1, 8, signed=False)) == 255

    @given(lanes(8, signed=False), lanes(8, signed=False))
    def test_sat_add_unsigned_never_exceeds_255(self, a, b):
        out = ops.sat_add(a, b, 8, signed=False)
        assert out.min() >= 0 and out.max() <= 255
        exact = a + b
        np.testing.assert_array_equal(out, np.minimum(exact, 255))

    @given(lanes(16), lanes(16))
    def test_sat_sub_signed(self, a, b):
        out = ops.sat_sub(a, b, 16)
        np.testing.assert_array_equal(
            out, np.clip(a - b, -(1 << 15), (1 << 15) - 1))


class TestFig7Algorithms:
    @given(lanes(8, signed=False), lanes(8, signed=False))
    def test_abs_diff_unsigned(self, a, b):
        np.testing.assert_array_equal(ops.abs_diff(a, b), np.abs(a - b))

    @given(lanes(16), lanes(16))
    def test_abs_diff_signed(self, a, b):
        np.testing.assert_array_equal(ops.abs_diff(a, b), np.abs(a - b))

    @given(lanes(8, signed=False), lanes(8, signed=False))
    def test_branchfree_minmax_unsigned(self, a, b):
        np.testing.assert_array_equal(
            ops.branchfree_max(a, b, 8, False), np.maximum(a, b))
        np.testing.assert_array_equal(
            ops.branchfree_min(a, b, 8, False), np.minimum(a, b))

    @given(lanes(16), lanes(16))
    def test_branchfree_minmax_signed(self, a, b):
        np.testing.assert_array_equal(
            ops.branchfree_max(a, b, 16), np.maximum(a, b))
        np.testing.assert_array_equal(
            ops.branchfree_min(a, b, 16), np.minimum(a, b))

    def test_fig7b_worked_example(self):
        # Paper Fig. 7-b: A = [121, 106], B = [22, 115] (reading the two
        # 8-bit lanes) gives min = [22, 106], max = [121, 115].
        a = np.array([121, 106])
        b = np.array([22, 115])
        np.testing.assert_array_equal(
            ops.branchfree_min(a, b, 8, False), [22, 106])
        np.testing.assert_array_equal(
            ops.branchfree_max(a, b, 8, False), [121, 115])

    def test_fig7c_worked_example(self):
        assert int(ops.multiply(np.array([13]), np.array([11]), 8,
                                signed=False)[0]) == 143

    def test_fig7d_worked_example(self):
        q = ops.divide(np.array([15]), np.array([6]), 8, signed=False)
        assert int(q[0]) == 2

    @given(lanes(16), lanes(16))
    def test_multiply_exact(self, a, b):
        np.testing.assert_array_equal(ops.multiply(a, b, 16), a * b)

    @given(lanes(16), lanes(16))
    def test_divide_truncates_toward_zero(self, a, b):
        out = ops.divide(a, b, 16)
        for x, y, q in zip(a, b, out):
            if y == 0:
                continue
            expected = int(abs(x) // abs(y))
            if (x < 0) != (y < 0):
                expected = -expected
            assert q == expected

    def test_divide_by_zero_saturates(self):
        out = ops.divide(np.array([5, -5]), np.array([0, 0]), 16)
        assert int(out[0]) == (1 << 15) - 1
        assert int(out[1]) == -((1 << 15) - 1)

    @given(st.lists(st.tuples(st.sampled_from(_INT64_EDGES) |
                              st.integers(-(1 << 63), (1 << 63) - 1),
                              st.sampled_from(_INT64_EDGES) |
                              st.integers(-(1 << 63), (1 << 63) - 1)),
                    min_size=1, max_size=6),
           st.booleans())
    def test_divide_64_is_silent_on_scalars_and_arrays(self, pairs,
                                                       signed):
        """At 64 bits the magnitude negation wraps only in the branch
        ``np.where`` drops: no warning on 0-d or array operands, and
        the quotient of each 0-d pair is its lane of the array call
        and the C-style truncated quotient (INT64_MIN / -1 wraps)."""
        a = np.array([x for x, _ in pairs], dtype=np.int64)
        b = np.array([y for _, y in pairs], dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ops.divide(a, b, 64, signed)
            scalars = [ops.divide(x, y, 64, signed) for x, y in zip(a, b)]
        hi = (1 << 63) - 1
        for x, y, q, q0 in zip(a.tolist(), b.tolist(), out, scalars):
            if y == 0:
                expected = hi if x >= 0 or not signed else -hi
            else:
                mag = abs(x) // abs(y)
                expected = -mag if (x < 0) != (y < 0) else mag
                expected = (expected + (1 << 63)) % (1 << 64) - (1 << 63)
            assert int(q) == int(q0) == expected

    @given(lanes(8, signed=False), lanes(8, signed=False))
    def test_average_floor(self, a, b):
        np.testing.assert_array_equal(ops.average(a, b), (a + b) // 2)

    @given(lanes(16), lanes(16))
    def test_greater_than(self, a, b):
        np.testing.assert_array_equal(ops.greater_than(a, b),
                                      (a > b).astype(int))


class TestShiftsAndRequantize:
    @given(lanes(16), st.integers(0, 8))
    def test_shift_right_arithmetic(self, a, n):
        np.testing.assert_array_equal(ops.shift_right(a, n), a >> n)

    @given(lanes(16, signed=False), st.integers(0, 4))
    def test_shift_left_wraps(self, a, n):
        out = ops.shift_left(a, n, 16, signed=False)
        np.testing.assert_array_equal(out, (a << n) & 0xFFFF)

    def test_requantize_right_truncates(self):
        # Q4.12 raw 0x1234 to Q14.2: >> 10.
        out = ops.requantize(np.array([0x1234]), 12, 2, 16)
        assert int(out[0]) == 0x1234 >> 10

    def test_requantize_left_saturates(self):
        out = ops.requantize(np.array([30000]), 2, 12, 16)
        assert int(out[0]) == (1 << 15) - 1
