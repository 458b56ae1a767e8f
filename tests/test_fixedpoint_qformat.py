"""Unit and property tests for Q-format descriptors."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fixedpoint import Q1_15, Q4_12, Q8_8, Q14_2, Q29_3, UQ8_0, QFormat


class TestFormatProperties:
    def test_paper_formats_have_expected_widths(self):
        assert Q4_12.total_bits == 16
        assert Q1_15.total_bits == 16
        assert Q14_2.total_bits == 16
        assert Q29_3.total_bits == 32
        assert UQ8_0.total_bits == 8

    def test_q1_15_spans_unit_interval(self):
        assert Q1_15.min_value == -1.0
        assert Q1_15.max_value == pytest.approx(1.0 - 2 ** -15)

    def test_q4_12_spans_plus_minus_eight(self):
        assert Q4_12.min_value == -8.0
        assert Q4_12.max_value == pytest.approx(8.0 - 2 ** -12)

    def test_unsigned_range(self):
        assert UQ8_0.raw_min == 0
        assert UQ8_0.raw_max == 255

    def test_resolution(self):
        assert Q4_12.resolution == 2 ** -12
        assert Q29_3.resolution == 0.125

    def test_str(self):
        assert str(Q4_12) == "Q4.12"
        assert str(UQ8_0) == "UQ8.0"

    def test_invalid_formats_rejected(self):
        with pytest.raises(ValueError):
            QFormat(-1, 4)
        with pytest.raises(ValueError):
            QFormat(0, 0)
        with pytest.raises(ValueError):
            QFormat(0, 8, signed=True)

    def test_dtype_selection(self):
        assert Q4_12.dtype == np.int16
        assert Q29_3.dtype == np.int32
        assert UQ8_0.dtype == np.int16  # needs 9 signed bits


class TestQuantize:
    def test_roundtrip_of_representable_values(self):
        values = np.array([0.0, 0.5, -0.25, 1.0 / 4096, -8.0])
        raw = Q4_12.quantize(values)
        np.testing.assert_allclose(Q4_12.to_float(raw), values)

    def test_saturates_out_of_range(self):
        assert Q4_12.quantize(100.0) == Q4_12.raw_max
        assert Q4_12.quantize(-100.0) == Q4_12.raw_min

    def test_rounds_to_nearest(self):
        # 1.4 LSB rounds down, 1.6 LSB rounds up.
        lsb = Q8_8.resolution
        assert Q8_8.quantize(1.4 * lsb) == 1
        assert Q8_8.quantize(1.6 * lsb) == 2

    def test_scalar_in_scalar_out(self):
        raw = Q1_15.quantize(0.5)
        assert np.isscalar(raw) or raw.ndim == 0
        assert int(raw) == 1 << 14

    def test_contains_raw(self):
        assert Q1_15.contains_raw([0, 100, -100])
        assert not Q1_15.contains_raw([1 << 16])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=12),
           st.sampled_from([Q1_15, Q4_12, Q14_2, Q29_3, UQ8_0]))
    def test_matches_rint_clip(self, values, fmt):
        """Same raws, dtype and shape as ``rint`` then ``np.clip``, and
        the input is left as it was."""
        x = np.array(values, dtype=np.float64)
        before = x.copy()
        want = np.clip(np.rint(x * fmt.scale), fmt.raw_min,
                       fmt.raw_max).astype(fmt.dtype)
        got = fmt.quantize(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(x, before)
        if values:
            one = fmt.quantize(values[0])
            assert np.ndim(one) == 0 and not isinstance(one, np.ndarray)
            assert one == want[0]

    @given(st.floats(min_value=-7.9, max_value=7.9))
    def test_quantization_error_bounded_by_half_lsb(self, x):
        raw = Q4_12.quantize(x)
        assert abs(Q4_12.to_float(raw) - x) <= Q4_12.resolution / 2 + 1e-12

    @given(st.integers(min_value=Q14_2.raw_min, max_value=Q14_2.raw_max))
    def test_raw_roundtrip_exact(self, raw):
        assert Q14_2.quantize(Q14_2.to_float(raw)) == raw
