"""Tests for the reference image filters."""

import numpy as np
import pytest

from repro.vision import (
    BINOMIAL_3x3,
    binomial_lpf,
    conv2d,
    sobel,
    sobel_magnitude,
)
from repro.vision.filters import SOBEL_X


def random_image(shape=(24, 32), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape).astype(np.float64)


class TestConv2d:
    def test_identity_kernel(self):
        img = random_image()
        ident = np.zeros((3, 3))
        ident[1, 1] = 1.0
        np.testing.assert_allclose(conv2d(img, ident), img)

    def test_shift_kernel_flips_correctly(self):
        # Convolution with a kernel whose +1 sits at (0, 1) (right of
        # centre in kernel space) shifts the image *right*.
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        k = np.zeros((3, 3))
        k[1, 2] = 1.0
        out = conv2d(img, k)
        assert out[2, 3] == 1.0

    def test_box_kernel_preserves_mean_interior(self):
        img = random_image()
        box = np.ones((3, 3)) / 9.0
        out = conv2d(img, box, pad="edge")
        assert abs(out[5:-5, 5:-5].mean() - img[4:-4, 4:-4].mean()) < 10

    @pytest.mark.parametrize("pad", ["zero", "edge"])
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_taps_summed_in_row_major_order(self, pad):
        """Bit-identical to one ``out += weight * window`` per tap, in
        row-major order of the flipped kernel, from zeros: a sum of
        -0.0 taps is +0.0 either way, and a zero weight on an infinite
        pixel still makes the sum NaN."""
        rng = np.random.default_rng(4)
        # 70 rows: two full bands of conv2d's rows and a partial one.
        img = rng.uniform(-300.0, 300.0, (70, 17))
        img[4:40, 5:13] = -0.0
        img[1, 2], img[31, 3], img[32, 15] = np.inf, -np.inf, np.nan
        signed_zeros = np.array([[0.0, -0.0, 1.0], [2.0, -0.0, 0.0],
                                 [-1.0, 0.0, -0.0]])
        for kernel in (rng.normal(size=(3, 5)), rng.uniform(1, 2, (3, 5)),
                       BINOMIAL_3x3, SOBEL_X, SOBEL_X.T, signed_zeros):
            ph, pw = kernel.shape[0] // 2, kernel.shape[1] // 2
            padded = np.pad(img, ((ph, ph), (pw, pw)),
                            mode="constant" if pad == "zero" else "edge")
            want = np.zeros_like(img)
            flipped = kernel[::-1, ::-1]
            for dy in range(kernel.shape[0]):
                for dx in range(kernel.shape[1]):
                    want += flipped[dy, dx] * padded[dy:dy + 70,
                                                     dx:dx + 17]
            got = conv2d(img, kernel, pad=pad)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            conv2d(np.zeros((4, 4)), np.ones((2, 2)))

    def test_zero_vs_edge_padding_differ_at_border(self):
        img = np.full((6, 6), 100.0)
        box = np.ones((3, 3)) / 9.0
        zero = conv2d(img, box, pad="zero")
        edge = conv2d(img, box, pad="edge")
        assert zero[0, 0] < edge[0, 0]
        np.testing.assert_allclose(edge, 100.0)


class TestBinomial:
    def test_kernel_sums_to_one(self):
        assert BINOMIAL_3x3.sum() == pytest.approx(1.0)

    def test_constant_image_unchanged(self):
        img = np.full((10, 10), 77.0)
        np.testing.assert_allclose(binomial_lpf(img), 77.0)

    def test_smooths_impulse(self):
        img = np.zeros((7, 7))
        img[3, 3] = 16.0
        out = binomial_lpf(img)
        assert out[3, 3] == pytest.approx(4.0)
        assert out[2, 3] == pytest.approx(2.0)
        assert out[2, 2] == pytest.approx(1.0)

    def test_separable_into_two_2x2_passes(self):
        # The paper's decomposition (Fig. 2): the 3x3 binomial equals
        # two cascaded 2x2 box filters (offset compensated).
        img = random_image((16, 16), seed=3)
        pass1 = (img[:-1, :-1] + img[:-1, 1:] + img[1:, :-1] +
                 img[1:, 1:]) / 4.0
        pass2 = (pass1[:-1, :-1] + pass1[:-1, 1:] + pass1[1:, :-1] +
                 pass1[1:, 1:]) / 4.0
        full = conv2d(img, BINOMIAL_3x3, pad="zero")
        np.testing.assert_allclose(pass2, full[1:-1, 1:-1])


class TestSobel:
    def test_gradient_direction(self):
        # A horizontal ramp has gx > 0 and gy == 0.
        img = np.tile(np.arange(10, dtype=np.float64) * 10, (8, 1))
        gx, gy = sobel(img)
        assert np.all(gx[2:-2, 2:-2] > 0)
        np.testing.assert_allclose(gy[2:-2, 2:-2], 0.0)

    def test_magnitude_peaks_on_step_edge(self):
        img = np.zeros((10, 10))
        img[:, 5:] = 200.0
        mag = sobel_magnitude(img)
        col = np.argmax(mag[5])
        assert col in (4, 5)

    def test_flat_image_zero_response(self):
        mag = sobel_magnitude(np.full((8, 8), 50.0))
        np.testing.assert_allclose(mag, 0.0)
