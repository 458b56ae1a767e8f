"""Tests for the reference edge-detection pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.vision.edges as edges_module
from repro.vision import (
    binomial_lpf,
    detect_edges_reference,
    hpf_sad_reference,
    nms_reference,
    sobel_magnitude,
)
from repro.vision.edges import _binomial_floor_u8, _lanes


def step_image(width=32, height=24, column=16, lo=20, hi=220):
    img = np.full((height, width), lo, dtype=np.float64)
    img[:, column:] = hi
    return img


class TestHpfSad:
    def test_responds_to_vertical_step(self):
        img = step_image()
        resp = hpf_sad_reference(img)
        peak_cols = np.argmax(resp[5:-5], axis=1)
        assert np.all((peak_cols == 15) | (peak_cols == 16))

    def test_flat_image_zero(self):
        resp = hpf_sad_reference(np.full((16, 16), 100))
        assert resp.max() == 0

    def test_saturation(self):
        img = np.zeros((8, 8))
        img[:, 4:] = 255
        resp = hpf_sad_reference(img, saturate_bits=8)
        assert resp.max() == 255

    def test_border_zeroed(self):
        resp = hpf_sad_reference(step_image())
        assert resp[0].max() == 0 and resp[-1].max() == 0
        assert resp[:, 0].max() == 0 and resp[:, -1].max() == 0

    def test_correlates_with_sobel_magnitude(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(30, 40))
        # Smooth random field so both operators see real structure.
        from scipy.ndimage import gaussian_filter
        img = gaussian_filter(base, 2.0) * 200
        sad = hpf_sad_reference(img.astype(np.int64)).astype(float)
        sob = sobel_magnitude(img)
        interior = np.s_[3:-3, 3:-3]
        corr = np.corrcoef(sad[interior].ravel(), sob[interior].ravel())
        assert corr[0, 1] > 0.85


class TestNms:
    def test_keeps_isolated_peak(self):
        resp = np.zeros((9, 9), dtype=np.int64)
        resp[4, 4] = 100
        edges = nms_reference(resp, th1=40, th2=2)
        assert edges[4, 4]
        assert edges.sum() == 1

    def test_weaker_neighbour_still_wins_its_own_direction(self):
        # The paper's NMS is per-direction: a pixel survives when it
        # beats *any* opposite pair, even next to a stronger pixel.
        resp = np.zeros((9, 9), dtype=np.int64)
        resp[4, 4] = 100
        resp[4, 5] = 60
        edges = nms_reference(resp, th1=40, th2=2)
        assert edges[4, 4]
        assert edges[4, 5]  # beats its own diagonal/vertical pairs

    def test_plateau_suppressed(self):
        # Equal neighbours defeat the strict comparisons in every
        # direction, so a flat plateau yields no edges.
        resp = np.full((9, 9), 100, dtype=np.int64)
        inner = nms_reference(resp, th1=40, th2=0)[2:-2, 2:-2]
        assert not inner.any()

    def test_threshold_th1(self):
        resp = np.zeros((7, 7), dtype=np.int64)
        resp[3, 3] = 30
        assert not nms_reference(resp, th1=40, th2=2).any()
        resp[3, 3] = 50
        assert nms_reference(resp, th1=40, th2=2)[3, 3]

    def test_margin_th2(self):
        resp = np.zeros((7, 7), dtype=np.int64)
        resp[3, 3] = 100
        resp[3, 2] = resp[3, 4] = 99  # beats horizontal pair by only 1
        resp[2, 3] = resp[4, 3] = 99  # vertical too
        resp[2, 2] = resp[4, 4] = 99  # and both diagonals
        resp[2, 4] = resp[4, 2] = 99
        assert not nms_reference(resp, th1=40, th2=2)[3, 3]
        assert nms_reference(resp, th1=40, th2=0)[3, 3]

    def test_ridge_suppressed_across_not_along(self):
        # A vertical ridge: pixels win the horizontal pair, so the whole
        # ridge line survives - the along-edge direction must not kill it.
        resp = np.zeros((9, 9), dtype=np.int64)
        resp[:, 4] = 100
        edges = nms_reference(resp, th1=40, th2=2)
        assert edges[1:-1, 4].all()
        assert not edges[:, :4].any() and not edges[:, 5:].any()


class TestPipeline:
    def test_detects_asymmetric_step_edge(self):
        # An asymmetric step (one intermediate column) gives a unique
        # response peak that survives the strict NMS; a perfectly
        # symmetric step would produce a two-pixel plateau that the
        # strict comparisons suppress (see test_plateau_suppressed).
        img = np.full((30, 40), 100.0)
        img[:, 20] = 120.0
        img[:, 21:] = 160.0
        edges = detect_edges_reference(img)
        rows_with_edges = edges.any(axis=1)
        assert rows_with_edges[3:-3].all()
        cols = np.where(edges.any(axis=0))[0]
        assert set(cols) <= {19, 20, 21, 22}

    def test_no_edges_on_flat_image(self):
        assert not detect_edges_reference(np.full((24, 32), 128)).any()

    def test_noise_rejected_by_lpf(self):
        rng = np.random.default_rng(5)
        img = 128 + rng.integers(-6, 7, size=(24, 32))
        assert detect_edges_reference(img, th1=40).sum() == 0


def _shifted(img, dy, dx):
    """Oracle: the image sampled at ``(y + dy, x + dx)``, zero outside."""
    out = np.zeros_like(img)
    h, w = img.shape
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    yd = slice(max(-dy, 0), h + min(-dy, 0))
    xd = slice(max(-dx, 0), w + min(-dx, 0))
    out[yd, xd] = img[ys, xs]
    return out


_PAIRS = ((-1, -1), (-1, 1), (0, -1), (-1, 0))


def _hpf_oracle(image, saturate_bits=8):
    img = np.asarray(image, dtype=np.int64)
    acc = np.zeros_like(img)
    for dy, dx in _PAIRS:
        acc += np.abs(_shifted(img, dy, dx) - _shifted(img, -dy, -dx))
    acc = np.minimum(acc, (1 << saturate_bits) - 1)
    acc[0, :] = acc[-1, :] = 0
    acc[:, 0] = acc[:, -1] = 0
    return acc


def _nms_oracle(response, th1, th2):
    r = np.asarray(response, dtype=np.int64)
    any_direction = np.zeros(r.shape, dtype=bool)
    for dy, dx in _PAIRS:
        any_direction |= (((r - _shifted(r, dy, dx)) > th2) &
                          ((r - _shifted(r, -dy, -dx)) > th2))
    edges = (r > th1) & any_direction
    edges[0, :] = edges[-1, :] = False
    edges[:, 0] = edges[:, -1] = False
    return edges


def _lpf_oracle(image):
    """The binomial LPF as one temporary per tap, edge-padded."""
    image = np.asarray(image, dtype=np.float64)
    kernel = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0
    padded = np.pad(image, 1, mode="edge")
    out = np.zeros_like(image)
    h, w = image.shape
    for dy in range(3):
        for dx in range(3):
            out += kernel[2 - dy, 2 - dx] * padded[dy:dy + h, dx:dx + w]
    return out


#: Degenerate shapes, the smallest with an interior, and odd crops of
#: a QVGA frame.
_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (2, 9), (9, 2), (3, 3),
           (3, 8), (37, 53), (121, 161), (239, 319)]


class TestInteriorMatchesShiftedOracle:
    """The interior-only reference equals the zero-padded shifts bit for
    bit: the one-pixel border is zero by definition either way."""

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_hpf_and_nms(self, shape):
        rng = np.random.default_rng(sum(shape))
        image = rng.uniform(0.0, 255.0, shape)
        for bits in (8, 10):
            np.testing.assert_array_equal(hpf_sad_reference(image, bits),
                                          _hpf_oracle(image, bits))
        response = rng.integers(-20, 300, shape)
        for th1, th2 in ((40, 2), (0, 0), (-5, -3), (120, 7)):
            np.testing.assert_array_equal(
                nms_reference(response, th1, th2),
                _nms_oracle(response, th1, th2))

    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("th1,th2", [(40, 2), (5, 0), (90, 6)])
    def test_detector(self, shape, th1, th2):
        rng = np.random.default_rng(7 * sum(shape) + th1)
        # Non-integer intensities with enough structure to give edges.
        image = rng.uniform(0.0, 255.0, shape)
        image[:, shape[1] // 2:] *= 0.3
        want = _nms_oracle(_hpf_oracle(np.floor(_lpf_oracle(image))),
                           th1, th2)
        got = detect_edges_reference(image, th1, th2)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)
        if min(shape) >= 37 and th1 <= 40:
            assert got.any()


def _hot_pixel(image, y, x, peak):
    """Make ``(y, x)`` the SAD's worst case: every opposite pair differs
    by ``2 * peak`` (row above and left ``+peak``, row below and right
    ``-peak``), so its unsaturated response is ``8 * peak``."""
    image[y - 1, x - 1:x + 2] = peak
    image[y + 1, x - 1:x + 2] = -peak
    image[y, x - 1] = peak
    image[y, x + 1] = -peak
    return image


class TestNarrowLanesAtTheBound:
    """The reference computes in int16 lanes exactly while the input's
    peak allows, and in int64 beyond: either way it equals the int64
    oracle, right at the bound and one past it."""

    @pytest.mark.parametrize("peak,narrow", [
        (4095, True), (4095.9, True), (-4095.9, True), (4096, False),
        (-4096, False), (30000, False)])
    @pytest.mark.parametrize("bits", [8, 10, 16])
    def test_hpf(self, peak, narrow, bits):
        rng = np.random.default_rng(int(abs(peak)) + bits)
        image = rng.uniform(-abs(peak), abs(peak), (23, 31))
        image[0, 0] = peak
        _hot_pixel(image, 5, 7, peak)
        got = hpf_sad_reference(image, bits)
        np.testing.assert_array_equal(got, _hpf_oracle(image, bits))
        assert got.dtype == (np.int16 if narrow else np.int64)
        if bits == 16:
            assert got[5, 7] == min(8 * abs(int(peak)), (1 << bits) - 1)

    @pytest.mark.parametrize("th1,th2", [(40, 2), (-5, -3), (0, 0),
                                         (-40000, 7), (40000, -1)])
    def test_nms(self, th1, th2):
        limit = 32767 - abs(th2)
        rng = np.random.default_rng(limit)
        for peak, narrow in ((limit, True), (limit + 1, False)):
            response = rng.integers(-peak, peak + 1, (19, 29))
            response[4, 4] = peak
            response[9, 9] = -peak
            # A centre that beats its neighbours by exactly th2 (lost)
            # and by th2 + 1 (kept), near the extremes.
            centre = peak - 1 - abs(th2)
            response[12, 12] = response[15, 15] = centre
            response[11:14, 11] = response[11:14, 13] = centre - th2
            response[14:17, 14] = response[14:17, 16] = centre - th2 - 1
            got = nms_reference(response, th1, th2)
            np.testing.assert_array_equal(got,
                                          _nms_oracle(response, th1, th2))
            assert _lanes(response, limit).dtype == \
                (np.int16 if narrow else np.int64)

    @pytest.mark.parametrize("lo,hi", [(-300.0, 300.0), (0.0, 1023.0),
                                       (-5000.0, 5000.0)])
    @pytest.mark.parametrize("th1,th2", [(40, 2), (-5, -3)])
    def test_detector_off_the_8_bit_range(self, lo, hi, th1, th2):
        """Negative, 10-bit and past-the-bound intensities."""
        rng = np.random.default_rng(int(hi) + th1)
        image = rng.uniform(lo, hi, (37, 53))
        image[:, 26:] *= 0.3
        want = _nms_oracle(_hpf_oracle(np.floor(_lpf_oracle(image))),
                           th1, th2)
        np.testing.assert_array_equal(
            detect_edges_reference(image, th1, th2), want)


def _float_lpf_detector(image, th1=40, th2=2):
    """The detector with the float binomial LPF, floored once."""
    smooth = np.floor(binomial_lpf(image))
    return nms_reference(hpf_sad_reference(smooth), th1, th2)


#: Odd crops of a QVGA frame, as the pyramid's levels have.
_QVGA_CROPS = [(239, 319), (121, 161), (61, 81)]


class TestIntegerLpf:
    """An integer image in [0, 255] takes an int16 LPF that equals the
    floored float binomial bit for bit; anything else the float LPF."""

    @given(st.sampled_from([np.uint8, np.int16, np.int64]),
           st.integers(1, 24), st.integers(1, 24),
           st.sampled_from(["random", "zeros", "full", "binary"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_floored_float_binomial(self, dtype, h, w, fill, seed):
        rng = np.random.default_rng(seed)
        image = {"random": lambda: rng.integers(0, 256, (h, w)),
                 "zeros": lambda: np.zeros((h, w), dtype=int),
                 "full": lambda: np.full((h, w), 255),
                 "binary": lambda: 255 * rng.integers(0, 2, (h, w)),
                 }[fill]().astype(dtype)
        got = _binomial_floor_u8(image)
        assert got.dtype == np.int16
        np.testing.assert_array_equal(got, np.floor(binomial_lpf(image)))
        for th1, th2 in ((40, 2), (0, 0)):
            np.testing.assert_array_equal(
                detect_edges_reference(image, th1, th2),
                _float_lpf_detector(image, th1, th2))

    @pytest.mark.parametrize("shape", _QVGA_CROPS + [(1, 320), (240, 1)])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_qvga_crops(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        image = rng.integers(0, 256, shape)
        image[:, shape[1] // 2:] //= 3
        image[0, 0], image[-1, -1] = 0, 255
        image = image.astype(dtype)
        np.testing.assert_array_equal(_binomial_floor_u8(image),
                                      np.floor(binomial_lpf(image)))
        got = detect_edges_reference(image)
        np.testing.assert_array_equal(got, _float_lpf_detector(image))
        if min(shape) > 3:
            assert got.any()

    @pytest.mark.parametrize("image,integer", [
        (np.arange(48).reshape(6, 8) % 256, True),
        (np.full((6, 8), 255, dtype=np.uint8), True),
        (np.zeros((6, 8), dtype=np.int16), True),
        (np.full((6, 8), 255.0), False),
        (np.arange(48.0).reshape(6, 8), False),
        (np.arange(48).reshape(6, 8) - 1, False),
        (np.arange(48).reshape(6, 8) + 209, False),
        (np.arange(48, dtype=np.uint16).reshape(6, 8) * 6, False),
        (np.ones((6, 8), dtype=bool), False),
    ], ids=["int64", "uint8-255", "int16-zeros", "float-255", "float",
            "negative", "above-255", "uint16-above-255", "bool"])
    def test_path_is_chosen_by_exactness(self, monkeypatch, image,
                                         integer):
        calls = _count_float_lpf(monkeypatch)
        got = detect_edges_reference(image)
        assert (not calls) == integer
        np.testing.assert_array_equal(got, _float_lpf_detector(image))

    def test_empty_image_takes_the_float_path(self, monkeypatch):
        calls = _count_float_lpf(monkeypatch)
        with pytest.raises(ValueError, match="empty axis"):
            detect_edges_reference(np.zeros((0, 5), dtype=int))
        assert calls


def _count_float_lpf(monkeypatch) -> list:
    """Record every call the detector makes to the float LPF."""
    calls = []

    def counted(img):
        calls.append(img.dtype)
        return binomial_lpf(img)

    monkeypatch.setattr(edges_module, "binomial_lpf", counted)
    return calls
