"""Tests for the LPF/HPF/NMS kernel mappings.

The contract: ``*_fast`` == ``*_pim`` bit-for-bit (valid regions),
``*_fast`` matches the float reference up to documented rounding, and
the naive mappings agree with the optimized ones semantically while
costing more cycles.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import (
    detect_edges_fast,
    detect_edges_pim,
    detect_edges_replay,
    hpf_fast,
    hpf_pim,
    hpf_pim_naive,
    lpf_fast,
    lpf_pim,
    lpf_pim_naive,
    nms_fast,
    nms_pim,
    nms_pim_naive,
)
from repro.dataset import make_sequence
from repro.kernels.common import LANE_PAD, load_image, read_image, \
    zero_extend
from repro.kernels.edge_detect import (
    EDGE_COL_OFFSET,
    EDGE_ROW_OFFSET,
    VALID_MARGIN,
    mask_to_image_coords,
)
from repro.kernels.hpf import hpf_naive_fast, hpf_u8
from repro.kernels.lpf import lpf_naive_fast, lpf_u8
from repro.kernels.nms import nms_naive_fast, nms_u8
from repro.pim import PIMConfig, PIMDevice
from repro.vision import binomial_lpf, detect_edges_reference, \
    hpf_sad_reference, nms_reference

# A small array: 40 pixels wide, room for a 24-row image + scratch.
CFG = PIMConfig(wordline_bits=40 * 8, num_rows=40)
H, W = 24, 40


def random_image(seed=0, shape=(H, W)):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, size=(shape[0] // 4, shape[1] // 4))
    img = np.kron(base, np.ones((4, 4), dtype=np.int64))
    noise = rng.integers(-10, 11, size=shape)
    return np.clip(img + noise, 0, 255).astype(np.int64)


def fresh_device():
    return PIMDevice(CFG)


class TestLpf:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_matches_device_exactly(self, seed):
        img = random_image(seed)
        dev = fresh_device()
        load_image(dev, img)
        lpf_pim(dev, H)
        out_dev = read_image(dev, H, W)
        out_fast = lpf_fast(img)
        np.testing.assert_array_equal(out_dev, out_fast)

    def test_fast_matches_float_binomial(self):
        img = random_image(3)
        out = lpf_fast(img)
        ref = binomial_lpf(img)
        # out[r, c] is centred at (r+1, c+1); cascaded floors may lose
        # up to ~1.5 LSB against the exact float filter.
        diff = out[:H - 2, :W - 2] - ref[1:H - 1, 1:W - 1]
        assert np.abs(diff[2:-2, 2:-2]).max() <= 2

    def test_constant_image_preserved(self):
        img = np.full((H, W), 200, dtype=np.int64)
        out = lpf_fast(img)
        assert np.all(out[:H - 2, :W - 2] == 200)

    def test_naive_fast_matches_naive_device(self):
        img = random_image(4)
        dev = fresh_device()
        out_dev = lpf_pim_naive(dev, img)
        out_fast = lpf_naive_fast(img)
        np.testing.assert_array_equal(out_dev[1:-1], out_fast[1:-1])

    def test_naive_close_to_reference(self):
        img = random_image(5)
        out = lpf_naive_fast(img)
        ref = binomial_lpf(img)
        diff = out[2:-2, 2:-2] - ref[2:-2, 2:-2]
        # Per-tap pre-scaling floors up to 9 times.
        assert np.abs(diff).max() <= 9

    def test_optimized_cheaper_than_naive(self):
        img = random_image(6)
        dev_opt = fresh_device()
        load_image(dev_opt, img)
        lpf_pim(dev_opt, H)
        dev_naive = fresh_device()
        lpf_pim_naive(dev_naive, img)
        assert dev_opt.ledger.cycles < dev_naive.ledger.cycles

    def test_cycle_count_formula(self):
        # 5 cycles per row per pass, 2 passes over H-1 rows.
        img = random_image(7)
        dev = fresh_device()
        load_image(dev, img)
        lpf_pim(dev, H)
        assert dev.ledger.cycles == 2 * (H - 1) * 5


class TestHpf:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_matches_device_exactly(self, seed):
        img = random_image(seed)
        smooth = lpf_fast(img)
        dev = fresh_device()
        load_image(dev, smooth)
        hpf_pim(dev, H)
        out_dev = read_image(dev, H, W)
        out_fast = hpf_fast(smooth)
        # Valid output rows are 0 .. H-5 (inputs must be valid rows).
        np.testing.assert_array_equal(out_dev[:H - 4, 1:W - 3],
                                      out_fast[:H - 4, 1:W - 3])

    def test_fast_matches_sad_reference(self):
        img = random_image(3)
        resp = hpf_fast(img)
        ref = hpf_sad_reference(img)
        # resp row i is centred at input row i+1, columns aligned.
        np.testing.assert_array_equal(resp[:H - 2, 2:W - 3],
                                      ref[1:H - 1, 2:W - 3])

    def test_naive_fast_matches_optimized_interior(self):
        img = random_image(4)
        opt = hpf_fast(img)
        naive = hpf_naive_fast(img)
        # naive row r is centred at row r (not offset).
        np.testing.assert_array_equal(naive[1:H - 1, 2:W - 3],
                                      opt[:H - 2, 2:W - 3])

    def test_naive_device_matches_naive_fast(self):
        img = random_image(5)
        dev = fresh_device()
        out_dev = hpf_pim_naive(dev, img)
        out_fast = hpf_naive_fast(img)
        np.testing.assert_array_equal(out_dev[1:-1, 2:W - 3],
                                      out_fast[1:-1, 2:W - 3])

    def test_optimized_cheaper_than_naive(self):
        img = random_image(6)
        dev_opt = fresh_device()
        load_image(dev_opt, img)
        hpf_pim(dev_opt, H)
        dev_naive = fresh_device()
        hpf_pim_naive(dev_naive, img)
        assert dev_opt.ledger.cycles < dev_naive.ledger.cycles


class TestNms:
    def make_response(self, seed):
        return hpf_fast(lpf_fast(random_image(seed)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_matches_device_exactly(self, seed):
        resp = self.make_response(seed)
        dev = fresh_device()
        load_image(dev, resp)
        nms_pim(dev, H, th1=40, th2=2)
        out_dev = read_image(dev, H, W)
        out_fast = nms_fast(resp, 40, 2)
        np.testing.assert_array_equal(out_dev[:H - 6, 2:W - 5],
                                      out_fast[:H - 6, 2:W - 5])

    def test_fast_matches_branchy_reference(self):
        resp = self.make_response(3)
        mask = nms_fast(resp, 40, 2)
        ref = nms_reference(resp, 40, 2)
        # mask row j decides input row j+1.
        np.testing.assert_array_equal(
            mask[:H - 2, 2:W - 4].astype(bool), ref[1:H - 1, 2:W - 4])

    def test_naive_fast_equals_optimized(self):
        resp = self.make_response(4)
        np.testing.assert_array_equal(
            nms_naive_fast(resp, 40, 2)[:H - 2, 2:W - 4],
            nms_fast(resp, 40, 2)[:H - 2, 2:W - 4])

    def test_naive_device_matches_reference(self):
        resp = self.make_response(5)
        dev = fresh_device()
        out_dev = nms_pim_naive(dev, resp, 40, 2)
        ref = nms_reference(resp, 40, 2)
        np.testing.assert_array_equal(
            out_dev[1:H - 1, 2:W - 4].astype(bool), ref[1:H - 1, 2:W - 4])

    def test_optimized_cheaper_than_naive(self):
        resp = self.make_response(6)
        dev_opt = fresh_device()
        load_image(dev_opt, resp)
        nms_pim(dev_opt, H, 40, 2)
        dev_naive = fresh_device()
        nms_pim_naive(dev_naive, resp, 40, 2)
        assert dev_opt.ledger.cycles < dev_naive.ledger.cycles


class TestEdgeDetectPipeline:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_device_equals_fast(self, seed):
        img = random_image(seed)
        dev = fresh_device()
        res_dev = detect_edges_pim(dev, img)
        res_fast = detect_edges_fast(img)
        np.testing.assert_array_equal(res_dev.edge_map, res_fast.edge_map)
        assert res_dev.total_cycles > 0
        assert set(res_dev.cycles) == {"lpf", "hpf", "nms"}

    def test_agrees_with_float_reference(self):
        img = random_image(2)
        fast = detect_edges_fast(img).edge_map
        ref = detect_edges_reference(img)
        m = 5
        inter = fast[m:-m, m:-m] & ref[m:-m, m:-m]
        union = fast[m:-m, m:-m] | ref[m:-m, m:-m]
        if union.sum():
            assert inter.sum() / union.sum() > 0.7

    def test_finds_edges_on_textured_image(self):
        img = random_image(3)
        assert detect_edges_fast(img).edge_map.sum() > 10

    def test_no_edges_on_flat_image(self):
        img = np.full((H, W), 128, dtype=np.int64)
        assert detect_edges_fast(img).edge_map.sum() == 0


def checkerboard(shape=(H, W)):
    return (np.indices(shape).sum(axis=0) % 2) * 255


@st.composite
def images(draw):
    """8-bit images from 1x1 up to the test array's 24x40."""
    shape = (draw(st.integers(1, H)), draw(st.integers(1, W)))
    return draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 255)))


class TestMirrorEqualsDevice:
    """The uint8 mirrors against the device programs on any 8-bit
    image and thresholds.  All-0, all-255 and the 0/255 checkerboard
    drive the uint8 average and the single HPF clamp to their ends."""

    @settings(max_examples=40, deadline=None)
    @given(img=images(), th1=st.integers(0, 255), th2=st.integers(0, 255))
    @example(img=np.zeros((H, W), dtype=np.int64), th1=0, th2=0)
    @example(img=np.full((H, W), 255), th1=0, th2=0)
    @example(img=checkerboard(), th1=254, th2=0)
    @example(img=checkerboard(), th1=0, th2=255)
    def test_every_stage_and_the_chain(self, img, th1, th2):
        height = img.shape[0]
        dev = fresh_device()
        load_image(dev, img)
        lpf_pim(dev, height)
        np.testing.assert_array_equal(
            read_image(dev, *img.shape), lpf_fast(img))

        # The device leaves its last two input rows in place; the
        # mirrors zero them.
        for stage_pim, stage_fast in (
                (lambda d: hpf_pim(d, height), hpf_fast),
                (lambda d: nms_pim(d, height, th1, th2),
                 lambda x: nms_fast(x, th1, th2))):
            dev = fresh_device()
            load_image(dev, img)
            stage_pim(dev)
            np.testing.assert_array_equal(
                read_image(dev, *img.shape)[:height - 2],
                stage_fast(img)[:height - 2])

        replay = detect_edges_replay(fresh_device(), img, th1, th2)
        np.testing.assert_array_equal(
            detect_edges_fast(img, th1, th2).edge_map, replay.edge_map)

    @pytest.mark.parametrize("value", [-1, 256])
    def test_out_of_range_pixels_refused_like_the_device(self, value):
        img = random_image(0)
        img[5, 7] = value
        with pytest.raises(ValueError, match="values exceed 8-bit range"):
            detect_edges_replay(fresh_device(), img)
        for mirror in (detect_edges_fast, lpf_fast, hpf_fast,
                       lambda x: nms_fast(x, 40, 2)):
            with pytest.raises(ValueError,
                               match="values exceed 8-bit range"):
                mirror(img)

    @pytest.mark.parametrize("th1, th2", [(256, 2), (40, -1)])
    def test_out_of_range_thresholds_refused_like_the_device(self, th1,
                                                             th2):
        img = random_image(0)
        bad = th1 if th1 != 40 else th2
        message = f"immediate {bad} exceeds 8-bit range"
        with pytest.raises(ValueError, match=message):
            detect_edges_replay(fresh_device(), img, th1, th2)
        with pytest.raises(ValueError, match=message):
            detect_edges_fast(img, th1, th2)

    def test_fractional_pixels_truncate_like_the_device(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(-0.99, 255.99, (H, W))
        replay = detect_edges_replay(fresh_device(), img)
        np.testing.assert_array_equal(detect_edges_fast(img).edge_map,
                                      replay.edge_map)
        dev = fresh_device()
        load_image(dev, img)
        lpf_pim(dev, H)
        np.testing.assert_array_equal(read_image(dev, H, W), lpf_fast(img))
        np.testing.assert_array_equal(lpf_fast(img),
                                      lpf_fast(img.astype(np.int64)))


# The 2-D uint8 mirrors the flat-lane kernels replaced: strided windows
# on an (H, W) image, and the three-copy mask placement, kept here as
# the oracle of the flat layout.
def _avg_2d(a, b):
    return ((a ^ b) >> 1) + (a & b)


def _abs_diff_2d(a, b):
    return np.maximum(a, b) - np.minimum(a, b)


def _lpf_2d(img):
    a = img
    for _ in range(2):
        c = a.copy()
        c[:-1] = _avg_2d(a[:-1], a[1:])
        e = c.copy()
        e[:-1, :-1] = _avg_2d(c[:-1, :-1], c[:-1, 1:])
        e[:-1, -1] >>= 1
        a = e
    return a


def _hpf_2d(img):
    p = zero_extend(img, 2)
    a, b, c = p[:-2], p[1:-1], p[2:]
    w = img.shape[1] - 1
    acc = _abs_diff_2d(a[:, :w], c[:, 2:w + 2]).astype(np.uint16)
    acc += _abs_diff_2d(a[:, 2:w + 2], c[:, :w])
    acc += _abs_diff_2d(b[:, :w], b[:, 2:w + 2])
    acc += _abs_diff_2d(a[:, 1:w + 1], c[:, 1:w + 1])
    out = np.zeros_like(img)
    out[:-2, 1:] = np.minimum(acc, 255)
    return out


def _nms_2d(img, th1, th2):
    width = img.shape[1]
    p = zero_extend(img, 2)
    a, b, c = p[:-2], p[1:-1], p[2:]
    w = width - 1
    k = np.zeros(b.shape[:1] + (width,), dtype=np.uint8)
    kc = k[:, 1:]
    np.maximum(a[:, :w], c[:, 2:w + 2], out=kc)
    np.minimum(kc, np.maximum(a[:, 2:w + 2], c[:, :w]), out=kc)
    np.minimum(kc, np.maximum(b[:, :w], b[:, 2:w + 2]), out=kc)
    np.minimum(kc, np.maximum(a[:, 1:w + 1], c[:, 1:w + 1]), out=kc)
    b = b[:, :width]
    low = b - np.minimum(b, th2)
    out = np.zeros(img.shape, dtype=bool)
    out[:-2] = (low > k) & (b > th1)
    return out


def _mask_to_image_2d(mask, height, width):
    edge = np.zeros((height, width), dtype=bool)
    src = mask[:height - EDGE_ROW_OFFSET, :width - EDGE_COL_OFFSET] > 0
    edge[EDGE_ROW_OFFSET:, EDGE_COL_OFFSET:] = src
    m = VALID_MARGIN
    interior = np.zeros_like(edge)
    interior[m:-m, m:-m] = edge[m:-m, m:-m]
    return interior


def _detect_2d(img, th1, th2):
    u8 = img.astype(np.uint8)
    mask = _nms_2d(_hpf_2d(_lpf_2d(u8)), th1, th2)
    return _mask_to_image_2d(mask, *u8.shape)


@st.composite
def flat_cases(draw):
    """Shapes from 1x1 up (odd and minimal ones included) with random,
    all-0, all-255 and 0/255 pixels, and thresholds at both ends."""
    shape = (draw(st.integers(1, 26)), draw(st.integers(1, 26)))
    fill = draw(st.sampled_from(["random", "zeros", "full", "binary"]))
    if fill == "random":
        img = draw(hnp.arrays(np.uint8, shape,
                              elements=st.integers(0, 255)))
    elif fill == "binary":
        img = draw(hnp.arrays(np.uint8, shape,
                              elements=st.sampled_from([0, 255])))
    else:
        img = np.full(shape, 0 if fill == "zeros" else 255, np.uint8)
    th = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))
    return img, draw(th), draw(th)


class TestFlatLanes:
    """Each uint8 stage on the flat ``(H, W + LANE_PAD)`` layout equals
    the 2-D mirror on the image's lanes and leaves the trailing lanes
    zero; the chain and ``detect_edges_fast`` equal the 2-D chain."""

    @staticmethod
    def _check_stage(got, want):
        width = want.shape[1]
        assert got.shape == (want.shape[0], width + LANE_PAD)
        np.testing.assert_array_equal(got[:, :width], want)
        assert not got[:, width:].any()

    @settings(max_examples=300, deadline=None)
    @given(flat_cases())
    @example(case=(np.zeros((1, 1), np.uint8), 0, 0))
    @example(case=(np.full((3, 3), 255, np.uint8), 0, 0))
    @example(case=(checkerboard((9, 11)).astype(np.uint8), 0, 255))
    @example(case=(checkerboard((25, 7)).astype(np.uint8), 255, 0))
    def test_stages_chain_and_detector(self, case):
        img, th1, th2 = case
        lanes = zero_extend(img, LANE_PAD)
        self._check_stage(lpf_u8(lanes), _lpf_2d(img))
        self._check_stage(hpf_u8(lanes), _hpf_2d(img))
        self._check_stage(nms_u8(lanes, th1, th2), _nms_2d(img, th1, th2))
        smooth = lpf_u8(lanes)
        response = hpf_u8(smooth)
        self._check_stage(response, _hpf_2d(_lpf_2d(img)))
        self._check_stage(nms_u8(response, th1, th2),
                          _nms_2d(_hpf_2d(_lpf_2d(img)), th1, th2))
        np.testing.assert_array_equal(
            detect_edges_fast(img, th1, th2).edge_map,
            _detect_2d(img, th1, th2))

    @pytest.mark.parametrize("name", ["fr1_xyz", "fr2_desk",
                                      "fr3_st_ntex_far", "corridor"])
    def test_rendered_frames(self, name):
        seq = make_sequence(name, n_frames=3)
        for frame in seq.frames:
            img = np.asarray(frame.gray, dtype=np.int64)
            np.testing.assert_array_equal(
                detect_edges_fast(img).edge_map, _detect_2d(img, 40, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 26), st.integers(1, 26), st.integers(0, 2),
           st.sampled_from([bool, np.int64]), st.integers(0, 2 ** 32 - 1))
    def test_mask_placement(self, height, width, extra, dtype, seed):
        """The one-copy placement equals the three-copy one on bool and
        integer masks (negative entries included), of the image's width
        or wider."""
        rng = np.random.default_rng(seed)
        mask = rng.integers(-1, 3, (height, width + extra)).astype(dtype)
        np.testing.assert_array_equal(
            mask_to_image_coords(mask, height, width),
            _mask_to_image_2d(mask[:, :width], height, width))

    def test_inputs_are_not_written(self):
        img = random_image(3).astype(np.uint8)
        lanes = zero_extend(img, LANE_PAD)
        before = lanes.copy()
        nms_u8(hpf_u8(lpf_u8(lanes)), 40, 2)
        hpf_u8(lanes)
        nms_u8(lanes, 40, 2)
        np.testing.assert_array_equal(lanes, before)
