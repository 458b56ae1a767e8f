"""Tests for the quantized warp kernel (Fig. 5-a/b) and its accuracy.

Includes the paper's section 3.3 claims: 16-bit (Q4.12) quantization
warps with sub-pixel error; 8-bit quantization is unusable.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.fixedpoint import QFormat
from repro.geometry import SE3, TUM_QVGA, inverse_depth_coords, se3_exp
from repro.kernels.lm_pipeline import _batched
from repro.kernels.warp import (
    FEATURE_FORMAT,
    QuantizedFeatures,
    QuantizedPose,
    WarpRows,
    _intrinsic_lanes,
    _intrinsic_raws,
    _sums_in_lane,
    qdiv_lanes,
    quantize_features,
    quantize_pose,
    warp_fast,
    warp_float,
    warp_pim,
)
from repro.pim import PIMConfig, PIMDevice

CAM = TUM_QVGA


def sample_features(n=200, seed=0, depth_range=(0.8, 5.0)):
    rng = np.random.default_rng(seed)
    u = rng.uniform(20, CAM.width - 20, n)
    v = rng.uniform(20, CAM.height - 20, n)
    d = rng.uniform(*depth_range, n)
    return inverse_depth_coords(CAM, u, v, d), (u, v, d)


def small_pose(seed=1, scale=0.03):
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-scale, scale, 6)
    return se3_exp(xi)


class TestQuantization:
    def test_quantize_features_roundtrip(self):
        (a, b, c), _ = sample_features()
        q = quantize_features(a, b, c)
        np.testing.assert_allclose(FEATURE_FORMAT.to_float(q.a), a,
                                   atol=FEATURE_FORMAT.resolution)
        np.testing.assert_allclose(FEATURE_FORMAT.to_float(q.c), c,
                                   atol=FEATURE_FORMAT.resolution)

    def test_quantize_pose_entries_in_unit_range(self):
        q = quantize_pose(small_pose())
        assert np.abs(q.r).max() < (1 << 15)
        assert np.abs(q.t).max() < (1 << 15)
        np.testing.assert_allclose(q.r_float, small_pose().R, atol=2e-4)

    def test_feature_arrays_are_read_only(self):
        (a, b, c), _ = sample_features(n=10)
        q = quantize_features(a, b, c)
        for arr in (q.a, q.b, q.c, q.lanes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_pack_is_taken_once(self):
        (a, b, c), _ = sample_features(n=10)
        q = quantize_features(a, b, c)
        assert q.lanes.dtype == np.int32 and q.lanes.shape == (3, 10)
        np.testing.assert_array_equal(q.lanes, [q.a, q.b, q.c])
        assert q.in_lane
        assert not _raw_feats([0], [LANE_MIN - 1], [0]).in_lane
        assert _raw_feats([LANE_MIN], [LANE_MAX], [0]).in_lane
        empty = _raw_feats([], [], [])
        assert empty.in_lane and empty.lanes.shape == (3, 0)

    def test_batch_slices_pack_like_the_whole_set(self):
        (a, b, c), _ = sample_features(n=401, seed=11)
        whole = quantize_features(a, b, c)
        start = 0
        for batch, count in _batched(whole, 160):
            np.testing.assert_array_equal(
                batch.lanes, whole.lanes[:, start:start + count])
            start += count
        assert start == len(whole)


class TestWarpFloat:
    def test_identity_pose_is_projection_fixed_point(self):
        (a, b, c), (u, v, d) = sample_features()
        res = warp_float(SE3.identity(), a, b, c, CAM)
        np.testing.assert_allclose(res.u, u, atol=1e-9)
        np.testing.assert_allclose(res.v, v, atol=1e-9)
        assert res.valid.all()

    def test_matches_direct_3d_transform(self):
        (a, b, c), (u, v, d) = sample_features(seed=2)
        pose = small_pose(2)
        res = warp_float(pose, a, b, c, CAM)
        pts = CAM.backproject(u, v, d)
        uv, valid = CAM.project(pose.apply(pts))
        np.testing.assert_allclose(res.u[valid], uv[valid, 0], atol=1e-9)
        np.testing.assert_allclose(res.v[valid], uv[valid, 1], atol=1e-9)

    def test_pure_translation_along_z_shrinks_disparity(self):
        (a, b, c), (u, v, d) = sample_features(seed=3)
        pose = SE3(np.eye(3), [0.0, 0.0, 0.5])  # move scene away
        res = warp_float(pose, a, b, c, CAM)
        # Points move toward the principal point.
        assert np.all(np.abs(res.u - CAM.cx)[res.valid] <=
                      np.abs(u - CAM.cx)[res.valid] + 1e-9)


class TestWarpFast:
    def test_q412_error_below_one_pixel(self):
        # The paper's claim: 16-bit quantization exhibits a warp error
        # of less than one pixel vs the float computation.
        (a, b, c), _ = sample_features(n=500, seed=4)
        pose = small_pose(4)
        ref = warp_float(pose, a, b, c, CAM)
        q = warp_fast(quantize_pose(pose), quantize_features(a, b, c), CAM)
        uq, vq = q.uv_float()
        mask = ref.valid & q.valid
        assert mask.mean() > 0.9
        err = np.hypot(uq[mask] - ref.u[mask], vq[mask] - ref.v[mask])
        assert err.max() < 1.0

    def test_8bit_quantization_fails(self):
        # Q4.4 features (8 bits): errors of many pixels.
        (a, b, c), _ = sample_features(n=500, seed=5)
        pose = small_pose(5)
        ref = warp_float(pose, a, b, c, CAM)
        fmt8 = QFormat(4, 4)
        q = warp_fast(quantize_pose(pose),
                      quantize_features(a, b, c, fmt8), CAM)
        uq, vq = q.uv_float()
        mask = ref.valid & q.valid
        err = np.hypot(uq[mask] - ref.u[mask], vq[mask] - ref.v[mask])
        assert err.max() > 5.0

    def test_identity_pose_recovers_pixels(self):
        (a, b, c), (u, v, d) = sample_features(seed=6)
        q = warp_fast(quantize_pose(SE3.identity()),
                      quantize_features(a, b, c), CAM)
        uq, vq = q.uv_float()
        err = np.hypot(uq - u, vq - v)
        assert err.max() < 1.0

    def test_invalid_behind_camera(self):
        # A 180-degree yaw puts everything behind the keyframe camera.
        pose = SE3(np.diag([-1.0, 1.0, -1.0]), np.zeros(3))
        (a, b, c), _ = sample_features(seed=7)
        q = warp_fast(quantize_pose(pose), quantize_features(a, b, c), CAM)
        assert not q.valid.any()

    def test_zero_z_does_not_crash(self):
        q = warp_fast(quantize_pose(SE3.identity()),
                      quantize_features([0.1], [0.1], [0.5]), CAM)
        assert q.valid.shape == (1,)


class TestWarpPim:
    def test_device_matches_fast_exactly(self):
        cfg = PIMConfig(wordline_bits=2560, num_rows=32)
        dev = PIMDevice(cfg)
        (a, b, c), _ = sample_features(n=160, seed=8)
        pose = small_pose(8)
        qp, qf = quantize_pose(pose), quantize_features(a, b, c)
        rows = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)
        res_dev = warp_pim(dev, qp, qf, CAM, rows)
        res_fast = warp_fast(qp, qf, CAM)
        np.testing.assert_array_equal(res_dev.u, res_fast.u)
        np.testing.assert_array_equal(res_dev.v, res_fast.v)
        np.testing.assert_array_equal(res_dev.rx, res_fast.rx)
        np.testing.assert_array_equal(res_dev.ry, res_fast.ry)
        np.testing.assert_array_equal(res_dev.z, res_fast.z)
        np.testing.assert_array_equal(res_dev.valid, res_fast.valid)

    def test_device_cycle_cost(self):
        # 11 multiplies (18 cycles) + 2 divides (18) + adds/copies.
        cfg = PIMConfig(wordline_bits=2560, num_rows=32)
        dev = PIMDevice(cfg)
        (a, b, c), _ = sample_features(n=160, seed=9)
        rows = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)
        warp_pim(dev, quantize_pose(small_pose(9)),
                 quantize_features(a, b, c), CAM, rows)
        assert 13 * 18 <= dev.ledger.cycles <= 13 * 18 + 60

    def test_batch_too_large_rejected(self):
        cfg = PIMConfig(wordline_bits=64, num_rows=16)
        dev = PIMDevice(cfg)
        (a, b, c), _ = sample_features(n=10, seed=10)
        rows = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)
        with pytest.raises(ValueError):
            warp_pim(dev, quantize_pose(small_pose()),
                     quantize_features(a, b, c), CAM, rows)

    def test_operand_out_of_lane_rejected(self):
        qf = QuantizedFeatures(a=np.array([1 << 15]), b=np.array([0]),
                               c=np.array([0]))
        with pytest.raises(ValueError, match="16-bit lane range"):
            warp_fast(quantize_pose(SE3.identity()), qf, CAM)


LANE_MIN, LANE_MAX = -(1 << 15), (1 << 15) - 1
_ROWS = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)


def _raw_pose(r, t) -> QuantizedPose:
    return QuantizedPose(r=np.array(r, dtype=np.int64),
                         t=np.array(t, dtype=np.int64))


def _raw_feats(a, b, c) -> QuantizedFeatures:
    return QuantizedFeatures(*(np.array(x, dtype=np.int64)
                               for x in (a, b, c)))


@st.composite
def warp_inputs(draw):
    """A pose and up to 160 features (one 16-bit lane batch).

    Features are either anchored pixels in Q4.12 or raw lanes over the
    whole 16-bit range (which saturates the MAC and the divide).  The
    pose is ``se3_exp`` of a twist up to +-1 per axis, optionally with
    its depth row zeroed (``z == 0``, the divide-by-zero lanes) or
    negated (``z < 0``).
    """
    n = draw(st.integers(1, 160))
    if draw(st.booleans()):
        u = draw(arrays(np.float64, n, elements=st.floats(0, CAM.width)))
        v = draw(arrays(np.float64, n, elements=st.floats(0, CAM.height)))
        d = draw(arrays(np.float64, n, elements=st.floats(0.1, 10.0)))
        qf = quantize_features(*inverse_depth_coords(CAM, u, v, d))
    else:
        lanes = draw(arrays(np.int64, (3, n),
                            elements=st.integers(LANE_MIN, LANE_MAX)))
        qf = _raw_feats(*lanes)
    xi = draw(arrays(np.float64, 6, elements=st.floats(-1.0, 1.0)))
    qp = quantize_pose(se3_exp(xi))
    depth_row = draw(st.sampled_from(["keep", "zero", "negate"]))
    if depth_row == "zero":
        # r22 >> 3 == 0 for r22 in [0, 7]: Z is exactly zero.
        qp.r[2] = [0, 0, draw(st.integers(0, 7))]
        qp.t[2] = 0
    elif depth_row == "negate":
        qp.r[2] = np.minimum(-qp.r[2], LANE_MAX)
        qp.t[2] = min(-qp.t[2], LANE_MAX)
    return qp, qf


def warp_both(qp, qf, camera=CAM):
    """``warp_fast`` and ``warp_pim`` on the same inputs."""
    dev = PIMDevice(PIMConfig(wordline_bits=2560, num_rows=32))
    return warp_fast(qp, qf, camera), warp_pim(dev, qp, qf, camera, _ROWS)


def assert_same_fields(got, want):
    for name in ("u", "v", "rx", "ry", "z", "valid"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == (bool if name == "valid" else np.int32)
        np.testing.assert_array_equal(g, w, err_msg=name)


class TestWarpFastMatchesDevice:
    @given(warp_inputs())
    @settings(max_examples=60, deadline=None)
    @example(inputs=(_raw_pose([[LANE_MIN, LANE_MAX, LANE_MIN]] * 3,
                               [LANE_MIN] * 3),
                     _raw_feats([LANE_MIN, LANE_MAX], [LANE_MIN, LANE_MAX],
                                [LANE_MIN, LANE_MAX])))
    @example(inputs=(_raw_pose(np.eye(3, dtype=int) * LANE_MAX * [1, 1, 0],
                               [0, 0, 0]),
                     _raw_feats([1000, -1000, 0], [5, -5, 0], [1, 1, 1])))
    @example(inputs=(_raw_pose([[LANE_MAX, 0, 0], [0, LANE_MAX, 0],
                                [0, 0, LANE_MIN]], [0, 0, 0]),
                     _raw_feats([100, -100], [50, 50], [4096, 4096])))
    def test_fast_equals_device_program(self, inputs):
        """Every field, as int32 (bool ``valid``), equals the device."""
        assert_same_fields(*warp_both(*inputs))

    def test_intrinsic_saturation_equals_device(self):
        """Q4.4 features shift the focal product by 8 bits only:
        ``|a| = 2000`` over ``Z~ = 15`` takes ``fx rx`` past the lane
        while the MAC stays inside it.  ``u`` clamps on the add of
        ``cx``; ``v`` clamps on the product, then ``cy`` is added."""
        qp = quantize_pose(SE3.identity())
        qf = QuantizedFeatures(np.array([2000, 3, -5]),
                               np.array([1, 2, -2000]),
                               np.array([1, 1, 1]), QFormat(4, 4))
        got, want = warp_both(qp, qf)
        assert int(want.u[0]) == LANE_MAX
        assert int(want.v[2]) == LANE_MIN + _intrinsic_raws(CAM, 4)[3]
        assert_same_fields(got, want)

    def test_r2_immediate_alone_saturates_x(self):
        """The products alone stay in the lane; the ``r2`` immediate
        (32767 >> 3) takes X past it.  ``t_z`` doubles ``Z~`` so the
        saturated X still shows in an unsaturated quotient."""
        qp = _raw_pose([[LANE_MAX, 0, LANE_MAX], [0, LANE_MAX, 0],
                        [0, 0, LANE_MAX]], [0, 0, LANE_MAX])
        qf = _raw_feats([30000, -100], [50, 50], [4096, 4096])
        got, want = warp_both(qp, qf)
        assert abs(int(want.rx[0])) < LANE_MAX
        assert_same_fields(got, want)


#: A lane at or next to a 16-bit edge, or anywhere in the lane.
_EDGE = st.sampled_from([LANE_MIN, LANE_MIN + 1, -1, 0, 1, LANE_MAX]) | \
    st.integers(LANE_MIN, LANE_MAX)


@st.composite
def divide_extremes(draw):
    """Poses whose depth row makes ``Z~`` one value on every lane
    (``r22 >> 3`` with the rest of the row zero), mostly -1, 0 or +1,
    with X/Y rows and features at the lane edges: numerators up to
    ``(2**15 - 1) << f`` over ``den = +-1``, quotients of either sign
    (saturating both ways, or truncating toward zero) and zero
    divisors."""
    n = draw(st.integers(1, 160))
    lanes = draw(arrays(np.int64, (3, n), elements=_EDGE))
    rows = [[draw(_EDGE) for _ in range(3)] for _ in range(2)]
    r22 = draw(st.sampled_from([-8, 0, 8]) | _EDGE)
    t = [draw(_EDGE), draw(_EDGE), 0]
    return _raw_pose(rows + [[0, 0, r22]], t), _raw_feats(*lanes)


class TestWarpDivideExtremes:
    """``warp_fast``'s float-quotient divide at the edges of its
    exactness argument equals the device's restoring divide."""

    @given(divide_extremes())
    @settings(max_examples=40, deadline=None)
    @example(inputs=(_raw_pose([[LANE_MAX] * 3, [LANE_MAX] * 3, [0, 0, 8]],
                               [LANE_MAX, LANE_MIN, 0]),
                     _raw_feats([LANE_MAX, LANE_MIN], [LANE_MAX, 0],
                                [LANE_MAX, 1])))
    @example(inputs=(_raw_pose([[LANE_MAX] * 3, [LANE_MIN] * 3,
                                [0, 0, -8]], [LANE_MAX, LANE_MAX, 0]),
                     _raw_feats([LANE_MAX, -5], [LANE_MAX, 3], [1, 1])))
    @example(inputs=(_raw_pose([[LANE_MAX, 0, 0], [LANE_MIN, 0, 0],
                                [0, 0, 0]], [0, 0, 0]),
                     _raw_feats([LANE_MAX, LANE_MIN, 0], [0, 0, 0],
                                [0, 0, 0])))
    def test_fast_equals_device_program(self, inputs):
        qp, qf = inputs
        dev = PIMDevice(PIMConfig(wordline_bits=2560, num_rows=32))
        res_dev = warp_pim(dev, qp, qf, CAM, _ROWS)
        res_fast = warp_fast(qp, qf, CAM)
        for name in ("u", "v", "rx", "ry", "z", "valid"):
            np.testing.assert_array_equal(getattr(res_fast, name),
                                          getattr(res_dev, name),
                                          err_msg=name)

    def test_operands_outside_the_exact_range_raise(self):
        assert qdiv_lanes([LANE_MAX], [1], lshift=15).tolist() == [LANE_MAX]
        with pytest.raises(ValueError):
            qdiv_lanes([1 << 16], [1], lshift=15)
        with pytest.raises(ValueError):
            qdiv_lanes([1], [(1 << 15) + 1])


@st.composite
def lane_edges(draw):
    """Pose raws and feature lanes all drawn at or near the 16-bit
    edges, so ``-2**15 * -2**15`` products occur."""
    n = draw(st.integers(1, 160))
    lanes = draw(arrays(np.int64, (3, n), elements=_EDGE))
    r = [[draw(_EDGE) for _ in range(3)] for _ in range(3)]
    t = [draw(_EDGE) for _ in range(3)]
    return _raw_pose(r, t), _raw_feats(*lanes)


class TestLaneMinClamp:
    """``warp_fast`` clamps the MAC products only when a pose raw and a
    feature lane are both ``-2**15``: ``2**30 >> 15 = 2**15`` is the one
    product that leaves the lane."""

    def test_flag_follows_the_lane_minimum(self):
        assert _raw_feats([LANE_MIN], [0], [0]).holds_lane_min
        assert _raw_feats([0], [1], [LANE_MIN]).holds_lane_min
        assert not _raw_feats([LANE_MIN + 1], [LANE_MAX],
                              [0]).holds_lane_min
        assert not _raw_feats([], [], []).holds_lane_min

    def test_the_clamp_case_equals_device(self):
        """``r00 = a = -2**15`` gives ``m0 = 2**15``, clamped to
        ``2**15 - 1``; ``m1 = (1 * -1) >> 15 = -1`` makes the clamp show
        in ``X = 2**15 - 2`` (unclamped, ``X`` would saturate at
        ``2**15 - 1``).  ``Z~ = 4095 + 1`` makes ``rx = X`` exactly."""
        qp = _raw_pose([[LANE_MIN, 1, 0], [0, 0, 0], [0, 0, LANE_MAX]],
                       [0, 0, 1 << 14])
        qf = _raw_feats([LANE_MIN, 100], [-1, 0], [2, 2])
        got, want = warp_both(qp, qf)
        assert want.z.tolist() == [4096, 4096]
        assert int(want.rx[0]) == LANE_MAX - 1
        assert_same_fields(got, want)

    @pytest.mark.parametrize("r00, a", [(LANE_MIN, LANE_MIN + 1),
                                        (LANE_MIN + 1, LANE_MIN),
                                        (LANE_MAX, LANE_MIN),
                                        (LANE_MIN, LANE_MAX)])
    def test_unclamped_neighbours_equal_device(self, r00, a):
        qp = _raw_pose([[r00, 1, 0], [0, 0, 0], [0, 0, LANE_MAX]],
                       [0, 0, 1 << 14])
        qf = _raw_feats([a, 0], [-1, 1], [2, 2])
        assert_same_fields(*warp_both(qp, qf))

    @given(lane_edges())
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_device_program(self, inputs):
        assert_same_fields(*warp_both(*inputs))

    def test_public_divide_keeps_its_range_check(self):
        with pytest.raises(ValueError):
            qdiv_lanes([LANE_MIN * 2], [1], lshift=15)
        with pytest.raises(ValueError):
            qdiv_lanes([1], [-(1 << 15) - 1])
        assert qdiv_lanes([LANE_MIN], [1], lshift=15).tolist() == \
            [LANE_MIN]


class TestSaturationsClearedByBound:
    """``warp_fast`` skips a saturation only when a bound rules it out:
    the sum chain's by the pose raws and the feature peaks, the
    intrinsic stage's by the camera's constants."""

    def test_peaks_are_taken_at_construction(self):
        assert _raw_feats([-5, 3], [7, -9], [0, 2]).peaks == (5, 9, 2)
        assert _raw_feats([LANE_MIN], [LANE_MAX], [0]).peaks == \
            (1 << 15, LANE_MAX, 0)
        assert _raw_feats([], [], []).peaks == (0, 0, 0)

    @staticmethod
    def _at_the_bound(b):
        """X's partial sum ``m0 + m1 + r2`` reaches ``16383 + b / 2 +
        4095`` with exact products, so its bound is tight; ``t_z * c``
        lifts ``Z~`` to 4098, where ``rx`` shows a one-off ``X``."""
        qp = _raw_pose([[1 << 14, 1 << 14, LANE_MAX], [0, 0, 0],
                        [0, 0, LANE_MAX]], [0, 0, LANE_MAX])
        return qp, _raw_feats([32766], [b], [4])

    def test_a_sum_one_past_the_lane_saturates(self):
        qp, qf = self._at_the_bound(24580)
        coef = [(int(r[0]), int(r[1]), int(t)) for r, t in zip(qp.r, qp.t)]
        r2 = [int(r[2]) >> 3 for r in qp.r]
        assert not _sums_in_lane(coef, r2, qf.peaks)
        got, want = warp_both(qp, qf)
        assert want.z.tolist() == [4098]
        assert want.rx.tolist() == [(LANE_MAX << 12) // 4098]
        assert_same_fields(got, want)

    def test_a_sum_at_the_lane_edge_skips_the_saturations(self):
        qp, qf = self._at_the_bound(24578)
        coef = [(int(r[0]), int(r[1]), int(t)) for r, t in zip(qp.r, qp.t)]
        r2 = [int(r[2]) >> 3 for r in qp.r]
        assert _sums_in_lane(coef, r2, qf.peaks)
        got, want = warp_both(qp, qf)
        assert want.rx.tolist() == [(LANE_MAX << 12) // 4098]
        assert_same_fields(got, want)

    def test_negative_products_round_away_from_zero(self):
        """``(-16384 * 32767) >> 15 = -16384``: the bound of a product
        that is not a multiple of ``2**15`` rounds up."""
        qp = _raw_pose([[-(1 << 14), -(1 << 14), -LANE_MAX], [0, 0, 0],
                        [0, 0, LANE_MAX]], [0, 0, LANE_MAX])
        qf = _raw_feats([LANE_MAX], [24578], [4])
        coef = [(int(r[0]), int(r[1]), int(t)) for r, t in zip(qp.r, qp.t)]
        r2 = [int(r[2]) >> 3 for r in qp.r]
        assert not _sums_in_lane(coef, r2, qf.peaks)
        assert_same_fields(*warp_both(qp, qf))

    def test_intrinsic_bound_clears_for_the_qvga_camera(self):
        assert _intrinsic_lanes(CAM, FEATURE_FORMAT.fraction_bits)[-1]
        # Q4.4 ratios shift the focal product by 8 bits only: the
        # stage can saturate (test_intrinsic_saturation_equals_device).
        assert not _intrinsic_lanes(CAM, 4)[-1]
