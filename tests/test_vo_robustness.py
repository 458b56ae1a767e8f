"""Robustness tests: Huber weighting, corrupted-input tracking, and
the tracking-health state machine (validation, fallback, relocalize,
checkpoint/restore)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.dataset.synthetic import make_room_scene, render_frame
from repro.geometry import SE3, TUM_QVGA, se3_exp
from repro.vo import (
    DEGRADED,
    LOST,
    OK,
    CorruptFrameError,
    EBVOTracker,
    FloatFrontend,
    PIMFrontend,
    TrackerConfig,
    extract_features,
    lm_estimate,
    validate_frame,
)
from repro.vo.frontend import _check_frame

CAM = TUM_QVGA.scaled(0.5)


@pytest.fixture(scope="module")
def frame_pair():
    scene = make_room_scene()
    true_rel = se3_exp(np.array([0.02, -0.01, 0.015, 0.006, -0.008,
                                 0.004]))
    key = render_frame(scene, SE3.identity(), CAM)
    cur = render_frame(scene, SE3.identity() @ true_rel, CAM)
    return key, cur, true_rel


def estimate(frame_pair, corrupt_fraction=0.0, huber=None, seed=0):
    key, cur, true_rel = frame_pair
    cfg = TrackerConfig(camera=CAM, max_features=2500,
                        huber_delta=huber)
    fe = FloatFrontend(cfg)
    maps = fe.prepare_keyframe(fe.detect(key.gray))
    depth = cur.depth.copy()
    if corrupt_fraction:
        # Corrupt a fraction of the depth map (sensor outliers).
        rng = np.random.default_rng(seed)
        mask = rng.random(depth.shape) < corrupt_fraction
        depth[mask] = rng.uniform(0.3, 8.0, mask.sum())
    features = extract_features(fe.detect(cur.gray), depth,
                                cfg.max_features, cfg.min_depth,
                                cfg.max_depth)
    feats = fe.make_features(features)
    pose, stats = lm_estimate(fe, feats, maps, SE3.identity(), cfg)
    t_err, r_err = pose.distance_to(true_rel)
    return t_err, stats


class TestHuber:
    def test_huber_matches_plain_on_clean_data(self, frame_pair):
        plain, _ = estimate(frame_pair, huber=None)
        robust, _ = estimate(frame_pair, huber=5.0)
        assert abs(plain - robust) < 0.02
        assert robust < 0.04

    def test_huber_helps_with_depth_outliers(self, frame_pair):
        results = {}
        for name, huber in (("plain", None), ("huber", 3.0)):
            errs = [estimate(frame_pair, corrupt_fraction=0.25,
                             huber=huber, seed=s)[0] for s in range(3)]
            results[name] = float(np.mean(errs))
        # Robust weighting should not be worse, typically better.
        assert results["huber"] <= results["plain"] * 1.1 + 0.005
        assert results["huber"] < 0.08

    def test_huber_weights_bounded(self, frame_pair):
        # With a huge delta, Huber degenerates to plain least squares.
        plain, _ = estimate(frame_pair, huber=None)
        degenerate, _ = estimate(frame_pair, huber=1e9)
        assert abs(plain - degenerate) < 1e-9


class TestCorruptedInputTracking:
    def test_tracker_survives_noisy_depth(self):
        scene = make_room_scene()
        cfg = TrackerConfig(camera=CAM, max_features=2000)
        tracker = EBVOTracker(FloatFrontend(cfg), cfg)
        rng = np.random.default_rng(1)
        poses = [se3_exp(np.array([0.004 * i, -0.002 * i, 0.003 * i,
                                   0.001 * i, 0, 0]))
                 for i in range(8)]
        for i, pw in enumerate(poses):
            fr = render_frame(scene, pw, CAM, timestamp=i / 30)
            depth = fr.depth * rng.normal(1.0, 0.01, fr.depth.shape)
            tracker.process(fr.gray, depth, fr.timestamp)
        gt_rel = poses[0].inverse() @ poses[-1]
        est_rel = tracker.trajectory[0].inverse() @ \
            tracker.trajectory[-1]
        t_err, _ = gt_rel.distance_to(est_rel)
        assert t_err < 0.05

    def test_tracker_survives_intensity_noise(self):
        scene = make_room_scene()
        cfg = TrackerConfig(camera=CAM, max_features=2000)
        tracker = EBVOTracker(PIMFrontend(cfg), cfg)
        rng = np.random.default_rng(2)
        for i in range(6):
            pw = se3_exp(np.array([0.005 * i, 0, 0.002 * i, 0, 0, 0]))
            fr = render_frame(scene, pw, CAM, timestamp=i / 30)
            gray = np.clip(fr.gray + rng.normal(0, 4, fr.gray.shape),
                           0, 255)
            result = tracker.process(gray, fr.depth, fr.timestamp)
        assert not result.lm.lost
        gt_rel = se3_exp(np.array([0.025, 0, 0.01, 0, 0, 0]))
        est_rel = tracker.trajectory[0].inverse() @ \
            tracker.trajectory[-1]
        t_err, _ = est_rel.distance_to(gt_rel)
        assert t_err < 0.04


def _walk_frames(scene, n, step=0.004):
    """Render a short smooth forward walk."""
    frames = []
    for i in range(n):
        pw = se3_exp(np.array([step * i, -step * i / 2, step * i,
                               0.001 * i, 0, 0]))
        frames.append((pw, render_frame(scene, pw, CAM,
                                        timestamp=i / 30)))
    return frames


class TestValidateFrame:
    def test_clean_frame_passes_untouched(self):
        gray = np.full((4, 4), 100.0)
        depth = np.full((4, 4), 2.0)
        check = validate_frame(gray, depth)
        assert check.ok and not check.repaired
        assert check.gray is gray and check.depth is depth

    def test_nonfinite_gray_repaired(self):
        gray = np.full((4, 4), 100.0)
        gray[1, 2] = np.nan
        check = validate_frame(gray, np.full((4, 4), 2.0))
        assert check.ok and check.repaired
        assert "repaired:gray-nonfinite" in check.events
        assert np.isfinite(check.gray).all()

    def test_out_of_range_gray_clipped(self):
        gray = np.full((4, 4), 100.0)
        gray[0, 0] = 1e4
        check = validate_frame(gray, np.full((4, 4), 2.0))
        assert check.ok
        assert "repaired:gray-range" in check.events
        assert check.gray.max() <= 255.0

    def test_invalid_depth_repaired_to_inf(self):
        depth = np.full((4, 4), 2.0)
        depth[0, 0] = np.nan
        depth[1, 1] = -1.0
        depth[2, 2] = 0.0
        check = validate_frame(np.full((4, 4), 100.0), depth)
        assert check.ok
        assert "repaired:depth-invalid" in check.events
        assert np.isinf(check.depth[0, 0])
        assert np.isinf(check.depth[1, 1])

    def test_hopeless_frames_rejected(self):
        gray = np.full((4, 4), np.nan)
        check = validate_frame(gray, np.full((4, 4), 2.0))
        assert not check.ok
        assert any(e.startswith("rejected:") for e in check.events)
        shape = validate_frame(np.zeros((4, 4)), np.ones((5, 5)))
        assert not shape.ok

    def test_frontend_refuses_corrupt_input(self):
        cfg = TrackerConfig(camera=CAM)
        bad = np.full((CAM.height, CAM.width), np.nan)
        for frontend in (FloatFrontend(cfg), PIMFrontend(cfg)):
            with pytest.raises(CorruptFrameError):
                frontend.detect(bad)


def _validate_frame_reference(gray, depth, max_bad_fraction=0.5):
    """:func:`validate_frame` without its clean-frame fast path."""
    events = []
    gray = np.asarray(gray)
    depth = np.asarray(depth)
    if gray.ndim != 2 or depth.ndim != 2 or gray.size == 0:
        return False, None, None, ("rejected:malformed",)
    if gray.shape != depth.shape:
        return False, None, None, ("rejected:shape-mismatch",)
    if not np.issubdtype(gray.dtype, np.number) or \
            not np.issubdtype(depth.dtype, np.number):
        return False, None, None, ("rejected:non-numeric",)
    bad_gray = ~np.isfinite(gray)
    n_bad = int(bad_gray.sum())
    if n_bad > max_bad_fraction * gray.size:
        return False, None, None, ("rejected:gray-mostly-invalid",)
    if n_bad:
        gray = np.where(bad_gray, 0.0, gray.astype(np.float64))
        events.append("repaired:gray-nonfinite")
    out_of_range = np.isfinite(gray) & ((gray < 0) | (gray > 255))
    if out_of_range.any():
        gray = np.clip(gray, 0, 255)
        events.append("repaired:gray-range")
    bad_depth = np.isnan(depth) | (depth < 0)
    if bad_depth.any():
        depth = np.where(bad_depth, np.inf, depth.astype(np.float64))
        events.append("repaired:depth-invalid")
    return True, gray, depth, tuple(events)


_GRAY_FAULTS = [np.nan, np.inf, -np.inf, -1.0, -0.5, 255.5, 300.0, 1e9]
_DEPTH_FAULTS = [np.nan, -1.0, -1e-9, -np.inf, np.inf, 0.0]


@st.composite
def dirty_frames(draw):
    """A small frame pair of any real dtype, clean or with faults
    injected at drawn pixels."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    gray_dtype = draw(st.sampled_from(
        [np.float64, np.float32, np.uint8, np.int16, np.int64]))
    depth_dtype = draw(st.sampled_from([np.float64, np.float32, np.int32]))
    gray = draw(arrays(np.float64, (h, w),
                       elements=st.floats(0, 255))).astype(gray_dtype)
    depth = draw(arrays(np.float64, (h, w),
                        elements=st.floats(0, 10))).astype(depth_dtype)
    if np.issubdtype(gray_dtype, np.floating):
        faults = _GRAY_FAULTS
    else:
        faults = [-1, 256, 1000] if gray_dtype != np.uint8 else []
    for value in draw(st.lists(st.sampled_from(faults), max_size=4)
                      if faults else st.just([])):
        gray[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = \
            value
    faults = _DEPTH_FAULTS if np.issubdtype(depth_dtype, np.floating) \
        else [-1, -1000]
    for value in draw(st.lists(st.sampled_from(faults), max_size=3)):
        depth[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = \
            value
    return gray, depth, draw(st.sampled_from([0.5, 0.0, 1.0]))


class TestValidateFrameFastPath:
    """The clean-frame fast path of :func:`validate_frame` returns what
    the full repair path returns."""

    @given(dirty_frames())
    @settings(max_examples=200, deadline=None)
    def test_fast_path_equals_the_full_path(self, frame):
        gray, depth, max_bad = frame
        check = validate_frame(gray, depth, max_bad)
        ok, want_gray, want_depth, events = _validate_frame_reference(
            gray, depth, max_bad)
        assert (check.ok, check.events) == (ok, events)
        for got, want in ((check.gray, want_gray),
                          (check.depth, want_depth)):
            if want is None:
                assert got is None
                continue
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        if ok and not events:
            assert check.gray is gray and check.depth is depth

    def test_clean_frame_returns_the_same_objects(self):
        for dtype in (np.uint8, np.float32, np.float64):
            gray = np.arange(12, dtype=dtype).reshape(3, 4)
            depth = np.full((3, 4), np.inf)
            check = validate_frame(gray, depth)
            assert check.ok and check.events == ()
            assert check.gray is gray and check.depth is depth


class TestCheckFrame:
    @given(arrays(st.sampled_from([np.float64, np.float32, np.int32,
                                   np.uint8]),
                  st.tuples(st.integers(0, 5), st.integers(0, 5)),
                  elements=st.sampled_from([0, 1, 7, 255])),
           st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 3.0]),
                    max_size=3), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_raises_exactly_on_non_finite_values(self, gray, faults,
                                                 rnd):
        if gray.size and gray.dtype.kind == "f":
            for value in faults:
                gray.flat[rnd.randrange(gray.size)] = value
        if np.isfinite(gray).all():
            assert _check_frame(gray) is gray
        else:
            with pytest.raises(CorruptFrameError):
                _check_frame(gray)

    def test_nan_float_frame_raises(self):
        gray = np.full((24, 32), 100.0)
        gray[3, 5] = np.nan
        with pytest.raises(CorruptFrameError):
            _check_frame(gray)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int16,
                                       bool])
    def test_integer_frame_passes_unscanned(self, dtype):
        """An integer or bool frame cannot hold a non-finite value: it
        is returned as is, extremes included."""
        gray = np.zeros((24, 32), dtype=dtype)
        if dtype is not bool:
            info = np.iinfo(dtype)
            gray[0, 0], gray[-1, -1] = info.min, info.max
        assert _check_frame(gray) is gray


class TestHealthStateMachine:
    def test_keyframe_fallback_on_lm_nonconvergence(self):
        """A starved solve holds the pose and re-anchors (legacy)."""
        scene = make_room_scene()
        cfg = TrackerConfig(camera=CAM, max_features=2000)
        tracker = EBVOTracker(FloatFrontend(cfg), cfg)
        frames = _walk_frames(scene, 3)
        for _, fr in frames:
            good = tracker.process(fr.gray, fr.depth, fr.timestamp)
        assert good.health == OK
        held_pose = good.pose
        # A featureless frame starves the solver (LM non-convergence
        # via feature collapse): the tracker must hold the pose and
        # re-anchor a keyframe rather than emit garbage.
        flat = np.full((CAM.height, CAM.width), 128.0)
        result = tracker.process(flat, frames[-1][1].depth, 0.2)
        assert result.is_keyframe
        assert result.health == DEGRADED
        assert "reanchored" in result.events
        assert np.array_equal(result.pose.R, held_pose.R)
        assert np.array_equal(result.pose.t, held_pose.t)

    def test_divergence_triggers_motion_fallback(self):
        scene = make_room_scene()
        cfg = TrackerConfig(camera=CAM, max_features=2000,
                            health_max_translation=0.02,
                            health_max_rotation=0.02)
        tracker = EBVOTracker(FloatFrontend(cfg), cfg)
        frames = _walk_frames(scene, 3)
        for _, fr in frames:
            tracker.process(fr.gray, fr.depth, fr.timestamp)
        # A teleport far beyond the pose-jump bound: the solve (or
        # its divergence) must be discarded for the motion model.
        jump = render_frame(scene, se3_exp(np.array(
            [0.4, 0.3, -0.2, 0.1, 0.1, 0])), CAM)
        result = tracker.process(jump.gray, jump.depth, 0.2)
        assert result.health == DEGRADED
        assert "fallback:motion-model" in result.events
        assert not result.is_keyframe
        assert tracker.state.degraded_streak == 1

    def test_streak_goes_lost_then_relocalizes(self):
        scene = make_room_scene()
        cfg = TrackerConfig(camera=CAM, max_features=2000,
                            health_max_translation=0.02,
                            health_max_rotation=0.02,
                            health_max_degraded=2)
        tracker = EBVOTracker(FloatFrontend(cfg), cfg)
        frames = _walk_frames(scene, 3)
        for _, fr in frames:
            tracker.process(fr.gray, fr.depth, fr.timestamp)
        jump = render_frame(scene, se3_exp(np.array(
            [0.5, 0.4, -0.3, 0.12, 0.1, 0])), CAM)
        tracker.process(jump.gray, jump.depth, 0.2)
        tracker.process(jump.gray, jump.depth, 0.23)
        assert tracker.state.health == LOST
        # Content near the last good view: relocalization re-aligns
        # against a recent keyframe and resumes DEGRADED.
        back = frames[-1][1]
        result = tracker.process(back.gray, back.depth, 0.3)
        assert result.health == DEGRADED
        assert any(e.startswith("relocalized:") or e == "reanchored"
                   for e in result.events)
        # One clean frame then promotes back to OK.
        clean = tracker.process(back.gray, back.depth, 0.33)
        assert clean.health == OK


class TestCheckpointRestore:
    def test_deep_checkpoint_round_trip_bit_identical(self):
        scene = make_room_scene()
        cfg = TrackerConfig(camera=CAM, max_features=2000)
        tracker = EBVOTracker(FloatFrontend(cfg), cfg)
        frames = _walk_frames(scene, 6)
        for _, fr in frames[:3]:
            tracker.process(fr.gray, fr.depth, fr.timestamp)
        snapshot = tracker.state.checkpoint()
        first = [tracker.process(fr.gray, fr.depth, fr.timestamp)
                 for _, fr in frames[3:]]
        # Mutating on after the snapshot must not have leaked into it.
        tracker.state.restore(snapshot)
        assert tracker.state.n_frames == 3
        second = [tracker.process(fr.gray, fr.depth, fr.timestamp)
                  for _, fr in frames[3:]]
        for a, b in zip(first, second):
            assert np.array_equal(a.pose.R, b.pose.R)
            assert np.array_equal(a.pose.t, b.pose.t)
            assert a.is_keyframe == b.is_keyframe

    def test_restore_point_rollback_replays_identically(self):
        scene = make_room_scene()
        cfg = TrackerConfig(camera=CAM, max_features=2000)
        tracker = EBVOTracker(FloatFrontend(cfg), cfg)
        frames = _walk_frames(scene, 4)
        for _, fr in frames[:3]:
            tracker.process(fr.gray, fr.depth, fr.timestamp)
        point = tracker.state.restore_point()
        _, last = frames[3]
        first = tracker.process(last.gray, last.depth, last.timestamp)
        tracker.state.rollback(point)
        assert tracker.state.n_frames == 3
        again = tracker.process(last.gray, last.depth, last.timestamp)
        assert np.array_equal(first.pose.R, again.pose.R)
        assert np.array_equal(first.pose.t, again.pose.t)
