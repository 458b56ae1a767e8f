"""Unit and integration tests for the EBVO system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import make_sequence
from repro.dataset.synthetic import make_room_scene, render_frame
from repro.evaluation import relative_pose_error
from repro.geometry import SE3, TUM_QVGA, se3_exp
from repro.obs.metrics import get_registry
from repro.vo import (
    EBVOTracker,
    FloatFrontend,
    PIMFrontend,
    TrackerConfig,
    extract_features,
    lm_estimate,
)
from repro.vo.features import FeatureSet

SMALL_CAM = TUM_QVGA.scaled(0.5)  # 160x120 for speed


def small_config(**overrides):
    cfg = TrackerConfig(camera=SMALL_CAM, max_features=2000)
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


class TestFeatureExtraction:
    def test_respects_depth_bounds(self):
        edge = np.zeros((20, 20), dtype=bool)
        edge[5, 5] = edge[6, 6] = edge[7, 7] = True
        depth = np.full((20, 20), 2.0)
        depth[5, 5] = 0.05   # too close
        depth[6, 6] = 50.0   # too far
        feats = extract_features(edge, depth, 100, 0.2, 10.0)
        assert len(feats) == 1
        assert feats.u[0] == 7 and feats.v[0] == 7

    def test_budget_enforced_deterministically(self):
        edge = np.ones((30, 30), dtype=bool)
        depth = np.full((30, 30), 2.0)
        f1 = extract_features(edge, depth, 50, 0.2, 10.0)
        f2 = extract_features(edge, depth, 50, 0.2, 10.0)
        assert len(f1) == 50
        np.testing.assert_array_equal(f1.u, f2.u)

    def test_nan_depth_skipped(self):
        edge = np.ones((5, 5), dtype=bool)
        depth = np.full((5, 5), np.nan)
        assert len(extract_features(edge, depth, 10, 0.2, 10.0)) == 0

    @staticmethod
    def _reference(edge_map, depth_map, max_features, min_depth,
                   max_depth):
        """The 2-D ``np.nonzero`` extraction the flat one replaced."""
        edge_map = np.asarray(edge_map, dtype=bool)
        depth_map = np.asarray(depth_map, dtype=np.float64)
        vs, us = np.nonzero(edge_map)
        d = depth_map[vs, us]
        ok = np.isfinite(d) & (d > min_depth) & (d < max_depth)
        us, vs, d = us[ok], vs[ok], d[ok]
        if us.size > max_features:
            idx = np.linspace(0, us.size - 1, max_features).astype(
                np.int64)
            us, vs, d = us[idx], vs[idx], d[idx]
        return FeatureSet(u=us.astype(np.float64),
                          v=vs.astype(np.float64), depth=d)

    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
           density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           budget=st.integers(0, 80),
           seed=st.integers(0, 2**16))
    def test_flat_extraction_matches_nonzero_reference(
            self, shape, density, budget, seed):
        """Same u, v and depth arrays, dtypes and order as the 2-D
        reference: empty and full maps, NaN/inf and out-of-range
        depths, and budgets below the edge count (the subsampling
        path)."""
        rng = np.random.default_rng(seed)
        edge = rng.random(shape) < density
        depth = rng.choice(np.array([np.nan, np.inf, -1.0, 0.1, 0.2,
                                     2.0, 9.99, 10.0, 50.0]),
                           size=shape)
        depth = np.where(rng.random(shape) < 0.5, depth,
                         rng.uniform(0.0, 12.0, shape))
        got = extract_features(edge, depth, budget, 0.2, 10.0)
        want = self._reference(edge, depth, budget, 0.2, 10.0)
        for name in ("u", "v", "depth"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, name
            np.testing.assert_array_equal(g, w, err_msg=name)


class TestLMEstimation:
    """Single-pair alignment: render two views, recover the pose."""

    @pytest.fixture(scope="class")
    def setup(self):
        scene = make_room_scene()
        cam = SMALL_CAM
        pose_key = SE3.identity()
        true_rel = se3_exp(np.array([0.02, -0.015, 0.01,
                                     0.008, -0.01, 0.006]))
        # Current camera pose in world: key pose composed with the
        # inverse relative (rel maps current -> keyframe coords).
        pose_cur = pose_key @ true_rel
        frame_key = render_frame(scene, pose_key, cam)
        frame_cur = render_frame(scene, pose_cur, cam)
        return cam, frame_key, frame_cur, true_rel

    @pytest.mark.parametrize("frontend_cls", [FloatFrontend, PIMFrontend])
    def test_recovers_known_pose(self, setup, frontend_cls):
        cam, frame_key, frame_cur, true_rel = setup
        cfg = small_config()
        fe = frontend_cls(cfg)
        key_edges = fe.detect(frame_key.gray)
        maps = fe.prepare_keyframe(key_edges)
        cur_edges = fe.detect(frame_cur.gray)
        features = extract_features(cur_edges, frame_cur.depth,
                                    cfg.max_features, cfg.min_depth,
                                    cfg.max_depth)
        assert len(features) > 100
        feats = fe.make_features(features)
        pose, stats = lm_estimate(fe, feats, maps, SE3.identity(), cfg)
        assert not stats.lost
        t_err, r_err = pose.distance_to(true_rel)
        # Half-resolution frames: DT alignment recovers the pose to a
        # few centimetres / about a degree.
        assert t_err < 0.03
        assert np.degrees(r_err) < 2.0

    def test_error_decreases(self, setup):
        cam, frame_key, frame_cur, true_rel = setup
        cfg = small_config()
        fe = FloatFrontend(cfg)
        maps = fe.prepare_keyframe(fe.detect(frame_key.gray))
        features = extract_features(fe.detect(frame_cur.gray),
                                    frame_cur.depth, cfg.max_features,
                                    cfg.min_depth, cfg.max_depth)
        feats = fe.make_features(features)
        _, stats = lm_estimate(fe, feats, maps, SE3.identity(), cfg)
        assert stats.final_error <= stats.initial_error

    def test_lost_when_no_features(self, setup):
        cam, frame_key, _, _ = setup
        cfg = small_config()
        fe = FloatFrontend(cfg)
        maps = fe.prepare_keyframe(fe.detect(frame_key.gray))
        from repro.vo.features import FeatureSet
        empty = fe.make_features(FeatureSet(np.array([]), np.array([]),
                                            np.array([])))
        _, stats = lm_estimate(fe, empty, maps, SE3.identity(), cfg)
        assert stats.lost


class TestTracker:
    @pytest.mark.parametrize("frontend_cls", [FloatFrontend, PIMFrontend])
    def test_tracks_short_sequence(self, frontend_cls):
        seq = make_sequence("fr1_xyz", n_frames=12, camera=SMALL_CAM)
        cfg = small_config()
        tracker = EBVOTracker(frontend_cls(cfg), cfg)
        for fr in seq.frames:
            tracker.process(fr.gray, fr.depth, fr.timestamp)
        assert len(tracker.trajectory) == 12
        # Relative accuracy frame-over-frame (gauge-free).
        for i in (5, 11):
            gt_rel = seq.groundtruth[0].inverse() @ seq.groundtruth[i]
            est_rel = tracker.trajectory[0].inverse() @ \
                tracker.trajectory[i]
            t_err, r_err = gt_rel.distance_to(est_rel)
            assert t_err < 0.05
            assert np.degrees(r_err) < 3.0

    def test_first_frame_is_keyframe(self):
        seq = make_sequence("fr1_xyz", n_frames=2, camera=SMALL_CAM)
        tracker = EBVOTracker(FloatFrontend(small_config()),
                              small_config())
        r0 = tracker.process(seq.frames[0].gray, seq.frames[0].depth)
        assert r0.is_keyframe
        assert r0.lm is None

    def test_keyframe_created_on_large_motion(self):
        scene = make_room_scene()
        cfg = small_config(keyframe_translation=0.05)
        tracker = EBVOTracker(FloatFrontend(cfg), cfg)
        poses = [SE3.identity(),
                 SE3(np.eye(3), [0.02, 0.0, 0.0]),
                 SE3(np.eye(3), [0.08, 0.0, 0.0])]
        results = []
        for i, pw in enumerate(poses):
            fr = render_frame(scene, pw, SMALL_CAM, timestamp=i / 30)
            results.append(tracker.process(fr.gray, fr.depth,
                                           fr.timestamp))
        assert results[0].is_keyframe
        assert not results[1].is_keyframe
        assert results[2].is_keyframe

    def test_quantized_close_to_float(self):
        seq = make_sequence("fr1_xyz", n_frames=35, camera=SMALL_CAM)
        results = {}
        for name, cls in (("float", FloatFrontend), ("pim", PIMFrontend)):
            cfg = small_config()
            tracker = EBVOTracker(cls(cfg), cfg)
            for fr in seq.frames:
                tracker.process(fr.gray, fr.depth, fr.timestamp)
            results[name] = relative_pose_error(
                tracker.trajectory, seq.groundtruth, delta=30)
        # Table 1: quantization stays in the same accuracy class.  (At
        # this half-resolution test camera the relative penalty is
        # larger than at QVGA - coarser DT gradients - so the bound is
        # loose; the QVGA benches check the tighter paper-level gap.)
        assert results["pim"].translation_rmse < \
            5 * results["float"].translation_rmse + 0.03
        assert results["pim"].translation_rmse < 0.15


class TestNarrowKernelPaths:
    #: The counters of the saturating fallbacks behind each LM kernel
    #: mirror's bound.
    FALLBACKS = ("kernels_jacobian_saturated_total",
                 "kernels_hessian_saturated_total",
                 "kernels_hessian_reduce_saturated_total")

    def test_default_dense_run_never_falls_back(self):
        """On a default-config ``fr1_xyz`` run (6000-feature frames)
        every Jacobian and Hessian bound clears: no fallback counter
        moves."""
        registry = get_registry()
        before = [registry.counter(n).total() for n in self.FALLBACKS]
        seq = make_sequence("fr1_xyz", n_frames=12)
        config = TrackerConfig()
        tracker = EBVOTracker(PIMFrontend(config), config)
        iterations = 0
        for f in seq.frames:
            res = tracker.process(f.gray, f.depth, f.timestamp)
            iterations += res.lm.iterations if res.lm else 0
        assert iterations > 0
        assert [registry.counter(n).total()
                for n in self.FALLBACKS] == before
