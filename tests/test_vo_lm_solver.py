"""Isolated tests of the LM machinery using a mock quadratic frontend.

The tracker tests exercise LM end-to-end; these pin the solver itself:
convergence on a known quadratic bowl, damping adaptation, loss
handling, and the paper's scale-free (``lambda I``) damping variant.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.dataset import make_sequence
from repro.geometry import TUM_QVGA
from repro.geometry.se3 import SE3, se3_exp, se3_log
from repro.obs.metrics import get_registry
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.vo.config import TrackerConfig
from repro.vo.features import extract_features
from repro.vo.frontend import FloatFrontend, PIMFrontend
from repro.vo import lm as lm_module
from repro.vo.lm import LMStats, _lm_loop, lm_estimate
from repro.vo.tracker import EBVOTracker


class QuadraticFrontend:
    """Residuals linear in the twist: r = J (xi - xi*), known optimum."""

    def __init__(self, target_xi, jacobian=None, n_valid=500):
        self.target = np.asarray(target_xi, dtype=np.float64)
        rng = np.random.default_rng(0)
        self.j = jacobian if jacobian is not None else \
            rng.normal(size=(60, 6)) * 10
        self.n_valid = n_valid
        self.linearize_calls = 0

    def _residuals(self, pose: SE3):
        xi = se3_log(pose)
        return self.j @ (xi - self.target)

    def error(self, feats, pose, maps):
        r = self._residuals(pose)
        return float(np.mean(r ** 2)), self.n_valid, r

    def linearize(self, feats, pose, maps, lookup=None):
        self.linearize_calls += 1
        r = self._residuals(pose) if lookup is None else lookup
        h = self.j.T @ self.j
        b = self.j.T @ r
        return h, b, float(np.mean(r ** 2)), self.n_valid


def config(**kw):
    cfg = TrackerConfig()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


class TestLMCore:
    def test_converges_to_known_optimum(self):
        target = np.array([0.05, -0.02, 0.03, 0.01, -0.04, 0.02])
        fe = QuadraticFrontend(target)
        pose, stats = lm_estimate(fe, None, None, SE3.identity(),
                                  config())
        assert not stats.lost
        np.testing.assert_allclose(se3_log(pose), target, atol=1e-4)
        assert stats.final_error < 1e-6

    def test_scale_free_damping_paper_variant(self):
        target = np.array([0.02, 0.01, -0.01, 0.0, 0.02, -0.01])
        fe = QuadraticFrontend(target)
        pose, stats = lm_estimate(fe, None, None, SE3.identity(),
                                  config(), scale_free_damping=True)
        np.testing.assert_allclose(se3_log(pose), target, atol=1e-3)

    def test_error_monotonically_nonincreasing(self):
        fe = QuadraticFrontend(np.full(6, 0.03))
        _, stats = lm_estimate(fe, None, None, SE3.identity(), config())
        errors = stats.errors
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_respects_iteration_cap(self):
        fe = QuadraticFrontend(np.full(6, 0.05))
        _, stats = lm_estimate(fe, None, None, SE3.identity(),
                               config(lm_max_iterations=3))
        assert stats.iterations <= 3

    def test_lost_when_too_few_features(self):
        fe = QuadraticFrontend(np.zeros(6), n_valid=5)
        _, stats = lm_estimate(fe, None, None, SE3.identity(), config())
        assert stats.lost
        assert stats.iterations == 0

    def test_zero_residual_converges_immediately(self):
        fe = QuadraticFrontend(np.zeros(6))
        pose, stats = lm_estimate(fe, None, None, SE3.identity(),
                                  config())
        assert stats.converged or stats.iterations <= 2
        np.testing.assert_allclose(se3_log(pose), 0.0, atol=1e-9)

    def test_singular_hessian_does_not_crash(self):
        # Rank-deficient Jacobian: only the first twist axis observed.
        j = np.zeros((10, 6))
        j[:, 0] = 1.0
        fe = QuadraticFrontend(np.array([0.1, 0, 0, 0, 0, 0]),
                               jacobian=j)
        pose, stats = lm_estimate(fe, None, None, SE3.identity(),
                                  config())
        assert abs(se3_log(pose)[0] - 0.1) < 1e-3

    def test_span_carries_step_counts(self):
        old = get_tracer()
        tracer = Tracer()
        set_tracer(tracer)
        tracer.enable()
        try:
            _, stats = lm_estimate(QuadraticFrontend(np.full(6, 0.05)),
                                   None, None, SE3.identity(), config())
        finally:
            tracer.disable()
            set_tracer(old)
        (solve,) = [s for s in tracer.spans if s.name == "lm_solve"]
        assert stats.accepted_steps >= 1
        assert solve.attrs["accepted_steps"] == stats.accepted_steps
        assert solve.attrs["rejected_steps"] == stats.rejected_steps

    def test_initial_error_recorded(self):
        fe = QuadraticFrontend(np.full(6, 0.05))
        _, stats = lm_estimate(fe, None, None, SE3.identity(), config())
        assert stats.initial_error > stats.final_error


def _counting(base):
    """``base`` frontend that logs every pose it warps.

    With ``rewarp`` its :meth:`linearize` drops the lookup handed over
    by the solver, so every linearization warps again: the reference
    the handoff must match.
    """
    class Counting(base):
        def __init__(self, config, rewarp=False):
            super().__init__(config)
            self.rewarp = rewarp
            self.warped = []

        def _warp_and_lookup(self, feats, pose, maps):
            self.warped.append(pose.matrix.copy())
            return super()._warp_and_lookup(feats, pose, maps)

        def linearize(self, feats, pose, maps, lookup=None):
            return super().linearize(feats, pose, maps,
                                     None if self.rewarp else lookup)

    return Counting


@pytest.fixture(scope="module")
def frame_pair():
    """Keyframe 0 and frame 5 of a half-QVGA ``fr1_xyz``."""
    seq = make_sequence("fr1_xyz", n_frames=6, camera=TUM_QVGA.scaled(0.5))
    return seq.camera, seq.frames[0], seq.frames[5]


class TestWarpHandoff:
    @staticmethod
    def _solve(base, frame_pair, rewarp):
        camera, key, cur = frame_pair
        cfg = TrackerConfig(camera=camera)
        fe = _counting(base)(cfg, rewarp=rewarp)
        maps = fe.prepare_keyframe(fe.detect(key.gray))
        feats = fe.make_features(extract_features(
            fe.detect(cur.gray), cur.depth, cfg.max_features,
            cfg.min_depth, cfg.max_depth))
        fe.warped.clear()
        pose, stats = lm_estimate(fe, feats, maps, SE3.identity(), cfg)
        return fe.warped, pose, stats

    @pytest.mark.parametrize("base", [PIMFrontend, FloatFrontend])
    def test_each_pose_warped_once(self, base, frame_pair):
        skips = get_registry().counter("lm_trials_skipped_total")
        before = skips.total()
        warped, _, stats = self._solve(base, frame_pair, rewarp=False)
        assert stats.accepted_steps >= 1 and not stats.lost
        # One warp up front, one per trial step that repeats no pose of
        # its ladder; linearize() never warps.
        assert len(warped) == 1 + stats.accepted_steps + \
            stats.rejected_steps - (skips.total() - before)
        assert not any(np.array_equal(a, b)
                       for a, b in zip(warped, warped[1:]))

    @pytest.mark.parametrize("base", [PIMFrontend, FloatFrontend])
    def test_handoff_matches_rewarping(self, base, frame_pair):
        warped, pose, stats = self._solve(base, frame_pair, rewarp=False)
        again, pose_re, stats_re = self._solve(base, frame_pair,
                                               rewarp=True)
        np.testing.assert_array_equal(pose.matrix, pose_re.matrix)
        assert stats.errors == stats_re.errors
        assert (stats.accepted_steps, stats.rejected_steps) == \
            (stats_re.accepted_steps, stats_re.rejected_steps)
        assert len(again) == len(warped) + stats.iterations


def _reference_lm_loop(frontend, feats, maps, init_pose, cfg,
                       scale_free_damping):
    """The LM loop with no repeated-pose skip: every trial is warped."""
    pose = init_pose
    lam = cfg.lm_lambda_init
    stats = LMStats()
    err, n, lookup = frontend.error(feats, pose, maps)
    stats.initial_error = err
    stats.final_error = err
    stats.valid_features = n
    if n < cfg.min_features:
        stats.lost = True
        return pose, stats
    for _ in range(cfg.lm_max_iterations):
        h, b, err, n = frontend.linearize(feats, pose, maps, lookup)
        if n < cfg.min_features:
            stats.lost = True
            break
        stats.iterations += 1
        stats.errors.append(err)
        accepted = False
        for _attempt in range(6):
            damping = lam * (np.eye(6) if scale_free_damping
                             else np.diag(np.maximum(np.diagonal(h), 1e-6)))
            try:
                delta = np.linalg.solve(h + damping, -b)
            except np.linalg.LinAlgError:
                delta = np.zeros(6)
            candidate = se3_exp(delta) @ pose
            new_err, new_n, new_lookup = frontend.error(feats, candidate,
                                                        maps)
            if new_n >= cfg.min_features and new_err < err:
                pose, lookup = candidate, new_lookup
                lam = max(lam * 0.5, 1e-9)
                accepted = True
                stats.accepted_steps += 1
                stats.final_error = new_err
                stats.valid_features = new_n
                break
            lam = min(lam * 4.0, 1e6)
            stats.rejected_steps += 1
        if not accepted:
            stats.converged = True
            break
        if float(np.linalg.norm(delta)) < cfg.lm_min_delta:
            stats.converged = True
            break
    if not stats.errors:
        stats.final_error = err
    return pose, stats


class _Recording(PIMFrontend):
    """Counts ``error()`` calls and keeps each lookup handed to
    ``linearize()``."""

    def __init__(self, config):
        super().__init__(config)
        self.errors = 0
        self.handed = []

    def error(self, feats, pose, maps):
        self.errors += 1
        return super().error(feats, pose, maps)

    def linearize(self, feats, pose, maps, lookup=None):
        self.handed.append(lookup)
        return super().linearize(feats, pose, maps, lookup)


@pytest.fixture(scope="module")
def pim_problem(frame_pair):
    camera, key, cur = frame_pair
    cfg = TrackerConfig(camera=camera)
    fe = PIMFrontend(cfg)
    maps = fe.prepare_keyframe(fe.detect(key.gray))
    feats = fe.make_features(extract_features(
        fe.detect(cur.gray), cur.depth, cfg.max_features, cfg.min_depth,
        cfg.max_depth))
    return camera, feats, maps


def _assert_same_lookup(got, want):
    if want is None:
        assert got is None
        return
    (res, r_raw, idx, valid), (res_w, r_raw_w, idx_w, valid_w) = got, want
    for name in ("u", "v", "rx", "ry", "z", "valid"):
        np.testing.assert_array_equal(getattr(res, name),
                                      getattr(res_w, name))
    for a, b in ((r_raw, r_raw_w), (idx, idx_w), (valid, valid_w)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestRepeatedPoseSkip:
    """A ladder trial that repeats a Q1.15 pose is rejected unwarped,
    with the same pose, ``LMStats`` and handed-off lookups as warping
    it."""

    @staticmethod
    def _both(pim_problem, xi, lam, scale_free, iterations):
        camera, feats, maps = pim_problem
        cfg = TrackerConfig(camera=camera, lm_lambda_init=lam,
                            lm_max_iterations=iterations)
        init = se3_exp(np.asarray(xi))
        fe, ref = _Recording(cfg), _Recording(cfg)
        pose, stats, skipped = _lm_loop(fe, feats, maps, init, cfg,
                                        scale_free)
        pose_ref, stats_ref = _reference_lm_loop(ref, feats, maps, init,
                                                 cfg, scale_free)
        np.testing.assert_array_equal(pose.matrix, pose_ref.matrix)
        assert stats == stats_ref
        assert len(fe.handed) == len(ref.handed)
        for got, want in zip(fe.handed, ref.handed):
            _assert_same_lookup(got, want)
        assert fe.errors + skipped == ref.errors
        return skipped

    @given(st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6),
           st.sampled_from([1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6]),
           st.booleans(), st.integers(1, 10))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(xi=[0.0] * 6, lam=1e4, scale_free=False, iterations=10)
    def test_skip_equals_warping_every_trial(self, pim_problem, xi, lam,
                                             scale_free, iterations):
        self._both(pim_problem, xi, lam, scale_free, iterations)

    def test_heavy_damping_skips(self, pim_problem):
        # lambda diag(H) at 1e4 shrinks the first steps below one Q1.15
        # raw, so they repeat the current pose.
        assert self._both(pim_problem, [0.0] * 6, 1e4, False, 10) > 0

    def test_float_frontend_has_no_key(self):
        assert not hasattr(FloatFrontend, "pose_key")

    def test_skips_over_40_frames(self, monkeypatch):
        """40 QVGA ``fr1_xyz`` frames skip some trials,
        the ``lm_solve`` spans and the registry count them, and every
        frame's pose and ``LMStats`` equal those of warping every
        trial."""
        seq = make_sequence("fr1_xyz", n_frames=40)
        cfg = TrackerConfig(camera=seq.camera)

        def track():
            tracker = EBVOTracker(PIMFrontend(cfg), cfg)
            for frame in seq.frames:
                tracker.process(frame.gray, frame.depth, frame.timestamp)
            return tracker.results

        counter = get_registry().counter("lm_trials_skipped_total")
        before = counter.total()
        tracer = Tracer()
        previous = get_tracer()
        set_tracer(tracer)
        tracer.enable()
        try:
            results = track()
        finally:
            tracer.disable()
            set_tracer(previous)
        skipped = counter.total() - before
        assert skipped > 0
        spans = [s for s in tracer.spans if s.name == "lm_solve"]
        assert len(spans) == len(seq.frames) - 1
        assert sum(s.attrs["skipped_steps"] for s in spans) == skipped
        assert all(s.attrs["skipped_steps"] <= s.attrs["rejected_steps"]
                   for s in spans)

        monkeypatch.setattr(
            lm_module, "_lm_loop",
            lambda *args: (*_reference_lm_loop(*args), 0))
        reference = track()
        assert len(results) == len(reference) == len(seq.frames)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.pose.matrix, want.pose.matrix)
            assert got.lm == want.lm
            assert got.is_keyframe == want.is_keyframe
