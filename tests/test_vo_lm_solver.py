"""Isolated tests of the LM machinery using a mock quadratic frontend.

The tracker tests exercise LM end-to-end; these pin the solver itself:
convergence on a known quadratic bowl, damping adaptation, loss
handling, and the paper's scale-free (``lambda I``) damping variant.
"""

import numpy as np
import pytest

from repro.dataset import make_sequence
from repro.geometry import TUM_QVGA
from repro.geometry.se3 import SE3, se3_log
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.vo.config import TrackerConfig
from repro.vo.features import extract_features
from repro.vo.frontend import FloatFrontend, PIMFrontend
from repro.vo.lm import lm_estimate


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
        warped, _, stats = self._solve(base, frame_pair, rewarp=False)
        assert stats.accepted_steps >= 1 and not stats.lost
        # One warp up front, one per trial step; linearize() never warps.
        assert len(warped) == \
            1 + stats.accepted_steps + stats.rejected_steps
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
