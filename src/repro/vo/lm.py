"""Levenberg-Marquardt pose estimation (paper Fig. 1-c).

Minimizes the mean squared DT residual over the relative pose.  The
damping multiplies ``diag(H)`` (Fletcher's variant) rather than the
identity, which keeps the step well-scaled against the large dynamic
range between translational and rotational Hessian blocks; the paper's
``(H + lambda I)`` is recovered with ``scale_free_damping=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.geometry.se3 import SE3, se3_exp
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span
from repro.vo.config import TrackerConfig

__all__ = ["LMStats", "lm_estimate"]


@dataclass
class LMStats:
    """Diagnostics of one LM run."""

    iterations: int = 0
    converged: bool = False
    lost: bool = False
    initial_error: float = np.inf
    final_error: float = np.inf
    valid_features: int = 0
    errors: List[float] = field(default_factory=list)
    #: Damping escalations (rejected trial steps) across the solve --
    #: a cheap conditioning signal: healthy solves reject a handful,
    #: a solve fighting corrupted residuals rejects most attempts.
    rejected_steps: int = 0
    #: Trial steps that lowered the error and moved the pose.
    accepted_steps: int = 0

    @property
    def outcome(self) -> str:
        """``"lost"``, ``"converged"`` or ``"maxiter"``."""
        if self.lost:
            return "lost"
        return "converged" if self.converged else "maxiter"


def _damping(h: np.ndarray, scale_free: bool) -> np.ndarray:
    """The matrix ``lam`` scales: ``I``, or ``diag(max(diag H, 1e-6))``."""
    return (np.eye(6) if scale_free
            else np.diag(np.maximum(np.diagonal(h), 1e-6)))


def _solve_step(h: np.ndarray, b: np.ndarray, lam: float,
                damping: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(h + lam * damping, -b)
    except np.linalg.LinAlgError:
        return np.zeros(6)


def lm_estimate(frontend, feats, maps, init_pose: SE3,
                config: TrackerConfig,
                scale_free_damping: bool = False) -> tuple:
    """Estimate the relative pose by LM over the DT residual.

    Args:
        frontend: Object with ``error(feats, pose, maps)``, returning
            ``(err, n_valid, lookup)``, and ``linearize(feats, pose,
            maps, lookup)``, returning ``(H, b, err, n_valid)``.
            ``lookup`` is the frontend's warp+lookup result at ``pose``:
            the solver hands the one from the ``error()`` call that
            accepted ``pose`` to the next ``linearize()``, so each
            accepted pose is warped once.  A frontend whose error
            depends on a quantization of the pose may also have
            ``pose_key(pose)``, a hashable key equal for poses that
            give equal errors; see :func:`_lm_loop`.
        feats: Frontend-specific feature representation.
        maps: Keyframe lookup maps.
        init_pose: Initial relative pose (current -> keyframe).
        config: Tracker configuration (iteration caps, thresholds).
        scale_free_damping: Use ``lambda I`` (the paper's formula)
            instead of ``lambda diag(H)``.

    Returns:
        ``(pose, stats)``.
    """
    with obs_span("lm_solve", category="vo") as lm_span:
        pose, stats, skipped = _lm_loop(frontend, feats, maps, init_pose,
                                        config, scale_free_damping)
        lm_span.set_attr("iterations", stats.iterations)
        lm_span.set_attr("converged", stats.converged)
        lm_span.set_attr("lost", stats.lost)
        lm_span.set_attr("accepted_steps", stats.accepted_steps)
        lm_span.set_attr("rejected_steps", stats.rejected_steps)
        lm_span.set_attr("skipped_steps", skipped)
    registry = get_registry()
    registry.histogram(
        "lm_iterations", "LM iterations per solve").observe(
            stats.iterations)
    registry.counter(
        "lm_solves_total",
        "LM solves by outcome").inc(outcome=stats.outcome)
    if skipped:
        registry.counter(
            "lm_trials_skipped_total",
            "LM trial poses rejected unwarped: a repeat of a pose "
            "already warped in the same ladder").inc(skipped)
    return pose, stats


def _lm_loop(frontend, feats, maps, init_pose: SE3,
             config: TrackerConfig, scale_free_damping: bool) -> tuple:
    """The LM iterations: ``(pose, stats, skipped)``.

    A ladder is the up to six trial steps after one ``linearize``, all
    judged against that linearization's error ``err``.  With a
    ``frontend.pose_key``, a trial whose key equals that of the
    current pose or of an earlier trial of the same ladder has that
    pose's error again, which was either ``err`` itself or rejected
    against it: it is rejected without an ``error()`` call, and
    ``skipped`` counts it.  ``stats`` (which counts it among the
    rejected steps), ``lam`` and the pose are as without the skip.
    """
    pose_key = getattr(frontend, "pose_key", None)
    pose = init_pose
    lam = config.lm_lambda_init
    stats = LMStats()
    skipped = 0
    key = pose_key(pose) if pose_key else None
    err, n, lookup = frontend.error(feats, pose, maps)
    stats.initial_error = err
    stats.final_error = err
    stats.valid_features = n
    if n < config.min_features:
        stats.lost = True
        return pose, stats, skipped

    for _ in range(config.lm_max_iterations):
        h, b, err, n = frontend.linearize(feats, pose, maps, lookup)
        if n < config.min_features:
            stats.lost = True
            break
        stats.iterations += 1
        stats.errors.append(err)
        damping = _damping(h, scale_free_damping)
        warped = {key}
        accepted = False
        for _attempt in range(6):
            delta = _solve_step(h, b, lam, damping)
            candidate = se3_exp(delta) @ pose
            if pose_key:
                new_key = pose_key(candidate)
                if new_key in warped:
                    lam = min(lam * 4.0, 1e6)
                    stats.rejected_steps += 1
                    skipped += 1
                    continue
                warped.add(new_key)
            new_err, new_n, new_lookup = frontend.error(feats, candidate,
                                                        maps)
            if new_n >= config.min_features and new_err < err:
                pose, lookup = candidate, new_lookup
                key = new_key if pose_key else None
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
        if float(np.linalg.norm(delta)) < config.lm_min_delta:
            stats.converged = True
            break
    if not stats.errors:
        stats.final_error = err
    return pose, stats, skipped
