"""Tracking-health machinery: input validation and divergence detection.

Real ultra-low-power deployments treat sensor dropouts and tracking
loss as normal operating conditions (Navion budgets for them; TinyDEVO
recovers on MCUs), so the tracker carries an explicit health state
machine instead of silently poisoning the trajectory:

* ``OK`` -- the last frame tracked cleanly.
* ``DEGRADED`` -- the last frame's solve was untrustworthy (residual
  blow-up, feature collapse, pose jump, or rejected input); its pose
  came from the constant-velocity motion model instead of the solver.
* ``LOST`` -- several consecutive degraded frames; the next frame
  attempts relocalization against the recent keyframes.

Two pieces live here because they are pure functions of one frame:

* :func:`validate_frame` -- rejects or repairs corrupted gray/depth
  input *before* it reaches the frontends (and thus the PIM device):
  non-finite pixels, out-of-range intensities, negative or NaN depth,
  shape mismatches.
* :func:`divergence_signals` -- classifies one LM solve against the
  sanity bounds in :class:`~repro.vo.config.TrackerConfig`.

The thresholds are deliberately far outside anything a clean sequence
produces, so on fault-free input no signal ever fires and the tracker
output stays bit-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.se3 import SE3, so3_log

__all__ = [
    "OK", "DEGRADED", "LOST", "HEALTH_LEVELS",
    "CorruptFrameError", "FrameCheck", "validate_frame",
    "divergence_signals", "sync_health_gauge",
]

#: Health states, ordered by severity (the gauge exports the index).
OK = "OK"
DEGRADED = "DEGRADED"
LOST = "LOST"
HEALTH_LEVELS = (OK, DEGRADED, LOST)


def sync_health_gauge(health: str) -> None:
    """Publish ``health`` on the ``vo_tracking_state`` gauge.

    The tracker keeps the gauge current while *it* drives the state
    machine; any path that rewrites ``TrackerState.health`` behind the
    tracker's back -- a checkpoint restore, a session import after
    migration -- must call this so the *observable* health matches
    the stored one.
    """
    from repro.obs.metrics import get_registry
    get_registry().gauge(
        "vo_tracking_state",
        "Tracking health (0=OK, 1=DEGRADED, 2=LOST)").set(
            HEALTH_LEVELS.index(health))


class CorruptFrameError(ValueError):
    """A frame with non-finite or malformed data reached a frontend.

    Raised by the frontends as a last line of defence; under normal
    operation :func:`validate_frame` repairs or rejects such frames
    in the tracker before any kernel (or simulated PIM device) sees
    them.
    """


@dataclass
class FrameCheck:
    """Outcome of validating one gray/depth frame pair.

    ``ok`` means the (possibly repaired) arrays are safe to track.
    ``events`` lists what happened, e.g. ``"repaired:gray-nonfinite"``
    or ``"rejected:shape-mismatch"`` -- the chaos harness uses these
    to attribute injected faults.  When nothing needed repair the
    original arrays are returned unchanged (same objects), so the
    clean path is bit-identical and copy-free.
    """

    ok: bool
    gray: Optional[np.ndarray]
    depth: Optional[np.ndarray]
    events: Tuple[str, ...] = ()

    @property
    def repaired(self) -> bool:
        return any(e.startswith("repaired:") for e in self.events)


def validate_frame(gray, depth,
                   max_bad_fraction: float = 0.5) -> FrameCheck:
    """Reject or repair a corrupted RGB-D frame.

    Repairs (returning modified copies):

    * non-finite gray pixels -> 0 intensity;
    * gray intensities outside [0, 255] -> clipped;
    * NaN or negative depth -> ``inf`` (the "no geometry" marker the
      feature extractor already filters via its depth range).

    Rejections (``ok=False``; the tracker falls back to the motion
    model without touching the frontends):

    * arrays that are not 2-D or whose shapes disagree;
    * empty arrays;
    * more than ``max_bad_fraction`` of gray pixels non-finite (the
      frame carries too little real signal to repair).

    A clean real-valued frame is proven clean by three reductions and
    returned as is: a NaN makes ``min``/``max`` NaN, which fails every
    bound, and an infinity fails the gray bounds or the depth minimum
    (an infinite depth is valid).  Anything else takes the repair path.
    """
    events: List[str] = []
    gray = np.asarray(gray)
    depth = np.asarray(depth)
    if gray.ndim != 2 or depth.ndim != 2 or gray.size == 0:
        return FrameCheck(ok=False, gray=None, depth=None,
                          events=("rejected:malformed",))
    if gray.shape != depth.shape:
        return FrameCheck(ok=False, gray=None, depth=None,
                          events=("rejected:shape-mismatch",))
    if not np.issubdtype(gray.dtype, np.number) or \
            not np.issubdtype(depth.dtype, np.number):
        return FrameCheck(ok=False, gray=None, depth=None,
                          events=("rejected:non-numeric",))
    if max_bad_fraction >= 0 and gray.dtype.kind in "iuf" and \
            depth.dtype.kind in "iuf" and gray.min() >= 0 and \
            gray.max() <= 255 and depth.min() >= 0:
        return FrameCheck(ok=True, gray=gray, depth=depth)

    bad_gray = ~np.isfinite(gray)
    n_bad = int(bad_gray.sum())
    if n_bad > max_bad_fraction * gray.size:
        return FrameCheck(ok=False, gray=None, depth=None,
                          events=("rejected:gray-mostly-invalid",))
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
    return FrameCheck(ok=True, gray=gray, depth=depth,
                      events=tuple(events))


def divergence_signals(stats, prev_world: Optional[SE3],
                       pose_world: SE3, config) -> Tuple[str, ...]:
    """Sanity-check one solve; returns the fired signal names.

    Signals (all thresholds from ``config``, all far outside clean
    operation):

    * ``"residual-blowup"`` -- the converged mean squared residual is
      still huge (``> health_max_error`` px^2, vs. the ~5 px^2
      keyframe re-anchor trigger), i.e. the alignment found nothing.
    * ``"feature-collapse"`` -- the solver itself declared the frame
      lost (valid features under ``min_features``).
    * ``"pose-jump"`` -- the implied frame-to-frame motion exceeds
      ``health_max_translation`` / ``health_max_rotation`` (a camera
      does not move 30 cm or rotate 17 degrees in one 30 fps frame).
    """
    signals: List[str] = []
    if stats.lost:
        signals.append("feature-collapse")
    elif stats.final_error > config.health_max_error:
        signals.append("residual-blowup")
    if prev_world is not None:
        step = prev_world.inverse() @ pose_world
        t_jump = float(np.linalg.norm(step.t))
        r_jump = float(np.linalg.norm(so3_log(step.R)))
        if t_jump > config.health_max_translation or \
                r_jump > config.health_max_rotation:
            signals.append("pose-jump")
    return tuple(signals)
