"""Frame-to-keyframe EBVO tracking with keyframe management.

Optionally tracks coarse-to-fine over an image pyramid
(``config.pyramid_levels > 1``): the relative pose is first estimated
at the coarsest level, then refined downward - the standard robustness
extension for motions larger than the DT convergence basin.

Tracking failure is a first-class state, not an exception: every frame
moves an explicit health machine (``OK / DEGRADED / LOST``, see
:mod:`repro.vo.health`).  Corrupted input is repaired or rejected
before it reaches the frontends; a diverged solve (residual blow-up,
feature collapse, pose jump) is replaced by the constant-velocity
motion model; several consecutive degraded frames trigger
relocalization against the recent keyframes.  On clean input none of
the detectors fire and the trajectory is bit-identical to a tracker
without the health machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.se3 import SE3, so3_log
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span
from repro.vo.config import TrackerConfig
from repro.vo.features import extract_features
from repro.vo.frontend import FloatFrontend, KeyframeMaps
from repro.vo.health import (
    DEGRADED,
    LOST,
    OK,
    divergence_signals,
    sync_health_gauge,
    validate_frame,
)
from repro.vo.lm import LMStats, lm_estimate
from repro.vo.pyramid import build_pyramid

__all__ = ["EBVOTracker", "FrameResult", "Keyframe", "TrackerState"]


@dataclass
class FrameResult:
    """Per-frame tracking output."""

    pose: SE3                 # camera-to-world
    is_keyframe: bool
    lm: Optional[LMStats]
    num_features: int
    timestamp: float = 0.0
    #: Tracking health after this frame (``OK/DEGRADED/LOST``).
    health: str = OK
    #: What happened to this frame beyond plain tracking, e.g.
    #: ``"repaired:gray-nonfinite"``, ``"signal:pose-jump"``,
    #: ``"fallback:motion-model"``, ``"relocalized"``.  Empty on a
    #: clean frame; the chaos harness attributes injected faults by
    #: matching these.
    events: Tuple[str, ...] = ()


@dataclass
class Keyframe:
    """The reference frame tracking aligns against: a pose and one
    read-only boolean edge map per pyramid level (0 = full res).

    Its lookup maps are a pure function of the edges (the host DT of
    paper section 2.3), so they are a derived attribute, never
    encoded: :meth:`EBVOTracker.keyframe_maps` builds them on first use.
    """

    pose_world: SE3           # keyframe camera-to-world
    edges: List[np.ndarray]   # boolean edge map per pyramid level

    def __post_init__(self) -> None:
        for edges in self.edges:
            edges.flags.writeable = False
        #: Lookup maps per level, ``None`` until built.
        self.maps: List[Optional[KeyframeMaps]] = [None] * len(self.edges)


@dataclass
class TrackerState:
    """The mutable per-client state of one tracking stream.

    A frame aligns against one keyframe, so this is all a stream
    carries from frame to frame: the current keyframe, the last
    relative and world poses, the frame count and the health counters
    -- O(1) in the stream length.  :class:`EBVOTracker` itself holds
    only configuration, (stateless-per-frame) frontends and an offline
    result history.  The split lets one tracker serve many interleaved
    streams by swapping :attr:`EBVOTracker.state` between frames (see
    :mod:`repro.serve.session`); a state detached mid-stream and
    re-attached later resumes bit-identically.

    :meth:`checkpoint` / :meth:`restore` are field copies: durable
    per-session checkpoints (used to resume from the last good
    keyframe, and exported in session records), and, under the names
    :meth:`restore_point` / :meth:`rollback`, the mark for in-place
    retry of a single frame.  Only the bounded ``recent_keyframes``
    list is copied; its elements are shared with the live state.

    This rests on one contract: ``process`` only ever *replaces*
    keyframes and poses and *advances* the frame count, never mutates
    them.  :class:`Keyframe` and :class:`~repro.vo.frontend.KeyframeMaps`
    enforce it by marking their arrays read-only; the one write to a
    keyframe is filling its derived maps the first time they are used,
    which changes nothing a snapshot carries.
    """

    keyframe: Optional[Keyframe] = None
    last_rel: SE3 = field(default_factory=SE3.identity)  # cur -> keyframe
    #: Frames this stream has processed.
    n_frames: int = 0
    #: World pose of the last processed frame (``None`` before the first).
    last_pose: Optional[SE3] = None
    #: Tracking health (``OK/DEGRADED/LOST``).
    health: str = OK
    #: Consecutive degraded frames since the last clean one.
    degraded_streak: int = 0
    #: Last clean frame-to-frame world motion (constant-velocity model).
    last_delta: SE3 = field(default_factory=SE3.identity)
    #: Recent keyframes retained as relocalization candidates
    #: (newest last; bounded by ``config.reloc_keyframes``).
    recent_keyframes: List[Keyframe] = field(default_factory=list)

    # -- snapshots -------------------------------------------------------

    def checkpoint(self) -> "TrackerState":
        """Snapshot that survives any later ``process`` or
        :meth:`rollback` of the live state, which only replace fields
        and the ``recent_keyframes`` list, never mutate them."""
        return replace(self, recent_keyframes=list(self.recent_keyframes))

    def restore(self, snapshot: "TrackerState") -> "TrackerState":
        """Load a :meth:`checkpoint` snapshot in place; returns self.

        The snapshot itself stays untouched (its list is copied in),
        so one checkpoint can be restored any number of times.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(snapshot, f.name))
        self.recent_keyframes = list(snapshot.recent_keyframes)
        return self

    #: Mark and undo for in-place retry of a failed frame.
    restore_point = checkpoint
    rollback = restore


# Back-compat alias for the former private name.
_Keyframe = Keyframe


class EBVOTracker:
    """The EBVO system of Fig. 1 with a pluggable arithmetic frontend.

    Usage::

        tracker = EBVOTracker(PIMFrontend(config), config)
        for gray, depth, ts in frames:
            result = tracker.process(gray, depth, ts)

    All mutable tracking state lives in :attr:`state` (a
    :class:`TrackerState`); replacing that attribute switches the
    tracker to another stream without rebuilding frontends or devices,
    and starts a fresh :attr:`results` history for offline callers.
    """

    def __init__(self, frontend=None, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        base = frontend or FloatFrontend(self.config)
        self.frontend = base
        self._frontends = [base]
        for level in range(1, self.config.pyramid_levels):
            self._frontends.append(
                type(base)(self.config.scaled_for_level(level)))
        self.state = TrackerState()

    @property
    def state(self) -> TrackerState:
        """The attached stream's state."""
        return self._state

    @state.setter
    def state(self, state: TrackerState) -> None:
        self._state = state
        #: Per-frame results since :attr:`state` was attached.
        self.results: List[FrameResult] = []

    @property
    def trajectory(self) -> List[SE3]:
        """Estimated camera-to-world poses, one per result."""
        return [r.pose for r in self.results]

    def _make_keyframe(self, pyramid, pose_world: SE3,
                       edge_map_l0: np.ndarray) -> None:
        edges = [edge_map_l0]
        for level in range(1, min(len(self._frontends), len(pyramid))):
            edges.append(self._frontends[level].detect(pyramid[level][0]))
        keyframe = Keyframe(pose_world=pose_world, edges=edges)
        for level in range(len(edges)):
            self.keyframe_maps(keyframe, level)
        self.state.keyframe = keyframe
        self.state.last_rel = SE3.identity()
        self.state.recent_keyframes.append(self.state.keyframe)
        keep = max(1, self.config.reloc_keyframes)
        del self.state.recent_keyframes[:-keep]

    def keyframe_maps(self, keyframe: Keyframe, level: int = 0
                      ) -> KeyframeMaps:
        """One level's lookup maps of ``keyframe``, built on first use.

        :meth:`_make_keyframe` builds every level at once; a decoded
        keyframe rebuilds a level from its edges, bit for bit, the
        first time it is tracked against.
        """
        maps = keyframe.maps[level]
        if maps is None:
            maps = self._frontends[level].prepare_keyframe(
                keyframe.edges[level])
            keyframe.maps[level] = maps
        return maps

    def _needs_keyframe(self, rel_pose: SE3, stats: LMStats,
                        n_features: int) -> bool:
        cfg = self.config
        t_dist = float(np.linalg.norm(rel_pose.t))
        r_dist = float(np.linalg.norm(so3_log(rel_pose.R)))
        if t_dist > cfg.keyframe_translation:
            return True
        if r_dist > cfg.keyframe_rotation:
            return True
        if n_features and stats.valid_features / max(n_features, 1) < \
                cfg.keyframe_min_valid:
            return True
        if stats.final_error > cfg.keyframe_max_error:
            return True
        return False

    def _estimate(self, pyramid, features_l0, init: SE3):
        """Coarse-to-fine pose estimation against the keyframe maps."""
        pose = init
        stats = None
        keyframe = self.state.keyframe
        levels = min(len(keyframe.edges), len(pyramid))
        for level in reversed(range(levels)):
            frontend = self._frontends[level]
            cfg = frontend.config
            if level == 0:
                feature_set = features_l0
            else:
                edges = frontend.detect(pyramid[level][0])
                feature_set = extract_features(
                    edges, pyramid[level][1], cfg.max_features,
                    cfg.min_depth, cfg.max_depth)
            feats = frontend.make_features(feature_set)
            pose, stats = lm_estimate(frontend, feats,
                                      self.keyframe_maps(keyframe, level),
                                      pose, cfg)
            if stats.lost and level > 0:
                pose = init  # coarse level unusable; retry finer
        return pose, stats

    # -- health bookkeeping ----------------------------------------------

    def _set_health(self, health: str) -> None:
        state = self.state
        if health != state.health:
            get_registry().counter(
                "vo_tracking_transitions_total",
                "Tracking-health transitions").inc(
                    src=state.health, dst=health)
            state.health = health
        sync_health_gauge(health)

    def _mark_degraded(self, reasons) -> str:
        state = self.state
        state.degraded_streak += 1
        registry = get_registry()
        for reason in reasons:
            registry.counter(
                "vo_frames_degraded_total",
                "Frames degraded by divergence signal").inc(
                    reason=reason)
        lost = state.degraded_streak >= self.config.health_max_degraded
        self._set_health(LOST if lost else DEGRADED)
        return state.health

    def _mark_healthy(self) -> None:
        self.state.degraded_streak = 0
        self._set_health(OK)

    def _prev_world(self) -> Optional[SE3]:
        return self.state.last_pose

    def _predicted_world(self) -> SE3:
        """Constant-velocity prediction of this frame's world pose."""
        prev = self._prev_world()
        if prev is None:
            return SE3.identity()
        return prev @ self.state.last_delta

    # -- the frame pipeline ----------------------------------------------

    def process(self, gray: np.ndarray, depth: np.ndarray,
                timestamp: float = 0.0) -> FrameResult:
        """Track one RGB-D frame; returns its world pose estimate."""
        with obs_span("frame", category="frame",
                      frame_index=self.state.n_frames) as frame_span:
            result = self._process(gray, depth, timestamp, frame_span)
        registry = get_registry()
        registry.counter("vo_frames_total",
                         "Frames processed by the tracker").inc()
        if result.is_keyframe:
            registry.counter("vo_keyframe_insertions_total",
                             "Keyframes inserted by the tracker").inc()
        if result.lm is not None:
            registry.histogram(
                "vo_frame_features",
                "Features extracted per frame").observe(
                    result.num_features)
        return result

    def _finish(self, result: FrameResult, frame_span) -> FrameResult:
        frame_span.set_attr("is_keyframe", result.is_keyframe)
        frame_span.set_attr("health", result.health)
        if result.events:
            frame_span.set_attr("events", list(result.events))
        self.state.n_frames += 1
        self.state.last_pose = result.pose
        self.results.append(result)
        return result

    def _process(self, gray: np.ndarray, depth: np.ndarray,
                 timestamp: float, frame_span) -> FrameResult:
        cfg = self.config
        events: List[str] = []
        if cfg.validate_inputs:
            check = validate_frame(gray, depth)
            registry = get_registry()
            for event in check.events:
                kind, _, reason = event.partition(":")
                registry.counter(
                    "vo_frames_repaired_total" if kind == "repaired"
                    else "vo_frames_rejected_total",
                    "Input frames repaired/rejected by validation, "
                    "by reason").inc(reason=reason)
            if not check.ok:
                return self._rejected_input(timestamp, check.events,
                                            frame_span)
            gray, depth = check.gray, check.depth
            events.extend(check.events)

        pyramid = build_pyramid(gray, depth, cfg.pyramid_levels)
        edge_map = self._frontends[0].detect(pyramid[0][0])
        features = extract_features(edge_map, pyramid[0][1],
                                    cfg.max_features, cfg.min_depth,
                                    cfg.max_depth)

        if self.state.keyframe is None:
            self._make_keyframe(pyramid, SE3.identity(), edge_map)
            self._mark_healthy()
            result = FrameResult(pose=SE3.identity(), is_keyframe=True,
                                 lm=None, num_features=len(features),
                                 timestamp=timestamp, health=OK,
                                 events=tuple(events))
            return self._finish(result, frame_span)

        if self.state.health == LOST:
            return self._relocalize(pyramid, edge_map, features,
                                    timestamp, events, frame_span)

        # Initialize from the last relative pose.  At 30 fps the
        # inter-frame motion is a few millimetres, well inside the LM
        # convergence basin; constant-velocity extrapolation is riskier
        # (an overshoot near a motion reversal can land in a wrong DT
        # basin and corrupt the next keyframe).
        rel_pose, stats = self._estimate(pyramid, features,
                                         self.state.last_rel)
        pose_world = self.state.keyframe.pose_world @ rel_pose
        signals = divergence_signals(stats, self._prev_world(),
                                     pose_world, cfg)

        if signals == ("feature-collapse",) and not events:
            # The solver starved on an otherwise clean frame: hold the
            # pose and re-anchor (the pre-health-machine recovery, kept
            # bit-identical).  The health machine still records it.
            rel_pose = self.state.last_rel
            pose_world = self.state.keyframe.pose_world @ rel_pose
            self._make_keyframe(pyramid, pose_world, edge_map)
            health = self._mark_degraded(["feature-collapse"])
            result = FrameResult(pose=pose_world, is_keyframe=True,
                                 lm=stats, num_features=len(features),
                                 timestamp=timestamp, health=health,
                                 events=tuple(events) +
                                 ("signal:feature-collapse",
                                  "reanchored"))
            return self._finish(result, frame_span)

        if signals:
            # Untrustworthy solve (or solver starvation on a repaired
            # frame): discard it, coast on the motion model, and never
            # anchor a keyframe on suspect data.
            return self._motion_fallback(stats, len(features),
                                         timestamp, events, signals,
                                         frame_span)

        prev_world = self._prev_world()
        if prev_world is not None:
            self.state.last_delta = prev_world.inverse() @ pose_world
        self._mark_healthy()

        is_keyframe = self._needs_keyframe(rel_pose, stats,
                                           len(features))
        if is_keyframe:
            self._make_keyframe(pyramid, pose_world, edge_map)
        else:
            self.state.last_rel = rel_pose

        frame_span.set_attr("num_features", len(features))
        result = FrameResult(pose=pose_world, is_keyframe=is_keyframe,
                             lm=stats, num_features=len(features),
                             timestamp=timestamp, health=OK,
                             events=tuple(events))
        return self._finish(result, frame_span)

    # -- recovery policies -----------------------------------------------

    def _rejected_input(self, timestamp: float, events, frame_span
                        ) -> FrameResult:
        """The frame never reached a frontend: coast on the model."""
        pose_world = self._predicted_world()
        if self.state.keyframe is not None:
            self.state.last_rel = \
                self.state.keyframe.pose_world.inverse() @ pose_world
        health = self._mark_degraded(["rejected-input"])
        result = FrameResult(pose=pose_world, is_keyframe=False,
                             lm=None, num_features=0,
                             timestamp=timestamp, health=health,
                             events=tuple(events) +
                             ("fallback:motion-model",))
        return self._finish(result, frame_span)

    def _motion_fallback(self, stats, n_features: int, timestamp: float,
                         events, signals, frame_span) -> FrameResult:
        """Replace a diverged solve with the constant-velocity pose."""
        pose_world = self._predicted_world()
        self.state.last_rel = \
            self.state.keyframe.pose_world.inverse() @ pose_world
        health = self._mark_degraded(signals)
        result = FrameResult(pose=pose_world, is_keyframe=False,
                             lm=stats, num_features=n_features,
                             timestamp=timestamp, health=health,
                             events=tuple(events) +
                             tuple(f"signal:{s}" for s in signals) +
                             ("fallback:motion-model",))
        return self._finish(result, frame_span)

    def _relocalize(self, pyramid, edge_map, features, timestamp: float,
                    events, frame_span) -> FrameResult:
        """LOST: re-align against the recent keyframes, newest first.

        The newest candidate is tried with the last relative pose (the
        status-quo alignment); older ones with the held world pose
        mapped into their frame.  A candidate matches when its solve
        keeps enough features and lands under ``reloc_max_error``.
        Failing every candidate, the tracker re-anchors a fresh
        keyframe at the held pose -- tracking continues, permanently
        offset at worst, instead of dying.
        """
        cfg = self.config
        frontend = self._frontends[0]
        feats = frontend.make_features(features)
        held_world = self.state.keyframe.pose_world @ self.state.last_rel
        registry = get_registry()
        reloc_ctr = registry.counter(
            "vo_relocalizations_total",
            "Relocalization attempts while LOST, by outcome")

        candidates = list(reversed(self.state.recent_keyframes))
        for rank, kf in enumerate(candidates):
            init = self.state.last_rel if rank == 0 else \
                kf.pose_world.inverse() @ held_world
            pose, stats = lm_estimate(frontend, feats,
                                      self.keyframe_maps(kf), init, cfg)
            if stats.lost or stats.final_error > cfg.reloc_max_error:
                continue
            reloc_ctr.inc(outcome="matched")
            self.state.keyframe = kf
            pose_world = kf.pose_world @ pose
            prev_world = self._prev_world()
            if prev_world is not None:
                self.state.last_delta = prev_world.inverse() @ pose_world
            self.state.degraded_streak = 0
            self._set_health(DEGRADED)  # one clean frame promotes to OK
            is_keyframe = self._needs_keyframe(pose, stats,
                                               len(features))
            if is_keyframe:
                self._make_keyframe(pyramid, pose_world, edge_map)
            else:
                self.state.last_rel = pose
            result = FrameResult(
                pose=pose_world, is_keyframe=is_keyframe, lm=stats,
                num_features=len(features), timestamp=timestamp,
                health=DEGRADED,
                events=tuple(events) + (f"relocalized:rank{rank}",))
            return self._finish(result, frame_span)

        # No candidate matched: re-anchor at the held pose and keep
        # going (the legacy lost recovery).
        reloc_ctr.inc(outcome="reanchored")
        self._make_keyframe(pyramid, held_world, edge_map)
        self.state.degraded_streak = 0
        self._set_health(DEGRADED)
        result = FrameResult(pose=held_world, is_keyframe=True,
                             lm=None, num_features=len(features),
                             timestamp=timestamp, health=DEGRADED,
                             events=tuple(events) +
                             ("reloc-failed", "reanchored"))
        return self._finish(result, frame_span)
