"""Per-client tracker state with idle eviction.

A *session* is one client's tracking stream: its
:class:`~repro.vo.tracker.TrackerState` (keyframe, last relative and
world poses, frame count; no per-frame history) plus bookkeeping.
The :class:`SessionManager` keys sessions by a caller-chosen string
id and enforces two bounds:

* **Idle eviction** -- a session untouched for ``idle_timeout_s`` is
  dropped on the next sweep.  A client that resubmits after eviction
  gets a *fresh* :class:`~repro.vo.tracker.TrackerState` under a new
  generation number, so a stale keyframe or pose can never leak into
  the new stream (the first frame re-anchors as a keyframe at
  identity, exactly like a cold start).
* **Capacity eviction** -- at ``max_sessions`` the least recently
  active idle session makes room; if every session is busy the create
  fails rather than silently dropping someone's in-flight state.

Sessions marked busy (checked out by a pool worker) are never evicted.
Generation counters are persistent per id: they only ever grow, so a
``(sid, generation)`` pair uniquely names one incarnation of a stream
across evictions.

Sessions also carry a **checkpoint**: a structural snapshot of the
tracker state (:meth:`~repro.vo.tracker.TrackerState.checkpoint`)
taken at the last good keyframe (:meth:`SessionManager.save_checkpoint`).
When a worker fails a frame terminally -- device fault storm, tracker
exception past the retry budget -- it restores the session from that
checkpoint (:meth:`SessionManager.restore_checkpoint`), so the stream
resumes from the last good keyframe instead of resetting to a cold
start.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs.metrics import get_registry
from repro.vo.health import sync_health_gauge
from repro.vo.tracker import TrackerState

__all__ = ["Session", "SessionManager"]


@dataclass
class Session:
    """One client stream's state and bookkeeping."""

    sid: str
    generation: int
    state: TrackerState = field(default_factory=TrackerState)
    created_at: float = 0.0
    last_active: float = 0.0
    frames: int = 0
    #: Highest caller-assigned sequence number whose outcome this
    #: session's state reflects -- the *settled* watermark.  A worker
    #: settles every frame it runs: applied ones and terminally failed
    #: ones alike, because the rollback to the last good keyframe is
    #: that frame's outcome.  Shed and expired frames never reach a
    #: worker, so ``frames`` (a per-process count) cannot stand in for
    #: it; the shard plane exports this as the checkpoint watermark so
    #: failover replays exactly the frames the checkpoint does not
    #: cover.  The field keeps its historical name, which is also the
    #: key session records carry.
    applied_seq: int = 0
    busy: bool = False
    #: Structural snapshot of ``state`` at the last good keyframe
    #: (``None`` until the first checkpoint).  A worker that fails a frame
    #: terminally restores from here, so the stream resumes from the
    #: last good keyframe instead of resetting to a cold start.
    checkpointed: Optional[TrackerState] = None
    #: Stream index of the frame the checkpoint was taken after.
    checkpoint_frame: int = -1
    #: Set on imported sessions: the next worker to serve this session
    #: resets its devices first, exactly like a fresh stream, so
    #: nothing carries over from the source pool.
    force_device_reset: bool = False


class SessionManager:
    """Thread-safe registry of per-client tracker states."""

    def __init__(self, idle_timeout_s: float = 60.0,
                 max_sessions: int = 64,
                 clock: Callable[[], float] = time.monotonic):
        if max_sessions < 1:
            raise ValueError("max_sessions must be positive")
        self.idle_timeout_s = idle_timeout_s
        self.max_sessions = max_sessions
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: Dict[str, Session] = {}
        #: Next generation to assign per sid; persists across eviction.
        self._generations: Dict[str, int] = {}
        registry = get_registry()
        self._evicted = registry.counter(
            "serve_sessions_evicted_total",
            "Sessions evicted, by reason (idle or capacity)")
        self._active_gauge = registry.gauge(
            "serve_sessions_active", "Sessions currently resident")
        self._checkpoints = registry.counter(
            "serve_session_checkpoints_total",
            "Session tracker-state checkpoints taken")
        self._restores = registry.counter(
            "serve_session_restores_total",
            "Sessions restored from their last checkpoint")

    # -- internal helpers (lock held) -----------------------------------

    def _evict(self, sid: str, reason: str) -> None:
        del self._sessions[sid]
        self._evicted.inc(reason=reason)
        self._active_gauge.set(len(self._sessions))

    def _sweep_idle(self, now: float) -> None:
        if self.idle_timeout_s is None:
            return
        stale = [s.sid for s in self._sessions.values()
                 if not s.busy and
                 now - s.last_active > self.idle_timeout_s]
        for sid in stale:
            self._evict(sid, "idle")

    def _make_room(self) -> None:
        if len(self._sessions) < self.max_sessions:
            return
        idle = [s for s in self._sessions.values() if not s.busy]
        if not idle:
            raise RuntimeError(
                f"all {self.max_sessions} sessions are busy; "
                f"cannot admit a new one")
        victim = min(idle, key=lambda s: s.last_active)
        self._evict(victim.sid, "capacity")

    def _get_or_create(self, sid: str, now: float) -> Session:
        session = self._sessions.get(sid)
        if session is None:
            self._sweep_idle(now)
            self._make_room()
            generation = self._generations.get(sid, 0)
            self._generations[sid] = generation + 1
            session = Session(sid=sid, generation=generation,
                              created_at=now, last_active=now)
            self._sessions[sid] = session
            self._active_gauge.set(len(self._sessions))
        return session

    # -- public surface --------------------------------------------------

    def touch(self, sid: str) -> Session:
        """Get or (re)create the session, refreshing its activity time.

        Also sweeps idle sessions, so eviction needs no background
        thread -- any admission traffic drives it.
        """
        with self._lock:
            now = self._clock()
            self._sweep_idle(now)
            session = self._get_or_create(sid, now)
            session.last_active = now
            return session

    def checkout(self, sid: str) -> Session:
        """Claim the session for processing (workers call this).

        Marks it busy so eviction cannot race the worker; creates a
        fresh session if it was evicted while the frame sat in the
        queue.
        """
        with self._lock:
            session = self._get_or_create(sid, self._clock())
            session.busy = True
            return session

    def checkin(self, session: Session,
                applied_seq: Optional[int] = None) -> None:
        """Return a checked-out session after processing one frame.

        ``applied_seq`` is the frame's sequence number: the settled
        watermark advances to it whether the frame applied or rolled
        back, and never moves backwards on an out-of-order checkin;
        ``None`` leaves it alone.
        """
        with self._lock:
            session.busy = False
            session.frames += 1
            if applied_seq is not None:
                session.applied_seq = max(session.applied_seq,
                                          int(applied_seq))
            session.last_active = self._clock()

    def save_checkpoint(self, session: Session) -> None:
        """Snapshot the session's tracker state (workers call this
        after a frame that anchored a keyframe while healthy)."""
        with self._lock:
            session.checkpointed = session.state.checkpoint()
            session.checkpoint_frame = session.state.n_frames - 1
            self._checkpoints.inc()

    def restore_checkpoint(self, session: Session) -> bool:
        """Roll the session back to its last checkpoint.

        Returns False (and leaves the state untouched) when no
        checkpoint was ever taken.  The checkpoint itself survives,
        so repeated failures keep restoring the same good state.
        """
        with self._lock:
            if session.checkpointed is None:
                return False
            session.state.restore(session.checkpointed)
            # The restore rewinds the *observable* health state too:
            # without this, the vo_tracking_state gauge keeps showing
            # the pre-restore health (e.g. DEGRADED) even though the
            # restored state is healthy again.
            sync_health_gauge(session.state.health)
            self._restores.inc()
            return True

    # -- export / import (the session record) ----------------------------

    def export_session(self, sid: str) -> dict:
        """Detached record of one resident session.

        Everything another :class:`SessionManager` needs to resume the
        stream bit-identically: the tracker state and checkpoint
        (field copies: later frames never change the record, and it
        shares only the keyframes and poses that ``process`` replaces
        but never mutates), the stream counters, and the generation
        watermark (so the importing manager can never reuse a
        generation this id already had).
        Wall-clock bookkeeping (``created_at``/``last_active``) is
        deliberately excluded: it is meaningless across processes and
        would make equal states hash unequal.

        Raises ``KeyError`` for an unknown sid and ``RuntimeError``
        while the session is checked out by a worker -- quiesce first.
        """
        with self._lock:
            session = self._sessions.get(sid)
            if session is None:
                raise KeyError(f"unknown session {sid!r}")
            if session.busy:
                raise RuntimeError(
                    f"session {sid!r} is checked out by a worker; "
                    f"quiesce before exporting")
            return {
                "sid": session.sid,
                "generation": session.generation,
                "frames": session.frames,
                "applied_seq": session.applied_seq,
                "state": session.state.checkpoint(),
                "checkpointed": (None if session.checkpointed is None
                                 else session.checkpointed.checkpoint()),
                "checkpoint_frame": session.checkpoint_frame,
                "next_generation": self._generations.get(
                    sid, session.generation + 1),
            }

    def import_session(self, record: dict) -> Session:
        """Admit an exported session record under its original identity.

        The session resumes with its exported generation (a migrated
        stream is the *same* incarnation, not a new one) while the
        generation watermark is raised to the record's, so a later
        evict/recreate cycle still gets a fresh generation.  The
        record's states are copied in structurally, so importing the
        same record twice (e.g. into a control and a target pool)
        yields independent sessions.  The next frame resets the serving
        worker's devices (``force_device_reset``): no device state
        travels with a record.
        """
        with self._lock:
            sid = record["sid"]
            if sid in self._sessions:
                raise ValueError(f"session {sid!r} is already resident")
            now = self._clock()
            self._sweep_idle(now)
            self._make_room()
            state = TrackerState().restore(record["state"])
            checkpointed = record["checkpointed"]
            if checkpointed is not None:
                checkpointed = TrackerState().restore(checkpointed)
            session = Session(
                sid=sid, generation=record["generation"], state=state,
                created_at=now, last_active=now,
                frames=record["frames"],
                applied_seq=int(record["applied_seq"]),
                checkpointed=checkpointed,
                checkpoint_frame=record["checkpoint_frame"],
                force_device_reset=True)
            self._sessions[sid] = session
            self._generations[sid] = max(
                self._generations.get(sid, 0),
                record["next_generation"])
            self._active_gauge.set(len(self._sessions))
            sync_health_gauge(state.health)
            return session

    def remove(self, sid: str, reason: str = "migrated") -> bool:
        """Drop a resident idle session (the source side of a
        migration); returns False when it is absent or busy."""
        with self._lock:
            session = self._sessions.get(sid)
            if session is None or session.busy:
                return False
            self._evict(sid, reason)
            return True

    def sids(self) -> list:
        """Resident session ids (stable snapshot, sorted)."""
        with self._lock:
            return sorted(self._sessions)

    def get(self, sid: str) -> Optional[Session]:
        """Look up a resident session without touching it."""
        with self._lock:
            return self._sessions.get(sid)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict:
        """Point-in-time session statistics."""
        with self._lock:
            return {
                "active": len(self._sessions),
                "max_sessions": self.max_sessions,
                "idle_timeout_s": self.idle_timeout_s,
                "busy": sum(1 for s in self._sessions.values()
                            if s.busy),
                "evicted_total": int(self._evicted.total()),
                "checkpoints_total": int(self._checkpoints.total()),
                "restores_total": int(self._restores.total()),
            }
