"""Record/replay: per-session inbound-frame capture + offline replay.

The serving stack is deterministic: a session's trajectory is a pure
function of its inbound frame stream (PR 3's solo bit-identity gate is
exactly that statement).  So an *incident* -- a breaker trip, an
unrecovered chaos session, a mysterious trajectory -- is fully
reproducible offline from nothing but the frames the service received.

:class:`CaptureRing` is the always-on recorder: a bounded per-session
ring of ``(gray, depth, timestamp)`` inbound frames paired with the
live outcome of each (pose, health, events, device cycles, span
count).  :meth:`CaptureRing.bundle` freezes the rings into a
``repro.snap/1`` document (kind ``capture``); the ring also registers
as a flight-recorder dump hook, so every breaker-open incident bundle
gains a ``*_replay.json`` sibling that re-executes.

:func:`replay_bundle` is the offline side: it rebuilds a solo
:class:`~repro.vo.tracker.EBVOTracker` from the captured
configuration, re-feeds the frames in order -- under the tracer, when
tracing is enabled -- and compares every frame bit-exactly against the
live outcomes: poses (exact array equality), per-frame device-cycle
ledger deltas, health/events, and kernel span counts.  Replay walks
each stream **to the exact faulting frame**: a frame the live run
failed terminally ends that stream's replay (the live service restored
the session from its checkpoint there, so later live frames are not a
pure function of the inbound stream alone).

Two limitations are explicit rather than silent: a stream whose ring
overflowed (``dropped > 0``) is not replayable from its start and is
reported as such, and a live failure caused by *device-level* fault
injection (as opposed to corrupt inbound frames, which replay exactly)
will not reproduce on the clean offline device -- the report marks the
faulting frame ``reproduced: false`` instead of pretending.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.snap.codec import (
    decode,
    encode,
    load_snapshot,
    make_snapshot,
    verify_snapshot,
    write_snapshot,
)

__all__ = ["CaptureRing", "ReplayReport", "replay_bundle",
           "CAPTURE_KIND"]

#: ``kind`` field of capture-bundle documents.
CAPTURE_KIND = "capture"

#: Span categories that belong to the serving plane, not the compute
#: path; excluded from the per-frame span counts so live and replay
#: counts are comparable.
_SERVE_CATEGORIES = ("serve", "replay")


def _compute_span_count(tracer, trace_id: int) -> Optional[int]:
    """Frame/kernel spans of one trace (None when untraced)."""
    if not trace_id:
        return None
    return sum(1 for s in tracer.spans_for_trace(trace_id)
               if s.category not in _SERVE_CATEGORIES)


class CaptureRing:
    """Bounded per-session ring of inbound frames + live outcomes.

    ``capacity`` bounds the frames kept *per session*; overflow drops
    the oldest (counted -- a truncated stream is flagged not fully
    replayable).  Recording copies the inbound arrays, so the ring
    never aliases caller buffers.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._streams: Dict[str, deque] = {}
        self._dropped: Dict[str, int] = {}
        #: Highest sequence number pruned per session (see
        #: :meth:`prune`): pruned frames were covered by a checkpoint,
        #: so unlike ``dropped`` they do not hurt replayability from
        #: that checkpoint onward.
        self._pruned: Dict[str, int] = {}
        self._frontend: Optional[str] = None
        self._config = None
        self.seeds = None

    def bind(self, frontend: str, config) -> None:
        """Attach the service configuration bundles will embed."""
        self._frontend = frontend
        self._config = config

    # -- recording -------------------------------------------------------

    def record(self, session: str, seq: int, gray, depth,
               timestamp: float, outcome: dict) -> None:
        """Append one completed frame and its live outcome.

        A skipped frame passes ``None`` arrays: it never reached the
        tracker, so there is nothing to replay.
        """
        record = {
            "seq": int(seq),
            "timestamp": float(timestamp),
            "gray": None if gray is None else np.array(gray, copy=True),
            "depth": None if depth is None
            else np.array(depth, copy=True),
            "outcome": outcome,
        }
        with self._lock:
            stream = self._streams.get(session)
            if stream is None:
                stream = deque(maxlen=self.capacity)
                self._streams[session] = stream
                self._dropped[session] = 0
            if len(stream) == stream.maxlen:
                self._dropped[session] += 1
            stream.append(record)

    @staticmethod
    def ok_outcome(result, span_count: Optional[int] = None) -> dict:
        """Live outcome of a successful frame (a ``TrackResult``)."""
        return {
            "kind": "ok",
            "pose": result.pose,
            "frame_index": int(result.frame_index),
            "is_keyframe": bool(result.is_keyframe),
            "health": result.health,
            "events": list(result.events),
            "device_cycles": int(result.device_cycles),
            "lm_iterations": int(result.lm_iterations),
            "num_features": int(result.num_features),
            "retries": int(result.retries),
            "span_count": span_count,
        }

    @staticmethod
    def error_outcome(exc: BaseException) -> dict:
        """Live outcome of a terminally failed frame."""
        return {
            "kind": "error",
            "error": type(exc).__name__,
            "message": str(exc),
        }

    @staticmethod
    def skipped_outcome(exc: BaseException) -> dict:
        """Live outcome of a frame shed or expired before it touched
        the session state (``Backpressure`` / ``DeadlineExceeded``)."""
        return {"kind": "skipped", "error": type(exc).__name__}

    # -- failover tails --------------------------------------------------

    def tail(self, session: str, after_seq: int) -> List[dict]:
        """Recorded frames of ``session`` with ``seq > after_seq``.

        The shard router's failover path reads this: everything the
        session completed after its last checkpoint watermark, in
        recording order, each entry a copy-safe reference to the
        stored record (callers must not mutate the arrays).  Unknown
        sessions yield an empty tail.
        """
        with self._lock:
            stream = self._streams.get(session)
            if stream is None:
                return []
            return [rec for rec in stream
                    if rec["seq"] > int(after_seq)]

    def prune(self, session: str, upto_seq: int) -> int:
        """Drop frames with ``seq <= upto_seq`` (checkpoint covered).

        Bounds the ring's memory between checkpoints without charging
        the ``dropped`` counter -- a pruned prefix is recoverable from
        the checkpoint, an overflow-dropped one is not.  Returns the
        number of frames pruned.
        """
        upto_seq = int(upto_seq)
        with self._lock:
            stream = self._streams.get(session)
            if stream is None:
                return 0
            kept = [rec for rec in stream if rec["seq"] > upto_seq]
            pruned = len(stream) - len(kept)
            if pruned:
                stream.clear()
                stream.extend(kept)
                self._pruned[session] = max(
                    self._pruned.get(session, 0), upto_seq)
            return pruned

    def pruned_watermark(self, session: str) -> int:
        """Highest sequence number pruned for ``session`` (0 if none)."""
        with self._lock:
            return self._pruned.get(session, 0)

    # -- bundles ---------------------------------------------------------

    def sessions(self) -> List[str]:
        with self._lock:
            return sorted(self._streams)

    def stats(self) -> dict:
        with self._lock:
            return {
                "sessions": len(self._streams),
                "capacity": self.capacity,
                "frames": sum(len(s) for s in self._streams.values()),
                "dropped": dict(self._dropped),
                "pruned": dict(self._pruned),
            }

    def bundle(self, sessions: Optional[List[str]] = None,
               reason: str = "", **context) -> dict:
        """Freeze the rings into a verifiable replay bundle."""
        with self._lock:
            picked = sorted(self._streams) if sessions is None \
                else [s for s in sessions if s in self._streams]
            streams = []
            for sid in picked:
                streams.append({
                    "session": sid,
                    "dropped": int(self._dropped.get(sid, 0)),
                    "frames": [encode(rec)
                               for rec in self._streams[sid]],
                })
            frontend = self._frontend
            config = self._config
            seeds = self.seeds
        sections = {
            "meta": {
                "frontend": frontend,
                "config": encode(config),
                "capacity": self.capacity,
                "complete": all(s["dropped"] == 0 for s in streams),
            },
            "streams": streams,
            "rng": {"seeds": encode(seeds)},
        }
        return make_snapshot(CAPTURE_KIND, sections, reason=reason,
                             **context)

    def dump(self, path, sessions: Optional[List[str]] = None,
             reason: str = "", **context) -> Path:
        """Atomically write :meth:`bundle` to ``path``."""
        return write_snapshot(
            path, self.bundle(sessions, reason=reason, **context))

    def dump_hook(self, path, reason: str,
                  context: dict) -> Optional[Path]:
        """Flight-recorder dump hook: co-dump a replay bundle.

        Registered via ``FlightRecorder.attach_dump_hook``; every
        incident bundle the recorder writes gains a replayable
        ``<name>_replay.json`` sibling.
        """
        path = Path(path)
        sibling = path.with_name(path.stem + "_replay.json")
        return self.dump(sibling, reason=reason, **context)

    def reset(self) -> None:
        with self._lock:
            self._streams.clear()
            self._dropped.clear()
            self._pruned.clear()


# -- offline replay -------------------------------------------------------

@dataclass
class ReplayReport:
    """Outcome of replaying one capture bundle offline.

    ``ok`` is True when every replayed OK frame matched the live run
    bit-exactly (pose arrays, health, events, keyframe decisions,
    device-cycle deltas, and span counts where both sides were
    traced).  Faulting frames and truncated streams are reported in
    ``faults`` / ``sessions`` rather than folded into ``ok``.
    """

    ok: bool
    frames_replayed: int
    frames_recorded: int
    recorded_device_cycles: int
    replayed_device_cycles: int
    sessions: List[dict] = field(default_factory=list)
    mismatches: List[dict] = field(default_factory=list)
    #: Terminal live failures, with whether replay reproduced an
    #: error at the same frame.
    faults: List[dict] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"replayed {self.frames_replayed}/{self.frames_recorded} "
            f"frames across {len(self.sessions)} sessions: "
            f"{'BIT-EXACT' if self.ok else 'MISMATCH'}",
            f"device cycles: recorded {self.recorded_device_cycles} "
            f"replayed {self.replayed_device_cycles}",
        ]
        for miss in self.mismatches[:10]:
            lines.append(
                f"  mismatch {miss['session']}[{miss['index']}]: "
                f"{miss['field']}")
        for fault in self.faults:
            lines.append(
                f"  fault {fault['session']}[{fault['index']}]: "
                f"{fault['error']} "
                f"(reproduced: {fault['reproduced']})")
        return "\n".join(lines)


def _frame_cycles(tracker) -> int:
    total = 0
    for frontend in getattr(tracker, "_frontends",
                            [tracker.frontend]):
        for dev in getattr(frontend, "_detect_devices", {}).values():
            total += dev.ledger.cycles
    return total


def _compare_frame(session: str, index: int, outcome: dict,
                   frame, cycles: int,
                   span_count: Optional[int]) -> List[dict]:
    """Field-by-field bit comparison of one replayed frame."""
    mismatches = []

    def check(name, match):
        if not match:
            mismatches.append({"session": session, "index": index,
                               "field": name})

    pose = outcome["pose"]
    check("pose", np.array_equal(pose.R, frame.pose.R) and
          np.array_equal(pose.t, frame.pose.t))
    check("is_keyframe",
          bool(outcome["is_keyframe"]) == bool(frame.is_keyframe))
    check("health", outcome["health"] == frame.health)
    check("events", list(outcome["events"]) == list(frame.events))
    check("num_features",
          int(outcome["num_features"]) == int(frame.num_features))
    check("lm_iterations",
          int(outcome["lm_iterations"]) ==
          (frame.lm.iterations if frame.lm else 0))
    check("device_cycles", int(outcome["device_cycles"]) == cycles)
    recorded_spans = outcome.get("span_count")
    if recorded_spans is not None and span_count is not None:
        check("span_count", int(recorded_spans) == span_count)
    return mismatches


def replay_bundle(bundle, stop_on_mismatch: bool = False
                  ) -> ReplayReport:
    """Re-execute a capture bundle offline and compare bit-exactly.

    ``bundle`` is a path or an already-loaded document; either way it
    is integrity-verified before anything executes.  Each stream gets
    its own fresh solo tracker (mirroring a pool worker serving the
    session from its first frame) and is fed its frames in recorded
    order.  When tracing is enabled each frame runs under a
    ``replay_frame`` root span, so the incident's compute tree is
    inspectable with the PR 2 trace tooling.
    """
    from repro.obs.tracer import get_tracer, tracing_enabled
    from repro.vo.frontend import FloatFrontend, PIMFrontend
    from repro.vo.tracker import EBVOTracker

    if isinstance(bundle, (str, Path)):
        bundle = load_snapshot(bundle, kind=CAPTURE_KIND)
    else:
        verify_snapshot(bundle, kind=CAPTURE_KIND)
    meta = bundle["sections"]["meta"]
    config = decode(meta["config"])
    frontend_cls = {"float": FloatFrontend,
                    "pim": PIMFrontend}[meta["frontend"]]

    report = ReplayReport(ok=True, frames_replayed=0,
                          frames_recorded=0,
                          recorded_device_cycles=0,
                          replayed_device_cycles=0)
    tracer = get_tracer()
    for stream in bundle["sections"]["streams"]:
        sid = stream["session"]
        tracker = EBVOTracker(frontend_cls(config), config)
        session_row = {
            "session": sid,
            "frames": len(stream["frames"]),
            "dropped": int(stream["dropped"]),
            "replayable": int(stream["dropped"]) == 0,
            "replayed": 0,
            "final_pose_match": None,
        }
        report.frames_recorded += len(stream["frames"])
        if stream["dropped"]:
            # The ring overflowed: the stream's prefix is gone, so a
            # from-scratch replay cannot be bit-exact.  Report, skip.
            report.sessions.append(session_row)
            continue
        for index, raw in enumerate(stream["frames"]):
            rec = decode(raw)
            outcome = rec["outcome"]
            before = _frame_cycles(tracker)
            error: Optional[BaseException] = None
            frame = None
            span_count = None
            if tracing_enabled():
                # A *context-manager* span: the tracker's compute
                # spans nest under it on this thread's stack, exactly
                # as they nest under the worker's track span live.
                with tracer.span("replay_frame", category="replay",
                                 session=sid, index=index) as tspan:
                    try:
                        frame = tracker.process(
                            rec["gray"], rec["depth"],
                            rec["timestamp"])
                    except Exception as exc:  # noqa: BLE001
                        error = exc
                    tspan.set_attr("outcome",
                                   "error" if error else "ok")
                    trace_id = tspan.context.trace_id
                # The replay_frame root is category "replay", so the
                # serving-plane filter excludes it: the count covers
                # exactly the compute spans, like the live side.
                span_count = _compute_span_count(tracer, trace_id)
            else:
                try:
                    frame = tracker.process(rec["gray"], rec["depth"],
                                            rec["timestamp"])
                except Exception as exc:  # noqa: BLE001 -- as worker
                    error = exc
            cycles = _frame_cycles(tracker) - before
            if outcome["kind"] == "error":
                # The exact faulting frame: the live run failed
                # terminally here and restored from checkpoint, so
                # this stream's replay ends at this frame.
                report.faults.append({
                    "session": sid, "index": index,
                    "error": outcome["error"],
                    "reproduced": error is not None,
                    "replay_error": type(error).__name__
                    if error else None,
                })
                session_row["replayed"] = index + 1
                report.frames_replayed += 1
                break
            if error is not None:
                # Live succeeded, replay failed: a hard mismatch.
                report.mismatches.append({
                    "session": sid, "index": index,
                    "field": f"unexpected_error:{type(error).__name__}",
                })
                report.ok = False
                session_row["replayed"] = index + 1
                report.frames_replayed += 1
                break
            report.recorded_device_cycles += \
                int(outcome["device_cycles"])
            report.replayed_device_cycles += cycles
            mismatches = _compare_frame(sid, index, outcome, frame,
                                        cycles, span_count)
            session_row["replayed"] = index + 1
            session_row["final_pose_match"] = not any(
                m["field"] == "pose" for m in mismatches)
            report.frames_replayed += 1
            if mismatches:
                report.mismatches.extend(mismatches)
                report.ok = False
                if stop_on_mismatch:
                    break
        report.sessions.append(session_row)
    return report
