"""The synchronous serving facade: ``VOService.submit(...)``.

``VOService`` wires the three serving components together -- a
:class:`~repro.serve.session.SessionManager` for per-client state, a
:class:`~repro.serve.scheduler.FifoScheduler` for admission and
dispatch, and a :class:`~repro.serve.pool.DevicePool` of tracker
workers -- behind one blocking call::

    with VOService(workers=4, frontend="pim") as svc:
        result = svc.submit("client-7", gray, depth)

``submit`` raises :class:`~repro.serve.scheduler.Backpressure` when
the admission queue is full; the exception carries a ``retry_after_s``
hint and the client owns the retry (see
:mod:`repro.serve.loadgen` for a retrying client).  A per-request
deadline (``deadline_s``) bounds how long a frame may sit in the queue
before it fails with
:class:`~repro.serve.scheduler.DeadlineExceeded`.

Frames submitted under one session id execute strictly in submission
order against that session's own tracker state, so a session's
trajectory is bit-identical to running its frames through a solo
:class:`~repro.vo.tracker.EBVOTracker` -- regardless of how many other
sessions interleave or which worker serves each frame.

``close`` is idempotent and exception-safe: it always joins the
workers and then fails any still-queued futures, so no client blocks
forever on a frame that will never run.  :meth:`VOService.stats`
doubles as the health check -- its ``health`` section summarises
circuit-breaker states, queue saturation, and checkpoint restores,
and :meth:`VOService.healthy` reduces it to one bool.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import List, Optional

import numpy as np

from repro.obs.flight import FlightRecorder
from repro.obs.slo import SloEngine, SloTargets
from repro.obs.tracer import get_tracer
from repro.serve.pool import DevicePool, TrackResult
from repro.serve.scheduler import (
    Backpressure,
    DeadlineExceeded,
    FifoScheduler,
    WorkItem,
)
from repro.serve.session import SessionManager
from repro.vo.config import TrackerConfig
from repro.vo.frontend import FloatFrontend, PIMFrontend
from repro.vo.tracker import EBVOTracker

__all__ = ["VOService"]

_FRONTENDS = {"float": FloatFrontend, "pim": PIMFrontend}


class VOService:
    """Multi-session VO serving: sessions + scheduler + device pool."""

    def __init__(self, workers: int = 2, frontend: str = "pim",
                 config: Optional[TrackerConfig] = None,
                 max_queue: int = 64,
                 idle_timeout_s: float = 60.0, max_sessions: int = 64,
                 min_service_s: float = 0.0,
                 device_clock_hz: Optional[float] = None,
                 max_retries: int = 1,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 0.25,
                 program_store=None,
                 slo_window_s: float = 60.0,
                 slo_targets: Optional[SloTargets] = None,
                 flight: Optional[FlightRecorder] = None,
                 incident_dir=None,
                 capture=None):
        if frontend not in _FRONTENDS:
            raise ValueError(
                f"unknown frontend {frontend!r}; choose from "
                f"{sorted(_FRONTENDS)}")
        # A persistent program store (a ProgramStore instance or a
        # directory path) layers under the process-wide kernel program
        # cache: every worker warm-starts from programs recorded by
        # any earlier process sharing the directory.
        self.program_store = None
        if program_store is not None:
            from repro.kernels.common import KERNEL_PROGRAM_CACHE
            from repro.pim.store import ProgramStore
            if not isinstance(program_store, ProgramStore):
                program_store = ProgramStore(program_store)
            self.program_store = program_store
            KERNEL_PROGRAM_CACHE.attach_store(program_store)
        if config is None:
            config = TrackerConfig()
        self.config = config
        self.frontend = frontend
        frontend_cls = _FRONTENDS[frontend]
        self.sessions = SessionManager(idle_timeout_s=idle_timeout_s,
                                       max_sessions=max_sessions)
        # One SLO window and one flight recorder per service: the
        # scheduler feeds in queue-side outcomes, the workers feed in
        # completions, and stats()/the status server read them out.
        self.slo = SloEngine(window_s=slo_window_s,
                             targets=slo_targets)
        self.flight = flight if flight is not None \
            else FlightRecorder()
        self.incident_dir = incident_dir
        self.scheduler = FifoScheduler(max_queue=max_queue,
                                       workers=workers,
                                       slo=self.slo,
                                       flight=self.flight)
        self.pool = DevicePool(
            workers, self.scheduler, self.sessions,
            tracker_factory=lambda: EBVOTracker(frontend_cls(config),
                                                config),
            min_service_s=min_service_s,
            device_clock_hz=device_clock_hz,
            max_retries=max_retries,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
            slo=self.slo, flight=self.flight,
            incident_dir=incident_dir)
        # Record/replay: with ``capture`` truthy every completed frame
        # (inputs + live outcome) lands in a per-session capture ring,
        # and every flight-recorder incident dump gains a replayable
        # ``*_replay.json`` sibling bundle.
        self.capture = None
        if capture:
            from repro.snap.capture import CaptureRing
            self.capture = capture if isinstance(capture, CaptureRing) \
                else CaptureRing()
            self.capture.bind(self.frontend, self.config)
            self.flight.attach_dump_hook(self.capture.dump_hook)
        self._seq_lock = threading.Lock()
        self._last_seq = 0
        self._closed = False

    # -- request sequencing ----------------------------------------------

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._last_seq += 1
            return self._last_seq

    def seq_watermark(self) -> int:
        """Highest request sequence number issued so far."""
        with self._seq_lock:
            return self._last_seq

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "VOService":
        """Start the worker pool (idempotent)."""
        try:
            self.pool.start()
        except BaseException:
            # A failed start must leave nothing running: the pool has
            # already stopped its own threads, so just mark us closed.
            self.close()
            raise
        return self

    def close(self) -> None:
        """Stop admitting, join the workers, fail pending futures.

        Idempotent and exception-safe: every stage runs even if an
        earlier one raises, so a double close (or a close after a
        failed start) can never leak worker threads or leave a client
        blocked on a future that will never complete.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.scheduler.close()
        finally:
            try:
                self.pool.stop()
            finally:
                self.scheduler.fail_pending(
                    RuntimeError("service closed"))
                if self.capture is not None:
                    self.flight.detach_dump_hook(
                        self.capture.dump_hook)

    def __enter__(self) -> "VOService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request path ------------------------------------------------

    def submit(self, session_id: str, gray: np.ndarray,
               depth: np.ndarray, timestamp: float = 0.0,
               timeout: Optional[float] = None,
               deadline_s: Optional[float] = None) -> TrackResult:
        """Track one frame for ``session_id``; blocks for the result.

        Raises :class:`~repro.serve.scheduler.Backpressure` when the
        admission queue is full (nothing was enqueued; resubmit after
        ``retry_after_s``).  With ``deadline_s`` set, a frame still
        queued that long after submission fails with
        :class:`~repro.serve.scheduler.DeadlineExceeded` instead of
        being served stale.  Any tracking error surfaces here as the
        original exception.  ``timeout`` bounds only this wait: the
        frame stays in its stream and its outcome is recorded when a
        worker settles it.
        """
        return self.submit_nowait(
            session_id, gray, depth, timestamp=timestamp,
            deadline_s=deadline_s).result(timeout)

    def submit_nowait(self, session_id: str, gray: np.ndarray,
                      depth: np.ndarray, timestamp: float = 0.0,
                      deadline_s: Optional[float] = None) -> Future:
        """Admit one frame without blocking; returns its future.

        Admission (:class:`~repro.serve.scheduler.Backpressure`) raises
        here on the caller's thread; the result -- or the failure,
        including :class:`~repro.serve.scheduler.DeadlineExceeded` --
        is delivered through the returned future.  That future
        completes only after the request span is finished, the
        capture ring holds the frame's record and any flight-recorder
        incident is filed, so whoever reads the result also sees them.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        self.sessions.touch(session_id)
        seq = self._next_seq()
        # The request root span: begun here on the client thread and
        # finished when the worker settles the frame, with the queue
        # and worker-side track spans as its children.  With tracing
        # disabled both handles are the shared no-op.
        tracer = get_tracer()
        request = tracer.begin("request", category="serve",
                               session=session_id, seq=seq)
        item = WorkItem(session=session_id, seq=seq,
                        payload=(np.asarray(gray), np.asarray(depth),
                                 float(timestamp)),
                        ctx=request.context,
                        queue_handle=tracer.begin(
                            "queue", category="serve",
                            parent=request.context,
                            session=session_id, seq=seq))
        if deadline_s is not None:
            item.deadline = self.scheduler._clock() + deadline_s
        try:
            self.scheduler.submit(item)   # may raise Backpressure
        except BaseException as exc:
            item.queue_handle.finish(outcome="rejected")
            request.finish(outcome="rejected",
                           error=type(exc).__name__)
            raise
        reply: Future = Future()

        def _settle(future: Future) -> None:
            try:
                self._finish_request(item, request, future)
            finally:
                exc = future.exception()
                if exc is not None:
                    reply.set_exception(exc)
                else:
                    reply.set_result(future.result())

        item.future.add_done_callback(_settle)
        return reply

    def _finish_request(self, item: WorkItem, request,
                        future: Future) -> None:
        """Close one settled request: its span, incident and capture."""
        exc = future.exception()
        if exc is not None:
            request.finish(outcome="error", error=type(exc).__name__)
            self._capture_incident(type(exc).__name__, item, request)
            self._capture_frame(item, error=exc)
            return
        result = future.result()
        if result.retries:
            # The request succeeded but needed worker retries: keep
            # its span tree for post-mortems all the same.
            request.finish(outcome="ok", retries=result.retries)
            self._capture_incident("retried", item, request)
        else:
            request.finish(outcome="ok")
        self._capture_frame(item, result=result, request=request)

    def _capture_frame(self, item: WorkItem, result=None, error=None,
                       request=None) -> None:
        """Record one completed frame in the capture ring (if on).

        Only frames that actually reached a worker are recorded:
        admission rejections and queue expiries never touched the
        tracker state, so they are not part of the replayable stream.
        """
        if self.capture is None:
            return
        if isinstance(error, (Backpressure, DeadlineExceeded)):
            return
        gray, depth, timestamp = item.payload
        if error is not None:
            outcome = self.capture.error_outcome(error)
        else:
            span_count = None
            ctx = request.context if request is not None else None
            if ctx is not None and ctx.trace_id:
                from repro.snap.capture import _compute_span_count
                span_count = _compute_span_count(get_tracer(),
                                                 ctx.trace_id)
            outcome = self.capture.ok_outcome(result,
                                              span_count=span_count)
        self.capture.record(item.session, item.seq, gray, depth,
                            timestamp, outcome)

    def _capture_incident(self, reason: str, item: WorkItem,
                          request) -> None:
        """Record a bad request's span tree in the flight recorder."""
        ctx = request.context
        trace_id = ctx.trace_id if ctx is not None else 0
        spans = []
        if trace_id:
            spans = [s.to_dict() for s in
                     get_tracer().spans_for_trace(trace_id)]
        self.flight.incident(reason, trace_id=trace_id,
                             session=item.session, seq=item.seq,
                             spans=spans)

    # -- shard admission and quiesce -------------------------------------

    def requeue_frame(self, session_id: str, seq: int,
                      gray: np.ndarray, depth: np.ndarray,
                      timestamp: float = 0.0,
                      deadline_s: Optional[float] = None) -> Future:
        """Enqueue a frame under a caller-assigned ``seq``, fire-and-forget.

        Unlike :meth:`submit` this neither blocks nor allocates a new
        sequence number: the frame keeps the given ``seq`` and the
        returned future completes once a worker serves it.  Shard
        workers admit router-sequenced frames this way, passing the
        client's ``deadline_s`` through so queue expiry still applies
        across the process boundary.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        item = WorkItem(session=session_id, seq=seq,
                        payload=(np.asarray(gray), np.asarray(depth),
                                 float(timestamp)))
        if deadline_s is not None:
            item.deadline = self.scheduler._clock() + deadline_s
        # The given seq is now taken: later submits must never
        # reissue it.
        with self._seq_lock:
            self._last_seq = max(self._last_seq, int(seq))
        self.scheduler.submit(item)
        return item.future

    def quiesce_session(self, session_id: str,
                        timeout_s: float = 10.0) -> List[WorkItem]:
        """Pull the session's queued frames and wait out in-flight ones.

        Returns the extracted, still-pending work items in submission
        order once no frame of the session is queued, dispatched, or
        holding the session checked out.  On timeout the extracted
        items are put back and ``TimeoutError`` is raised, so a failed
        quiesce never strands a client's future.
        """
        deadline = time.monotonic() + timeout_s
        extracted: List[WorkItem] = []
        while True:
            extracted.extend(
                self.scheduler.extract_session(session_id))
            session = self.sessions.get(session_id)
            busy = bool(session is not None and session.busy)
            if not busy and \
                    not self.scheduler.session_inflight(session_id):
                # One final sweep: a frame completing during the scan
                # may have re-exposed a later queued frame.
                tail = self.scheduler.extract_session(session_id)
                if not tail:
                    return extracted
                extracted.extend(tail)
                continue
            if time.monotonic() > deadline:
                for item in extracted:
                    self.scheduler.submit(item)
                raise TimeoutError(
                    f"session {session_id!r} did not quiesce within "
                    f"{timeout_s}s")
            time.sleep(0.002)

    # -- health ----------------------------------------------------------

    def stats(self) -> dict:
        """Scheduler, session, pool, and health stats in one dict."""
        scheduler = self.scheduler.stats()
        sessions = self.sessions.stats()
        pool = self.pool.stats()
        breakers = {w["worker"]: w["breaker"]["state"]
                    for w in pool["per_worker"]}
        saturation = scheduler["depth"] / scheduler["max_queue"]
        health = {
            "closed": self._closed,
            "breakers": breakers,
            "breakers_open": pool["breakers_open"],
            "queue_saturation": saturation,
            "retries_total": pool["retries_total"],
            "deadline_expired_total": scheduler["expired_total"],
            "checkpoint_restores_total": sessions["restores_total"],
            "healthy": (not self._closed
                        and pool["breakers_open"] < len(
                            self.pool.workers)
                        and saturation < 1.0),
        }
        stats = {
            "scheduler": scheduler,
            "sessions": sessions,
            "pool": pool,
            "health": health,
            "slo": self.slo.snapshot(),
            "flight": self.flight.stats(),
        }
        if self.program_store is not None:
            from repro.kernels.common import KERNEL_PROGRAM_CACHE
            stats["programs"] = KERNEL_PROGRAM_CACHE.stats()
        if self.capture is not None:
            stats["capture"] = self.capture.stats()
        return stats

    def healthy(self) -> bool:
        """One-bool health check: serving capacity exists right now.

        True while the service is open, at least one worker's breaker
        admits work, and the admission queue is not saturated.
        """
        return bool(self.stats()["health"]["healthy"])
