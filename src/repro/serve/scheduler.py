"""Admission queue and dispatch policy of the serving layer.

One bounded FIFO feeds every pool worker.  Two invariants shape the
dispatch loop:

* **Per-session ordering** -- at most one frame per session is in
  flight, and dispatch order is queue order among sessions not in
  flight.  A worker pull (:meth:`FifoScheduler.next_item`) hands out
  exactly one frame: the first queued item whose session is not in
  flight.  A session's earliest queued frame always precedes its later
  ones, so frames of one session execute strictly in submission order
  and never concurrently, and tracker state evolves exactly as it
  would in a solo run.
* **Explicit backpressure** -- a full queue rejects at admission with
  :class:`Backpressure` carrying a ``retry_after_s`` hint derived from
  the *observed queue drain rate* (an EMA over the intervals between
  completions across the whole pool), instead of blocking the client
  or growing without bound.  Until the first completion is observed
  the hint falls back to a service-time estimate.

Two failure-containment features ride on the queue:

* **Per-request deadlines** -- an item whose ``deadline`` (scheduler
  clock) passes while queued is expired instead of dispatched: its
  future fails with :class:`DeadlineExceeded` and the expiry is
  counted, so a stalled pool sheds load instead of serving arbitrarily
  stale frames.
* **Fail-pending** -- :meth:`FifoScheduler.fail_pending` drains every
  queued item into a caller-supplied exception; the service uses it on
  close so no client blocks forever on a future that will never run.

A frame is stamped ``dequeued_at`` only when a worker is about to run
it, so ``queue_s`` and the deadline check cover the whole wait before
execution.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Set

from repro.obs.context import NULL_HANDLE, TraceContext
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import get_registry
from repro.obs.slo import SloEngine

__all__ = ["Backpressure", "DeadlineExceeded", "WorkItem",
           "FifoScheduler"]


class Backpressure(RuntimeError):
    """Admission rejected: the queue is full.

    Attributes:
        depth: Queue depth at rejection time.
        retry_after_s: Suggested client wait before resubmitting
            (expected time for the pool to drain one slot, from the
            observed drain rate).
    """

    def __init__(self, depth: int, retry_after_s: float):
        super().__init__(
            f"admission queue full ({depth} items); "
            f"retry after {retry_after_s:.3f}s")
        self.depth = depth
        self.retry_after_s = retry_after_s


class DeadlineExceeded(RuntimeError):
    """The frame's deadline passed before a worker could take it."""

    def __init__(self, session: str, seq: int, overdue_s: float):
        super().__init__(
            f"frame {seq} of session {session!r} expired in queue "
            f"({overdue_s:.3f}s past its deadline)")
        self.session = session
        self.seq = seq
        self.overdue_s = overdue_s


@dataclass
class WorkItem:
    """One queued frame with its result future.

    ``payload`` is opaque to the scheduler (the service puts the frame
    arrays and timestamp there).
    """

    session: str
    seq: int
    payload: object
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0
    dequeued_at: float = 0.0
    #: Scheduler-clock time after which the item must not be
    #: dispatched (``None`` = no deadline).
    deadline: Optional[float] = None
    #: Trace context of the request's root span, carried to whichever
    #: worker thread tracks the frame (``None`` = untraced).
    ctx: Optional[TraceContext] = None
    #: Detached queue span: begun at admission on the client thread,
    #: finished by the scheduler at dispatch / expiry / fail-pending.
    queue_handle: object = NULL_HANDLE


class FifoScheduler:
    """Bounded FIFO with per-session ordering, one frame per pull."""

    def __init__(self, max_queue: int = 64, workers: int = 1,
                 clock: Callable[[], float] = time.monotonic,
                 slo: Optional[SloEngine] = None,
                 flight: Optional[FlightRecorder] = None):
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.max_queue = max_queue
        self.workers = max(1, workers)
        self._clock = clock
        # Optional serve-plane observability: the scheduler owns the
        # queue-side outcomes (rejections, deadline misses) while the
        # pool workers record completions.
        self.slo = slo
        self.flight = flight
        self._queue: Deque[WorkItem] = deque()
        #: Sessions with a frame dispatched and not yet done.
        self._inflight: Set[str] = set()
        self._cond = threading.Condition()
        self._closed = False
        #: EMA of per-frame service time (kept as the cold-start
        #: fallback for the retry hint and for stats).
        self._service_ema_s = 0.05
        #: EMA of the interval between successive completions across
        #: the whole pool -- the observed time for the queue to drain
        #: one slot.  ``None`` until two completions are seen.
        self._drain_ema_s: Optional[float] = None
        self._last_done_at: Optional[float] = None
        registry = get_registry()
        self._rejected = registry.counter(
            "serve_admission_rejected_total",
            "Frames rejected at admission because the queue was full")
        self._depth_gauge = registry.gauge(
            "serve_queue_depth", "Frames waiting in the admission queue")
        self._expired = registry.counter(
            "serve_deadline_expired_total",
            "Frames expired in queue past their deadline")

    # -- client side ----------------------------------------------------

    def _retry_after_s(self, depth: int) -> float:
        """Expected wait for one queue slot to free (caller holds lock).

        Derived from the observed drain rate (EMA of the interval
        between completions across the pool); before any completion
        has been observed, falls back to the service-time estimate
        divided across the workers.
        """
        if self._drain_ema_s is not None:
            return max(self._drain_ema_s, 1e-4)
        return self._service_ema_s * max(1.0, depth / self.workers)

    def submit(self, item: WorkItem) -> None:
        """Enqueue one frame or raise :class:`Backpressure`."""
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            depth = len(self._queue)
            if depth >= self.max_queue:
                self._rejected.inc()
                if self.slo is not None:
                    self.slo.record("rejected")
                if self.flight is not None:
                    self.flight.event("rejected", session=item.session,
                                      seq=item.seq, depth=depth)
                raise Backpressure(depth, self._retry_after_s(depth))
            item.enqueued_at = self._clock()
            self._queue.append(item)
            self._depth_gauge.set(len(self._queue))
            self._cond.notify()
        if self.flight is not None:
            self.flight.event("admitted", session=item.session,
                              seq=item.seq, depth=depth + 1)

    # -- worker side ----------------------------------------------------

    def _expire_overdue(self, now: float) -> None:
        """Fail queued items past their deadline (caller holds lock).

        An expired item never executes, so removing it cannot break
        per-session ordering: later frames of the session simply see
        a gap, exactly as if the client had dropped the frame.
        """
        overdue = [item for item in self._queue
                   if item.deadline is not None and now > item.deadline]
        for item in overdue:
            self._queue.remove(item)
            self._expired.inc()
            waited = max(0.0, now - item.enqueued_at)
            item.queue_handle.finish(outcome="deadline_miss",
                                     queue_s=waited)
            if self.slo is not None:
                self.slo.record("deadline_miss", latency_s=waited,
                                queue_s=waited)
            if self.flight is not None:
                self.flight.event("deadline_miss",
                                  session=item.session, seq=item.seq,
                                  overdue_s=now - item.deadline)
            item.future.set_exception(DeadlineExceeded(
                item.session, item.seq, now - item.deadline))
        if overdue:
            self._depth_gauge.set(len(self._queue))

    def _scan(self) -> Optional[WorkItem]:
        """First queued item whose session is not in flight (caller
        holds the lock); ``None`` if there is none."""
        for item in self._queue:
            if item.session not in self._inflight:
                return item
        return None

    def next_item(self, timeout: Optional[float] = None
                  ) -> Optional[WorkItem]:
        """Dequeue the next frame, blocking up to ``timeout`` seconds.

        Returns ``None`` when the timeout elapses or the scheduler is
        closed with an empty queue -- worker loops treat both as "poll
        again / shut down".  The returned item's session is marked in
        flight until :meth:`done` is called for it.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                self._expire_overdue(self._clock())
                item = self._scan()
                if item is not None:
                    break
                if self._closed and not self._queue:
                    return None
                remaining = None if deadline is None else \
                    deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            now = self._clock()
            self._queue.remove(item)
            item.dequeued_at = now
            item.queue_handle.finish(
                outcome="dispatched",
                queue_s=max(0.0, now - item.enqueued_at))
            self._inflight.add(item.session)
            self._depth_gauge.set(len(self._queue))
            return item

    def done(self, item: WorkItem,
             service_s: Optional[float] = None) -> None:
        """Release the item's session and fold in its service time."""
        with self._cond:
            self._inflight.discard(item.session)
            if service_s is not None and service_s >= 0:
                self._service_ema_s += 0.2 * (service_s -
                                              self._service_ema_s)
            now = self._clock()
            if self._last_done_at is not None:
                interval = max(0.0, now - self._last_done_at)
                if self._drain_ema_s is None:
                    self._drain_ema_s = interval
                else:
                    self._drain_ema_s += 0.2 * (interval -
                                                self._drain_ema_s)
            self._last_done_at = now
            self._cond.notify_all()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Refuse new work; queued items still drain."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def fail_pending(self, exc: BaseException) -> int:
        """Fail every still-queued item with ``exc``; returns the count.

        The service calls this after stopping the pool so a client
        blocked on a future whose frame will never run gets an error
        instead of hanging forever.
        """
        with self._cond:
            pending = list(self._queue)
            self._queue.clear()
            for item in pending:
                item.queue_handle.finish(outcome="failed",
                                         error=type(exc).__name__)
                item.future.set_exception(exc)
            self._depth_gauge.set(0)
            self._cond.notify_all()
            return len(pending)

    # -- quiesce support ------------------------------------------------

    def extract_session(self, sid: str) -> List[WorkItem]:
        """Remove and return every queued item of one session, in order.

        The quiesce path (``VOService.quiesce_session``): a shard
        worker's checkpoint re-submits the extracted items (futures and
        all) once the session is exported, and its ``export_session``
        cancels them for the router to re-dispatch on the new owner.
        Items already dispatched are *not* touched -- callers wait for
        :meth:`session_inflight` to turn false and extract again,
        because a frame completing mid-extraction may already have
        unblocked a later frame of the same session.
        """
        with self._cond:
            items = [item for item in self._queue
                     if item.session == sid]
            for item in items:
                self._queue.remove(item)
            if items:
                self._depth_gauge.set(len(self._queue))
            return items

    def session_inflight(self, sid: str) -> bool:
        """Whether a frame of ``sid`` is dispatched to a worker."""
        with self._cond:
            return sid in self._inflight

    def depth(self) -> int:
        """Current queue depth."""
        with self._cond:
            return len(self._queue)

    def stats(self) -> dict:
        """Point-in-time queue statistics."""
        with self._cond:
            drain = self._drain_ema_s
            return {
                "depth": len(self._queue),
                "max_queue": self.max_queue,
                "inflight_sessions": len(self._inflight),
                "service_ema_s": self._service_ema_s,
                "drain_ema_s": drain,
                "drain_rate_per_s": (1.0 / drain) if drain else None,
                "retry_after_s": self._retry_after_s(
                    len(self._queue)),
                "expired_total": int(self._expired.total()),
                "rejected_total": int(self._rejected.total()),
                "closed": self._closed,
            }
