"""The device pool: N workers, each owning one tracker + PIM devices.

Each :class:`PoolWorker` thread holds a complete
:class:`~repro.vo.tracker.EBVOTracker` (frontends, and -- for the PIM
frontend -- per-shape simulated devices).  Per-frame it checks out the
session, swaps ``tracker.state`` to the session's
:class:`~repro.vo.tracker.TrackerState`, tracks the frame, and checks
the state back in.  Compiled kernel programs live in the process-wide
``KERNEL_PROGRAM_CACHE`` (thread-safe since this PR), so every worker
replays the same canonical programs.

A session's *first* frame on a worker resets that worker's devices
(:meth:`~repro.pim.device.PIMDevice.reset`): a reset device is
bit-identical to a fresh one, so device reuse across tenants can never
leak state between streams.

**Simulated device occupancy.**  The simulator computes a frame's
device cost in *cycles* but executes in host time, so wall-clock would
otherwise measure numpy speed, not device contention.  Each worker
therefore *dwells*: after tracking a frame it sleeps until the frame's
wall time reaches the simulated device service time --
``max(min_service_s, device_cycles / device_clock_hz)``.  Dwell sleeps
release the GIL and overlap across workers, which is exactly the
behaviour of N real accelerators driven from one host: pool throughput
scales with workers until the host CPU, not the device, saturates.
With both knobs at zero workers run flat out (pure host speed).

**Fault containment.**  Each worker wraps the frame in a bounded
retry: a failed attempt rolls the tracker state back to an O(1)
restore point, resets the worker's devices, and tries again up to
``max_retries`` times.  A frame that still fails restores the session
from its last checkpointed keyframe before the error reaches the
client.  A per-worker :class:`CircuitBreaker` watches the fault
signals (failed frames, retries, faulty-device evictions): after
``breaker_threshold`` consecutive signals the worker stops pulling
work for ``breaker_cooldown_s``, then half-opens for a probe frame.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.geometry.se3 import SE3
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import get_registry
from repro.obs.slo import SloEngine
from repro.obs.tracer import get_tracer
from repro.serve.scheduler import FifoScheduler, WorkItem
from repro.serve.session import SessionManager
from repro.vo.health import OK

__all__ = ["TrackResult", "CircuitBreaker", "DevicePool"]

log = logging.getLogger(__name__)


@dataclass
class TrackResult:
    """The service's per-frame response."""

    session: str
    generation: int
    frame_index: int          # index within this session's stream
    pose: SE3                 # camera-to-world
    is_keyframe: bool
    num_features: int
    lm_iterations: int
    worker: int
    queue_s: float            # admission-queue wait
    service_s: float          # worker wall time incl. device dwell
    device_cycles: int        # simulated device cycles of this frame
    #: Tracking health after this frame (``OK/DEGRADED/LOST``).
    health: str = OK
    #: Recovery events of this frame (see
    #: :attr:`repro.vo.tracker.FrameResult.events`).
    events: Tuple[str, ...] = ()
    #: In-place worker retries this frame needed before succeeding.
    retries: int = 0


class CircuitBreaker:
    """Per-worker breaker over consecutive device-fault signals.

    States follow the classic pattern: ``closed`` (normal service)
    trips to ``open`` after ``threshold`` consecutive fault signals;
    after ``cooldown_s`` the breaker ``half-open``s and admits one
    probe frame -- a clean probe closes it, a faulty one re-opens it.
    A fault signal is either a frame that failed outright or a frame
    that began by evicting a faulty device.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"
    #: Gauge encoding of each state.
    STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

    def __init__(self, threshold: int = 3, cooldown_s: float = 0.5,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Optional[Callable[[str, str], None]]
                 = None):
        if threshold < 1:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._on_transition = on_transition
        self.state = self.CLOSED
        self.consecutive_faults = 0
        self.faults_total = 0
        self.trips_total = 0
        self._opened_at = 0.0

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        old, self.state = self.state, state
        if state == self.OPEN:
            self.trips_total += 1
            self._opened_at = self._clock()
        if self._on_transition is not None:
            self._on_transition(old, state)

    def allow(self) -> bool:
        """May the worker take work right now?"""
        if self.state == self.OPEN and \
                self._clock() - self._opened_at >= self.cooldown_s:
            self._transition(self.HALF_OPEN)
        return self.state != self.OPEN

    def record_fault(self) -> None:
        """One fault signal (failed frame or faulty-device eviction)."""
        self.faults_total += 1
        self.consecutive_faults += 1
        if self.state == self.HALF_OPEN or \
                self.consecutive_faults >= self.threshold:
            self._transition(self.OPEN)

    def record_clean(self) -> None:
        """One clean frame: closes the streak (and a half-open probe)."""
        self.consecutive_faults = 0
        if self.state == self.HALF_OPEN:
            self._transition(self.CLOSED)

    def stats(self) -> dict:
        return {
            "state": self.state,
            "consecutive_faults": self.consecutive_faults,
            "faults_total": self.faults_total,
            "trips_total": self.trips_total,
        }


class PoolWorker:
    """One worker thread: a tracker, its devices, and the dwell loop."""

    def __init__(self, index: int, scheduler: FifoScheduler,
                 sessions: SessionManager,
                 tracker_factory: Callable[[], object],
                 min_service_s: float = 0.0,
                 device_clock_hz: Optional[float] = None,
                 max_retries: int = 1,
                 retry_backoff_s: float = 0.01,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 0.25,
                 slo: Optional[SloEngine] = None,
                 flight: Optional[FlightRecorder] = None,
                 incident_dir=None):
        self.index = index
        self.scheduler = scheduler
        self.sessions = sessions
        self.tracker = tracker_factory()
        self.min_service_s = min_service_s
        self.device_clock_hz = device_clock_hz
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.slo = slo
        self.flight = flight
        self.incident_dir = incident_dir
        self.busy_s = 0.0
        self.frames = 0
        self._stop = threading.Event()
        self._started_at: Optional[float] = None
        self._thread = threading.Thread(
            target=self._run, name=f"pim-pool-{index}", daemon=True)
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
            on_transition=self._on_breaker_transition)
        registry = get_registry()
        self._frames_ctr = registry.counter(
            "serve_worker_frames_total", "Frames tracked per worker")
        self._cycles_ctr = registry.counter(
            "serve_worker_device_cycles_total",
            "Simulated device cycles charged per worker")
        self._util_gauge = registry.gauge(
            "serve_worker_utilization",
            "Busy fraction of each worker since pool start")
        self._queue_hist = registry.histogram(
            "serve_queue_latency_s",
            "Seconds a frame waited in the admission queue",
            bounds=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                    30.0))
        self._evictions_ctr = registry.counter(
            "serve_device_evictions_total",
            "Devices reset between frames because faults were detected")
        self._retries_ctr = registry.counter(
            "serve_retries_total",
            "In-place frame retries after a worker-side exception")
        self._circuit_gauge = registry.gauge(
            "serve_circuit_state",
            "Per-worker circuit breaker state "
            "(0=closed, 1=half-open, 2=open)")
        self._circuit_transitions = registry.counter(
            "serve_circuit_transitions_total",
            "Circuit breaker state transitions per worker")
        self._circuit_gauge.set(
            CircuitBreaker.STATE_CODES[self.breaker.state],
            worker=self.index)

    def _on_breaker_transition(self, old: str, new: str) -> None:
        log.warning("worker %d circuit breaker %s -> %s",
                    self.index, old, new)
        self._circuit_gauge.set(CircuitBreaker.STATE_CODES[new],
                                worker=self.index)
        self._circuit_transitions.inc(worker=self.index, to=new)
        if self.flight is not None:
            self.flight.event("breaker_transition", worker=self.index,
                              old=old, new=new)
            if new == CircuitBreaker.OPEN:
                # An opening breaker is the canonical incident: dump
                # the flight recorder so the lead-up survives the run.
                self.flight.incident("breaker_open",
                                     worker=self.index)
                if self.incident_dir is not None:
                    from pathlib import Path
                    path = Path(self.incident_dir) / (
                        f"incident_breaker_worker{self.index}_"
                        f"{self.breaker.trips_total}.json")
                    try:
                        self.flight.dump(path, reason="breaker_open",
                                         worker=self.index)
                    except OSError:
                        log.exception(
                            "failed to dump incident bundle to %s",
                            path)

    # -- device plumbing -------------------------------------------------

    def _devices(self):
        """Every simulated device owned by this worker's frontends."""
        for frontend in getattr(self.tracker, "_frontends",
                                [self.tracker.frontend]):
            yield from getattr(frontend, "_detect_devices",
                               {}).values()

    def _device_cycles(self) -> int:
        return sum(dev.ledger.cycles for dev in self._devices())

    def _reset_devices(self) -> None:
        for dev in self._devices():
            dev.reset()

    def _evict_faulty_devices(self) -> int:
        """Reset any device reporting injected/suspected faults.

        Runs between frames: a device whose :meth:`fault_state` says
        the array may be corrupted (stored bit flips, or an armed
        fault injector) is returned to power-on state before it can
        serve the next frame, and the eviction is counted per worker
        and reason.  The session's tracker state lives host-side, so
        a between-frame reset is invisible to the stream except that
        the corruption is gone.
        """
        evicted = 0
        for dev in self._devices():
            state_fn = getattr(dev, "fault_state", None)
            if state_fn is None:
                continue
            state = state_fn()
            if not state.get("suspect"):
                continue
            reason = "stored-fault" if state.get("stored_faults") \
                else "fault-injector"
            log.warning(
                "worker %d evicting faulty device (%s: %d stored, "
                "%d read faults)", self.index, reason,
                state.get("stored_faults", 0),
                state.get("read_faults", 0))
            dev.reset()
            evicted += 1
            self._evictions_ctr.inc(worker=self.index, reason=reason)
            if self.flight is not None:
                self.flight.event("device_eviction",
                                  worker=self.index, reason=reason)
        return evicted

    # -- the frame loop --------------------------------------------------

    def _track_with_retry(self, item: WorkItem):
        """Track one frame with bounded in-place retries.

        Before each attempt a :meth:`TrackerState.restore_point` is
        taken; a failed attempt rolls the state back, resets this
        worker's devices (clearing any mid-frame corruption), backs
        off briefly, and tries again -- up to ``max_retries`` extra
        attempts.  Returns ``(frame, retries)``; re-raises the last
        exception once the budget is spent.
        """
        state = self.tracker.state
        gray, depth, timestamp = item.payload
        attempt = 0
        while True:
            point = state.restore_point()
            try:
                return self.tracker.process(gray, depth,
                                            timestamp), attempt
            except Exception as exc:
                if attempt >= self.max_retries:
                    state.rollback(point)
                    raise
                attempt += 1
                self._retries_ctr.inc(worker=self.index)
                log.warning(
                    "worker %d retrying session %s frame %d "
                    "(attempt %d/%d)", self.index, item.session,
                    item.seq, attempt, self.max_retries,
                    exc_info=True)
                if self.flight is not None:
                    self.flight.event(
                        "retry", worker=self.index,
                        session=item.session, seq=item.seq,
                        attempt=attempt, error=type(exc).__name__)
                # The rollback is part of the request's span tree: it
                # runs on the worker thread inside the "track" span,
                # so implicit stacking parents it correctly.
                with get_tracer().span(
                        "rollback", category="serve",
                        attempt=attempt, error=type(exc).__name__):
                    state.rollback(point)
                    # Device state is the usual culprit: return to
                    # power-on before the retry touches it again.
                    self._reset_devices()
                if self.retry_backoff_s > 0:
                    time.sleep(self.retry_backoff_s * attempt)

    def _process(self, item: WorkItem) -> None:
        # The track span joins the request's trace via the carried
        # context; kernel/frame spans opened by the tracker on this
        # thread nest under it through the thread-local stack.  The
        # future completes only after the span is recorded, so a
        # client waking on the result can capture the full tree.
        with get_tracer().span("track", category="serve",
                               parent=item.ctx, session=item.session,
                               seq=item.seq,
                               worker=self.index) as tspan:
            kind, value = self._process_traced(item, tspan)
        if kind == "ok":
            item.future.set_result(value)
        else:
            item.future.set_exception(value)

    def _process_traced(self, item: WorkItem, tspan) -> tuple:
        t0 = time.perf_counter()
        queue_s = max(0.0, item.dequeued_at - item.enqueued_at)
        session = self.sessions.checkout(item.session)
        fault_signal = False
        try:
            if session.frames == 0 or session.force_device_reset:
                # Fresh stream on a reused device -- or a session just
                # imported from another pool: back to power-on state so
                # nothing carries over from the last tenant (or from
                # the source pool's devices).
                session.force_device_reset = False
                self._reset_devices()
            else:
                # Mid-stream health check: a device flagged faulty
                # since the last frame is reset before reuse.
                fault_signal = self._evict_faulty_devices() > 0
            self.tracker.state = session.state
            cycles_before = self._device_cycles()
            frame, retries = self._track_with_retry(item)
            cycles = self._device_cycles() - cycles_before
            fault_signal = fault_signal or retries > 0
            result = TrackResult(
                session=session.sid, generation=session.generation,
                frame_index=session.state.n_frames - 1,
                pose=frame.pose, is_keyframe=frame.is_keyframe,
                num_features=frame.num_features,
                lm_iterations=frame.lm.iterations if frame.lm else 0,
                worker=self.index,
                queue_s=queue_s,
                service_s=0.0, device_cycles=cycles,
                health=frame.health, events=frame.events,
                retries=retries)
        except BaseException as exc:  # noqa: BLE001 -- fault isolation
            # Terminal failure: roll the session back to its last
            # checkpointed keyframe so the *next* frame resumes from
            # known-good state instead of whatever the failed attempt
            # left behind.
            restored = self.sessions.restore_checkpoint(session)
            # The rollback *is* this frame's outcome: the watermark
            # settles past it like any other frame.
            self.sessions.checkin(session, applied_seq=item.seq)
            self.scheduler.done(item)
            self.breaker.record_fault()
            host_s = time.perf_counter() - t0
            tspan.set_attr("outcome", "error")
            tspan.set_attr("error", type(exc).__name__)
            if self.slo is not None:
                self.slo.record("error", latency_s=queue_s + host_s,
                                queue_s=queue_s)
            if self.flight is not None:
                self.flight.event(
                    "frame_failed", worker=self.index,
                    session=item.session, seq=item.seq,
                    error=type(exc).__name__,
                    checkpoint_restored=restored)
            log.exception(
                "worker %d failed on session %s frame %d "
                "(checkpoint restored: %s)", self.index,
                item.session, item.seq, restored)
            return "error", exc
        if frame.is_keyframe and frame.health == OK:
            # A healthy keyframe is the resume point of choice:
            # snapshot it structurally (process never mutates what the
            # snapshot shares).
            self.sessions.save_checkpoint(session)
        self.sessions.checkin(session, applied_seq=item.seq)
        host_s = time.perf_counter() - t0
        dwell = self.min_service_s
        if self.device_clock_hz:
            dwell = max(dwell, cycles / self.device_clock_hz)
        if dwell > host_s:
            # Simulated device occupancy: hold the slot (GIL released)
            # until the device would actually be free again.
            time.sleep(dwell - host_s)
        service_s = time.perf_counter() - t0
        result.service_s = service_s
        self.busy_s += service_s
        self.frames += 1
        tspan.set_attr("outcome", "ok")
        tspan.set_attr("retries", result.retries)
        tspan.set_attr("device_cycles", cycles)
        if self.slo is not None:
            self.slo.record("ok", latency_s=queue_s + service_s,
                            queue_s=queue_s)
        if fault_signal:
            # The frame succeeded but needed an eviction or retry:
            # that is still a device-fault signal for the breaker.
            self.breaker.record_fault()
        else:
            self.breaker.record_clean()
        self.scheduler.done(item, service_s=service_s)
        self._frames_ctr.inc(worker=self.index)
        self._cycles_ctr.inc(cycles, worker=self.index)
        self._queue_hist.observe(result.queue_s)
        if self._started_at is not None:
            wall = time.perf_counter() - self._started_at
            if wall > 0:
                self._util_gauge.set(min(1.0, self.busy_s / wall),
                                     worker=self.index)
        return "ok", result

    def _run(self) -> None:
        self._started_at = time.perf_counter()
        while not self._stop.is_set():
            if not self.breaker.allow():
                # Tripped: stop pulling work so the other workers (or
                # the deadline expiry path) absorb the traffic until
                # the cooldown elapses and the breaker half-opens.
                self._stop.wait(min(0.05, self.breaker.cooldown_s))
                continue
            item = self.scheduler.next_item(timeout=0.05)
            if item is not None:
                self._process(item)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal and join the worker thread (idempotent, never
        raises: a worker that was never started just records the
        stop flag)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)

    def utilization(self) -> float:
        """Busy fraction since start (0.0 before any frame)."""
        if self._started_at is None:
            return 0.0
        wall = time.perf_counter() - self._started_at
        return min(1.0, self.busy_s / wall) if wall > 0 else 0.0


class DevicePool:
    """A fixed-size pool of :class:`PoolWorker` threads."""

    def __init__(self, workers: int, scheduler: FifoScheduler,
                 sessions: SessionManager,
                 tracker_factory: Callable[[], object],
                 min_service_s: float = 0.0,
                 device_clock_hz: Optional[float] = None,
                 max_retries: int = 1,
                 retry_backoff_s: float = 0.01,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 0.25,
                 slo: Optional[SloEngine] = None,
                 flight: Optional[FlightRecorder] = None,
                 incident_dir=None):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self.workers: List[PoolWorker] = [
            PoolWorker(i, scheduler, sessions, tracker_factory,
                       min_service_s=min_service_s,
                       device_clock_hz=device_clock_hz,
                       max_retries=max_retries,
                       retry_backoff_s=retry_backoff_s,
                       breaker_threshold=breaker_threshold,
                       breaker_cooldown_s=breaker_cooldown_s,
                       slo=slo, flight=flight,
                       incident_dir=incident_dir)
            for i in range(workers)]
        self._started = False

    def start(self) -> None:
        """Start every worker thread (idempotent, exception-safe).

        If any worker fails to start, the ones already running are
        stopped before the error propagates, so a failed start never
        leaks threads.
        """
        if self._started:
            return
        started: List[PoolWorker] = []
        try:
            for worker in self.workers:
                worker.start()
                started.append(worker)
        except BaseException:
            for worker in started:
                worker.stop()
            raise
        self._started = True
        log.info("device pool started with %d workers",
                 len(self.workers))

    def stop(self) -> None:
        """Signal and join every worker (idempotent, never raises)."""
        for worker in self.workers:
            worker.stop()
        self._started = False

    def stats(self) -> dict:
        """Per-worker frames/utilization/breaker plus pool totals."""
        per_worker = [{
            "worker": w.index,
            "frames": w.frames,
            "busy_s": w.busy_s,
            "utilization": w.utilization(),
            "breaker": w.breaker.stats(),
        } for w in self.workers]
        return {
            "workers": len(self.workers),
            "frames": sum(w.frames for w in self.workers),
            "retries_total": int(
                self.workers[0]._retries_ctr.total()),
            "breakers_open": sum(
                1 for w in self.workers
                if w.breaker.state != CircuitBreaker.CLOSED),
            "per_worker": per_worker,
        }
