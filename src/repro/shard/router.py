"""The shard plane's front door: session-affine routing over processes.

:class:`ShardRouter` is the client-facing replacement for a single
:class:`~repro.serve.service.VOService` once one process is not
enough.  It hashes each session onto one of N worker *processes*
(:class:`~repro.shard.placement.HashRing`, sticky after first
placement), moves frames over the length-prefixed transport with
per-shard bounded send queues, and keeps everything it needs to
survive a worker's death:

* a per-session **sequence counter** (1-based, contiguous) -- every
  frame of a session carries its stream index;
* the latest **checkpoint record** per session, refreshed by the
  supervisor's periodic ``checkpoint`` RPC, with the worker's
  **settled** watermark (the last seq whose outcome the exported state
  reflects);
* a router-side :class:`~repro.snap.capture.CaptureRing` holding one
  record per client reply -- ok, error, or skipped (shed/expired, no
  arrays) -- pruned up to each session's checkpoint watermark: the
  replay *tail*;
* a **pending table** of every request whose reply has not arrived,
  holding the inbound arrays so an orphaned request can be
  re-dispatched verbatim.

Failover (:meth:`fail_over`) composes those through
:func:`~repro.shard.placement.failover_replay_plan`, which states the
replay invariant: restore the dead shard's checkpoint onto a healthy
shard, replay the ok tail in sequence order to rebuild
post-checkpoint state, then re-dispatch the pending requests -- so the
recovered trajectory is bit-identical from the last checkpoint and no
client future is ever dropped.  A session whose tail cannot be
rebuilt (capture ring overflow, or a terminal error past the
checkpoint) raises :class:`~repro.shard.placement.ReplayGap` and is
counted lost rather than silently corrupted.

With ``shards=0`` the router runs **inline**: one in-process
``VOService``, no transport, no supervision -- bit-identical to the
plain ``repro.serve`` path (gated by tests), so callers can adopt the
front-door API before they need processes.

Per-shard :class:`~repro.serve.pool.CircuitBreaker` instances guard
dispatch: a shard that keeps failing requests sheds load as
``Backpressure`` until its cooldown, mirroring the in-process pool's
per-worker breakers one level up.
"""

from __future__ import annotations

import multiprocessing
import secrets
import select
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Dict, List, Optional

import numpy as np

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import get_registry
from repro.serve.pool import CircuitBreaker
from repro.serve.scheduler import Backpressure, DeadlineExceeded
from repro.serve.service import VOService
from repro.shard.placement import (
    HashRing,
    ReplayGap,
    RestartBackoff,
    failover_replay_plan,
)
from repro.shard.transport import (
    MessagePump,
    SendQueueFull,
    TransportClosed,
    accept_worker,
    rendezvous_listener,
)
from repro.shard.worker import ShardSpec, shard_worker_main
from repro.snap.capture import CaptureRing

__all__ = ["SessionLost", "ShardHandle", "ShardRouter"]

#: While a spawn call waits for its workers to dial back, how often it
#: looks for one that has already exited.
_SPAWN_POLL_S = 0.1

#: Shard lifecycle states (see :class:`ShardHandle`).
UP, BACKOFF, FAILED, STOPPED = "up", "backoff", "failed", "stopped"


class SessionLost(RuntimeError):
    """A session could not be failed over losslessly."""

    def __init__(self, session: str, reason: str):
        super().__init__(f"session {session!r} lost: {reason}")
        self.session = session
        self.reason = reason


def _wait(future: Future, timeout_s: float):
    """``future.result(timeout_s)``, timing out as the builtin
    :class:`TimeoutError`.

    Before Python 3.11 ``Future.result`` raises
    ``concurrent.futures.TimeoutError``, which is not the builtin; every
    wait in the shard plane catches the builtin.
    """
    try:
        return future.result(timeout_s)
    except FutureTimeout as exc:
        if isinstance(exc, TimeoutError):
            raise
        raise TimeoutError(f"no reply within {timeout_s} s") from exc


class _Pending:
    """One dispatched request awaiting its reply."""

    __slots__ = ("req_id", "session", "seq", "gray", "depth",
                 "timestamp", "deadline_s", "future", "shard",
                 "internal")

    def __init__(self, req_id, session, seq, gray, depth, timestamp,
                 deadline_s, shard, internal=False):
        self.req_id = req_id
        self.session = session
        self.seq = seq
        self.gray = gray
        self.depth = depth
        self.timestamp = timestamp
        self.deadline_s = deadline_s
        self.future: Future = Future()
        self.shard = shard
        #: Internal replays rebuild state after failover: their client
        #: already has the result, so completion must neither touch a
        #: client future nor re-record the frame in the capture ring.
        self.internal = internal


class ShardHandle:
    """Router-side bookkeeping for one worker process slot."""

    def __init__(self, shard_id: int, backoff: RestartBackoff):
        self.shard_id = shard_id
        self.state = STOPPED
        self.process = None
        self.pump: Optional[MessagePump] = None
        self.pid: Optional[int] = None
        self.backoff = backoff
        self.started_at = 0.0
        self.last_heartbeat = 0.0
        self.heartbeats = 0
        self.restarts = 0
        self.respawn_at = 0.0
        self.breaker = None  # set by the router (shared defaults)

    def uptime_s(self) -> float:
        if self.state != UP:
            return 0.0
        return time.monotonic() - self.started_at

    def heartbeat_age_s(self) -> Optional[float]:
        if self.state != UP or not self.last_heartbeat:
            return None
        return time.monotonic() - self.last_heartbeat


def _raise_if_exited(spawned, outstanding) -> None:
    """Raise if a spawned worker whose token is still ``outstanding``
    has exited: it will never dial back."""
    for handle, process, token in spawned:
        if token in outstanding and process.exitcode is not None:
            raise RuntimeError(
                f"shard {handle.shard_id} worker exited with code "
                f"{process.exitcode} before connecting back")


class ShardRouter:
    """Front door: hash sessions onto worker processes, survive them."""

    def __init__(self, shards: int = 2,
                 spec: Optional[ShardSpec] = None,
                 vnodes: int = 64,
                 capture_capacity: int = 2048,
                 max_send_queue: int = 256,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 0.25,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0,
                 restart_budget: int = 5,
                 backoff_reset_after_s: float = 30.0,
                 spawn_timeout_s: float = 60.0,
                 flight: Optional[FlightRecorder] = None,
                 incident_dir=None):
        if shards < 0:
            raise ValueError("shards must be >= 0")
        self.spec = spec if spec is not None else ShardSpec()
        self.inline = shards == 0
        self.flight = flight if flight is not None else FlightRecorder()
        self.incident_dir = incident_dir
        self._closed = False
        self._started = False

        registry = get_registry()
        self._m_frames = registry.counter(
            "serve_shard_frames_total",
            "Frames dispatched to shards, by shard")
        self._m_failovers = registry.counter(
            "serve_failovers_total",
            "Sessions failed over to a surviving shard")
        self._m_restarts = registry.counter(
            "serve_shard_restarts_total",
            "Shard worker processes respawned, by shard")
        self._m_crashes = registry.counter(
            "serve_shard_crashes_total",
            "Shard worker deaths detected, by shard and reason")
        self._m_lost = registry.counter(
            "serve_sessions_lost_total",
            "Sessions that could not be failed over losslessly")
        self._m_up = registry.gauge(
            "serve_shards_up", "Shard worker processes currently up")

        if self.inline:
            self.local = VOService(**self.spec.service_kwargs())
            return

        self.local = None
        self._mp = multiprocessing.get_context(self.spec.start_method)
        self._listener, self._host, self._port = rendezvous_listener()
        self._spawn_timeout_s = spawn_timeout_s
        self._spawn_lock = threading.Lock()
        self.ring = HashRing(vnodes=vnodes)
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self._backoff_kwargs = dict(
            base_s=backoff_base_s, cap_s=backoff_cap_s,
            budget=restart_budget,
            reset_after_s=backoff_reset_after_s)
        self.shards: Dict[int, ShardHandle] = {}
        for shard_id in range(shards):
            self.shards[shard_id] = self._new_handle(shard_id)
        self._max_send_queue = max_send_queue

        # Routing state.  _route_lock serialises placement decisions
        # and dispatch; reply handling only takes the small
        # _state_lock.  Failover takes the route lock only for its
        # bookkeeping edges -- the restore/replay RPCs run without it,
        # with the affected sessions parked in _failing_over so no
        # new frame can interleave with the rebuild.
        self._route_lock = threading.RLock()
        self._state_lock = threading.Lock()
        self._placement: Dict[str, int] = {}
        self._session_seq: Dict[str, int] = {}
        self._pending: Dict[int, _Pending] = {}
        self._control: Dict[int, tuple] = {}
        self._next_id = 0
        self._lost_sessions: Dict[str, str] = {}
        self._failing_over: set = set()
        self._failovers = 0

        # Failover inputs: latest checkpoint per session, and one
        # record per client reply since that checkpoint.
        self.capture = CaptureRing(capacity=capture_capacity)
        self.capture.bind(self.spec.frontend, self.spec.config)
        self._checkpoints: Dict[str, dict] = {}

    # -- construction helpers --------------------------------------------

    def _new_handle(self, shard_id: int) -> ShardHandle:
        handle = ShardHandle(
            shard_id, RestartBackoff(**self._backoff_kwargs))
        handle.breaker = CircuitBreaker(
            threshold=self._breaker_threshold,
            cooldown_s=self._breaker_cooldown_s)
        return handle

    def _alloc_id(self) -> int:
        with self._state_lock:
            self._next_id += 1
            return self._next_id

    def _next_seq(self, session: str) -> int:
        with self._state_lock:
            seq = self._session_seq.get(session, 0) + 1
            self._session_seq[session] = seq
            return seq

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ShardRouter":
        if self._started:
            return self
        self._started = True
        if self.inline:
            self.local.start()
            return self
        try:
            self._spawn([self.shards[s] for s in sorted(self.shards)])
        except BaseException:
            self.close()
            raise
        return self

    def _spawn(self, handles: List[ShardHandle]) -> None:
        """Spawn one worker process per handle, wire pumps, publish them.

        Every process is started before any is waited on, so the
        children's start-up (mostly importing numpy and scipy) runs
        side by side; each then dials back with its own spawn-time
        token, in whatever order.  If any fails to dial back in time,
        or exits before it does, every process this call started is
        terminated and joined.
        Spawn calls are serialised.

        Publication follows in shard-id order, one step per shard under
        the route lock: restart accounting (a slot leaving ``backoff``
        is a respawn) and the ring add happen before ``state = UP``, so
        whoever sees the shard up (:meth:`shards_status`, the
        supervisor, a waiting test) also sees its restart counted and
        its ring points placed.
        """
        with self._spawn_lock:
            spawned = []
            sockets = {}
            try:
                for handle in handles:
                    token = secrets.token_bytes(16)
                    process = self._mp.Process(
                        target=shard_worker_main,
                        args=(handle.shard_id, self._host, self._port,
                              token, self.spec),
                        name=f"repro-shard-{handle.shard_id}",
                        daemon=True)
                    process.start()
                    spawned.append((handle, process, token))
                outstanding = {token for _h, _p, token in spawned}
                deadline = time.monotonic() + self._spawn_timeout_s
                while outstanding:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            "no worker connected back in time")
                    # Wait for a pending connection in short slices so
                    # a child that died first fails the call at once;
                    # the hello read then gets all the time left.
                    pending, _, _ = select.select(
                        [self._listener], [], [],
                        min(remaining, _SPAWN_POLL_S))
                    if not pending:
                        _raise_if_exited(spawned, outstanding)
                        continue
                    token, sock = accept_worker(
                        self._listener, outstanding, timeout_s=remaining)
                    sockets[token] = sock
            except BaseException:
                for sock in sockets.values():
                    sock.close()
                for _handle, process, _token in spawned:
                    process.terminate()
                for _handle, process, _token in spawned:
                    process.join(timeout=5.0)
                raise
        for handle, process, token in sorted(
                spawned, key=lambda entry: entry[0].shard_id):
            self._publish(handle, process, sockets[token])

    def _publish(self, handle: ShardHandle, process, sock) -> None:
        """Wire one dialled-back worker's pump and publish it ``UP``.

        A method of its own so that each pump's callbacks close over
        their own ``shard_id``, not a loop variable.
        """
        shard_id = handle.shard_id
        pump = MessagePump(
            sock, name=f"s{shard_id}",
            on_message=lambda msg: self._on_message(shard_id, msg),
            on_close=lambda: self._on_pump_close(shard_id),
            max_send_queue=self._max_send_queue)
        handle.process = process
        handle.pump = pump
        handle.pid = process.pid
        pump.start()
        with self._route_lock:
            if handle.state == BACKOFF:
                handle.restarts += 1
                handle.respawn_at = 0.0
                self._m_restarts.inc(shard=str(shard_id))
            self.ring.add(shard_id)
            handle.started_at = time.monotonic()
            handle.last_heartbeat = time.monotonic()
            handle.state = UP
            self._m_up.set(sum(1 for h in self.shards.values()
                               if h.state == UP))

    def close(self) -> None:
        """Stop shards and fail every still-pending future (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.inline:
            self.local.close()
            return
        for handle in self.shards.values():
            pump = handle.pump
            process = handle.process
            if pump is not None and not pump.closed:
                try:
                    pump.send({"op": "shutdown",
                               "id": self._alloc_id()})
                except (TransportClosed, SendQueueFull):
                    pass
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
                process.close()
                handle.process = None
            if pump is not None:
                pump.close()
            handle.state = STOPPED
        try:
            self._listener.close()
        except OSError:
            pass
        error = RuntimeError("router closed")
        with self._state_lock:
            pending = list(self._pending.values())
            self._pending.clear()
            control = list(self._control.values())
            self._control.clear()
        for entry in pending:
            # Internal replay futures too: a failover thread waiting
            # on one must unblock when the router goes away.
            if not entry.future.done():
                entry.future.set_exception(error)
        for _shard, future in control:
            if not future.done():
                future.set_exception(error)
        self._m_up.set(0)

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reply plumbing ---------------------------------------------------

    def _on_message(self, shard_id: int, msg: object) -> None:
        if not isinstance(msg, dict):
            return
        op = msg.get("op")
        handle = self.shards.get(shard_id)
        if op == "heartbeat":
            if handle is not None:
                handle.last_heartbeat = time.monotonic()
                handle.heartbeats += 1
            return
        if op == "hello":
            return
        if op != "result":
            return
        req_id = msg.get("id")
        with self._state_lock:
            control = self._control.pop(req_id, None)
        if control is not None:
            control[1].set_result(msg)
            return
        with self._state_lock:
            pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        if msg.get("ok"):
            result = msg["result"]
            if handle is not None:
                handle.breaker.record_clean()
            if not pending.internal:
                self.capture.record(
                    pending.session, pending.seq, pending.gray,
                    pending.depth, pending.timestamp,
                    self.capture.ok_outcome(result))
            pending.future.set_result(result)
            return
        exc = self._rebuild_error(pending, msg)
        if handle is not None and not isinstance(
                exc, (Backpressure, DeadlineExceeded)):
            handle.breaker.record_fault()
        if not pending.internal:
            self._record_failure(pending, exc)
        # Internal replay futures complete too: the failover path
        # waits on them, so a failed replay is never silently
        # swallowed (it retries the shed or marks the session lost).
        pending.future.set_exception(exc)

    def _record_failure(self, pending: _Pending,
                        exc: BaseException) -> None:
        """Ring record of a failed client reply: a shed or expiry
        never touched state (skipped, no arrays kept); anything else
        is terminal -- the worker rolled the session back."""
        if isinstance(exc, (Backpressure, DeadlineExceeded)):
            self.capture.record(
                pending.session, pending.seq, None, None,
                pending.timestamp, self.capture.skipped_outcome(exc))
        else:
            self.capture.record(
                pending.session, pending.seq, pending.gray,
                pending.depth, pending.timestamp,
                self.capture.error_outcome(exc))

    @staticmethod
    def _rebuild_error(pending: _Pending, msg: dict) -> BaseException:
        name = msg.get("error", "RuntimeError")
        if name == "Backpressure":
            return Backpressure(depth=0, retry_after_s=float(
                msg.get("retry_after_s", 0.05)))
        if name == "DeadlineExceeded":
            return DeadlineExceeded(pending.session, pending.seq, 0.0)
        return RuntimeError(
            f"shard {msg.get('shard')}: {name}: "
            f"{msg.get('message', '')}")

    def _on_pump_close(self, shard_id: int) -> None:
        """Fail this shard's control RPCs fast; the supervisor (or the
        next dispatch) notices the dead pump and drives failover."""
        with self._state_lock:
            stale = [rid for rid, (sid, _f) in self._control.items()
                     if sid == shard_id]
            futures = [self._control.pop(rid)[1] for rid in stale]
        error = TransportClosed(f"shard {shard_id} connection lost")
        for future in futures:
            if not future.done():
                future.set_exception(error)

    def _rpc(self, shard_id: int, payload: dict,
             timeout_s: float = 30.0) -> dict:
        """Send one control op and wait for its typed reply."""
        handle = self.shards[shard_id]
        if handle.pump is None or handle.pump.closed:
            raise TransportClosed(f"shard {shard_id} is down")
        req_id = self._alloc_id()
        payload = dict(payload, id=req_id)
        future: Future = Future()
        with self._state_lock:
            self._control[req_id] = (shard_id, future)
        try:
            handle.pump.send(payload, block=True, timeout=5.0)
            reply = _wait(future, timeout_s)
        finally:
            with self._state_lock:
                self._control.pop(req_id, None)
        if not reply.get("ok"):
            raise RuntimeError(
                f"shard {shard_id} {payload['op']} failed: "
                f"{reply.get('error')}: {reply.get('message')}")
        return reply

    # -- the request path -------------------------------------------------

    def submit_nowait(self, session_id: str, gray, depth,
                      timestamp: float = 0.0,
                      deadline_s: Optional[float] = None) -> Future:
        """Route one frame; returns a future for its ``TrackResult``.

        Raises :class:`~repro.serve.scheduler.Backpressure` when the
        target shard's breaker is open or its send queue is full, and
        :class:`SessionLost` for a session a previous failover could
        not recover.
        """
        if self._closed:
            raise RuntimeError("router is closed")
        if self.inline:
            return self.local.submit_nowait(
                session_id, gray, depth, timestamp=timestamp,
                deadline_s=deadline_s)
        gray = np.asarray(gray)
        depth = np.asarray(depth)
        with self._route_lock:
            with self._state_lock:
                lost = self._lost_sessions.get(session_id)
                failing_over = session_id in self._failing_over
            if lost is not None:
                raise SessionLost(session_id, lost)
            if failing_over:
                # The session is mid-rebuild on a new shard; admitting
                # a frame now would interleave with the replay.  Shed
                # -- the client retries once the failover settles.
                raise Backpressure(depth=0, retry_after_s=0.25)
            shard_id = self._place(session_id)
            handle = self.shards[shard_id]
            if not handle.breaker.allow():
                raise Backpressure(
                    depth=0,
                    retry_after_s=handle.breaker.cooldown_s)
            seq = self._next_seq(session_id)
            pending = _Pending(
                self._alloc_id(), session_id, seq, gray, depth,
                float(timestamp), deadline_s, shard_id)
            with self._state_lock:
                self._pending[pending.req_id] = pending
            try:
                self._send_frame(handle, pending)
            except BaseException:
                with self._state_lock:
                    self._pending.pop(pending.req_id, None)
                    # The seq was never dispatched: give it back so
                    # the session's stream stays contiguous.
                    if self._session_seq.get(session_id) == seq:
                        self._session_seq[session_id] = seq - 1
                raise
        return pending.future

    def submit(self, session_id: str, gray, depth,
               timestamp: float = 0.0,
               timeout: Optional[float] = None,
               deadline_s: Optional[float] = None):
        """Blocking :meth:`submit_nowait` (the ``VOService.submit``
        shape, so clients and loadgen drive either transparently)."""
        return self.submit_nowait(
            session_id, gray, depth, timestamp=timestamp,
            deadline_s=deadline_s).result(timeout)

    def _place(self, session_id: str) -> int:
        """Sticky placement: ring on first sight, stable afterwards."""
        shard_id = self._placement.get(session_id)
        if shard_id is not None and \
                self.shards[shard_id].state == UP:
            return shard_id
        down = {sid for sid, h in self.shards.items()
                if h.state != UP}
        target = self.ring.lookup(session_id, exclude=down)
        if target is None:
            raise Backpressure(depth=0, retry_after_s=0.25)
        self._placement[session_id] = target
        return target

    def _send_frame(self, handle: ShardHandle,
                    pending: _Pending) -> None:
        if handle.pump is None or handle.pump.closed:
            raise Backpressure(depth=0, retry_after_s=0.25)
        message = {
            "op": "frame", "id": pending.req_id,
            "session": pending.session, "seq": pending.seq,
            "gray": pending.gray, "depth": pending.depth,
            "timestamp": pending.timestamp,
        }
        if pending.deadline_s is not None:
            message["deadline_s"] = pending.deadline_s
        try:
            handle.pump.send(message)
        except SendQueueFull as exc:
            raise Backpressure(depth=exc.depth,
                               retry_after_s=0.05) from exc
        except TransportClosed as exc:
            raise Backpressure(depth=0, retry_after_s=0.25) from exc
        self._m_frames.inc(shard=str(handle.shard_id))

    # -- checkpointing -----------------------------------------------------

    def checkpoint_shard(self, shard_id: int,
                         timeout_s: float = 30.0) -> int:
        """Pull a consistent checkpoint of every session on a shard.

        Updates the per-session checkpoint records and prunes each
        session's capture-ring tail up to the new watermark.  Returns
        the number of sessions checkpointed.  The supervisor calls
        this periodically; it is also safe to call by hand (e.g. right
        before a planned kill in tests).
        """
        reply = self._rpc(shard_id, {"op": "checkpoint"},
                          timeout_s=timeout_s)
        sessions = reply.get("sessions", {})
        for sid, entry in sessions.items():
            watermark = int(entry["watermark"])
            with self._state_lock:
                self._checkpoints[sid] = {
                    "record": entry["record"],
                    "watermark": watermark,
                    "shard": shard_id,
                }
            self.capture.prune(sid, watermark)
        return len(sessions)

    # -- failover ----------------------------------------------------------

    def fail_over(self, shard_id: int, reason: str = "crash") -> dict:
        """Move every session of a dead shard onto healthy ones.

        For each affected session: restore its last checkpoint on the
        failover target (ring lookup excluding down shards), replay
        the captured tail in sequence order to rebuild
        post-checkpoint state, then re-dispatch the orphaned pending
        requests so their original client futures complete with
        results from the new shard.  Sessions that cannot be rebuilt
        losslessly (a refused replay plan, a failed replay) fail
        their pending futures with :class:`SessionLost` and are
        counted, never silently reset.

        The route lock is held only for the bookkeeping edges; the
        per-session restore/replay RPCs run without it, so failing
        over a shard with many sessions never stalls traffic to the
        healthy ones.  Affected sessions are parked in the
        failing-over set meanwhile: new frames for them shed as
        :class:`~repro.serve.scheduler.Backpressure` until their
        rebuild settles, so nothing can interleave with the replay.
        """
        with self._route_lock:
            handle = self.shards[shard_id]
            if handle.pump is not None:
                handle.pump.close()
            if handle.state == UP:
                handle.state = BACKOFF
            self.ring.remove(shard_id)
            self._m_up.set(sum(1 for h in self.shards.values()
                               if h.state == UP))
            affected = sorted(
                sid for sid, placed in self._placement.items()
                if placed == shard_id)
            with self._state_lock:
                self._failing_over.update(affected)
        moved, lost = [], []
        try:
            for sid in affected:
                try:
                    target = self._fail_over_session(sid, shard_id)
                    with self._route_lock:
                        self._placement[sid] = target
                except (ReplayGap, SessionLost, ValueError, KeyError,
                        Backpressure, TransportClosed, TimeoutError,
                        RuntimeError) as exc:
                    self._mark_lost(sid, str(exc))
                    lost.append(sid)
                    continue
                finally:
                    # Unpark as soon as this session's own rebuild
                    # settles (placement already points at the new
                    # owner) -- later sessions' rebuilds must not
                    # keep shedding an already-recovered stream.
                    with self._state_lock:
                        self._failing_over.discard(sid)
                moved.append(sid)
                self._failovers += 1
                self._m_failovers.inc()
        finally:
            with self._state_lock:
                self._failing_over.difference_update(affected)
        self.flight.event("shard_failover", shard=shard_id,
                          reason=reason, moved=len(moved),
                          lost=len(lost))
        return {"shard": shard_id, "moved": moved, "lost": lost}

    def _orphaned(self, sid: str, dead_shard: int) -> List[_Pending]:
        with self._state_lock:
            entries = [p for p in self._pending.values()
                       if p.session == sid and p.shard == dead_shard]
        return sorted(entries, key=lambda p: p.seq)

    def _fail_over_session(self, sid: str, dead_shard: int) -> int:
        with self._route_lock:
            down = {s for s, h in self.shards.items()
                    if h.state != UP}
            target = self.ring.lookup(sid, exclude=down)
        if target is None:
            raise SessionLost(sid, "no healthy shard to fail over to")
        with self._state_lock:
            checkpoint = self._checkpoints.get(sid)
        watermark = int(checkpoint["watermark"]) \
            if checkpoint is not None else 0
        orphans = self._orphaned(sid, dead_shard)
        tail = [(rec["seq"], rec["outcome"]["kind"], rec)
                for rec in self.capture.tail(sid, watermark)]
        plan = failover_replay_plan(sid, watermark, tail,
                                    [(p.seq, p) for p in orphans])
        if checkpoint is not None:
            self._rpc(target, {"op": "restore_session",
                               "record": checkpoint["record"]})
        orphan_seqs = {p.seq for p in orphans}
        shed_rest = False
        for seq, entry in plan:
            handle = self.shards.get(target)
            if handle is None or handle.state != UP:
                raise SessionLost(
                    sid, f"failover target shard {target} went down "
                         f"mid-rebuild")
            if seq not in orphan_seqs:
                # A frame the client already saw: replay purely to
                # rebuild state.  The reply is awaited, never
                # discarded -- a failed replay must not leave the
                # rebuilt state silently missing this frame.
                self._replay_frame(handle, sid, seq, entry)
                continue
            # A live client request: re-dispatch under its original
            # id so the reply completes the original future.
            if shed_rest:
                self._shed_orphan(entry)
                continue
            entry.shard = target
            try:
                self._send_frame(handle, entry)
            except Backpressure:
                self._shed_orphan(entry)
                shed_rest = True
                continue
            # Await the outcome so a worker-side admission shed can
            # never let a later orphan overtake this seq: once one
            # orphan sheds, every later one sheds too and the clients
            # retry them in order (exactly the live-path contract).
            try:
                _wait(entry.future, 60.0)
            except Backpressure:
                shed_rest = True
            except DeadlineExceeded:
                # Expired in the target's queue: the skip is already
                # recorded and state was never touched -- later
                # frames proceed, matching live expiry semantics.
                pass
            except TimeoutError as exc:
                raise SessionLost(
                    sid, f"re-dispatched frame {seq} did not "
                         f"complete during failover") from exc
            except Exception:
                # Terminal frame error on the new shard: the client
                # saw it and the error is recorded; the live
                # contract continues the stream from the restored
                # keyframe, so later orphans still run.
                pass
        return target

    def _replay_frame(self, handle: ShardHandle, sid: str, seq: int,
                      rec: dict, attempts: int = 20,
                      timeout_s: float = 60.0) -> None:
        """Replay one captured frame on the failover target and wait.

        An admission shed (target momentarily saturated by the
        failover storm) retries with a bounded budget; any other
        failure -- or exhausting the budget -- aborts the rebuild so
        the session is marked lost instead of silently serving state
        that misses this frame.
        """
        for _ in range(attempts):
            replay = _Pending(
                self._alloc_id(), sid, seq, rec["gray"], rec["depth"],
                rec["timestamp"], None, handle.shard_id, internal=True)
            with self._state_lock:
                self._pending[replay.req_id] = replay
            try:
                self._send_frame(handle, replay)
            except Backpressure as exc:
                with self._state_lock:
                    self._pending.pop(replay.req_id, None)
                time.sleep(min(max(exc.retry_after_s, 0.01), 0.25))
                continue
            try:
                _wait(replay.future, timeout_s)
                return
            except Backpressure as exc:
                time.sleep(min(max(exc.retry_after_s, 0.01), 0.25))
                continue
            except TimeoutError as exc:
                with self._state_lock:
                    self._pending.pop(replay.req_id, None)
                raise SessionLost(
                    sid, f"replay of frame {seq} timed out during "
                         f"failover") from exc
            except Exception as exc:
                raise SessionLost(
                    sid, f"replay of frame {seq} failed on the "
                         f"failover target: {exc}") from exc
        raise SessionLost(
            sid, f"replay of frame {seq} kept shedding on the "
                 f"failover target")

    def _shed_orphan(self, entry: _Pending) -> None:
        """Fail one orphaned request as a shed (skipped, not a loss)."""
        with self._state_lock:
            if self._pending.pop(entry.req_id, None) is None:
                return  # its reply already completed it
        exc = Backpressure(depth=0, retry_after_s=0.25)
        self._record_failure(entry, exc)
        entry.future.set_exception(exc)

    def _mark_lost(self, sid: str, reason: str) -> None:
        error = SessionLost(sid, reason)
        with self._state_lock:
            self._lost_sessions[sid] = reason
            entries = [p for p in self._pending.values()
                       if p.session == sid]
            for entry in entries:
                self._pending.pop(entry.req_id, None)
            self._checkpoints.pop(sid, None)
            last_seq = self._session_seq.get(sid, 0)
        # A lost session never checkpoints again: release its tail.
        self.capture.prune(sid, last_seq)
        self._m_lost.inc()
        for entry in entries:
            # Internal replay futures fail too, so a failover thread
            # blocked on one can never hang on a lost session.
            if not entry.future.done():
                entry.future.set_exception(error)
        self.flight.incident("session_lost", session=sid,
                             spans=[])

    # -- elastic scale-up/down ---------------------------------------------

    def add_shard(self, rebalance: bool = True) -> int:
        """Spawn one more shard; optionally migrate the sessions the
        ring now maps onto it (drain from their current owners)."""
        if self.inline:
            raise RuntimeError("inline router has no shards to scale")
        with self._route_lock:
            shard_id = max(self.shards, default=-1) + 1
            handle = self._new_handle(shard_id)
            self.shards[shard_id] = handle
            self._spawn([handle])
            if rebalance:
                with self._state_lock:
                    parked = (set(self._failing_over) |
                              set(self._lost_sessions))
                movers = [sid for sid, placed
                          in self._placement.items()
                          if placed != shard_id and
                          sid not in parked and
                          self.ring.lookup(sid) == shard_id and
                          self.shards[placed].state == UP]
                for sid in movers:
                    self._migrate(sid, self._placement[sid], shard_id)
            return shard_id

    def remove_shard(self, shard_id: int,
                     timeout_s: float = 30.0) -> List[str]:
        """Drain a shard's sessions onto the rest, then retire it."""
        if self.inline:
            raise RuntimeError("inline router has no shards to scale")
        with self._route_lock:
            handle = self.shards[shard_id]
            self.ring.remove(shard_id)
            drained = []
            if handle.state == UP:
                residents = [sid for sid, placed
                             in self._placement.items()
                             if placed == shard_id]
                for sid in residents:
                    down = {s for s, h in self.shards.items()
                            if h.state != UP or s == shard_id}
                    target = self.ring.lookup(sid, exclude=down)
                    if target is None:
                        raise RuntimeError(
                            "no shard left to drain onto")
                    self._migrate(sid, shard_id, target)
                    drained.append(sid)
                try:
                    self._rpc(shard_id, {"op": "shutdown"},
                              timeout_s=5.0)
                except (TransportClosed, RuntimeError, TimeoutError):
                    pass
            if handle.pump is not None:
                handle.pump.close()
            if handle.process is not None:
                handle.process.join(timeout=timeout_s)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
                handle.process.close()
                handle.process = None
            handle.state = STOPPED
            del self.shards[shard_id]
            self._m_up.set(sum(1 for h in self.shards.values()
                               if h.state == UP))
            return drained

    def _migrate(self, sid: str, source: int, target: int) -> None:
        """Live-migrate one session between up shards (lossless).

        The placement flips as soon as the target holds the session --
        the source has already dropped it.  An orphan the target
        cannot take sheds, and so does every later one: the clients
        retry them in order, exactly as after a failover.
        """
        reply = self._rpc(source, {"op": "export_session",
                                   "session": sid})
        self._rpc(target, {"op": "restore_session",
                           "record": reply["record"]})
        self._placement[sid] = target
        # Checkpoint bookkeeping moves with the session: the exported
        # record is strictly fresher than any stored checkpoint.
        watermark = int(reply["watermark"])
        with self._state_lock:
            self._checkpoints[sid] = {"record": reply["record"],
                                      "watermark": watermark,
                                      "shard": target}
        self.capture.prune(sid, watermark)
        handle = self.shards[target]
        orphans = self._orphaned(sid, source)
        for index, entry in enumerate(orphans):
            entry.shard = target
            try:
                self._send_frame(handle, entry)
            except Backpressure:
                for rest in orphans[index:]:
                    self._shed_orphan(rest)
                break
        self.flight.event("session_migrated", session=sid,
                          source=source, target=target)

    # -- introspection -----------------------------------------------------

    def shard_ids(self) -> List[int]:
        """Stable snapshot of the shard-slot ids (safe to iterate
        while add/remove_shard run concurrently)."""
        if self.inline:
            return []
        with self._route_lock:
            return sorted(self.shards)

    def shards_status(self) -> dict:
        """JSON-safe per-shard status (the ``/shards`` endpoint)."""
        if self.inline:
            return {
                "mode": "inline",
                "shards": [],
                "sessions": len(self.local.sessions),
                "healthy": self.local.healthy(),
                "degraded": False,
                "failovers_total": 0,
                "lost_sessions": [],
            }
        rows = []
        with self._route_lock:
            placement_counts: Dict[int, int] = {}
            for placed in self._placement.values():
                placement_counts[placed] = \
                    placement_counts.get(placed, 0) + 1
            n_sessions = len(self._placement)
            for shard_id in sorted(self.shards):
                handle = self.shards[shard_id]
                age = handle.heartbeat_age_s()
                rows.append({
                    "shard": shard_id,
                    "state": handle.state,
                    "pid": handle.pid,
                    "sessions": placement_counts.get(shard_id, 0),
                    "uptime_s": round(handle.uptime_s(), 3),
                    "heartbeat_age_s": (None if age is None
                                        else round(age, 3)),
                    "heartbeats": handle.heartbeats,
                    "restarts": handle.restarts,
                    "restart_budget_remaining":
                        handle.backoff.remaining(),
                    "breaker": handle.breaker.state,
                    "send_depth": (handle.pump.send_depth()
                                   if handle.pump is not None else 0),
                })
        with self._state_lock:
            lost = sorted(self._lost_sessions)
            n_checkpointed = len(self._checkpoints)
        up = sum(1 for r in rows if r["state"] == UP)
        degraded = any(r["state"] in (BACKOFF, FAILED) for r in rows)
        return {
            "mode": "sharded",
            "shards": rows,
            "up": up,
            "sessions": n_sessions,
            "healthy": bool(up) and not self._closed,
            "degraded": degraded,
            "failovers_total": self._failovers,
            "lost_sessions": lost,
            "checkpointed_sessions": n_checkpointed,
        }

    def stats(self) -> dict:
        if self.inline:
            stats = self.local.stats()
            stats["shards"] = self.shards_status()
            return stats
        status = self.shards_status()
        with self._state_lock:
            pending = len(self._pending)
        return {
            "shards": status,
            "pending": pending,
            "health": {
                "closed": self._closed,
                "healthy": status["healthy"],
                "degraded": status["degraded"],
            },
            "flight": self.flight.stats(),
            "capture": self.capture.stats(),
        }

    def healthy(self) -> bool:
        """At least one shard can take traffic right now."""
        if self.inline:
            return self.local.healthy()
        return bool(self.shards_status()["healthy"])

    def degraded(self) -> bool:
        """Serving, but a shard is down, respawning, or failed."""
        if self.inline:
            return False
        return bool(self.shards_status()["degraded"])
