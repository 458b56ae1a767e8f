"""The shard worker process: one ``VOService`` behind a socket.

:func:`shard_worker_main` is the child-process entry point (module
level, so every ``multiprocessing`` start method -- fork, forkserver,
spawn -- can reach it).  The child dials the router back over loopback
TCP (:func:`~repro.shard.transport.connect_back`; a connected fd
cannot ride through ``spawn`` pickling, so connect-back it is),
presents the spawn-time token, and then serves the router's ops over
one :class:`~repro.shard.transport.MessagePump`:

``frame``
    Enqueue one frame under the router-assigned per-session sequence
    number (``VOService.requeue_frame``): non-blocking, the reply is
    sent from the future's done-callback on the pool thread.
    Admission :class:`~repro.serve.scheduler.Backpressure` travels
    back as a typed error reply carrying ``retry_after_s``.
``checkpoint``
    Quiesce every resident session, export and encode each one
    (:func:`~repro.snap.state.encode_session_record`: each keyframe
    as its edge maps), resubmit the extracted queued frames, and
    reply with the encoded records plus per-session settled
    watermarks (the last router seq whose outcome each exported state
    reflects).
    This runs *on the pump's reader thread* deliberately: no new
    frames are admitted while state is being exported, so each record
    is a consistent cut at a known watermark.
``export_session`` / ``restore_session``
    The drain/rebalance pair: export quiesces one session, cancels its
    still-queued frames (the router re-dispatches them from its own
    pending table), removes it, and ships the encoded record; restore
    imports a record with a forced device reset.  The router's
    ``remove_shard`` and ``add_shard(rebalance=True)`` run this pair;
    it is the only live-migration path.
``stats`` / ``shutdown``
    Health introspection and clean teardown.

A heartbeat thread pushes liveness beacons every ``heartbeat_s``; the
supervisor treats a stale beacon as a hang and escalates to SIGKILL.
If the router connection drops, the worker shuts itself down -- an
orphaned shard must not keep burning CPU behind a dead front door.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

from repro.serve.scheduler import Backpressure
from repro.serve.service import VOService
from repro.shard.transport import (
    MessagePump,
    SendQueueFull,
    TransportClosed,
    connect_back,
)
from repro.snap.state import encode_session_record, restore_session_record
from repro.vo.config import TrackerConfig

__all__ = ["ShardSpec", "shard_worker_main"]


@dataclass
class ShardSpec:
    """Picklable recipe for one shard's inner ``VOService``.

    Travels as a plain spawn argument, so it must stay picklable under
    every start method.  ``idle_timeout_s`` defaults high: a sharded
    session's state must not idle-evict between frames -- the router
    owns placement, the shard only hosts.
    """

    workers: int = 1
    frontend: str = "pim"
    config: Optional[TrackerConfig] = None
    max_queue: int = 64
    idle_timeout_s: float = 3600.0
    max_sessions: int = 256
    min_service_s: float = 0.0
    device_clock_hz: Optional[float] = None
    max_retries: int = 1
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.25
    program_store: Optional[str] = None
    heartbeat_s: float = 0.25
    quiesce_timeout_s: float = 10.0
    start_method: str = "forkserver"

    def service_kwargs(self) -> dict:
        return {
            "workers": self.workers,
            "frontend": self.frontend,
            "config": self.config,
            "max_queue": self.max_queue,
            "idle_timeout_s": self.idle_timeout_s,
            "max_sessions": self.max_sessions,
            "min_service_s": self.min_service_s,
            "device_clock_hz": self.device_clock_hz,
            "max_retries": self.max_retries,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "program_store": self.program_store,
        }


class _ShardWorker:
    """The in-child event loop around one inner ``VOService``."""

    def __init__(self, shard_id: int, pump: MessagePump,
                 service: VOService, spec: ShardSpec):
        self.shard_id = shard_id
        self.pump = pump
        self.service = service
        self.spec = spec
        self._stop = threading.Event()
        self._hb_seq = 0

    # -- replies ---------------------------------------------------------

    def _reply(self, payload: dict) -> None:
        """Send one reply, blocking: replies must never be shed."""
        try:
            self.pump.send(payload, block=True, timeout=5.0)
        except (TransportClosed, SendQueueFull):
            self._stop.set()

    def _error_reply(self, msg: dict, exc: BaseException) -> dict:
        reply = {"op": "result", "id": msg.get("id"),
                 "shard": self.shard_id, "ok": False,
                 "error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, Backpressure):
            reply["retry_after_s"] = exc.retry_after_s
        return reply

    # -- op handlers -----------------------------------------------------

    def _handle_frame(self, msg: dict) -> None:
        session = msg["session"]
        try:
            self.service.sessions.touch(session)
            future = self.service.requeue_frame(
                session, int(msg["seq"]), msg["gray"], msg["depth"],
                msg.get("timestamp", 0.0),
                deadline_s=msg.get("deadline_s"))
        except BaseException as exc:  # noqa: BLE001 -- typed reply
            self._reply(self._error_reply(msg, exc))
            return

        def _complete(fut, req_id=msg.get("id")):
            if fut.cancelled():
                # Cancelled == the session was exported mid-queue; the
                # router re-dispatches from its pending table, so a
                # reply here would double-complete the request.
                return
            exc = fut.exception()
            if exc is not None:
                self._reply(self._error_reply(msg, exc))
            else:
                self._reply({"op": "result", "id": req_id,
                             "shard": self.shard_id, "ok": True,
                             "result": fut.result()})

        future.add_done_callback(_complete)

    def _checkpoint_sessions(self) -> dict:
        """Consistent per-session export of everything resident.

        The watermark is the session's **settled** watermark: the last
        router-assigned seq whose outcome the exported state reflects,
        a terminally failed frame's rollback included.  It is *not*
        the processed-frame count -- shed/expired frames never reach
        the state -- so only it lines up with the router's
        capture-tail pruning and failover replay plans.
        """
        out = {}
        for sid in self.service.sessions.sids():
            try:
                extracted = self.service.quiesce_session(
                    sid, timeout_s=self.spec.quiesce_timeout_s)
            except TimeoutError:
                continue
            try:
                record = self.service.sessions.export_session(sid)
            except (KeyError, RuntimeError):
                record = None
            for item in extracted:
                self.service.scheduler.submit(item)
            if record is not None:
                out[sid] = {"record": encode_session_record(record),
                            "watermark": int(record["applied_seq"])}
        return out

    def _handle_checkpoint(self, msg: dict) -> None:
        try:
            sessions = self._checkpoint_sessions()
        except BaseException as exc:  # noqa: BLE001
            self._reply(self._error_reply(msg, exc))
            return
        self._reply({"op": "result", "id": msg.get("id"),
                     "shard": self.shard_id, "ok": True,
                     "sessions": sessions})

    def _handle_export_session(self, msg: dict) -> None:
        sid = msg["session"]
        try:
            extracted = self.service.quiesce_session(
                sid, timeout_s=self.spec.quiesce_timeout_s)
            record = self.service.sessions.export_session(sid)
            self.service.sessions.remove(sid, reason="migrated")
        except BaseException as exc:  # noqa: BLE001
            self._reply(self._error_reply(msg, exc))
            return
        # The extracted futures belong to requests the router still
        # holds; cancelling suppresses their replies (see _complete)
        # and the router re-dispatches onto the new owner.
        pending = []
        for item in extracted:
            item.future.cancel()
            pending.append(int(item.seq))
        self._reply({"op": "result", "id": msg.get("id"),
                     "shard": self.shard_id, "ok": True,
                     "record": encode_session_record(record),
                     "watermark": int(record["applied_seq"]),
                     "pending_seqs": pending})

    def _handle_restore_session(self, msg: dict) -> None:
        try:
            session = restore_session_record(
                self.service.sessions, msg["record"])
        except BaseException as exc:  # noqa: BLE001
            self._reply(self._error_reply(msg, exc))
            return
        self._reply({"op": "result", "id": msg.get("id"),
                     "shard": self.shard_id, "ok": True,
                     "session": session.sid,
                     "generation": int(session.generation),
                     "frames": int(session.frames)})

    def _handle_stats(self, msg: dict) -> None:
        try:
            stats = self.service.stats()
        except BaseException as exc:  # noqa: BLE001
            self._reply(self._error_reply(msg, exc))
            return
        self._reply({"op": "result", "id": msg.get("id"),
                     "shard": self.shard_id, "ok": True,
                     "stats": stats,
                     "sessions": self.service.sessions.sids()})

    def _on_message(self, msg: object) -> None:
        if not isinstance(msg, dict):
            return
        op = msg.get("op")
        if op == "frame":
            self._handle_frame(msg)
        elif op == "checkpoint":
            self._handle_checkpoint(msg)
        elif op == "export_session":
            self._handle_export_session(msg)
        elif op == "restore_session":
            self._handle_restore_session(msg)
        elif op == "stats":
            self._handle_stats(msg)
        elif op == "shutdown":
            self._reply({"op": "result", "id": msg.get("id"),
                         "shard": self.shard_id, "ok": True})
            self._stop.set()

    # -- heartbeat -------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.spec.heartbeat_s):
            self._hb_seq += 1
            try:
                self.pump.send({
                    "op": "heartbeat", "shard": self.shard_id,
                    "n": self._hb_seq,
                    "sessions": len(self.service.sessions),
                    "healthy": self.service.healthy(),
                })
            except (TransportClosed, SendQueueFull):
                # A full queue just skips one beacon; a closed pump
                # ends the worker below.
                if self.pump.closed:
                    self._stop.set()

    # -- lifecycle -------------------------------------------------------

    def run(self) -> None:
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"shard-hb-{self.shard_id}", daemon=True)
        heartbeat.start()
        try:
            self._stop.wait()
        finally:
            self._stop.set()
            try:
                self.service.close()
            finally:
                self.pump.close()
            heartbeat.join(timeout=2.0)

    def stop(self) -> None:
        self._stop.set()


def shard_worker_main(shard_id: int, host: str, port: int,
                      token: bytes, spec: ShardSpec) -> None:
    """Child-process entry: build the service, dial back, serve ops."""
    sock = connect_back(host, port, token)
    service = VOService(**spec.service_kwargs())
    worker_box: dict = {}

    def _dispatch(msg: object) -> None:
        worker = worker_box.get("worker")
        if worker is not None:
            worker._on_message(msg)

    def _on_close() -> None:
        worker = worker_box.get("worker")
        if worker is not None:
            worker.stop()

    pump = MessagePump(sock, name=f"w{shard_id}",
                       on_message=_dispatch, on_close=_on_close)
    worker = _ShardWorker(shard_id, pump, service, spec)
    worker_box["worker"] = worker
    try:
        service.start()
    except BaseException:
        pump.close()
        raise
    pump.start()
    try:
        pump.send({"op": "hello", "shard": shard_id,
                   "pid": os.getpid()}, block=True, timeout=5.0)
    except (TransportClosed, SendQueueFull):
        worker.stop()
    worker.run()
