"""Supervision: crash/hang detection, respawn, periodic checkpoints.

The :class:`Supervisor` runs two daemon threads over a
:class:`~repro.shard.router.ShardRouter`:

**Monitor** (every ``poll_s``): a shard counts as *dead* when its
process is no longer alive, its transport closed, or -- the hang case
-- its heartbeat beacon is older than ``heartbeat_timeout_s`` (the
worker heartbeats every ``spec.heartbeat_s``, so the timeout is many
missed beats; keep it generous, because a worker saturated with
GIL-heavy tracking can legitimately starve its beacon thread for
seconds and a false positive costs a SIGKILL plus a failover).  A hung process is escalated with SIGKILL first, then
treated exactly like a crash.  Death triggers, in order: a
flight-recorder **crash incident** (dumped to ``incident_dir`` when
set, with the capture ring co-dumping a replay bundle via the PR 9
hook), **failover** of every resident session onto surviving shards
(:meth:`ShardRouter.fail_over`), and a **respawn schedule** from the
shard's :class:`~repro.shard.placement.RestartBackoff` -- exponential
delay, hard cap, and a restart budget after which the shard is marked
``failed`` and left down (a flapping worker must not take the router
down with it).  A shard that stays up ``reset_after_s`` earns its
budget back.

**Checkpointer** (every ``checkpoint_interval_s``): pulls a consistent
snapshot of every session on every up shard
(:meth:`ShardRouter.checkpoint_shard`), which also prunes the
router's capture ring up to each new watermark -- this loop is what
bounds both the failover replay cost and the ring's memory.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Optional

from repro.obs.metrics import get_registry
from repro.shard.router import BACKOFF, FAILED, UP, ShardRouter
from repro.shard.transport import SendQueueFull, TransportClosed

__all__ = ["Supervisor"]


class Supervisor:
    """Liveness monitor + respawner + periodic checkpointer."""

    def __init__(self, router: ShardRouter,
                 poll_s: float = 0.05,
                 heartbeat_timeout_s: float = 10.0,
                 checkpoint_interval_s: float = 1.0,
                 incident_dir=None):
        if router.inline:
            raise ValueError(
                "an inline router has no processes to supervise")
        self.router = router
        self.poll_s = poll_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.checkpoint_interval_s = checkpoint_interval_s
        self.incident_dir = incident_dir \
            if incident_dir is None else Path(incident_dir)
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._checkpointer: Optional[threading.Thread] = None
        self._incident_count = 0
        registry = get_registry()
        self._m_crashes = registry.counter(
            "serve_shard_crashes_total",
            "Shard worker deaths detected, by shard and reason")
        self._m_checkpoints = registry.counter(
            "serve_shard_checkpoints_total",
            "Periodic per-shard session checkpoints taken")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Supervisor":
        if self._monitor is not None:
            return self
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-supervisor",
            daemon=True)
        self._checkpointer = threading.Thread(
            target=self._checkpoint_loop, name="shard-checkpointer",
            daemon=True)
        self._monitor.start()
        self._checkpointer.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in (self._monitor, self._checkpointer):
            if thread is not None:
                thread.join(timeout=5.0)
        self._monitor = None
        self._checkpointer = None

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- monitoring ------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.poll_s):
            if self.router._closed:
                return
            # shard_ids() snapshots under the route lock -- iterating
            # self.router.shards directly would race a concurrent
            # add/remove_shard and RuntimeError this thread to death.
            for shard_id in self.router.shard_ids():
                handle = self.router.shards.get(shard_id)
                if handle is None:
                    continue
                try:
                    if handle.state == UP:
                        self._check_up(handle)
                    elif handle.state == BACKOFF and \
                            time.monotonic() >= handle.respawn_at and \
                            handle.respawn_at > 0:
                        self._respawn(handle)
                except Exception as exc:  # noqa: BLE001
                    # One shard's bad day must never kill the monitor
                    # thread -- that would silently end all
                    # supervision.  Log to the flight recorder and
                    # keep polling.
                    self.router.flight.event(
                        "supervisor_error", shard=shard_id,
                        error=type(exc).__name__, message=str(exc))

    def _check_up(self, handle) -> None:
        reason = None
        process = handle.process
        try:
            alive = process is not None and process.is_alive()
        except ValueError:  # already closed
            alive = False
        if not alive:
            reason = "crash"
        elif handle.pump is None or handle.pump.closed:
            reason = "transport"
        else:
            age = handle.heartbeat_age_s()
            if age is not None and age > self.heartbeat_timeout_s:
                # Hung, not dead: the process is alive but its beacons
                # stopped.  Escalate to SIGKILL, then recover exactly
                # like a crash.
                reason = "hang"
                try:
                    process.kill()
                except (ValueError, OSError):
                    pass
        if reason is None:
            handle.backoff.note_stable(handle.uptime_s())
            return
        self._handle_death(handle, reason)

    def _handle_death(self, handle, reason: str) -> None:
        shard_id = handle.shard_id
        process = handle.process
        if process is not None:
            try:
                process.join(timeout=5.0)
                # A killed worker's socket can close before its process
                # is reapable, so the monitor may see the transport go
                # first: a death by signal is a crash either way.
                if reason == "transport" and (process.exitcode or 0) < 0:
                    reason = "crash"
            except ValueError:
                pass
        self._m_crashes.inc(shard=str(shard_id), reason=reason)
        outcome = self.router.fail_over(shard_id, reason=reason)
        self._dump_incident(handle, reason, outcome)
        if handle.backoff.exhausted():
            handle.state = FAILED
            handle.respawn_at = 0.0
            self.router.flight.event(
                "shard_restart_budget_exhausted", shard=shard_id,
                budget=handle.backoff.budget)
            return
        delay = handle.backoff.next_delay_s()
        handle.state = BACKOFF
        handle.respawn_at = time.monotonic() + delay
        self.router.flight.event("shard_respawn_scheduled",
                                 shard=shard_id, delay_s=delay,
                                 reason=reason)

    def _dump_incident(self, handle, reason: str,
                       outcome: dict) -> None:
        """Crash incident: flight-recorder bundle (+ replay sibling)."""
        flight = self.router.flight
        flight.incident(
            f"shard_{reason}", session="", seq=handle.shard_id,
            spans=[])
        if self.incident_dir is None:
            return
        self._incident_count += 1
        self.incident_dir.mkdir(parents=True, exist_ok=True)
        path = self.incident_dir / (
            f"shard{handle.shard_id}_{reason}_"
            f"{self._incident_count}.json")
        try:
            flight.dump(path, reason=f"shard_{reason}",
                        shard=handle.shard_id, pid=handle.pid,
                        moved=outcome["moved"],
                        lost=outcome["lost"])
        except OSError:
            pass

    def _respawn(self, handle) -> None:
        shard_id = handle.shard_id
        try:
            self.router._spawn([handle])
        except Exception:  # noqa: BLE001 -- spawn failed: consume
            # another budget slot and retry later, or give up.
            if handle.backoff.exhausted():
                handle.state = FAILED
                handle.respawn_at = 0.0
            else:
                handle.respawn_at = time.monotonic() + \
                    handle.backoff.next_delay_s()
            return
        self.router.flight.event("shard_respawned", shard=shard_id,
                                 pid=handle.pid,
                                 restarts=handle.restarts)

    # -- checkpointing ---------------------------------------------------

    def _checkpoint_loop(self) -> None:
        while not self._stop.wait(self.checkpoint_interval_s):
            if self.router._closed:
                return
            self.checkpoint_now()

    def checkpoint_now(self) -> int:
        """One checkpoint sweep over every up shard; returns sessions
        checkpointed (also callable by hand, e.g. from tests)."""
        total = 0
        for shard_id in self.router.shard_ids():
            handle = self.router.shards.get(shard_id)
            if handle is None or handle.state != UP:
                continue
            try:
                count = self.router.checkpoint_shard(shard_id)
            except (TransportClosed, SendQueueFull, TimeoutError,
                    RuntimeError, KeyError):
                continue
            if count:
                self._m_checkpoints.inc()
                total += count
        return total

    def stats(self) -> dict:
        return {
            "running": self._monitor is not None,
            "poll_s": self.poll_s,
            "heartbeat_timeout_s": self.heartbeat_timeout_s,
            "checkpoint_interval_s": self.checkpoint_interval_s,
            "incidents_dumped": self._incident_count,
        }
