"""Chaos harness: one seeded storm loop against the live serving stack.

The conformance harness (:mod:`repro.verify.matrix`) pins what the
simulator *computes*; this module pins how the full serving stack
*recovers*.  :func:`run_chaos` drives concurrent client sessions
through a deterministic storm derived from one seed, exactly like
:mod:`repro.serve.loadgen` but under one of three disruptions
(``ChaosConfig.disruption``):

* ``faults`` -- frame faults (dropped frames, bit-rotted images,
  depth holes, stalled clients) via
  :class:`~repro.dataset.synthetic.FrameCorruptor`, plus device faults
  via :class:`~repro.pim.faults.FaultInjector` armed on live pool
  workers mid-run, against one ``VOService``.
* ``migrate`` -- the same frame faults; at the disruption frame every
  client parks, one worker dies, and every session drains onto a
  second ``VOService``.
* ``kill`` -- clean frames through a supervised
  :class:`~repro.shard.router.ShardRouter`; every client parks for a
  checkpoint sweep two frames before the disruption frame, then again
  while the busiest shard processes are SIGKILLed.

Everything else is shared: one client loop, one classification, one
bit-identity comparison and one report (``repro.verify.chaos/2``).
Each session is classified:

* ``recovered`` -- finished with tracking health ``OK`` and an ATE
  within the inflation bound of its clean solo reference.
* ``degraded``  -- ATE within bound but final health not ``OK``.
* ``unrecovered`` -- ATE beyond bound, final health ``LOST``, or a
  terminal frame error with no successful frame after it.

Every disruption requires zero unrecovered sessions and every
injected fault attributed in the recovery report (repair events on
the served frame, a device eviction, or a client-side record).  On
top of that:

* ``faults`` -- a pre-storm control session is bit-identical to the
  solo tracker, pinning that the fault-free path is unchanged by the
  resilience machinery.
* ``migrate`` -- migrated poses and health are bit-identical to an
  unmigrated control run of the same storm.
* ``kill`` -- zero frame errors, every trajectory bit-identical to its
  unkilled solo run, no lost sessions, at least one failover, and
  every victim back up with restart budget left.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dataset.synthetic import FrameCorruptor
from repro.evaluation.ate import absolute_trajectory_error
from repro.obs.metrics import get_registry
from repro.obs.stamp import run_stamp
from repro.obs.tracer import get_tracer
from repro.pim.faults import FaultInjector, FaultPlan
from repro.serve.loadgen import (
    build_workload,
    solo_trajectories,
    trajectories_match,
)
from repro.serve.scheduler import Backpressure
from repro.serve.service import _FRONTENDS, VOService
from repro.vo.config import TrackerConfig
from repro.vo.health import LOST, OK

__all__ = ["ChaosConfig", "InjectedFault",
           "build_fault_storm", "run_chaos", "main"]

log = logging.getLogger(__name__)

#: Frame-fault kinds, in injection-cycling order.
FRAME_FAULTS = ("bitrot", "depth-holes", "drop", "stall")

#: Disruption -> (frame faults, device faults) it storms with.  Device
#: faults corrupt shared worker devices as a function of dispatch
#: timing, so a storm compared against a second run of itself
#: (``migrate``) cannot use them; ``kill`` compares against clean solo
#: runs, so the kill itself is its only fault.
_FAULT_KINDS = {"faults": (True, True), "migrate": (True, False),
                "kill": (False, False)}
DISRUPTIONS = tuple(_FAULT_KINDS)


@dataclass
class ChaosConfig:
    """One chaos run, fully determined by these knobs."""

    seed: int = 0
    sessions: int = 4
    frames: int = 40
    scale: float = 0.25
    workers: int = 2
    frontend: str = "pim"
    device_detect: bool = True
    #: Fraction of each faulted session's frames that get a frame
    #: fault (session 0 is always the fault-free control).
    frame_fault_rate: float = 0.15
    #: Worker-device fault injections across the whole run.
    device_faults: int = 2
    #: Client stall duration for ``stall`` faults.
    stall_s: float = 0.15
    #: Transient read-corruption probability of device faults.
    read_flip_prob: float = 0.002
    #: A session recovers if ``ate <= max(clean_ate * ate_inflation,
    #: ate_floor_m)``.
    ate_inflation: float = 5.0
    ate_floor_m: float = 0.05
    #: One of :data:`DISRUPTIONS`.
    disruption: str = "faults"
    #: Sequence index every client rendezvouses at for the migration
    #: or the kill (``None`` = ``max(3, frames // 2)``).
    disrupt_frame: Optional[int] = None
    #: Kill storms: shard worker *processes* behind the router and how
    #: many get SIGKILLed.
    shards: int = 3
    kills: int = 1


@dataclass
class InjectedFault:
    """One scheduled fault and, after the run, its attribution."""

    sid: str
    frame: int                 # sequence index the fault lands on
    kind: str                  # FRAME_FAULTS entry or "device"
    worker: Optional[int] = None   # device faults: target worker
    attributed: bool = False
    evidence: str = ""

    def to_dict(self) -> dict:
        return {
            "sid": self.sid, "frame": self.frame, "kind": self.kind,
            "worker": self.worker, "attributed": self.attributed,
            "evidence": self.evidence,
        }


def build_fault_storm(config: ChaosConfig
                      ) -> Tuple[List[InjectedFault], List[InjectedFault]]:
    """Derive the deterministic fault schedule from the seed.

    Returns ``(frame_faults, device_faults)``, restricted to the kinds
    ``config.disruption`` storms with.  Session 0 is left fault-free
    as the bit-identity control; every other session gets at least one
    frame fault.  Faults land on frames >= 2 (the first keyframe
    anchors clean) and device faults land before the final stretch so
    the eviction that clears them is observed within the run.
    """
    frame_on, device_on = _FAULT_KINDS[config.disruption]
    rng = np.random.default_rng(config.seed)
    frame_faults: List[InjectedFault] = []
    kind_cursor = 0
    for i in range(1, config.sessions if frame_on else 1):
        sid = f"client-{i}"
        n = max(1, int(round(config.frame_fault_rate * config.frames)))
        lo, hi = 2, max(3, config.frames - 2)
        picks = sorted(rng.choice(np.arange(lo, hi),
                                  size=min(n, hi - lo),
                                  replace=False).tolist())
        for frame in picks:
            kind = FRAME_FAULTS[kind_cursor % len(FRAME_FAULTS)]
            kind_cursor += 1
            frame_faults.append(InjectedFault(sid=sid, frame=int(frame),
                                              kind=kind))
    device_faults: List[InjectedFault] = []
    if config.sessions > 1 and device_on:
        hi = max(4, config.frames - 6)
        for j in range(config.device_faults):
            sid = f"client-{1 + j % (config.sessions - 1)}"
            frame = int(rng.integers(max(2, config.frames // 4), hi))
            worker = int(rng.integers(0, config.workers))
            device_faults.append(InjectedFault(
                sid=sid, frame=frame, kind="device", worker=worker))
    return frame_faults, device_faults


def _disrupt_frame(config: ChaosConfig) -> int:
    """Validate the disruption's knobs; returns the rendezvous frame."""
    if config.disruption not in DISRUPTIONS:
        raise ValueError(f"unknown disruption {config.disruption!r}; "
                         f"choose from {list(DISRUPTIONS)}")
    frame = (config.disrupt_frame if config.disrupt_frame is not None
             else max(3, config.frames // 2))
    if config.disruption == "migrate":
        if config.sessions < 2:
            raise ValueError("migration storm needs >= 2 sessions "
                             "(session 0 stays the fault-free control)")
        if not 0 < frame < config.frames:
            raise ValueError(f"disrupt_frame {frame} outside the run "
                             f"(1..{config.frames - 1})")
    elif config.disruption == "kill":
        if config.shards < 2:
            raise ValueError("kill storm needs >= 2 shards (someone "
                             "must survive)")
        if not 0 < config.kills < config.shards:
            raise ValueError("kills must leave at least one shard up")
        # The checkpoint park sits two frames earlier, past frame 0.
        if not 2 < frame < config.frames:
            raise ValueError(f"disrupt_frame {frame} outside the run "
                             f"(3..{config.frames - 1})")
    return frame


def _tracker_config(config: ChaosConfig) -> TrackerConfig:
    """The one camera model: the workload renders at ``scale``, so the
    tracker's intrinsics scale with it (as in ``repro.serve``)."""
    tracker = TrackerConfig(pim_device_detect=config.device_detect)
    if config.scale != 1.0:
        tracker = dataclasses.replace(
            tracker, camera=tracker.camera.scaled(config.scale))
    return tracker


@dataclass
class _ChaosClient:
    """One session's live bookkeeping during the storm."""

    sid: str
    #: Sequence index of each *successful* submission, in order.
    tracked: List[int] = field(default_factory=list)
    results: List = field(default_factory=list)
    dropped: int = 0
    stalls: int = 0
    errors: int = 0
    #: Sequence index of the last terminal frame error (-1 = none).
    last_error_frame: int = -1
    #: Sequence index of the last successful frame (-1 = none).
    last_ok_frame: int = -1
    backpressure_retries: int = 0


def _arm_device_fault(service: VOService, fault: InjectedFault,
                      seed: int,
                      read_flip_prob: float) -> Optional[FaultInjector]:
    """Attach a fault injector to the target worker's devices.

    Prefers the scheduled worker; falls back to any worker that has
    materialised devices (they are created lazily per shape).  Returns
    the injector, or ``None`` when no device exists yet.
    """
    workers = service.pool.workers
    order = [fault.worker] + [w.index for w in workers
                              if w.index != fault.worker]
    plan = FaultPlan(seed=seed, stored_flips=((0, 0),),
                     read_flip_prob=read_flip_prob)
    for index in order:
        devices = list(workers[index]._devices())
        if not devices:
            continue
        injector = FaultInjector(plan)
        for dev in devices:
            dev.attach_fault_injector(injector)
        fault.worker = index
        log.warning("chaos: armed device fault on worker %d "
                    "(%d devices) at %s frame %d", index,
                    len(devices), fault.sid, fault.frame)
        return injector
    return None


def _apply_and_submit(service, sid: str, index: int,
                      frame, fault: Optional[InjectedFault],
                      corruptor: FrameCorruptor, stall_s: float,
                      client: _ChaosClient) -> None:
    """Apply one frame's scheduled fault (if any) and submit it.

    Fault application is a pure function of ``(corruptor seed, index,
    kind)``, so two runs fed the same schedule submit bit-identical
    pixels -- the property the migration storm's control comparison
    rests on.
    """
    submit = frame
    if fault is not None:
        if fault.kind == "drop":
            client.dropped += 1
            fault.attributed = True
            fault.evidence = "client dropped frame before submit"
            return
        if fault.kind == "stall":
            client.stalls += 1
            time.sleep(stall_s)
            fault.attributed = True
            fault.evidence = f"client stalled {stall_s:.2f}s"
        else:
            submit = corruptor.corrupt(frame, fault.kind)
    while True:
        try:
            result = service.submit(sid, submit.gray, submit.depth,
                                    submit.timestamp, timeout=120)
            client.tracked.append(index)
            client.results.append(result)
            client.last_ok_frame = index
            if fault is not None and not fault.attributed:
                repaired = [e for e in result.events
                            if e.startswith("repaired:")]
                signals = [e for e in result.events
                           if e.startswith("signal:")]
                if repaired or signals:
                    fault.attributed = True
                    fault.evidence = "events: " + ",".join(
                        repaired + signals)
            return
        except Backpressure as bp:
            client.backpressure_retries += 1
            time.sleep(max(bp.retry_after_s, 0.001))
        except Exception as exc:  # noqa: BLE001 -- chaos outcome
            client.errors += 1
            client.last_error_frame = index
            if fault is not None and not fault.attributed:
                fault.attributed = True
                fault.evidence = (
                    f"frame error: {type(exc).__name__}")
            log.warning("chaos: %s frame %d failed terminally "
                        "(%s)", sid, index, type(exc).__name__)
            return


class _ServiceHolder:
    """Mutable pointer to what clients submit to: a ``VOService`` or
    a ``ShardRouter``.

    The migration coordinator flips ``service`` from source to target
    while every client is parked at the rendezvous, so no submit can
    race the migration and recreate a sid as a fresh stream on the
    source.
    """

    def __init__(self, service):
        self.service = service


class _Rendezvous:
    """Clients park here at ``frame``; the coordinator disrupts, then
    releases them."""

    def __init__(self, frame: int, parties: int):
        self.frame = frame
        self.barrier = threading.Barrier(parties)
        self.released = threading.Event()

    def arrive(self) -> None:
        self.barrier.wait(timeout=60.0)
        if not self.released.wait(timeout=60.0):
            raise TimeoutError("chaos coordinator never released "
                               "the rendezvous")


class _Storm:
    """One run of the storm: the clients, their fault schedule, the
    service they submit to, and the rendezvous they park at."""

    def __init__(self, config: ChaosConfig, workload, service,
                 faults=((), ()), stops=()):
        self.config = config
        self.workload = workload
        self.holder = _ServiceHolder(service)
        self.frame_faults, self.device_faults = map(list, faults)
        self.stops = list(stops)
        self.clients = {sid: _ChaosClient(sid=sid) for sid in workload}
        self.injectors: List[FaultInjector] = []
        self._injectors_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._t0 = 0.0

    def start(self) -> "_Storm":
        self._threads = [
            threading.Thread(target=self._client, args=(i, sid),
                             name=f"chaos-{sid}")
            for i, sid in enumerate(self.workload)]
        self._t0 = time.perf_counter()
        for t in self._threads:
            t.start()
        return self

    def join(self) -> float:
        """Wait for every client; returns the storm's wall time."""
        for t in self._threads:
            t.join()
        return time.perf_counter() - self._t0

    def _client(self, i: int, sid: str) -> None:
        corruptor = FrameCorruptor(seed=self.config.seed * 1000 + i)
        faults = {f.frame: f for f in self.frame_faults if f.sid == sid}
        device_faults = {f.frame: f for f in self.device_faults
                         if f.sid == sid}
        for index, frame in enumerate(self.workload[sid].frames):
            for stop in self.stops:
                if stop.frame == index:
                    stop.arrive()
            device_fault = device_faults.get(index)
            if device_fault is not None:
                injector = _arm_device_fault(
                    self.holder.service, device_fault,
                    seed=corruptor.seed + index,
                    read_flip_prob=self.config.read_flip_prob)
                if injector is not None:
                    with self._injectors_lock:
                        self.injectors.append(injector)
                    device_fault.evidence = "armed"
            _apply_and_submit(self.holder.service, sid, index, frame,
                              faults.get(index), corruptor,
                              self.config.stall_s, self.clients[sid])

    def poses(self) -> Dict[str, List]:
        return {sid: [r.pose for r in c.results]
                for sid, c in self.clients.items()}

    def health(self) -> Dict[str, List[Tuple[int, str]]]:
        return {sid: [(i, r.health) for i, r in zip(c.tracked,
                                                    c.results)]
                for sid, c in self.clients.items()}


@dataclass
class _Disrupted:
    """What one coordinator step hands back to :func:`run_chaos`."""

    storm: _Storm                     # the run that gets classified
    wall_s: float
    flight: object                    # FlightRecorder to dump
    served: Dict[str, List]           # poses under the identity gate
    reference: Dict[str, List]        # ... and what they must equal
    reference_name: str
    facts: dict                       # report["disruption"]
    #: ``migrate`` only: sid -> ((frame, health) served, ... control).
    health: Dict[str, tuple] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _service(config: ChaosConfig, tracker_config) -> VOService:
    return VOService(workers=config.workers, frontend=config.frontend,
                     config=tracker_config)


def _disrupt_faults(config, workload, tracker_config, solo,
                    frame, incident_dir) -> _Disrupted:
    """Faults: a pre-storm control phase, then the storm -- device
    faults are armed by the clients themselves."""
    evictions = get_registry().counter("serve_device_evictions_total")
    evictions_before = evictions.total()
    with _service(config, tracker_config) as service:
        # The control sequence through the full serve stack *before*
        # any fault is armed.  Device faults corrupt a shared worker,
        # so only a storm-free phase can pin the fault-free path
        # bit-for-bit against the solo tracker.
        control = _Storm(config, {"control": workload["client-0"]},
                         service).start()
        control.join()
        storm = _Storm(config, workload, service,
                       build_fault_storm(config)).start()
        wall_s = storm.join()
    evictions_delta = int(evictions.total() - evictions_before)

    # Device-fault attribution: an armed injector makes its devices
    # suspect, so the owning worker's next frame evicts (resets) them
    # -- the eviction counter is the evidence.
    armed = [f for f in storm.device_faults if f.evidence == "armed"]
    fired = sum(inj.read_faults + inj.stored_faults
                for inj in storm.injectors)
    for i, fault in enumerate(armed):
        if i < evictions_delta:
            fault.attributed = True
            fault.evidence = (f"worker {fault.worker} device evicted "
                              f"({fired} bits corrupted across run)")
    for fault in storm.device_faults:
        if fault.evidence == "":
            # No devices existed yet when the client tried to arm it:
            # nothing was injected, so nothing to attribute.
            fault.attributed = True
            fault.evidence = "skipped: no devices materialised"
    return _Disrupted(
        storm=storm, wall_s=wall_s, flight=service.flight,
        served={"client-0": control.poses()["control"]},
        reference={"client-0": solo["client-0"]},
        reference_name="solo client-0 run",
        facts={"kind": "faults", "device_evictions": evictions_delta,
               "device_bits_corrupted": fired})


def _disrupt_migrate(config, workload, tracker_config, solo,
                     frame, incident_dir) -> _Disrupted:
    """Migrate: an unmigrated control run of the storm, then the same
    storm with a worker kill and a whole-service drain at ``frame``.

    Frame faults are pure functions of the seed, so both runs see
    bit-identical inputs -- any output divergence is migration state
    loss.
    """
    with _service(config, tracker_config) as service:
        control = _Storm(config, workload, service,
                         build_fault_storm(config)).start()
        control.join()

    migrated_ctr = get_registry().counter(
        "serve_sessions_migrated_total")
    migrated_before = migrated_ctr.total()
    source = _service(config, tracker_config)
    target = _service(config, tracker_config)
    stop = _Rendezvous(frame, parties=len(workload) + 1)
    with source, target:
        storm = _Storm(config, workload, source,
                       build_fault_storm(config), [stop]).start()
        # Once every client is parked the "node failure" happens --
        # one worker dies -- and the operator response is a
        # whole-service drain onto the target.
        stop.barrier.wait(timeout=60.0)
        killed_worker = config.workers - 1
        source.pool.workers[killed_worker].stop()
        source.flight.event("worker_killed", worker=killed_worker,
                            reason="chaos_migration_storm")
        drained = source.drain_to(target)
        storm.holder.service = target
        stop.released.set()
        wall_s = storm.join()
    served_health, control_health = storm.health(), control.health()
    return _Disrupted(
        storm=storm, wall_s=wall_s, flight=source.flight,
        served=storm.poses(), reference=control.poses(),
        reference_name="unmigrated control run",
        health={sid: (served_health[sid], control_health[sid])
                for sid in workload},
        facts={"kind": "migrate", "disrupt_frame": frame,
               "killed_worker": killed_worker, "drained": drained,
               "sessions_migrated": int(migrated_ctr.total() -
                                        migrated_before)})


def _await_respawns(router, victims: List[int],
                    deadline_s: float) -> dict:
    """Wait until every victim is back up with its restart counted.

    Each poll reads state and restart count from one
    ``shards_status()`` snapshot: the router publishes ``up`` under
    its route lock only after the restart is accounted, so an ``up``
    row with ``restarts == 0`` is the pre-kill state, never a respawn.
    """
    deadline = time.monotonic() + deadline_s
    while True:
        rows = {r["shard"]: r for r in router.shards_status()["shards"]}
        waiting = [v for v in victims
                   if rows[v]["state"] != "up" or not rows[v]["restarts"]]
        if not waiting or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    return {v: {"state": rows[v]["state"],
                "restarts": rows[v]["restarts"],
                "budget_remaining": rows[v]["restart_budget_remaining"]}
            for v in victims}


def _disrupt_kill(config, workload, tracker_config, solo,
                  frame, incident_dir) -> _Disrupted:
    """Kill: clients park once so a checkpoint sweep lands two frames
    before ``frame``, then again while the busiest shards die.  Frames
    between the parks ride only the router's capture-ring tail --
    exactly the state the failover replay has to rebuild."""
    from repro.shard import ShardRouter, ShardSpec, Supervisor

    spec = ShardSpec(workers=config.workers, frontend=config.frontend,
                     config=tracker_config,
                     device_detect=config.device_detect,
                     heartbeat_s=0.1)
    checkpoint_stop = _Rendezvous(frame - 2, parties=len(workload) + 1)
    kill_stop = _Rendezvous(frame, parties=len(workload) + 1)
    respawn_deadline_s = 60.0
    with ShardRouter(shards=config.shards, spec=spec,
                     incident_dir=incident_dir) as router, \
            Supervisor(router, poll_s=0.02,
                       heartbeat_timeout_s=5.0,
                       incident_dir=incident_dir) as supervisor:
        storm = _Storm(config, workload, router,
                       stops=[checkpoint_stop, kill_stop]).start()
        checkpoint_stop.barrier.wait(timeout=120.0)
        checkpointed = supervisor.checkpoint_now()
        checkpoint_stop.released.set()

        # Kill the busiest shards: maximum sessions in flight, maximum
        # failover work.
        kill_stop.barrier.wait(timeout=120.0)
        by_load = sorted(
            (s for s, h in router.shards.items() if h.state == "up"),
            key=lambda s: -sum(1 for p in router._placement.values()
                               if p == s))
        victims = by_load[:config.kills]
        for victim in victims:
            os.kill(router.shards[victim].pid, signal.SIGKILL)
            log.warning("chaos: SIGKILLed shard %d (pid %d)", victim,
                        router.shards[victim].pid)
        kill_stop.released.set()
        wall_s = storm.join()
        respawns = _await_respawns(router, victims, respawn_deadline_s)
        status = router.shards_status()

    problems = [f"{sid}: {c.errors} frame errors"
                for sid, c in storm.clients.items() if c.errors]
    if status["lost_sessions"]:
        problems.append(
            f"sessions lost in failover: {status['lost_sessions']}")
    if status["failovers_total"] < 1:
        problems.append("kill produced no failovers -- the storm "
                        "never landed")
    for victim, entry in respawns.items():
        if entry["state"] != "up" or not entry["restarts"]:
            problems.append(
                f"shard {victim} never respawned (state "
                f"{entry['state']} after {respawn_deadline_s:.0f}s)")
        elif entry["budget_remaining"] <= 0:
            problems.append(
                f"shard {victim} exhausted its restart budget "
                f"recovering from one kill")
    bundles = []
    if incident_dir is not None:
        bundles = sorted(p.name for p in
                         Path(incident_dir).glob("shard*_*.json"))
    return _Disrupted(
        storm=storm, wall_s=wall_s, flight=router.flight,
        served=storm.poses(), reference=solo,
        reference_name="unkilled solo runs", problems=problems,
        facts={"kind": "kill", "disrupt_frame": frame,
               "shards": config.shards, "kills": victims,
               "checkpoint_frame": frame - 2,
               "checkpointed_sessions": checkpointed,
               "failovers_total": status["failovers_total"],
               "lost_sessions": status["lost_sessions"],
               "respawns": respawns, "shards_status": status,
               "incident_bundles": bundles})


_COORDINATORS = {"faults": _disrupt_faults, "migrate": _disrupt_migrate,
                 "kill": _disrupt_kill}


def _classify(client: _ChaosClient, ate_m: Optional[float],
              bound_m: float) -> Tuple[str, str]:
    """Session outcome and the reason it was assigned."""
    if not client.results:
        return "unrecovered", "no frame ever tracked"
    if client.last_error_frame > client.last_ok_frame:
        return "unrecovered", (
            f"terminal error on frame {client.last_error_frame} "
            f"with no recovery after it")
    final_health = client.results[-1].health
    if ate_m is not None and ate_m > bound_m:
        return "unrecovered", (
            f"ATE {ate_m:.4f} m exceeds bound {bound_m:.4f} m")
    if final_health == LOST:
        return "unrecovered", "session finished LOST"
    if final_health != OK:
        return "degraded", f"final health {final_health}"
    faults_seen = (client.errors or client.dropped or
                   any(r.events for r in client.results))
    return "recovered", ("came back healthy within bound"
                         if faults_seen else
                         "clean finish within bound")


def _bit_identity(run: _Disrupted) -> List[str]:
    problems = trajectories_match(run.served, run.reference)
    for sid, (got, want) in run.health.items():
        if got != want:
            first = next((g, w) for g, w in zip(got + [None],
                                                want + [None])
                         if g != w)
            problems.append(f"{sid}: (frame, health) diverged from "
                            f"the {run.reference_name}: {first[0]} vs "
                            f"{first[1]}")
    return problems


def run_chaos(config: ChaosConfig, incident_dir=None) -> dict:
    """Run one seeded storm under ``config.disruption``; returns the
    JSON-ready ``repro.verify.chaos/2`` report.

    With ``incident_dir`` set, a failed run dumps the flight-recorder
    bundle (recent events plus captured failed-request span trees) to
    ``<incident_dir>/chaos_incident.json`` for post-mortems; a kill
    storm's supervisor also writes its crash bundles there.
    """
    frame = _disrupt_frame(config)
    registry = get_registry()
    recovered_ctr = registry.counter(
        "chaos_recovered_total", "Chaos sessions by final outcome")
    injected_ctr = registry.counter(
        "chaos_faults_injected_total",
        "Faults injected by the chaos harness, by kind")

    with get_tracer().span("chaos.storm", disruption=config.disruption,
                           seed=config.seed, sessions=config.sessions,
                           frames=config.frames):
        workload = build_workload(sessions=config.sessions,
                                  frames=config.frames,
                                  scale=config.scale, seed=config.seed)
        tracker_config = _tracker_config(config)
        # Clean references: each sequence through an isolated tracker
        # with the same config.
        solo = solo_trajectories(workload, _FRONTENDS[config.frontend],
                                 tracker_config)
        run = _COORDINATORS[config.disruption](
            config, workload, tracker_config, solo, frame, incident_dir)

    faults = run.storm.frame_faults + run.storm.device_faults
    for fault in faults:
        injected_ctr.inc(kind=fault.kind)
    sessions_report = {}
    unrecovered = []
    for sid, client in run.storm.clients.items():
        ate_m = None
        if client.results:
            estimated = [r.pose for r in client.results]
            groundtruth = [workload[sid].groundtruth[i]
                           for i in client.tracked]
            if len(estimated) >= 3:
                ate_m = absolute_trajectory_error(
                    estimated, groundtruth).rmse
        clean_ate = absolute_trajectory_error(
            solo[sid], workload[sid].groundtruth).rmse
        bound_m = max(clean_ate * config.ate_inflation,
                      config.ate_floor_m)
        outcome, reason = _classify(client, ate_m, bound_m)
        recovered_ctr.inc(outcome=outcome)
        if outcome == "unrecovered":
            unrecovered.append(sid)
        sessions_report[sid] = {
            "sequence": workload[sid].name,
            "frames": config.frames,
            "tracked": len(client.results),
            "dropped": client.dropped,
            "stalls": client.stalls,
            "errors": client.errors,
            "backpressure_retries": client.backpressure_retries,
            "final_health": (client.results[-1].health
                             if client.results else None),
            "ate_m": ate_m,
            "clean_ate_m": clean_ate,
            "bound_m": bound_m,
            "outcome": outcome,
            "reason": reason,
            "faults": [f.to_dict() for f in faults if f.sid == sid],
        }

    identity = _bit_identity(run)
    unattributed = [f.to_dict() for f in faults if not f.attributed]
    problems = (
        run.problems
        + [f"bit identity vs {run.reference_name}: {p}"
           for p in identity]
        + [f"unrecovered {sid}: {sessions_report[sid]['reason']}"
           for sid in unrecovered]
        + [f"unattributed {f['kind']} fault on {f['sid']} frame "
           f"{f['frame']}" for f in unattributed])

    # A failed run is the chaos harness's incident: the flight
    # recorder's lead-up (events plus failed-request span trees)
    # survives as a dumped bundle.
    for sid in unrecovered:
        run.flight.incident("chaos_unrecovered", session=sid,
                            detail=sessions_report[sid]["reason"])
    if problems and incident_dir is not None:
        run.flight.dump(
            Path(incident_dir) / "chaos_incident.json",
            reason=("chaos_unrecovered" if unrecovered
                    else "chaos_failed"),
            sessions=unrecovered, problems=problems, seed=config.seed)

    return {
        "schema": "repro.verify.chaos/2",
        **run_stamp(),
        "disruption": run.facts,
        "config": dataclasses.asdict(config),
        "ok": not problems,
        "problems": problems,
        "wall_s": run.wall_s,
        "faults_injected": len(faults),
        "unattributed_faults": unattributed,
        "unrecovered_sessions": unrecovered,
        "bit_identity": {"reference": run.reference_name,
                         "ok": not identity, "problems": identity},
        "sessions": sessions_report,
        "flight": run.flight.stats(),
    }


def main(argv=None) -> int:
    """``python -m repro.verify chaos``: run the storm, gate the SLO."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify chaos",
        description="Seeded chaos storm against the live serving stack")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--frames", type=int, default=40)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--frontend", default="pim",
                        choices=sorted(_FRONTENDS))
    parser.add_argument("--no-device-detect", action="store_true",
                        help="keep edge detection on the host")
    parser.add_argument("--device-faults", type=int, default=2)
    disruption = parser.add_mutually_exclusive_group()
    disruption.add_argument(
        "--migrate", dest="disruption", action="store_const",
        const="migrate",
        help="kill a worker mid-storm, drain to a second service, "
             "gate bit-identity vs an unmigrated control run")
    disruption.add_argument(
        "--kill", dest="disruption", action="store_const",
        const="kill",
        help="SIGKILL shard worker processes mid-stream, gate zero "
             "lost sessions, solo bit-identity, and respawn within "
             "the restart budget")
    parser.set_defaults(disruption="faults")
    parser.add_argument("--disrupt-frame", type=int, default=None,
                        help="rendezvous frame for --migrate/--kill "
                             "(default: max(3, frames // 2))")
    parser.add_argument("--shards", type=int, default=3,
                        help="shard worker processes for --kill")
    parser.add_argument("--kill-count", type=int, default=1,
                        help="how many shards get SIGKILLed")
    parser.add_argument("--out", default="chaos_report.json",
                        help="where to write the recovery report")
    args = parser.parse_args(argv)

    config = ChaosConfig(seed=args.seed, sessions=args.sessions,
                         frames=args.frames, scale=args.scale,
                         workers=args.workers, frontend=args.frontend,
                         device_detect=not args.no_device_detect,
                         device_faults=args.device_faults,
                         disruption=args.disruption,
                         disrupt_frame=args.disrupt_frame,
                         shards=args.shards, kills=args.kill_count)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report = run_chaos(config, incident_dir=out.parent)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    outcomes = {sid: s["outcome"]
                for sid, s in report["sessions"].items()}
    facts = ", ".join(f"{k}={v}" for k, v in report["disruption"].items()
                      if not isinstance(v, dict))
    print(f"chaos: {report['faults_injected']} faults over "
          f"{config.sessions} sessions x {config.frames} frames "
          f"in {report['wall_s']:.1f}s; outcomes: {outcomes}")
    print(f"disruption: {facts}")
    print(f"report: {out}")
    for problem in report["problems"]:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not report["ok"]:
        return 1
    print(f"OK (bit-identical to the "
          f"{report['bit_identity']['reference']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
