"""Supervised failover: crash detection, respawn, lossless recovery.

These are the acceptance tests of the shard plane: SIGKILL a worker
mid-stream and the affected sessions must complete on a surviving
shard with trajectories bit-identical to an unkilled control run,
the dead slot must respawn within its backoff budget, and a shard
that keeps dying must end up ``failed`` instead of flapping forever.
"""

import os
import signal
import time

import pytest

from repro.geometry.camera import TUM_QVGA
from repro.serve.scheduler import Backpressure, DeadlineExceeded
from repro.serve import (
    build_workload,
    service_trajectories,
    solo_trajectories,
    trajectories_match,
)
from repro.shard import ShardRouter, ShardSpec, Supervisor
from repro.vo import PIMFrontend, TrackerConfig

TINY_CAMERA = TUM_QVGA.scaled(0.25)
CONFIG = TrackerConfig(camera=TINY_CAMERA)


def _spec(**overrides):
    kwargs = dict(workers=1, frontend="pim", config=CONFIG,
                  heartbeat_s=0.1)
    kwargs.update(overrides)
    return ShardSpec(**kwargs)


def _submit_all(router, workload, frames_slice, results):
    for sid, seq in workload.items():
        for f in seq.frames[frames_slice]:
            results[sid].append(
                _submit_retry(router, sid, f))


def _submit_retry(router, sid, f, timeout_s=120.0):
    """Submit with the documented client contract: a Backpressure
    shed (e.g. while the session is parked mid-failover) retries."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return router.submit(sid, f.gray, f.depth, f.timestamp,
                                 timeout=timeout_s)
        except Backpressure as exc:
            if time.monotonic() >= deadline:
                raise
            time.sleep(min(max(exc.retry_after_s, 0.01), 0.25))


def _busiest_shard(router):
    return max(router.shards,
               key=lambda s: sum(1 for p in router._placement.values()
                                 if p == s))


def _wait(predicate, timeout_s=30.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    pytest.fail(f"timed out waiting for {what}")


class TestKillFailover:
    def test_sigkill_loses_nothing_and_respawns(self):
        """Checkpoint, stream past it, SIGKILL the busiest shard:
        every session finishes bit-identical to its solo run, zero
        sessions lost, and the dead slot comes back up."""
        workload = build_workload(sessions=3, frames=6, scale=0.25)
        results = {sid: [] for sid in workload}
        with ShardRouter(shards=3, spec=_spec()) as router, \
                Supervisor(router, poll_s=0.02,
                           heartbeat_timeout_s=5.0) as supervisor:
            _submit_all(router, workload, slice(0, 2), results)
            assert supervisor.checkpoint_now() == len(workload)
            # Frames past the checkpoint ride the capture-ring tail.
            _submit_all(router, workload, slice(2, 4), results)
            victim = _busiest_shard(router)
            os.kill(router.shards[victim].pid, signal.SIGKILL)
            _wait(lambda: router._failovers > 0, what="failover")
            _submit_all(router, workload, slice(4, 6), results)
            _wait(lambda: router.shards[victim].state == "up" and
                  router.shards[victim].restarts == 1,
                  what="respawn")
            status = router.shards_status()
            assert status["lost_sessions"] == []
            assert status["failovers_total"] >= 1
            assert router.shards[victim].restarts == 1
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []

    def test_inflight_futures_survive_the_kill(self):
        """Requests pending on the dead shard are re-dispatched under
        their original ids: the client's future completes normally."""
        workload = build_workload(sessions=2, frames=4, scale=0.25)
        results = {sid: [] for sid in workload}
        with ShardRouter(shards=2, spec=_spec()) as router, \
                Supervisor(router, poll_s=0.02,
                           heartbeat_timeout_s=5.0):
            _submit_all(router, workload, slice(0, 2), results)
            victim = _busiest_shard(router)
            futures = []
            for sid, seq in workload.items():
                f = seq.frames[2]
                futures.append((sid, router.submit_nowait(
                    sid, f.gray, f.depth, f.timestamp)))
            os.kill(router.shards[victim].pid, signal.SIGKILL)
            for sid, fut in futures:
                results[sid].append(fut.result(timeout=120))
            _submit_all(router, workload, slice(3, 4), results)
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []

    def test_crash_dumps_incident_bundle(self, tmp_path):
        workload = build_workload(sessions=2, frames=2, scale=0.25)
        results = {sid: [] for sid in workload}
        with ShardRouter(shards=2, spec=_spec()) as router, \
                Supervisor(router, poll_s=0.02,
                           heartbeat_timeout_s=5.0,
                           incident_dir=tmp_path) as supervisor:
            _submit_all(router, workload, slice(0, 1), results)
            supervisor.checkpoint_now()
            victim = _busiest_shard(router)
            os.kill(router.shards[victim].pid, signal.SIGKILL)
            _wait(lambda: supervisor.stats()["incidents_dumped"] > 0,
                  what="incident dump")
            _submit_all(router, workload, slice(1, 2), results)
        bundles = list(tmp_path.glob("shard*_crash_*.json"))
        assert len(bundles) == 1
        import json
        bundle = json.loads(bundles[0].read_text())
        assert bundle["context"]["shard"] == victim
        assert bundle["context"]["lost"] == []


class TestAppliedWatermark:
    def test_expiry_before_checkpoint_diverges_watermark_from_count(
            self):
        """An expired frame burns a router seq without touching state,
        so after the client retries, the applied seq runs *ahead* of
        the processed-frame count.  A frames-count watermark would
        prune the capture tail short and replay the last pre-kill
        frame twice; the applied watermark keeps failover
        bit-identical."""
        workload = build_workload(sessions=2, frames=6, scale=0.25)
        results = {sid: [] for sid in workload}
        with ShardRouter(shards=2, spec=_spec()) as router, \
                Supervisor(router, poll_s=0.02,
                           heartbeat_timeout_s=5.0) as supervisor:
            _submit_all(router, workload, slice(0, 2), results)
            # One frame per session expires in the worker's queue (a
            # deadline already in the past): seqs 1,2 applied, seq 3
            # burned, then the client retries under seqs 4,5.
            for sid, seq in workload.items():
                f = seq.frames[2]
                with pytest.raises(DeadlineExceeded):
                    router.submit(sid, f.gray, f.depth, f.timestamp,
                                  timeout=120, deadline_s=-1.0)
            _submit_all(router, workload, slice(2, 4), results)
            assert supervisor.checkpoint_now() == len(workload)
            with router._state_lock:
                # The watermark is the max *applied* seq (5), not the
                # processed-frame count (4, which never saw the
                # burned seq): a count watermark would leave seq 5 in
                # the tail and replay it onto state that already
                # contains it.
                assert all(
                    router._checkpoints[sid]["watermark"] == 5
                    for sid in workload)
                # And the checkpoint pruned the hole (3 <= 5):
                # nothing left to explain.
                assert router._holes == {}
            _submit_all(router, workload, slice(4, 5), results)
            victim = _busiest_shard(router)
            os.kill(router.shards[victim].pid, signal.SIGKILL)
            _wait(lambda: router._failovers > 0, what="failover")
            _submit_all(router, workload, slice(5, 6), results)
            assert router.shards_status()["lost_sessions"] == []
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []

    def test_expiry_after_checkpoint_is_a_hole_not_a_replay_gap(self):
        """A frame expired *past* the checkpoint leaves a hole in the
        replay tail.  The router knows it never touched state, so
        failover skips the seq instead of declaring the tail gapped
        and losing the session."""
        workload = build_workload(sessions=2, frames=5, scale=0.25)
        results = {sid: [] for sid in workload}
        with ShardRouter(shards=2, spec=_spec()) as router, \
                Supervisor(router, poll_s=0.02,
                           heartbeat_timeout_s=5.0) as supervisor:
            _submit_all(router, workload, slice(0, 2), results)
            assert supervisor.checkpoint_now() == len(workload)
            for sid, seq in workload.items():
                f = seq.frames[2]
                with pytest.raises(DeadlineExceeded):
                    router.submit(sid, f.gray, f.depth, f.timestamp,
                                  timeout=120, deadline_s=-1.0)
            # Seqs 4,5 ride the capture tail behind hole 3.
            _submit_all(router, workload, slice(2, 4), results)
            victim = _busiest_shard(router)
            os.kill(router.shards[victim].pid, signal.SIGKILL)
            _wait(lambda: router._failovers > 0, what="failover")
            _submit_all(router, workload, slice(4, 5), results)
            assert router.shards_status()["lost_sessions"] == []
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []


class TestRestartBudget:
    def test_flapping_shard_ends_up_failed_not_looping(self):
        """budget=1: the first kill consumes the only restart, the
        second marks the shard failed; traffic keeps flowing on the
        survivor and the plane reports degraded."""
        workload = build_workload(sessions=2, frames=4, scale=0.25)
        results = {sid: [] for sid in workload}
        with ShardRouter(shards=2, spec=_spec(),
                         restart_budget=1,
                         backoff_reset_after_s=3600.0) as router, \
                Supervisor(router, poll_s=0.02,
                           heartbeat_timeout_s=5.0):
            _submit_all(router, workload, slice(0, 1), results)
            victim = _busiest_shard(router)
            os.kill(router.shards[victim].pid, signal.SIGKILL)
            _wait(lambda: router.shards[victim].state == "up" and
                  router.shards[victim].restarts == 1,
                  what="first respawn")
            os.kill(router.shards[victim].pid, signal.SIGKILL)
            _wait(lambda: router.shards[victim].state == "failed",
                  what="budget exhaustion")
            assert router.degraded()
            assert router.healthy()  # the survivor still serves
            _submit_all(router, workload, slice(1, 4), results)
            status = router.shards_status()
            assert status["lost_sessions"] == []
            row = next(r for r in status["shards"]
                       if r["shard"] == victim)
            assert row["restart_budget_remaining"] == 0
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []


class TestHangDetection:
    def test_sigstop_escalates_to_kill_and_recovers(self):
        """A stopped process heartbeats nothing: the supervisor must
        SIGKILL it and recover exactly like a crash."""
        workload = build_workload(sessions=2, frames=4, scale=0.25)
        results = {sid: [] for sid in workload}
        with ShardRouter(shards=2, spec=_spec()) as router, \
                Supervisor(router, poll_s=0.02,
                           heartbeat_timeout_s=0.5) as supervisor:
            _submit_all(router, workload, slice(0, 2), results)
            supervisor.checkpoint_now()
            victim = _busiest_shard(router)
            os.kill(router.shards[victim].pid, signal.SIGSTOP)
            _wait(lambda: router._failovers > 0,
                  what="hang detection", timeout_s=30.0)
            _submit_all(router, workload, slice(2, 4), results)
            _wait(lambda: router.shards[victim].state == "up" and
                  router.shards[victim].restarts == 1,
                  what="respawn after hang")
            assert router.shards_status()["lost_sessions"] == []
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []
