"""ShardRouter: placement, inline parity, real worker processes.

The expensive end-to-end cases (spawn real worker processes, stream
frames, checkpoint, migrate) stay deliberately small -- a few
sessions x a few frames at quarter scale -- because the properties
they pin (bit-identity with solo runs, sticky placement, lossless
drain) do not depend on volume.
"""

import json
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import pytest

from repro.geometry.camera import TUM_QVGA
from repro.serve import (
    Backpressure,
    DeadlineExceeded,
    StatusServer,
    build_workload,
    run_load,
    service_trajectories,
    solo_trajectories,
    trajectories_match,
)
from repro.shard import ReplayGap, SessionLost, ShardRouter, ShardSpec
from repro.shard.placement import HashRing
from repro.vo import PIMFrontend, TrackerConfig

TINY_CAMERA = TUM_QVGA.scaled(0.25)
CONFIG = TrackerConfig(camera=TINY_CAMERA)


def _spec(**overrides):
    kwargs = dict(workers=1, frontend="pim", config=CONFIG,
                  heartbeat_s=0.1)
    kwargs.update(overrides)
    return ShardSpec(**kwargs)


def _drive(router, workload):
    """Closed-loop: every session's frames in order; returns results
    keyed by session (submission interleaves across sessions)."""
    results = {sid: [] for sid in workload}
    frames = {sid: list(seq.frames) for sid, seq in workload.items()}
    while any(frames.values()):
        futures = []
        for sid in sorted(frames):
            if frames[sid]:
                f = frames[sid].pop(0)
                futures.append((sid, router.submit_nowait(
                    sid, f.gray, f.depth, f.timestamp)))
        for sid, fut in futures:
            results[sid].append(fut.result(timeout=120))
    return results


class TestInlineMode:
    def test_inline_router_matches_plain_service(self):
        """shards=0 is the plain serve path behind the same API."""
        workload = build_workload(sessions=2, frames=3, scale=0.25)
        with ShardRouter(shards=0, spec=_spec()) as router:
            assert router.inline
            report, clients = run_load(router, workload)
        assert report["frames_tracked"] == report["frames_submitted"]
        served = service_trajectories(
            [r for c in clients for r in c.results])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []

    def test_inline_status_reports_mode(self):
        with ShardRouter(shards=0, spec=_spec()) as router:
            status = router.shards_status()
            assert status["mode"] == "inline"
            assert status["healthy"]
            assert not status["degraded"]
            assert router.stats()["shards"]["mode"] == "inline"


class TestShardedServing:
    def test_two_shards_bit_identical_to_solo(self):
        workload = build_workload(sessions=3, frames=4, scale=0.25)
        with ShardRouter(shards=2, spec=_spec()) as router:
            results = _drive(router, workload)
            status = router.shards_status()
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []
        assert status["mode"] == "sharded"
        assert status["up"] == 2
        assert status["sessions"] == 3
        # Sticky ring placement spreads sessions over real processes.
        assert sum(r["sessions"] for r in status["shards"]) == 3
        assert all(r["pid"] for r in status["shards"])

    def test_per_session_frames_stay_in_order(self):
        workload = build_workload(sessions=2, frames=5, scale=0.25)
        with ShardRouter(shards=2, spec=_spec()) as router:
            results = _drive(router, workload)
        for sid, rs in results.items():
            assert [r.frame_index for r in rs] == list(range(5))

    def test_checkpoint_prunes_capture_tail(self):
        workload = build_workload(sessions=2, frames=3, scale=0.25)
        with ShardRouter(shards=2, spec=_spec()) as router:
            _drive(router, workload)
            count = sum(router.checkpoint_shard(s)
                        for s in router.shards)
            assert count == 2
            for sid in workload:
                assert router.capture.tail(sid, 0) == []
                assert router.capture.pruned_watermark(sid) == 3
            assert router.shards_status()[
                "checkpointed_sessions"] == 2

    def test_remove_shard_drains_sessions_losslessly(self):
        workload = build_workload(sessions=3, frames=4, scale=0.25)
        frames = {sid: list(seq.frames)
                  for sid, seq in workload.items()}
        with ShardRouter(shards=2, spec=_spec()) as router:
            results = {sid: [] for sid in workload}
            for sid in workload:  # first half on the full plane
                for f in frames[sid][:2]:
                    results[sid].append(router.submit(
                        sid, f.gray, f.depth, f.timestamp,
                        timeout=120))
            victim = max(
                router.shards,
                key=lambda s: sum(1 for p in
                                  router._placement.values()
                                  if p == s))
            drained = router.remove_shard(victim)
            assert drained  # it owned at least one session
            assert victim not in router.shards
            for sid in workload:  # second half after the drain
                for f in frames[sid][2:]:
                    results[sid].append(router.submit(
                        sid, f.gray, f.depth, f.timestamp,
                        timeout=120))
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []

    def test_add_shard_rebalances_only_ring_movers(self):
        workload = build_workload(sessions=3, frames=2, scale=0.25)
        with ShardRouter(shards=2, spec=_spec()) as router:
            results = {sid: [] for sid in workload}
            frames = {sid: list(seq.frames)
                      for sid, seq in workload.items()}
            for sid in workload:
                f = frames[sid][0]
                results[sid].append(router.submit(
                    sid, f.gray, f.depth, f.timestamp, timeout=120))
            before = dict(router._placement)
            new = router.add_shard()
            assert router.shards[new].state == "up"
            after = dict(router._placement)
            moved = {s for s in before if before[s] != after[s]}
            assert all(after[s] == new for s in moved)
            for sid in workload:
                f = frames[sid][1]
                results[sid].append(router.submit(
                    sid, f.gray, f.depth, f.timestamp, timeout=120))
        served = service_trajectories(
            [r for rs in results.values() for r in rs])
        solo = solo_trajectories(workload, PIMFrontend, CONFIG)
        assert trajectories_match(served, solo) == []


class _RecordingContext:
    """A multiprocessing context that remembers every process made."""

    def __init__(self, context):
        self._context = context
        self.processes = []

    def Process(self, *args, **kwargs):
        process = self._context.Process(*args, **kwargs)
        self.processes.append(process)
        return process


class _DyingContext(_RecordingContext):
    """Records every process; the worker of ``shard_id`` exits with
    code 3 instead of running, before it can dial back."""

    def __init__(self, context, shard_id):
        super().__init__(context)
        self._shard_id = shard_id

    def Process(self, *args, **kwargs):
        if kwargs["args"][0] == self._shard_id:
            kwargs.update(target=sys.exit, args=(3,))
        return super().Process(*args, **kwargs)


class TestStart:
    def test_start_publishes_every_shard_like_a_serial_start(self):
        """All workers spawn at once, yet each shard is published up
        with its own process and the ring is the one that adding the
        shards one at a time in id order builds."""
        sids = [f"session-{i}" for i in range(24)]
        serial = HashRing(vnodes=64)
        for shard_id in range(3):
            serial.add(shard_id)
        with ShardRouter(shards=3, spec=_spec()) as router:
            handles = [router.shards[s] for s in range(3)]
            assert [h.state for h in handles] == ["up"] * 3
            pids = {h.pid for h in handles}
            assert None not in pids and len(pids) == 3
            assert [router.ring.lookup(sid) for sid in sids] == \
                [serial.lookup(sid) for sid in sids]

    def test_start_timeout_leaves_no_child(self):
        """Workers that cannot dial back in time are all terminated
        and joined before ``start`` raises; no_leaked_workers also
        fails this test if a child outlives it."""
        router = ShardRouter(shards=2, spec=_spec(),
                             spawn_timeout_s=1e-3)
        router._mp = recorder = _RecordingContext(router._mp)
        with pytest.raises(TimeoutError):
            router.start()
        assert len(recorder.processes) == 2
        # A child left running would still be importing its modules.
        assert all(p.exitcode is not None for p in recorder.processes)
        assert all(h.process is None and h.state == "stopped"
                   for h in router.shards.values())

    def test_worker_that_exits_first_fails_start_at_once(self):
        """A worker that dies before it dials back makes ``start`` raise
        with its shard id and exit code well inside the spawn timeout;
        the healthy worker is terminated and joined too."""
        router = ShardRouter(shards=2, spec=_spec(), spawn_timeout_s=60.0)
        router._mp = recorder = _DyingContext(router._mp, shard_id=1)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="shard 1 .* code 3"):
            router.start()
        assert time.monotonic() - started < 30.0
        assert len(recorder.processes) == 2
        assert all(p.exitcode is not None for p in recorder.processes)
        assert all(h.process is None and h.state == "stopped"
                   for h in router.shards.values())


class TestStatusEndpoints:
    def test_shards_and_healthz_over_http(self):
        workload = build_workload(sessions=1, frames=1, scale=0.25)
        with ShardRouter(shards=2, spec=_spec()) as router:
            _drive(router, workload)
            server = StatusServer(router, port=0).start()
            try:
                with urllib.request.urlopen(
                        f"{server.url}/shards", timeout=10) as resp:
                    shards = json.load(resp)
                with urllib.request.urlopen(
                        f"{server.url}/healthz", timeout=10) as resp:
                    health = json.load(resp)
            finally:
                server.stop()
        assert shards["mode"] == "sharded"
        assert len(shards["shards"]) == 2
        assert health["status"] == "ok"
        assert set(health["shards"].values()) == {"up"}

    def test_plain_service_has_no_shard_plane(self):
        from repro.serve import VOService
        with VOService(workers=1, frontend="float",
                       config=CONFIG) as service:
            server = StatusServer(service, port=0).start()
            try:
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(f"{server.url}/shards",
                                           timeout=10)
                assert err.value.code == 404
            finally:
                server.stop()


class TestRouterGuards:
    def test_closed_router_refuses_submission(self):
        router = ShardRouter(shards=0, spec=_spec())
        router.start()
        router.close()
        workload = build_workload(sessions=1, frames=1, scale=0.25)
        frame = next(iter(workload.values())).frames[0]
        with pytest.raises(RuntimeError):
            router.submit_nowait("s", frame.gray, frame.depth)

    def test_lost_session_poisoned_not_silently_reset(self):
        with ShardRouter(shards=2, spec=_spec()) as router:
            router._lost_sessions["gone"] = "tail gap"
            workload = build_workload(sessions=1, frames=1,
                                      scale=0.25)
            frame = next(iter(workload.values())).frames[0]
            with pytest.raises(SessionLost):
                router.submit_nowait("gone", frame.gray, frame.depth)

    def test_no_up_shard_is_backpressure(self):
        with ShardRouter(shards=2, spec=_spec()) as router:
            for handle in router.shards.values():
                handle.state = "backoff"
                router.ring.remove(handle.shard_id)
            workload = build_workload(sessions=1, frames=1,
                                      scale=0.25)
            frame = next(iter(workload.values())).frames[0]
            with pytest.raises(Backpressure):
                router.submit_nowait("s", frame.gray, frame.depth)
            for handle in router.shards.values():
                handle.state = "up"  # let close() shut them down

    def test_failing_over_session_sheds_new_frames(self):
        """A session parked mid-rebuild sheds (the client retries);
        nothing may interleave with the replay stream."""
        with ShardRouter(shards=2, spec=_spec()) as router:
            workload = build_workload(sessions=1, frames=1,
                                      scale=0.25)
            frame = next(iter(workload.values())).frames[0]
            with router._state_lock:
                router._failing_over.add("s")
            try:
                with pytest.raises(Backpressure):
                    router.submit_nowait("s", frame.gray, frame.depth)
            finally:
                with router._state_lock:
                    router._failing_over.discard("s")
            # Unparked: the same submit goes through.
            fut = router.submit_nowait("s", frame.gray, frame.depth)
            fut.result(timeout=120)


class TestReplyPlumbing:
    """The _on_message contract: internal replay futures always
    complete, and every client reply lands in the capture ring under
    the right outcome kind."""

    def _pending(self, router, shard_id, seq, internal):
        from repro.shard.router import _Pending
        entry = _Pending(router._alloc_id(), "sess", seq,
                         None, None, 0.0, None, shard_id,
                         internal=internal)
        with router._state_lock:
            router._pending[entry.req_id] = entry
        return entry

    def _fail(self, router, shard_id, entry, error, **extra):
        router._on_message(shard_id, dict(
            {"op": "result", "id": entry.req_id, "ok": False,
             "error": error, "message": "boom"}, **extra))

    @staticmethod
    def _kinds(router, sid="sess"):
        return [(rec["seq"], rec["outcome"]["kind"])
                for rec in router.capture.tail(sid, 0)]

    def test_internal_replay_failure_completes_the_future(self):
        """An error reply for an internal replay must fail its future
        -- the failover thread awaits it; silently dropping the reply
        would leave rebuilt state missing the frame (or hang the
        rebuild until timeout)."""
        with ShardRouter(shards=2, spec=_spec()) as router:
            entry = self._pending(router, 0, 5, internal=True)
            self._fail(router, 0, entry, "RuntimeError")
            assert entry.future.done()
            with pytest.raises(RuntimeError):
                entry.future.result(timeout=0)
            # Internal outcomes never enter the client-reply ring:
            # the replay is the failover's business.
            assert self._kinds(router) == []

    def test_client_shed_records_a_hole(self):
        """A shed or expiry is a skipped record that keeps no arrays:
        it explains its seq without ever being replayed."""
        with ShardRouter(shards=2, spec=_spec()) as router:
            entry = self._pending(router, 0, 7, internal=False)
            self._fail(router, 0, entry, "DeadlineExceeded")
            with pytest.raises(DeadlineExceeded):
                entry.future.result(timeout=0)
            assert self._kinds(router) == [(7, "skipped")]
            rec = router.capture.tail("sess", 0)[0]
            assert rec["gray"] is None and rec["depth"] is None

    def test_client_terminal_error_records_a_taint(self):
        with ShardRouter(shards=2, spec=_spec()) as router:
            entry = self._pending(router, 0, 9, internal=False)
            self._fail(router, 0, entry, "RuntimeError")
            with pytest.raises(RuntimeError):
                entry.future.result(timeout=0)
            assert self._kinds(router) == [(9, "error")]

    def test_tainted_tail_refuses_failover_as_session_lost(self):
        """A terminal error past the checkpoint rolled the session
        back on the worker: replay cannot be bit-identical, so the
        failover refuses instead of rebuilding a different stream,
        counts the session lost, and releases its capture stream."""
        with ShardRouter(shards=2, spec=_spec()) as router:
            entry = self._pending(router, 0, 4, internal=False)
            self._fail(router, 0, entry, "RuntimeError")
            with router._state_lock:
                router._checkpoints["sess"] = {
                    "record": None, "watermark": 3, "shard": 0}
                router._session_seq["sess"] = 4
            with pytest.raises(ReplayGap, match="frame 4 failed"):
                router._fail_over_session("sess", 0)
            with router._route_lock:
                router._placement["sess"] = 0
            outcome = router.fail_over(0)
            assert outcome["lost"] == ["sess"]
            assert router.shards_status()["lost_sessions"] == ["sess"]
            assert router.capture.tail("sess", 0) == []


class TestMigration:
    def test_failed_orphan_redispatch_still_publishes_placement(
            self, monkeypatch):
        """The source has already exported and dropped the session,
        so a re-dispatch that sheds must not leave the placement on
        the source (the next frame would silently start a fresh
        session there): the placement moves to the target, and the
        orphans fail as sheds -- futures done, skipped records."""
        from repro.shard.router import _Pending
        workload = build_workload(sessions=1, frames=2, scale=0.25)
        frames = next(iter(workload.values())).frames
        with ShardRouter(shards=2, spec=_spec()) as router:
            first = router.submit("s", frames[0].gray, frames[0].depth,
                                  frames[0].timestamp, timeout=120)
            source = router._placement["s"]
            target = 1 - source
            orphans = []
            for seq in (2, 3):
                entry = _Pending(router._alloc_id(), "s", seq,
                                 frames[1].gray, frames[1].depth,
                                 frames[1].timestamp, None, source)
                orphans.append(entry)
            with router._state_lock:
                router._session_seq["s"] = 3
                for entry in orphans:
                    router._pending[entry.req_id] = entry

            def refuse(handle, pending):
                raise Backpressure(depth=0, retry_after_s=0.05)

            monkeypatch.setattr(router, "_send_frame", refuse)
            with router._route_lock:
                router._migrate("s", source, target)
            monkeypatch.undo()
            assert router._placement["s"] == target
            for entry in orphans:
                with pytest.raises(Backpressure):
                    entry.future.result(timeout=0)
            assert [(rec["seq"], rec["outcome"]["kind"])
                    for rec in router.capture.tail("s", 1)] == [
                (2, "skipped"), (3, "skipped")]
            # The client's retry continues the migrated stream.
            second = router.submit("s", frames[1].gray,
                                   frames[1].depth,
                                   frames[1].timestamp, timeout=120)
        assert (first.frame_index, second.frame_index) == (0, 1)


class _SilentPump:
    """A connected pump whose shard never replies."""

    closed = False

    def __init__(self):
        self.sent = []

    def send(self, message, block=False, timeout=None):
        self.sent.append(message)

    def close(self):
        self.closed = True


class _NeverDone(Future):
    """A future that never completes and waits only briefly."""

    def result(self, timeout=None):
        return super().result(timeout=0.05)


class TestFutureTimeouts:
    """Every wait on a shard reply times out as the builtin
    ``TimeoutError``: before Python 3.11 ``Future.result`` raises
    ``concurrent.futures.TimeoutError`` instead, which the router's and
    supervisor's handlers do not catch.  Shards here are up slots with
    silent pumps (no process), and every wait is cut short."""

    @pytest.fixture
    def router(self, monkeypatch):
        router = ShardRouter(shards=2, spec=_spec())
        for shard_id, handle in router.shards.items():
            handle.pump = _SilentPump()
            handle.state = "up"
            router.ring.add(shard_id)
        rpc = router._rpc
        monkeypatch.setattr(
            router, "_rpc",
            lambda shard_id, payload, timeout_s=30.0: rpc(
                shard_id, payload, timeout_s=0.05))
        yield router
        router.close()

    def test_rpc_times_out_as_builtin(self, router):
        with pytest.raises(TimeoutError):
            router._rpc(0, {"op": "checkpoint"})
        assert router._control == {}

    def test_fail_over_continues_past_a_timed_out_restore(self, router):
        with router._route_lock:
            router._placement.update(a=0, b=0)
        for sid in ("a", "b"):
            router._checkpoints[sid] = {"record": None, "watermark": 0,
                                        "shard": 0}
        outcome = router.fail_over(0)
        assert outcome["lost"] == ["a", "b"]
        assert [m["op"] for m in router.shards[1].pump.sent] == [
            "restore_session", "restore_session"]

    def test_remove_shard_survives_a_timed_out_shutdown(self, router):
        assert router.remove_shard(0) == []
        assert 0 not in router.shards

    def test_checkpoint_sweep_skips_a_timed_out_shard(self, router):
        from repro.shard import Supervisor
        assert Supervisor(router).checkpoint_now() == 0
        assert [m["op"] for handle in router.shards.values()
                for m in handle.pump.sent] == ["checkpoint", "checkpoint"]

    def test_orphan_redispatch_timeout_loses_the_session(self, router):
        from repro.shard.router import _Pending
        orphan = _Pending(router._alloc_id(), "s", 1, None, None, 0.0,
                          None, 0)
        orphan.future = _NeverDone()
        with router._state_lock:
            router._pending[orphan.req_id] = orphan
        with pytest.raises(SessionLost, match="did not complete"):
            router._fail_over_session("s", 0)

    def test_replay_timeout_drops_its_pending_entry(self, router):
        rec = {"gray": None, "depth": None, "timestamp": 0.0}
        with pytest.raises(SessionLost, match="timed out"):
            router._replay_frame(router.shards[1], "s", 1, rec,
                                 timeout_s=0.05)
        assert router._pending == {}
