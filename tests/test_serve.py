"""Tests for the multi-session serving layer (repro.serve)."""

import numpy as np
import pytest

from repro.dataset import make_sequence
from repro.geometry.camera import TUM_QVGA
from repro.geometry.se3 import SE3
from repro.obs.metrics import get_registry
from repro.serve import (
    Backpressure,
    CircuitBreaker,
    DeadlineExceeded,
    DevicePool,
    FifoScheduler,
    SessionManager,
    VOService,
    WorkItem,
    build_workload,
    run_load,
    service_trajectories,
    solo_trajectories,
    trajectories_match,
)
from repro.vo import EBVOTracker, PIMFrontend, TrackerConfig
from repro.vo.tracker import FrameResult, TrackerState

TINY_CAMERA = TUM_QVGA.scaled(0.25)  # 80x60: fast but real tracking


class FakeClock:
    """A manually advanced monotonic clock for eviction tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _item(session, seq):
    return WorkItem(session=session, seq=seq, payload=None)


class TestScheduler:
    def test_fifo_order_single_session(self):
        sched = FifoScheduler(max_queue=8)
        for seq in range(3):
            sched.submit(_item("a", seq))
        seen = []
        for _ in range(3):
            item = sched.next_item(timeout=0)
            seen.append(item.seq)
            sched.done(item)
        assert seen == [0, 1, 2]

    def test_backpressure_rejects_when_full(self):
        sched = FifoScheduler(max_queue=2)
        sched.submit(_item("a", 0))
        sched.submit(_item("b", 0))
        before = get_registry().counter(
            "serve_admission_rejected_total").total()
        with pytest.raises(Backpressure) as exc:
            sched.submit(_item("c", 0))
        assert exc.value.depth == 2
        assert exc.value.retry_after_s > 0
        after = get_registry().counter(
            "serve_admission_rejected_total").total()
        assert after == before + 1
        # Nothing was enqueued by the rejected submit.
        assert sched.depth() == 2

    def test_session_never_concurrent(self):
        sched = FifoScheduler(max_queue=8)
        sched.submit(_item("a", 0))
        sched.submit(_item("a", 1))
        sched.submit(_item("b", 0))
        first = sched.next_item(timeout=0)
        assert (first.session, first.seq) == ("a", 0)
        # a-1 must wait for a-0; b-0 overtakes without breaking
        # a's internal order.
        second = sched.next_item(timeout=0)
        assert (second.session, second.seq) == ("b", 0)
        assert sched.next_item(timeout=0) is None
        sched.done(first)
        third = sched.next_item(timeout=0)
        assert (third.session, third.seq) == ("a", 1)

    def test_close_refuses_new_work(self):
        sched = FifoScheduler(max_queue=4)
        sched.close()
        with pytest.raises(RuntimeError):
            sched.submit(_item("a", 0))
        assert sched.next_item(timeout=0) is None


class TestSessionManager:
    def test_idle_eviction_bumps_generation_and_counter(self):
        clock = FakeClock()
        sm = SessionManager(idle_timeout_s=30, clock=clock)
        counter = get_registry().counter(
            "serve_sessions_evicted_total")
        before = counter.value(reason="idle")
        first = sm.touch("cam-1")
        first.state.last_rel = object()  # stand-in for evolved state
        clock.advance(31)
        second = sm.touch("cam-1")
        assert counter.value(reason="idle") == before + 1
        assert second is not first
        assert second.generation > first.generation
        # The recreated session starts from a clean TrackerState: no
        # keyframe, no frames -- the next frame re-anchors fresh.
        assert second.state.keyframe is None
        assert second.state.n_frames == 0

    def test_busy_sessions_survive_sweeps(self):
        clock = FakeClock()
        sm = SessionManager(idle_timeout_s=30, clock=clock)
        session = sm.touch("cam-1")
        checked_out = sm.checkout("cam-1")
        assert checked_out is session
        clock.advance(1000)
        sm.touch("cam-2")  # drives a sweep
        assert sm.get("cam-1") is session
        sm.checkin(session)
        clock.advance(31)
        sm.touch("cam-2")
        assert sm.get("cam-1") is None

    def test_capacity_evicts_least_recently_active(self):
        clock = FakeClock()
        sm = SessionManager(idle_timeout_s=1e9, max_sessions=2,
                            clock=clock)
        counter = get_registry().counter(
            "serve_sessions_evicted_total")
        before = counter.value(reason="capacity")
        sm.touch("old")
        clock.advance(1)
        sm.touch("new")
        clock.advance(1)
        sm.touch("newest")
        assert counter.value(reason="capacity") == before + 1
        assert sm.get("old") is None
        assert sm.get("new") is not None

    def test_all_busy_refuses_admission(self):
        sm = SessionManager(max_sessions=1)
        sm.checkout("a")
        with pytest.raises(RuntimeError):
            sm.touch("b")

    def test_evicted_session_gets_fresh_keyframe(self):
        """An idle-evicted client re-anchors; no stale pose leaks."""
        clock = FakeClock()
        sm = SessionManager(idle_timeout_s=30, clock=clock)
        config = TrackerConfig(camera=TINY_CAMERA)
        tracker = EBVOTracker(PIMFrontend(config), config)
        sequence = make_sequence("fr1_xyz", n_frames=3,
                                 camera=TINY_CAMERA)

        tracker.state = sm.touch("cam-1").state
        for frame in sequence.frames:
            result = tracker.process(frame.gray, frame.depth)
        assert not result.is_keyframe  # stream was mid-flight
        moved_pose = tracker.trajectory[-1]

        clock.advance(31)
        tracker.state = sm.touch("cam-1").state
        fresh = tracker.process(sequence.frames[0].gray,
                                sequence.frames[0].depth)
        # Fresh keyframe at identity, not a continuation of the old
        # trajectory.
        assert fresh.is_keyframe
        assert np.array_equal(fresh.pose.R, np.eye(3))
        assert np.array_equal(fresh.pose.t, np.zeros(3))
        assert not np.array_equal(fresh.pose.t, moved_pose.t) or \
            np.allclose(moved_pose.t, 0)

    def test_checkin_settles_applied_seq_on_every_frame(self):
        """Every processed frame settles the watermark -- a rolled-back
        one too, since the rollback is its outcome -- and it never
        moves backwards on out-of-order checkins."""
        sm = SessionManager()
        session = sm.checkout("cam-1")
        sm.checkin(session, applied_seq=3)
        assert session.frames == 1
        assert session.applied_seq == 3
        sm.checkout("cam-1")
        sm.checkin(session, applied_seq=4)  # rolled back: settled
        assert session.frames == 2
        assert session.applied_seq == 4
        sm.checkout("cam-1")
        sm.checkin(session, applied_seq=2)  # stale: never regresses
        assert session.applied_seq == 4

    def test_applied_seq_survives_export_import_round_trip(self):
        sm = SessionManager()
        session = sm.checkout("cam-1")
        sm.checkin(session, applied_seq=7)
        record = sm.export_session("cam-1")
        assert record["applied_seq"] == 7
        other = SessionManager()
        restored = other.import_session(record)
        assert restored.applied_seq == 7


class TestService:
    def test_interleaved_sessions_match_solo_runs(self):
        config = TrackerConfig(camera=TINY_CAMERA)
        workload = build_workload(sessions=2, frames=3, scale=0.25)
        with VOService(workers=2, frontend="pim",
                       config=config) as service:
            report, clients = run_load(service, workload)
        assert report["frames_tracked"] == report["frames_submitted"]
        served = service_trajectories(
            [r for c in clients for r in c.results])
        solo = solo_trajectories(workload, PIMFrontend, config)
        assert trajectories_match(served, solo) == []

    def test_resubmitted_frames_keep_session_order(self):
        config = TrackerConfig(camera=TINY_CAMERA)
        sequence = make_sequence("fr1_xyz", n_frames=4,
                                 camera=TINY_CAMERA)
        with VOService(workers=2, frontend="pim",
                       config=config) as service:
            results = [service.submit("solo", f.gray, f.depth,
                                      f.timestamp)
                       for f in sequence.frames]
        assert [r.frame_index for r in results] == [0, 1, 2, 3]
        assert results[0].is_keyframe

    def test_worker_result_history_stays_bounded(self):
        # A worker re-attaches ``tracker.state`` on every frame, which
        # starts a fresh result history: however long the streams
        # run, it holds at most the last frame's result.  The replies
        # still count each session's frames from its state.
        config = TrackerConfig(camera=TINY_CAMERA)
        workload = build_workload(sessions=2, frames=12, scale=0.25)
        with VOService(workers=2, frontend="float",
                       config=config) as service:
            report, clients = run_load(service, workload)
            trackers = [worker.tracker for worker in service.pool.workers]
        assert report["frames_tracked"] == 24
        assert all(len(tracker.results) <= 1 for tracker in trackers)
        for client in clients:
            assert [r.frame_index for r in client.results] == \
                list(range(12))

    def test_backpressure_under_saturation(self):
        config = TrackerConfig(camera=TINY_CAMERA)
        rejected = get_registry().counter(
            "serve_admission_rejected_total")
        before = rejected.total()
        workload = build_workload(sessions=3, frames=4, scale=0.25)
        with VOService(workers=1, frontend="float", config=config,
                       max_queue=1,
                       min_service_s=0.03) as service:
            report, _ = run_load(service, workload)
        # Every frame eventually lands, but saturation was observed,
        # rejected at admission, and survived via client retry.
        assert report["frames_tracked"] == report["frames_submitted"]
        assert report["rejections"] > 0
        assert report["retries"] >= report["rejections"]
        assert rejected.total() > before

    def test_submit_after_close_raises(self):
        service = VOService(workers=1, frontend="float",
                            config=TrackerConfig(camera=TINY_CAMERA))
        service.start()
        service.close()
        with pytest.raises(RuntimeError):
            service.submit("a", np.zeros((60, 80)),
                           np.ones((60, 80)))

    def test_unknown_frontend_rejected(self):
        with pytest.raises(ValueError):
            VOService(frontend="quantum")


class FlakyTracker:
    """A scriptable tracker: fails the attempts listed in ``failures``.

    ``failures`` maps global attempt number (0-based, counted across
    every ``process`` call) to an exception to raise.  Successful
    calls count a frame and return a minimal :class:`FrameResult`;
    every third frame is a "keyframe" so checkpointing has something
    to snapshot.
    """

    _frontends = ()  # no devices
    frontend = None

    def __init__(self, failures=None):
        self.state = TrackerState()
        self.failures = failures or {}
        self.attempts = 0

    def process(self, gray, depth, timestamp=0.0):
        attempt = self.attempts
        self.attempts += 1
        if attempt in self.failures:
            raise self.failures[attempt]
        index = self.state.n_frames
        result = FrameResult(pose=SE3.identity(),
                             is_keyframe=index % 3 == 0,
                             lm=None, num_features=10,
                             timestamp=timestamp)
        self.state.n_frames += 1
        return result


def _flaky_pool(failures, workers=1, max_retries=1,
                breaker_threshold=3):
    scheduler = FifoScheduler(max_queue=16, workers=workers)
    sessions = SessionManager()
    holder = []

    def factory():
        tracker = FlakyTracker(failures)
        holder.append(tracker)
        return tracker

    pool = DevicePool(workers, scheduler, sessions, factory,
                      max_retries=max_retries, retry_backoff_s=0.0,
                      breaker_threshold=breaker_threshold,
                      breaker_cooldown_s=0.05)
    return scheduler, sessions, pool, holder


def _submit(scheduler, sid, seq):
    item = WorkItem(session=sid, seq=seq, payload=(None, None, 0.0))
    scheduler.submit(item)
    return item.future


class TestResilience:
    def test_worker_retry_recovers_transient_failure(self):
        # Attempt 1 (frame 1's first try) fails; the retry succeeds.
        scheduler, sessions, pool, _ = _flaky_pool(
            {1: RuntimeError("transient device error")})
        pool.start()
        try:
            first = _submit(scheduler, "a", 0).result(5)
            second = _submit(scheduler, "a", 1).result(5)
        finally:
            pool.stop()
        assert first.retries == 0
        assert second.retries == 1
        assert second.frame_index == 1  # rollback kept indices sane
        assert pool.stats()["per_worker"][0]["breaker"][
            "faults_total"] >= 1

    def test_terminal_failure_restores_checkpoint(self):
        # Frame 0 is a keyframe (checkpointed).  Frame 1 fails both
        # attempts (attempts 1 and 2) -> checkpoint restore; frame 2
        # then resumes from the restored state.
        err = RuntimeError("persistent fault")
        scheduler, sessions, pool, holder = _flaky_pool(
            {1: err, 2: err})
        pool.start()
        try:
            _submit(scheduler, "a", 0).result(5)
            with pytest.raises(RuntimeError):
                _submit(scheduler, "a", 1).result(5)
            resumed = _submit(scheduler, "a", 2).result(5)
        finally:
            pool.stop()
        # The resumed frame continued from the checkpoint (1 result
        # at restore time), not from a poisoned or cold state.
        assert resumed.frame_index == 1
        assert sessions.stats()["restores_total"] >= 1
        assert sessions.stats()["checkpoints_total"] >= 1

    def test_terminal_failure_settles_the_exported_watermark(
            self, monkeypatch):
        """A frame that fails past its retries is still settled: the
        exported record's watermark is that frame's seq, because the
        exported state *is* its rollback."""
        config = TrackerConfig(camera=TINY_CAMERA)
        frames = build_workload(sessions=1, frames=3,
                                scale=0.25)["client-0"].frames
        process = EBVOTracker.process

        def flaky(self, gray, depth, *args, **kwargs):
            if gray is frames[2].gray:
                raise RuntimeError("persistent fault")
            return process(self, gray, depth, *args, **kwargs)

        monkeypatch.setattr(EBVOTracker, "process", flaky)
        with VOService(workers=1, frontend="float", config=config,
                       max_retries=1) as svc:
            for f in frames[:2]:
                svc.submit("cam", f.gray, f.depth, f.timestamp,
                           timeout=60)
            with pytest.raises(RuntimeError, match="persistent"):
                svc.submit("cam", frames[2].gray, frames[2].depth,
                           frames[2].timestamp, timeout=60)
            failed_seq = svc.seq_watermark()
            svc.quiesce_session("cam")
            record = svc.sessions.export_session("cam")
        assert failed_seq == 3
        assert record["applied_seq"] == failed_seq

    def test_circuit_breaker_state_machine(self):
        clock = FakeClock()
        transitions = []
        breaker = CircuitBreaker(threshold=2, cooldown_s=1.0,
                                 clock=clock,
                                 on_transition=lambda a, b:
                                 transitions.append((a, b)))
        assert breaker.allow()
        breaker.record_fault()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_fault()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(1.1)
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_fault()  # probe failed: straight back open
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_clean()  # probe succeeded: closed again
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips_total == 2
        assert transitions[0] == (CircuitBreaker.CLOSED,
                                  CircuitBreaker.OPEN)

    def test_breaker_trips_worker_and_recovers(self):
        # Single worker, retries disabled: three straight failures
        # trip the breaker; after cooldown it half-opens and a clean
        # frame closes it again.
        err = RuntimeError("storm")
        scheduler, sessions, pool, _ = _flaky_pool(
            {0: err, 1: err, 2: err}, max_retries=0,
            breaker_threshold=3)
        worker = pool.workers[0]
        pool.start()
        try:
            for seq in range(3):
                with pytest.raises(RuntimeError):
                    _submit(scheduler, "a", seq).result(5)
            assert worker.breaker.state == CircuitBreaker.OPEN
            # Cooldown (0.05s) passes; the next frame is the
            # half-open probe and succeeds.
            result = _submit(scheduler, "a", 3).result(5)
            assert result.frame_index == 0
            assert worker.breaker.state == CircuitBreaker.CLOSED
        finally:
            pool.stop()
        assert pool.stats()["per_worker"][0]["breaker"][
            "trips_total"] >= 1

    def test_deadline_expires_queued_item(self):
        clock = FakeClock()
        sched = FifoScheduler(max_queue=8, clock=clock)
        fresh = WorkItem(session="a", seq=0, payload=None)
        stale = WorkItem(session="b", seq=0, payload=None,
                         deadline=clock.now + 5.0)
        sched.submit(fresh)
        sched.submit(stale)
        clock.advance(10.0)
        item = sched.next_item(timeout=0)
        assert item is fresh  # the undeadlined item still dispatches
        with pytest.raises(DeadlineExceeded) as exc:
            stale.future.result(0)
        assert exc.value.session == "b"
        assert exc.value.overdue_s == pytest.approx(5.0)
        assert sched.stats()["expired_total"] >= 1
        sched.done(item)

    def test_service_submit_deadline_plumbs_through(self):
        config = TrackerConfig(camera=TINY_CAMERA)
        sequence = make_sequence("fr1_xyz", n_frames=1,
                                 camera=TINY_CAMERA)
        with VOService(workers=1, frontend="float",
                       config=config) as service:
            result = service.submit("a", sequence.frames[0].gray,
                                    sequence.frames[0].depth,
                                    deadline_s=30.0)
        assert result.frame_index == 0

    def test_drain_rate_drives_retry_hint(self):
        clock = FakeClock()
        sched = FifoScheduler(max_queue=8, workers=1, clock=clock)
        assert sched.stats()["drain_ema_s"] is None
        for seq in range(3):
            sched.submit(_item("a", seq))
            item = sched.next_item(timeout=0)
            clock.advance(0.2)  # each frame takes 0.2s of clock
            sched.done(item)
        stats = sched.stats()
        assert stats["drain_ema_s"] == pytest.approx(0.2)
        assert stats["drain_rate_per_s"] == pytest.approx(5.0)
        assert stats["retry_after_s"] == pytest.approx(0.2)
        # The hint rides on Backpressure rejections too.
        for seq in range(8):
            sched.submit(_item("b", seq))
        with pytest.raises(Backpressure) as exc:
            sched.submit(_item("c", 0))
        assert exc.value.retry_after_s == pytest.approx(0.2)

    def test_close_is_idempotent_and_fails_pending(self):
        service = VOService(workers=1, frontend="float",
                            config=TrackerConfig(camera=TINY_CAMERA))
        service.start()
        # Trap a frame in the queue with no worker able to run it:
        # close() must fail its future rather than leave it hanging.
        item = WorkItem(session="z", seq=1, payload=(None, None, 0.0))
        service.pool.stop()
        service.scheduler.submit(item)
        service.close()
        service.close()  # second close is a no-op, not an error
        with pytest.raises(RuntimeError, match="service closed"):
            item.future.result(0)

    def test_close_without_start_is_safe(self):
        service = VOService(workers=1, frontend="float",
                            config=TrackerConfig(camera=TINY_CAMERA))
        service.close()
        service.close()

    def test_stats_health_section(self):
        config = TrackerConfig(camera=TINY_CAMERA)
        with VOService(workers=2, frontend="float",
                       config=config) as service:
            assert service.healthy()
            health = service.stats()["health"]
            assert health["breakers_open"] == 0
            assert set(health["breakers"].values()) == {"closed"}
            assert health["queue_saturation"] == 0.0
        assert not service.healthy()  # closed service is unhealthy


class TestLoadgenHelpers:
    def test_build_workload_cycles_sequences(self):
        workload = build_workload(sessions=4, frames=2, scale=0.25)
        assert len(workload) == 4
        names = [seq.name for seq in workload.values()]
        assert names[0] == names[3]  # cycled back around
        assert len({sid for sid in workload}) == 4

    def test_trajectories_match_flags_divergence(self):
        config = TrackerConfig(camera=TINY_CAMERA)
        workload = build_workload(sessions=1, frames=2, scale=0.25)
        solo = solo_trajectories(workload, PIMFrontend, config)
        assert trajectories_match(solo, solo) == []
        truncated = {sid: poses[:-1] for sid, poses in solo.items()}
        assert trajectories_match(truncated, solo) != []
