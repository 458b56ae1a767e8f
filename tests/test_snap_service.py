"""Tests for whole-service snapshots and session export/restore.

Covers the service layer of :mod:`repro.snap`: bit-exact
snapshot/restore of a full ``VOService`` (sessions, generations,
devices, breakers, queued frames, sequence watermark), the session
export/restore pair the shard router migrates with, and the
health-gauge restore regression.  Live migration itself is gated by
``tests/test_shard_router.py`` and the chaos ``migrate`` storm.
"""

import numpy as np
import pytest

from repro.dataset import make_sequence
from repro.geometry.camera import TUM_QVGA
from repro.obs.metrics import get_registry
from repro.serve import (
    SessionManager,
    VOService,
    build_workload,
    service_trajectories,
    solo_trajectories,
)
from repro.snap import SnapshotError, encode
from repro.snap.state import restore_session_record
from repro.vo import TrackerConfig
from repro.vo.frontend import FloatFrontend
from repro.vo.health import DEGRADED, HEALTH_LEVELS, OK

TINY_CAMERA = TUM_QVGA.scaled(0.25)


def _config():
    return TrackerConfig(camera=TINY_CAMERA)


def _service(config, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("frontend", "float")
    return VOService(config=config, **kw)


def _workload(sessions=2, frames=6, seed=0):
    return build_workload(sessions=sessions, frames=frames,
                          scale=0.25, seed=seed)


class TestServiceSnapshotRestore:
    def test_restore_is_bit_exact_by_construction(self):
        config = _config()
        workload = _workload()
        with _service(config) as svc:
            for sid, seq in workload.items():
                for frame in seq.frames[:4]:
                    svc.submit(sid, frame.gray, frame.depth,
                               frame.timestamp)
            snap = svc.snapshot(seeds={"workload": 0})
        target = _service(config)
        try:
            out = target.restore(snap)  # verify=True re-hashes
        finally:
            target.close()
        assert out["sessions"] == 2
        assert out["requeued"] == []
        assert target.rng_seeds == {"workload": 0}
        assert target.seq_watermark() == snap["sections"]["meta"][
            "seq_watermark"]

    def test_restored_service_continues_bit_identically(self):
        config = _config()
        workload = _workload()
        with _service(config) as svc:
            for sid, seq in workload.items():
                for frame in seq.frames[:3]:
                    svc.submit(sid, frame.gray, frame.depth,
                               frame.timestamp)
            snap = svc.snapshot()
        restored = _service(config)
        restored.restore(snap)
        results = []
        with restored:
            for sid, seq in workload.items():
                for frame in seq.frames[3:]:
                    results.append(restored.submit(
                        sid, frame.gray, frame.depth,
                        frame.timestamp))
        # The tail served after restore matches the solo tracker's
        # tail: restore lost nothing the trajectory depends on.
        solo = solo_trajectories(workload, FloatFrontend, config)
        tails = {sid: poses[3:] for sid, poses in solo.items()}
        served = service_trajectories(results)
        for sid, reference in tails.items():
            got = served[sid]
            assert len(got) == len(reference)
            for a, b in zip(got, reference):
                assert np.array_equal(a.R, b.R)
                assert np.array_equal(a.t, b.t)

    def test_queued_frames_survive_restore(self):
        config = _config()
        frame = make_sequence("fr1_xyz", n_frames=1,
                              camera=TINY_CAMERA).frames[0]
        # An unstarted service queues without serving, so the snapshot
        # captures a non-empty admission queue.
        svc = _service(config)
        future = svc.requeue_frame("s", 7, frame.gray, frame.depth,
                                   frame.timestamp)
        snap = svc.snapshot()
        assert len(snap["sections"]["scheduler"]["queued"]) == 1
        svc.scheduler.fail_pending(RuntimeError("abandoned"))
        svc.close()
        assert future.done()

        target = _service(config)
        out = target.restore(snap)
        assert len(out["requeued"]) == 1
        with target:
            result = out["requeued"][0].result(timeout=30)
        assert result.session == "s"
        assert target.seq_watermark() >= 7

    def test_restore_rejects_incompatible_service(self):
        config = _config()
        with _service(config) as svc:
            snap = svc.snapshot()
        wrong_workers = _service(config, workers=3)
        try:
            with pytest.raises(SnapshotError, match="workers"):
                wrong_workers.restore(snap)
        finally:
            wrong_workers.close()
        wrong_config = _service(
            TrackerConfig(camera=TUM_QVGA.scaled(0.5)))
        try:
            with pytest.raises(SnapshotError, match="TrackerConfig"):
                wrong_config.restore(snap)
        finally:
            wrong_config.close()

    def test_restore_rejects_dirty_target(self):
        config = _config()
        workload = _workload(sessions=1)
        with _service(config) as svc:
            snap = svc.snapshot()
        dirty = _service(config)
        try:
            with dirty:
                frame = workload["client-0"].frames[0]
                dirty.submit("resident", frame.gray, frame.depth)
            with pytest.raises(SnapshotError, match="resident"):
                dirty.restore(snap)
        finally:
            dirty.close()

    def test_restore_rejects_corrupt_snapshot(self):
        config = _config()
        with _service(config) as svc:
            snap = svc.snapshot()
        snap["sections"]["meta"]["seq_watermark"] = 999
        target = _service(config)
        try:
            with pytest.raises(SnapshotError, match="corrupt"):
                target.restore(snap)
            # No partial restore escaped the failed verify.
            assert target.sessions.sids() == []
            assert target.seq_watermark() == 0
        finally:
            target.close()


class TestMigration:
    def test_migration_preserves_generation_and_checkpoint(self):
        # The shard worker's export/restore pair, as the router's
        # remove_shard / add_shard(rebalance=True) drain runs it.
        config = _config()
        workload = _workload(sessions=1)
        with _service(config) as source:
            for frame in workload["client-0"].frames:
                source.submit("client-0", frame.gray, frame.depth,
                              frame.timestamp)
            before = source.sessions.get("client-0")
            generation = before.generation
            checkpoint_frame = before.checkpoint_frame
            record = encode(source.sessions.export_session("client-0"))
        target = SessionManager()
        migrated = restore_session_record(target, record,
                                          force_device_reset=True)
        assert migrated.generation == generation
        assert migrated.checkpoint_frame == checkpoint_frame
        assert migrated.force_device_reset
        # The target can never reuse a generation this id had.
        marks = target.generation_watermarks()
        assert marks["client-0"] >= generation + 1


class TestSessionExportImport:
    def test_export_unknown_session_raises(self):
        with pytest.raises(KeyError):
            SessionManager().export_session("ghost")

    def test_export_busy_session_refused(self):
        manager = SessionManager()
        session = manager.touch("s")
        session.busy = True
        with pytest.raises(RuntimeError, match="checked out"):
            manager.export_session("s")

    def test_import_resident_session_refused(self):
        manager = SessionManager()
        manager.touch("s")
        record = manager.export_session("s")
        with pytest.raises(ValueError, match="resident"):
            manager.import_session(record)

    def test_import_is_deep_copy(self):
        source = SessionManager()
        source.touch("s")
        record = source.export_session("s")
        a = SessionManager().import_session(record)
        b = SessionManager().import_session(record)
        assert a.state is not b.state


class TestHealthGaugeRestore:
    """Regression: checkpoint restore must rewind the health gauge.

    The tracker state itself always restored ``health``; the
    observable ``vo_tracking_state`` gauge kept showing the
    pre-restore level (e.g. DEGRADED) until the next processed frame.
    """

    def _gauge(self):
        return get_registry().gauge(
            "vo_tracking_state",
            "Tracker health (index into HEALTH_LEVELS)")

    def test_degraded_restore_resets_state_and_gauge(self):
        from repro.vo.health import sync_health_gauge
        manager = SessionManager()
        session = manager.touch("s")
        assert session.state.health == OK
        manager.save_checkpoint(session)
        # The tracker degrades and (as EBVOTracker does) publishes it.
        session.state.health = DEGRADED
        session.state.degraded_streak = 3
        sync_health_gauge(DEGRADED)
        assert self._gauge().value() == HEALTH_LEVELS.index(DEGRADED)

        assert manager.restore_checkpoint(session)
        assert session.state.health == OK
        assert session.state.degraded_streak == 0
        assert self._gauge().value() == HEALTH_LEVELS.index(OK)

    def test_import_session_publishes_health(self):
        from repro.vo.health import sync_health_gauge
        source = SessionManager()
        session = source.touch("s")
        session.state.health = DEGRADED
        record = source.export_session("s")
        sync_health_gauge(OK)
        SessionManager().import_session(record)
        assert self._gauge().value() == HEALTH_LEVELS.index(DEGRADED)
