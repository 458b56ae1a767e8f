"""Tests for the session record, the one state-transfer primitive.

Covers the service layer of :mod:`repro.snap`: the session
export/import pair that failover and the shard router move state
with, and the health-gauge restore regression.  Restore-then-continue
is gated by ``tests/test_shard_router.py``, the failover tests and
the chaos ``migrate`` storm.
"""

import pytest

from repro.geometry.camera import TUM_QVGA
from repro.obs.metrics import get_registry
from repro.serve import SessionManager, VOService, build_workload
from repro.snap import encode
from repro.snap.state import restore_session_record
from repro.vo import TrackerConfig
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
        migrated = restore_session_record(target, record)
        assert migrated.generation == generation
        assert migrated.checkpoint_frame == checkpoint_frame
        assert migrated.force_device_reset
        # The target can never reuse a generation this id had.
        assert target.export_session("client-0")["next_generation"] \
            >= generation + 1


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
