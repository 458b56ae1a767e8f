"""Tests for the session record, the one state-transfer primitive.

Covers the service layer of :mod:`repro.snap`: the session
export/import pair that failover and the shard router move state
with, the record's keyframe table (each distinct keyframe encoded
once), the structural-checkpoint contract it rests on, and the
health-gauge restore regression.  Restore-then-continue is also gated
by ``tests/test_shard_router.py``, the failover tests and the chaos
``migrate`` storm.
"""

import dataclasses
import pickle
import sys
import time

import numpy as np
import pytest

from repro.dataset import make_sequence
from repro.geometry.camera import TUM_QVGA
from repro.obs.metrics import get_registry
from repro.serve import SessionManager, VOService, build_workload
from repro.snap import SnapshotError, content_hash, decode, encode
from repro.snap.state import encode_session_record, restore_session_record
from repro.vo import EBVOTracker, FloatFrontend, PIMFrontend, TrackerConfig
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
            record = encode_session_record(
                source.sessions.export_session("client-0"))
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


def _track(manager, config, frames, sid="s"):
    """Run ``frames`` through one session the way a pool worker does:
    checkpoint after every healthy keyframe."""
    tracker = EBVOTracker(FloatFrontend(config), config)
    session = manager.touch(sid)
    tracker.state = session.state
    for frame in frames:
        result = tracker.process(frame.gray, frame.depth,
                                 frame.timestamp)
        if result.is_keyframe and result.health == OK:
            manager.save_checkpoint(session)
    return tracker


def _keyframe_slots(record):
    slots = []
    for state in (record["state"], record["checkpointed"]):
        slots += [state.keyframe, *state.recent_keyframes]
    return slots


def _poses(results):
    return [(r.pose.R, r.pose.t) for r in results]


@pytest.fixture(scope="module")
def qvga_record():
    """Exported record of a 60-frame QVGA ``fr1_xyz`` float session."""
    seq = make_sequence("fr1_xyz", n_frames=60)
    manager = SessionManager()
    _track(manager, TrackerConfig(camera=seq.camera), seq.frames)
    return manager.export_session("s")


class TestKeyframeTable:
    def test_table_holds_each_distinct_keyframe_once(self, qvga_record):
        slots = _keyframe_slots(qvga_record)
        encoded = encode_session_record(qvga_record)
        assert len(slots) == 8
        assert len({id(kf) for kf in slots}) == 3
        assert sorted(encoded["keyframes"]) == ["k0", "k1", "k2"]
        # Encoded inline, each slot carries its own copy: 19.7 MB.
        assert len(pickle.dumps(encoded)) <= 8_000_000

    def test_encoding_is_deterministic(self, qvga_record):
        first = encode_session_record(qvga_record)
        second = encode_session_record(qvga_record)
        assert content_hash(first) == content_hash(second)

    def test_round_trip_keeps_the_state_and_the_sharing(self,
                                                         qvga_record):
        encoded = encode_session_record(qvga_record)
        target = SessionManager()
        restore_session_record(target, encoded)
        again = target.export_session("s")
        # The table changes the bytes, never the state ...
        assert content_hash(encode(again)) == \
            content_hash(encode(qvga_record))
        # ... and the import shares what the export shared.
        assert content_hash(encode_session_record(again)) == \
            content_hash(encoded)

    def test_dangling_ref_admits_no_session(self, qvga_record):
        encoded = encode_session_record(qvga_record)
        dangling = dict(encoded)
        dangling["keyframes"] = {key: node for key, node
                                 in encoded["keyframes"].items()
                                 if key != "k1"}
        target = SessionManager()
        with pytest.raises(SnapshotError, match="dangling ref 'k1'"):
            restore_session_record(target, dangling)
        tableless = dict(encoded)
        del tableless["keyframes"]
        with pytest.raises(SnapshotError, match="without a ref table"):
            restore_session_record(target, tableless)
        assert len(target) == 0

    def test_restored_session_continues_bit_identically(self):
        config = _config()
        # Keyframes at frames 0 and 28 before the split, 56 after it.
        seq = make_sequence("fr2_desk", n_frames=60, camera=TINY_CAMERA)
        source = SessionManager()
        control = _track(source, config, seq.frames[:40])
        record = source.export_session("s")
        assert len({id(kf) for kf in _keyframe_slots(record)}) >= 2
        target = SessionManager()
        migrated = restore_session_record(
            target, encode_session_record(record))
        resumed = EBVOTracker(FloatFrontend(config), config)
        resumed.state = migrated.state
        for frame in seq.frames[40:]:
            control.process(frame.gray, frame.depth, frame.timestamp)
            resumed.process(frame.gray, frame.depth, frame.timestamp)
        assert resumed.state.n_frames == control.state.n_frames == 60
        assert len(resumed.results) == 20
        for (ra, ta), (rb, tb) in zip(_poses(resumed.results),
                                      _poses(control.results[40:])):
            assert np.array_equal(ra, rb) and np.array_equal(ta, tb)


class TestRecordSize:
    def test_record_is_sized_by_its_keyframes_not_its_frames(self):
        # One relocalization candidate gives both records the same
        # keyframe slots, and fewer than 256 frames keep every counter
        # a one-byte pickle int, so only per-frame history could make
        # the bodies differ.
        config = TrackerConfig(camera=TINY_CAMERA, reloc_keyframes=1)
        n = 20
        seq = make_sequence("fr1_xyz", n_frames=10 * n,
                            camera=TINY_CAMERA)
        sizes = []
        for frames in (seq.frames[:n], seq.frames):
            manager = SessionManager()
            _track(manager, config, frames)
            body = encode_session_record(manager.export_session("s"))
            assert body.pop("keyframes")
            sizes.append(len(pickle.dumps(body)))
        assert sizes[0] == sizes[1] < 4096


class TestEncodeWhileTracking:
    def test_record_encoded_while_the_session_tracks_on(self):
        # The shard worker's sweep resubmits a session's frames before
        # it encodes the exported record, so the encode races the
        # frames that follow.  The record must still be the state at
        # export: its own lists, shared elements never mutated.
        config = _config()
        seq = make_sequence("fr2_desk", n_frames=60, camera=TINY_CAMERA)
        checks = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _service(config, workers=3) as service:
                futures = [service.submit_nowait(
                    "s", f.gray, f.depth, f.timestamp) for f in seq.frames]
                deadline = time.monotonic() + 60.0
                while not all(f.done() for f in futures):
                    assert time.monotonic() < deadline
                    extracted = service.quiesce_session("s", timeout_s=30)
                    record = service.sessions.export_session("s")
                    expected = content_hash(encode(record))
                    for item in extracted:
                        service.scheduler.submit(item)
                    checks.append((expected,
                                   encode_session_record(record)))
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert len(checks) >= 2
        for expected, encoded in checks:
            target = SessionManager()
            restore_session_record(target, encoded)
            assert content_hash(encode(target.export_session("s"))) == \
                expected


class TestStructuralCheckpoint:
    """The sharing contract: ``process`` and ``rollback`` replace
    keyframes and poses and advance a counter but never mutate them."""

    def test_keyframe_maps_are_read_only(self):
        config = _config()
        seq = make_sequence("fr1_xyz", n_frames=1, camera=TINY_CAMERA)
        gray = seq.frames[0].gray
        for frontend in (FloatFrontend(config), PIMFrontend(config)):
            maps = frontend.prepare_keyframe(frontend.detect(gray))
            for candidate in (maps, decode(encode(maps))):
                for f in dataclasses.fields(candidate):
                    arr = getattr(candidate, f.name)
                    if arr is None:
                        continue
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0, 0] = 1

    def test_checkpoint_survives_later_frames_and_rollback(self):
        config = _config()
        # Keyframe at frame 28: the live state replaces its keyframe.
        seq = make_sequence("fr2_desk", n_frames=30, camera=TINY_CAMERA)
        tracker = _track(SessionManager(), config, seq.frames[:20])
        checkpoint = tracker.state.checkpoint()
        before = content_hash(encode(checkpoint))
        keyframe = tracker.state.keyframe
        point = tracker.state.restore_point()
        for frame in seq.frames[20:]:
            tracker.process(frame.gray, frame.depth, frame.timestamp)
        assert tracker.state.keyframe is not keyframe
        tracker.state.rollback(point)
        assert content_hash(encode(checkpoint)) == before


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
