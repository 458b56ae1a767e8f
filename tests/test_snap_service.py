"""Tests for the session record, the one state-transfer primitive.

Covers the service layer of :mod:`repro.snap`: the session
export/import pair that failover and the shard router move state
with, the record's keyframes (edge maps inline, lookup maps rebuilt
on first use), the structural-checkpoint contract it rests on, and the
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
from repro.geometry.se3 import SE3
from repro.obs.metrics import get_registry
from repro.serve import SessionManager, VOService, build_workload
from repro.snap import content_hash, decode, encode
from repro.snap.state import encode_session_record, restore_session_record
from repro.vo import EBVOTracker, FloatFrontend, PIMFrontend, TrackerConfig
from repro.vo.health import DEGRADED, HEALTH_LEVELS, OK
from repro.vo.tracker import Keyframe

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


def _track(manager, config, frames, frontend_cls=FloatFrontend, sid="s"):
    """Run ``frames`` through one session the way a pool worker does:
    checkpoint after every healthy keyframe."""
    tracker = EBVOTracker(frontend_cls(config), config)
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


def _keyframe_nodes(encoded):
    """Every encoded ``Keyframe`` node of an encoded record."""
    if isinstance(encoded, list):
        return [n for item in encoded for n in _keyframe_nodes(item)]
    if not isinstance(encoded, dict):
        return []
    if encoded.get("type") == "Keyframe":
        return [encoded]
    return [n for value in encoded.values()
            for n in _keyframe_nodes(value)]


def _poses(results):
    return [(r.pose.R, r.pose.t) for r in results]


@pytest.fixture(scope="module")
def qvga_record():
    """Exported record of a 60-frame QVGA ``fr1_xyz`` float session."""
    seq = make_sequence("fr1_xyz", n_frames=60)
    manager = SessionManager()
    _track(manager, TrackerConfig(camera=seq.camera), seq.frames)
    return manager.export_session("s")


class TestKeyframeRecord:
    """A keyframe travels as its pose and edge maps, inline in every
    slot; its lookup maps are rebuilt on first use after a decode."""

    def test_record_carries_edge_maps_only(self, qvga_record):
        slots = _keyframe_slots(qvga_record)
        encoded = encode_session_record(qvga_record)
        assert len(slots) == 8
        assert len({id(kf) for kf in slots}) == 3
        nodes = _keyframe_nodes(encoded)
        assert len(nodes) == 8
        for node in nodes:
            assert sorted(node["fields"]) == ["edges", "pose_world"]
            assert [edges["dtype"] for edges in node["fields"]["edges"]] \
                == ["|b1"]
        # With the DT and gradient maps in every slot it was 19.7 MB.
        assert len(pickle.dumps(encoded)) <= 1_000_000

    def test_encoding_is_deterministic(self, qvga_record):
        first = encode_session_record(qvga_record)
        second = encode_session_record(qvga_record)
        assert content_hash(first) == content_hash(second)

    def test_round_trip_keeps_the_state(self, qvga_record):
        encoded = encode_session_record(qvga_record)
        target = SessionManager()
        restore_session_record(target, encoded)
        again = target.export_session("s")
        assert content_hash(encode(again)) == \
            content_hash(encode(qvga_record))

    @pytest.mark.parametrize("frontend_cls", [FloatFrontend, PIMFrontend])
    def test_decoded_keyframe_rebuilds_its_maps_bit_for_bit(
            self, frontend_cls):
        config = TrackerConfig(camera=TINY_CAMERA, pyramid_levels=2)
        seq = make_sequence("fr2_desk", n_frames=30, camera=TINY_CAMERA)
        tracker = _track(SessionManager(), config, seq.frames,
                         frontend_cls)
        record = tracker.state.checkpoint()
        decoded = decode(encode(record))
        pairs = list(zip(
            [record.keyframe, *record.recent_keyframes],
            [decoded.keyframe, *decoded.recent_keyframes]))
        assert len({id(kf) for kf, _ in pairs}) >= 2
        # The decode shares a keyframe exactly where the record did.
        assert len({(id(a), id(b)) for a, b in pairs}) == \
            len({id(a) for a, _ in pairs}) == len({id(b) for _, b in pairs})
        fresh = EBVOTracker(frontend_cls(config), config)
        rebuilt = set()
        for original, restored in pairs:
            assert len(restored.edges) == 2
            if id(restored) in rebuilt:
                continue
            rebuilt.add(id(restored))
            assert restored.maps == [None, None]
            for level in range(2):
                want = original.maps[level]
                got = fresh.keyframe_maps(restored, level)
                assert fresh.keyframe_maps(restored, level) is got
                for f in dataclasses.fields(want):
                    a, b = getattr(want, f.name), getattr(got, f.name)
                    if a is None:
                        assert b is None
                        continue
                    assert a.dtype == b.dtype
                    assert np.array_equal(a, b)

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


class TestKeyframeInterning:
    """The slots of one keyframe decode to one object, so an imported
    session rebuilds each keyframe's maps once."""

    @pytest.mark.parametrize("frontend_cls", [FloatFrontend, PIMFrontend])
    def test_restore_rebuilds_each_keyframe_once(self, frontend_cls,
                                                  monkeypatch):
        config = _config()
        seq = make_sequence("fr2_desk", n_frames=60, camera=TINY_CAMERA)
        source = SessionManager()
        control = _track(source, config, seq.frames[:40], frontend_cls)
        record = source.export_session("s")
        slots = _keyframe_slots(record)
        assert len(slots) > len({id(kf) for kf in slots}) >= 2

        prepared = []
        original = frontend_cls.prepare_keyframe

        def counted(self, edge_map):
            prepared.append(edge_map)
            return original(self, edge_map)

        monkeypatch.setattr(frontend_cls, "prepare_keyframe", counted)
        target = SessionManager()
        migrated = restore_session_record(
            target, encode_session_record(record))
        decoded = _keyframe_slots({"state": migrated.state,
                                   "checkpointed": migrated.checkpointed})
        assert len({id(kf) for kf in decoded}) == \
            len({id(kf) for kf in slots})
        assert record["state"].keyframe is record["checkpointed"].keyframe
        assert migrated.state.keyframe is migrated.checkpointed.keyframe
        resumed = EBVOTracker(frontend_cls(config), config)
        resumed.state = migrated.state
        frames = seq.frames[40:]
        for frame in frames[:5]:
            control.process(frame.gray, frame.depth, frame.timestamp)
            resumed.process(frame.gray, frame.depth, frame.timestamp)
        # Roll both back to their checkpoints, then track on.
        assert source.restore_checkpoint(source.get("s"))
        assert target.restore_checkpoint(migrated)
        for frame in frames[5:]:
            control.process(frame.gray, frame.depth, frame.timestamp)
            resumed.process(frame.gray, frame.depth, frame.timestamp)

        # Each decoded keyframe tracked against was rebuilt exactly once,
        # though the live slot and the checkpoint slot both held it.
        distinct = {id(kf): kf for kf in decoded}.values()
        edges = {id(e) for kf in distinct for e in kf.edges}
        rebuilt = [id(e) for e in prepared if id(e) in edges]
        assert len(rebuilt) == len(set(rebuilt)) == sum(
            m is not None for kf in distinct for m in kf.maps) >= 1
        assert len(resumed.results) == len(frames)
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
            nodes = _keyframe_nodes(body)
            assert len(nodes) == 4
            for node in nodes:
                node["fields"]["edges"] = []
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
            tracker = EBVOTracker(frontend, config)
            keyframe = Keyframe(pose_world=SE3.identity(),
                                edges=[frontend.detect(gray)])
            decoded = decode(encode(keyframe))
            for candidate in (frontend.prepare_keyframe(keyframe.edges[0]),
                              tracker.keyframe_maps(decoded)):
                arrays = [getattr(candidate, f.name)
                          for f in dataclasses.fields(candidate)]
                arrays = [arr for arr in arrays if arr is not None]
                assert len(arrays) == 3
                for arr in arrays:
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0, 0] = 1

    def test_keyframe_edges_are_read_only(self):
        config = _config()
        seq = make_sequence("fr1_xyz", n_frames=1, camera=TINY_CAMERA)
        frame = seq.frames[0]
        tracker = EBVOTracker(FloatFrontend(config), config)
        tracker.process(frame.gray, frame.depth, frame.timestamp)
        keyframe = tracker.state.keyframe
        for candidate in (keyframe, decode(encode(keyframe))):
            assert candidate.edges[0].dtype == bool
            with pytest.raises(ValueError, match="read-only"):
                candidate.edges[0][0, 0] = True

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
