"""Record/replay conformance tests (repro.snap.capture).

The acceptance gate: capture a seeded loadgen run, replay it offline,
and require the final poses, per-frame device-cycle ledger totals,
and span counts to match the live run exactly.  Plus the failure
modes: corrupt and truncated bundles are rejected cleanly, faulting
frames end their stream's replay, and overflowed rings are reported
not replayable rather than silently diverging.
"""

import json
from concurrent.futures import TimeoutError as FutureTimeout
from pathlib import Path

import numpy as np
import pytest

from repro.geometry.camera import TUM_QVGA
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.serve import VOService, build_workload, run_load
from repro.snap import (
    CaptureRing,
    SnapshotError,
    load_snapshot,
    replay_bundle,
    write_snapshot,
)
from repro.snap.__main__ import main as snap_main
from repro.vo import TrackerConfig

TINY_CAMERA = TUM_QVGA.scaled(0.25)


@pytest.fixture()
def fresh_obs():
    """Isolated, enabled tracer + registry, restored afterwards."""
    old_tracer, old_registry = get_tracer(), get_registry()
    tracer, registry = Tracer(), MetricsRegistry()
    set_tracer(tracer)
    set_registry(registry)
    tracer.enable()
    yield tracer, registry
    tracer.disable()
    set_tracer(old_tracer)
    set_registry(old_registry)


def _config():
    return TrackerConfig(camera=TINY_CAMERA)


def _captured_run(sessions=2, frames=5, seed=0, frontend="float",
                  **service_kw):
    """Drive a seeded loadgen run with capture on; returns
    (bundle, clients)."""
    config = service_kw.pop("config", None) or _config()
    workload = build_workload(sessions=sessions, frames=frames,
                              scale=0.25, seed=seed)
    svc = VOService(workers=2, frontend=frontend, config=config,
                    capture=True, **service_kw)
    with svc:
        _, clients = run_load(svc, workload)
        bundle = svc.capture.bundle(reason="test",
                                    seeds={"workload": seed})
    return bundle, clients


class TestCaptureReplayExact:
    def test_replay_matches_live_run_exactly(self):
        bundle, clients = _captured_run()
        report = replay_bundle(bundle)
        assert report.ok, report.summary()
        assert report.frames_replayed == report.frames_recorded == 10
        assert len(report.sessions) == 2
        assert all(s["final_pose_match"] for s in report.sessions)
        # Ledger totals: the recorded per-frame device cycles sum to
        # exactly what the offline replay's devices spent.
        assert report.recorded_device_cycles == \
            report.replayed_device_cycles
        live_cycles = sum(r.device_cycles
                          for c in clients for r in c.results)
        assert report.recorded_device_cycles == live_cycles

    def test_pim_replay_reproduces_device_cycles(self):
        config = TrackerConfig(camera=TINY_CAMERA,
                               pim_device_detect=True)
        bundle, clients = _captured_run(frontend="pim", config=config)
        report = replay_bundle(bundle)
        assert report.ok, report.summary()
        assert report.recorded_device_cycles > 0
        assert report.recorded_device_cycles == \
            report.replayed_device_cycles

    def test_span_counts_compared_when_traced(self, fresh_obs):
        # Live run traced -> span counts recorded; replay traced ->
        # counts must match (serving-plane spans excluded both sides).
        bundle, _ = _captured_run(sessions=1, frames=3)
        streams = bundle["sections"]["streams"]
        recorded = [f["outcome"]["span_count"]
                    for f in streams[0]["frames"]]
        assert all(c is not None and c > 0 for c in recorded)
        report = replay_bundle(bundle)
        assert report.ok, report.summary()
        assert not any(m["field"] == "span_count"
                       for m in report.mismatches)

    def test_tampered_outcome_detected_as_mismatch(self):
        bundle, _ = _captured_run(sessions=1, frames=3)
        stream = bundle["sections"]["streams"][0]
        victim = stream["frames"][-1]["outcome"]
        victim["device_cycles"] = int(victim["device_cycles"]) + 1
        # Re-seal the manifest so only the *outcome* lies, not the
        # document integrity -- replay itself must catch the drift.
        from repro.snap.codec import make_snapshot
        bundle = make_snapshot("capture", bundle["sections"])
        report = replay_bundle(bundle)
        assert not report.ok
        assert any(m["field"] == "device_cycles"
                   for m in report.mismatches)


class TestBundleRejection:
    def test_corrupt_bundle_rejected_cleanly(self, tmp_path):
        bundle, _ = _captured_run(sessions=1, frames=2)
        path = write_snapshot(tmp_path / "b_replay.json", bundle)
        doc = json.loads(path.read_text())
        doc["sections"]["meta"]["frontend"] = "pim"  # tamper
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="corrupt"):
            replay_bundle(path)

    def test_truncated_bundle_rejected_cleanly(self, tmp_path):
        bundle, _ = _captured_run(sessions=1, frames=2)
        path = write_snapshot(tmp_path / "b_replay.json", bundle)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            replay_bundle(path)

    def test_wrong_kind_rejected(self):
        from repro.snap.codec import make_snapshot
        with pytest.raises(SnapshotError, match="kind"):
            replay_bundle(make_snapshot("service", {"s": 1}))

    def test_cli_exit_codes(self, tmp_path, capsys):
        bundle, _ = _captured_run(sessions=1, frames=2)
        path = write_snapshot(tmp_path / "b_replay.json", bundle)
        assert snap_main(["verify", str(path)]) == 0
        assert snap_main(["info", str(path)]) == 0
        assert snap_main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "BIT-EXACT" in out
        path.write_text(path.read_text()[:100])
        assert snap_main(["verify", str(path)]) == 2
        assert snap_main(["replay", str(path)]) == 2

    def test_cli_json_report(self, tmp_path):
        bundle, _ = _captured_run(sessions=1, frames=2)
        path = write_snapshot(tmp_path / "b_replay.json", bundle)
        out = tmp_path / "report.json"
        assert snap_main(["replay", str(path),
                          "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["frames_replayed"] == 2


class TestCommittedBundle:
    """The committed mini bundle guards the capture format itself.

    If the codec, the outcome schema, or the tracker's arithmetic
    drifts, this replay stops being bit-exact -- regenerate the
    bundle (see docs/snapshots.md) only for *intentional* format
    bumps.
    """

    BUNDLE = Path(__file__).parent / "data" / "mini_incident_replay.json"

    def test_committed_bundle_replays_bit_exact(self):
        bundle = load_snapshot(self.BUNDLE, kind="capture")
        assert bundle["schema"] == "repro.snap/1"
        report = replay_bundle(bundle)
        assert report.ok, report.summary()
        assert report.frames_replayed == report.frames_recorded == 3
        assert not report.mismatches


class TestCaptureRing:
    def test_overflowed_stream_reported_not_replayable(self):
        ring = CaptureRing(capacity=2)
        ring.bind("float", _config())
        gray = np.zeros((6, 8))
        depth = np.ones((6, 8))
        for seq in range(4):
            ring.record("s", seq, gray, depth, 0.0,
                        ring.error_outcome(RuntimeError("x")))
        assert ring.stats()["dropped"]["s"] == 2
        bundle = ring.bundle()
        assert bundle["sections"]["meta"]["complete"] is False
        report = replay_bundle(bundle)
        row = report.sessions[0]
        assert row["replayable"] is False
        assert row["replayed"] == 0

    def test_recording_copies_arrays(self):
        ring = CaptureRing()
        ring.bind("float", _config())
        gray = np.zeros((4, 4))
        ring.record("s", 1, gray, gray, 0.0,
                    ring.error_outcome(RuntimeError("x")))
        gray[:] = 9.0
        bundle = ring.bundle()
        from repro.snap import decode
        rec = decode(bundle["sections"]["streams"][0]["frames"][0])
        assert rec["gray"].max() == 0.0

    def test_faulting_frame_ends_stream_replay(self):
        # A device-fault-storm failure is terminal live but clean
        # offline: replay must stop the stream at the exact faulting
        # frame and mark it not reproduced, never pretending the
        # post-checkpoint-restore frames are a pure replay.
        config = _config()
        workload = build_workload(sessions=1, frames=3, scale=0.25)
        frames = workload["client-0"].frames
        svc = VOService(workers=1, frontend="float", config=config,
                        capture=True)
        with svc:
            svc.submit("s", frames[0].gray, frames[0].depth,
                       frames[0].timestamp)
            svc.capture.record(
                "s", 99, frames[1].gray, frames[1].depth,
                frames[1].timestamp,
                CaptureRing.error_outcome(
                    RuntimeError("device fault storm")))
            svc.submit("s", frames[2].gray, frames[2].depth,
                       frames[2].timestamp)
            bundle = svc.capture.bundle()
        report = replay_bundle(bundle)
        # Frames: ok, error, ok -- replay stops at the fault.
        assert report.sessions[0]["frames"] == 3
        assert report.sessions[0]["replayed"] == 2
        assert len(report.faults) == 1
        assert report.faults[0]["index"] == 1
        assert report.faults[0]["reproduced"] is False
        assert report.ok  # non-reproducing faults don't fail the gate

    def test_submit_timeout_records_the_settled_outcome(self):
        # A client that stops waiting does not fail the frame: it
        # stays in its stream, tracks, and is recorded as ok.
        workload = build_workload(sessions=1, frames=2, scale=0.25)
        frames = workload["client-0"].frames
        svc = VOService(workers=1, frontend="float", config=_config(),
                        capture=True, min_service_s=0.3)
        with svc:
            with pytest.raises(FutureTimeout):
                svc.submit("s", frames[0].gray, frames[0].depth,
                           frames[0].timestamp, timeout=0.05)
            second = svc.submit("s", frames[1].gray, frames[1].depth,
                                frames[1].timestamp, timeout=30)
        assert second.frame_index == 1
        assert [(r["seq"], r["outcome"]["kind"])
                for r in svc.capture.tail("s", 0)] == \
            [(1, "ok"), (2, "ok")]

    def test_nowait_result_implies_capture_record(self):
        # The future completes only after its capture record is
        # written, so a reader of the result sees the record too.
        workload = build_workload(sessions=1, frames=20, scale=0.25)
        svc = VOService(workers=1, frontend="float", config=_config(),
                        capture=True)
        with svc:
            for seq, frame in enumerate(workload["client-0"].frames, 1):
                svc.submit_nowait("s", frame.gray, frame.depth,
                                  frame.timestamp).result(timeout=30)
                assert [r["seq"] for r in svc.capture.tail("s", 0)] \
                    == list(range(1, seq + 1))

    def test_flight_dump_gains_replay_sibling(self, tmp_path):
        config = _config()
        workload = build_workload(sessions=1, frames=2, scale=0.25)
        svc = VOService(workers=1, frontend="float", config=config,
                        capture=True)
        with svc:
            for frame in workload["client-0"].frames:
                svc.submit("s", frame.gray, frame.depth,
                           frame.timestamp)
            incident = svc.flight.dump(tmp_path / "incident.json",
                                       reason="test")
        sibling = tmp_path / "incident_replay.json"
        assert sibling.exists()
        listed = json.loads(incident.read_text())["artifacts"]
        assert str(sibling) in listed
        report = replay_bundle(load_snapshot(sibling, kind="capture"))
        assert report.ok, report.summary()
