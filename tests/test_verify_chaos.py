"""Tests for the chaos harness (repro.verify.chaos)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.dataset.synthetic import Frame, FrameCorruptor
from repro.verify.chaos import (
    ChaosConfig,
    build_fault_storm,
    main,
    run_chaos,
)
from repro.verify.chaos import _ChaosClient, _classify


def _frame():
    return Frame(gray=np.full((20, 30), 100.0),
                 depth=np.full((20, 30), 2.0), timestamp=0.5)


class TestFrameCorruptor:
    def test_same_seed_is_bit_identical(self):
        a = FrameCorruptor(seed=42).bitrot(_frame())
        b = FrameCorruptor(seed=42).bitrot(_frame())
        assert np.array_equal(a.gray, b.gray, equal_nan=True)
        c = FrameCorruptor(seed=43).bitrot(_frame())
        assert not np.array_equal(a.gray, c.gray, equal_nan=True)

    def test_bitrot_is_detectable(self):
        rotten = FrameCorruptor(seed=0).bitrot(_frame(), fraction=0.05)
        bad = ~np.isfinite(rotten.gray) | (rotten.gray < 0) | \
            (rotten.gray > 255)
        assert bad.any()
        # The source frame is untouched (depth shared, gray copied).
        assert np.isfinite(_frame().gray).all()

    def test_depth_holes_are_invalid_depth(self):
        holed = FrameCorruptor(seed=1).depth_holes(_frame(),
                                                   num_holes=3)
        invalid = ~np.isfinite(holed.depth) | (holed.depth <= 0)
        assert invalid.any()
        assert np.isfinite(holed.gray).all()  # gray untouched

    def test_unknown_kind_rejected(self):
        try:
            FrameCorruptor(seed=0).corrupt(_frame(), "gamma-rays")
        except ValueError as exc:
            assert "gamma-rays" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestFaultStorm:
    def test_storm_is_deterministic_and_spares_control(self):
        config = ChaosConfig(seed=5, sessions=4, frames=40)
        first_f, first_d = build_fault_storm(config)
        second_f, second_d = build_fault_storm(config)
        assert [(f.sid, f.frame, f.kind) for f in first_f] == \
            [(f.sid, f.frame, f.kind) for f in second_f]
        assert [(f.sid, f.frame, f.worker) for f in first_d] == \
            [(f.sid, f.frame, f.worker) for f in second_d]
        # Session 0 is the fault-free control.
        assert all(f.sid != "client-0" for f in first_f + first_d)
        # Every other session sees at least one frame fault.
        assert {f.sid for f in first_f} == \
            {f"client-{i}" for i in range(1, 4)}
        # Faults never land on the anchor frames.
        assert min(f.frame for f in first_f + first_d) >= 2

    def test_different_seeds_differ(self):
        a, _ = build_fault_storm(ChaosConfig(seed=0))
        b, _ = build_fault_storm(ChaosConfig(seed=1))
        assert [(f.sid, f.frame) for f in a] != \
            [(f.sid, f.frame) for f in b]


class TestClassification:
    def test_terminal_error_without_recovery_is_unrecovered(self):
        client = _ChaosClient(sid="s")
        client.results = [object()]
        client.last_error_frame = 9
        client.last_ok_frame = 5
        outcome, _ = _classify(client, ate_m=0.01, bound_m=0.05)
        assert outcome == "unrecovered"

    def test_ate_blowup_is_unrecovered(self):
        class R:
            health = "OK"
            events = ()
        client = _ChaosClient(sid="s")
        client.results = [R()]
        client.last_ok_frame = 9
        outcome, reason = _classify(client, ate_m=1.0, bound_m=0.05)
        assert outcome == "unrecovered"
        assert "ATE" in reason

    def test_healthy_finish_with_faults_is_recovered(self):
        class R:
            health = "OK"
            events = ("repaired:gray-nonfinite",)
        client = _ChaosClient(sid="s")
        client.results = [R()]
        client.last_ok_frame = 9
        client.dropped = 1
        outcome, reason = _classify(client, ate_m=0.01, bound_m=0.05)
        assert outcome == "recovered"
        assert "came back" in reason


class TestChaosRun:
    def test_small_storm_meets_slo(self):
        # Host-side detect keeps this a fast smoke; the CI job runs
        # the full device-detect storm.
        config = ChaosConfig(seed=0, sessions=2, frames=10,
                             workers=2, device_detect=False,
                             device_faults=0, stall_s=0.01)
        report = run_chaos(config)
        assert report["schema"] == "repro.verify.chaos/2"
        assert report["ok"], (report["unrecovered_sessions"],
                              report["unattributed_faults"],
                              report["bit_identity"])
        assert report["bit_identity"]["ok"]
        assert report["sessions"]["client-0"]["outcome"] == "recovered"
        assert report["faults_injected"] > 0
        faults = [f for s in report["sessions"].values()
                  for f in s["faults"]]
        assert faults and all(f["attributed"] for f in faults)
        # The report is stamped like BENCH_pim.json so chaos runs stay
        # attributable to a revision, and carries flight-ring stats.
        for key in ("timestamp", "python", "numpy", "machine"):
            assert key in report
        assert "git_sha" in report
        assert report["flight"]["events"] >= 0

    def test_unrecovered_session_dumps_incident_bundle(self,
                                                       tmp_path):
        """Forcing the ATE bound to ~zero classifies every session
        unrecovered, which must dump a flight-recorder incident
        bundle (event ring + captured incidents) for post-mortems."""
        import json

        config = ChaosConfig(seed=0, sessions=2, frames=8,
                             workers=1, device_detect=False,
                             device_faults=0, stall_s=0.01,
                             ate_inflation=0.0, ate_floor_m=1e-12)
        report = run_chaos(config, incident_dir=tmp_path)
        assert report["unrecovered_sessions"]
        assert not report["ok"]

        bundle_path = tmp_path / "chaos_incident.json"
        assert bundle_path.exists()
        bundle = json.loads(bundle_path.read_text())
        assert bundle["schema"] == "repro.obs.flight/1"
        assert bundle["reason"] == "chaos_unrecovered"
        assert bundle["context"]["sessions"] == \
            report["unrecovered_sessions"]
        assert bundle["events"], "event ring should not be empty"
        reasons = {i["reason"] for i in bundle["incidents"]}
        assert "chaos_unrecovered" in reasons
        # The bundle is stamped like every other benchmark artifact.
        assert "git_sha" in bundle["stamp"]

    def test_cli_writes_report_and_exits_zero(self, tmp_path):
        out = tmp_path / "chaos.json"
        code = main(["--seed", "0", "--sessions", "2", "--frames",
                     "8", "--workers", "1", "--frontend", "float",
                     "--no-device-detect", "--device-faults", "0",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        import json
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.verify.chaos/2"
        assert "timestamp" in report


class TestChaosMigration:
    def test_migration_storm_is_bit_identical(self):
        config = ChaosConfig(seed=0, sessions=3, frames=10,
                             workers=2, frontend="float",
                             device_detect=False, stall_s=0.01)
        report = run_chaos(replace(config, disruption="migrate"))
        assert report["schema"] == "repro.verify.chaos/2"
        assert report["ok"], (report["bit_identity"],
                              report["unrecovered_sessions"],
                              report["unattributed_faults"])
        assert report["bit_identity"]["ok"]
        assert report["disruption"]["killed_worker"] == 1
        assert report["disruption"]["disrupt_frame"] == 5
        assert report["disruption"]["sessions_migrated"] == 3
        assert sorted(report["disruption"]["drained"]) == \
            ["client-0", "client-1", "client-2"]
        # The storm actually stormed: faults were injected on the
        # non-control sessions and every one was attributed.
        assert report["faults_injected"] > 0
        assert not report["unattributed_faults"]
        outcomes = {s["outcome"]
                    for s in report["sessions"].values()}
        assert "unrecovered" not in outcomes

    def test_migration_storm_rejects_single_session(self):
        for disruption, knobs, message in [
                ("migrate", dict(sessions=1), "2 sessions"),
                ("kill", dict(shards=1), "2 shards"),
                ("kill", dict(shards=2, kills=2), "at least one shard")]:
            with pytest.raises(ValueError, match=message):
                run_chaos(ChaosConfig(disruption=disruption, **knobs))

    def test_migration_storm_rejects_bad_migrate_frame(self):
        for disruption, frame in [("migrate", 8), ("migrate", 0),
                                  ("kill", 8), ("kill", 2)]:
            with pytest.raises(ValueError, match="disrupt_frame"):
                run_chaos(ChaosConfig(disruption=disruption, sessions=2,
                                      frames=8, disrupt_frame=frame))

    def test_cli_migrate_flag(self, tmp_path):
        out = tmp_path / "migrate.json"
        code = main(["--migrate", "--seed", "1", "--sessions", "2",
                     "--frames", "8", "--workers", "2",
                     "--frontend", "float", "--no-device-detect",
                     "--out", str(out)])
        assert code == 0
        import json
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.verify.chaos/2"
        assert report["ok"]
        assert report["bit_identity"]["ok"]


class TestChaosKill:
    def test_kill_storm_loses_nothing_and_respawns(self, tmp_path):
        config = ChaosConfig(disruption="kill", seed=0, sessions=2,
                             frames=6, shards=2, kills=1, workers=1,
                             frontend="float", device_detect=False)
        report = run_chaos(config, incident_dir=tmp_path)
        assert report["schema"] == "repro.verify.chaos/2"
        assert report["ok"] == (report["problems"] == [])
        assert report["ok"], report["problems"]
        kill = report["disruption"]
        assert kill["kind"] == "kill"
        assert all(s["errors"] == 0
                   for s in report["sessions"].values())
        assert report["bit_identity"]["ok"]
        assert kill["lost_sessions"] == []
        assert kill["failovers_total"] >= 1
        assert len(kill["respawns"]) == 1
        for entry in kill["respawns"].values():
            assert entry["state"] == "up"
            assert entry["restarts"] == 1
            assert entry["budget_remaining"] > 0
        assert kill["incident_bundles"]
