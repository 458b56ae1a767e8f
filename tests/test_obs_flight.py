"""Tests for the always-on flight recorder (repro.obs.flight)."""

import hashlib
import json
import logging
import subprocess

import pytest

from repro.obs.flight import (
    BUNDLE_SCHEMA,
    FlightRecorder,
    get_flight_recorder,
    set_flight_recorder,
)
from repro.obs.stamp import _tree_state, git_sha, run_stamp

STAMP_KEYS = {"timestamp", "git_sha", "python", "numpy", "machine"}


def _git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t",
         "-c", "commit.gpgsign=false", *args],
        cwd=root, capture_output=True, timeout=10, check=True).stdout


class TestRunStamp:
    def test_names_the_checkout_revision(self):
        stamp = run_stamp()
        assert stamp["git_sha"] == git_sha()
        if stamp["git_sha"] is not None:
            assert isinstance(stamp["dirty"], bool)
            if stamp["src_diff_sha256"] is not None:
                assert stamp["dirty"]

    def test_names_the_uncommitted_source_it_ran(self, tmp_path):
        """A tracked edit or an untracked file under ``src/`` sets
        ``dirty`` and the digest; the digest follows the untracked
        file's contents; changes outside ``src/`` leave it None."""
        try:
            _git(tmp_path, "init", "-q")
        except (OSError, subprocess.SubprocessError):
            pytest.skip("git unavailable")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "a.py").write_text("a = 1\n")
        (tmp_path / "notes.md").write_text("x\n")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-q", "-m", "init")
        head = _git(tmp_path, "rev-parse", "HEAD").decode().strip()
        assert _tree_state(tmp_path) == (head, False, None)

        (tmp_path / "scratch.txt").write_text("untracked, not src\n")
        assert _tree_state(tmp_path) == (head, False, None)

        new = tmp_path / "src" / "pkg" / "new.py"
        new.parent.mkdir()
        new.write_text("b = 2\n")
        sha, dirty, first = _tree_state(tmp_path)
        assert (sha, dirty) == (head, True) and first is not None
        new.write_text("b = 3\n")
        assert _tree_state(tmp_path)[2] not in (None, first)
        new.unlink()
        assert _tree_state(tmp_path) == (head, False, None)

        (tmp_path / "notes.md").write_text("y\n")
        assert _tree_state(tmp_path) == (head, True, None)
        (tmp_path / "src" / "a.py").write_text("a = 2\n")
        diff = _git(tmp_path, "diff", "HEAD", "--", "src")
        assert _tree_state(tmp_path) == (
            head, True, hashlib.sha256(diff).hexdigest())


class TestEventRing:
    def test_events_carry_seq_time_and_fields(self):
        recorder = FlightRecorder()
        recorder.event("admitted", session="a", seq=1)
        recorder.event("dispatched", session="a", seq=1)
        events = recorder.bundle()["events"]
        assert [e["kind"] for e in events] == ["admitted",
                                               "dispatched"]
        assert events[0]["session"] == "a"
        assert events[0]["seq"] == 1       # caller's frame seq kept
        assert events[0]["rec_seq"] == 1
        assert events[1]["rec_seq"] == 2   # monotone recorder seq
        assert events[0]["t"] > 0

    def test_ring_cap_drops_oldest_and_warns_once(self, caplog):
        recorder = FlightRecorder(max_events=3, max_incidents=2)
        # setup_logging (run by other tests in the suite) stops the
        # "repro" logger from propagating to root, where caplog
        # listens; restore propagation for this capture.
        repro_logger = logging.getLogger("repro")
        saved_propagate = repro_logger.propagate
        repro_logger.propagate = True
        try:
            with caplog.at_level("WARNING",
                                 logger="repro.obs.flight"):
                for i in range(6):
                    recorder.event("tick", i=i)
        finally:
            repro_logger.propagate = saved_propagate
        stats = recorder.stats()
        assert stats["events"] == 3
        assert stats["dropped_events"] == 3
        events = recorder.bundle()["events"]
        assert [e["i"] for e in events] == [3, 4, 5]   # newest kept
        warnings = [r for r in caplog.records
                    if "event ring full" in r.getMessage()]
        assert len(warnings) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_events=0)
        with pytest.raises(ValueError):
            FlightRecorder(max_incidents=0)


class TestIncidents:
    def test_incident_captures_spans_and_emits_event(self):
        recorder = FlightRecorder()
        spans = [{"name": "request", "span_id": 1, "trace_id": 1}]
        recorder.incident("DeadlineExceeded", trace_id=1,
                          spans=spans, session="a", seq=4)
        bundle = recorder.bundle()
        (incident,) = bundle["incidents"]
        assert incident["reason"] == "DeadlineExceeded"
        assert incident["trace_id"] == 1
        assert incident["spans"] == spans
        assert incident["session"] == "a"
        # The incident also lands in the event ring.
        assert [e["kind"] for e in bundle["events"]] == ["incident"]

    def test_incident_ring_keeps_last_n(self):
        recorder = FlightRecorder(max_incidents=2)
        for i in range(4):
            recorder.incident(f"r{i}")
        reasons = [i["reason"]
                   for i in recorder.bundle()["incidents"]]
        assert reasons == ["r2", "r3"]


class TestBundleAndDump:
    def test_bundle_schema_and_stamp(self):
        recorder = FlightRecorder()
        recorder.event("tick")
        bundle = recorder.bundle("breaker_open", worker=2)
        assert bundle["schema"] == BUNDLE_SCHEMA == "repro.obs.flight/1"
        assert bundle["reason"] == "breaker_open"
        assert bundle["context"] == {"worker": 2}
        assert STAMP_KEYS <= set(bundle["stamp"])
        assert bundle["dropped_events"] == 0
        assert len(bundle["events"]) == 1
        assert bundle["incidents"] == []

    def test_dump_writes_json_file(self, tmp_path):
        recorder = FlightRecorder()
        recorder.incident("chaos_unrecovered", session="s1")
        path = recorder.dump(tmp_path / "nested" / "incident.json",
                             reason="chaos_unrecovered", seed=7)
        assert path.exists()
        bundle = json.loads(path.read_text())
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["reason"] == "chaos_unrecovered"
        assert bundle["context"] == {"seed": 7}
        assert bundle["incidents"][0]["session"] == "s1"
        assert recorder.stats()["dumps"] == 1

    def test_reset_clears_everything(self):
        recorder = FlightRecorder(max_events=2)
        for i in range(4):
            recorder.event("tick")
        recorder.incident("bad")
        recorder.reset()
        stats = recorder.stats()
        assert stats["events"] == 0
        assert stats["incidents"] == 0
        assert stats["dropped_events"] == 0
        assert stats["dumps"] == 0


class TestDefaultRecorder:
    def test_swap_default(self):
        original = get_flight_recorder()
        try:
            mine = FlightRecorder()
            set_flight_recorder(mine)
            assert get_flight_recorder() is mine
        finally:
            set_flight_recorder(original)
