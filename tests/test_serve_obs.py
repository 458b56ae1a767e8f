"""Serve-plane observability integration tests.

Covers the PR acceptance criteria end to end: every request produces
one *connected* span tree (session -> queue -> worker -> device
kernels) even when sessions run concurrently on different worker
threads; the tree carries both timelines (wall-clock serve spans and
simulated-cycle device spans) in one Chrome trace; retry/rollback
paths join the same trace; SLO outcomes and flight-recorder incidents
are wired through the scheduler, the pool, and ``VOService.stats()``;
and the ``StatusServer`` endpoints serve all of it over HTTP.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.dataset import make_sequence
from repro.geometry.camera import TUM_QVGA
from repro.geometry.se3 import SE3
from repro.obs import (
    MetricsRegistry,
    get_registry,
    parse_prometheus_text,
    set_registry,
    write_chrome_trace,
)
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SloEngine
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.serve import (
    DeadlineExceeded,
    DevicePool,
    FifoScheduler,
    SessionManager,
    StatusServer,
    VOService,
    WorkItem,
    build_workload,
    run_load,
    write_bench_report,
)
from repro.vo import TrackerConfig
from repro.vo.tracker import FrameResult, TrackerState

TINY_CAMERA = TUM_QVGA.scaled(0.25)  # 80x60: fast but real tracking


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


def _tree(tracer, trace_id):
    """Spans of one trace, asserting the tree is fully connected."""
    spans = tracer.spans_for_trace(trace_id)
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1, f"trace {trace_id} has {len(roots)} roots"
    for span in spans:
        assert span.parent_id is None or span.parent_id in ids, \
            f"span {span.name} orphaned in trace {trace_id}"
    return spans


class TestRequestTraceSchema:
    def test_concurrent_sessions_yield_connected_trees(
            self, fresh_obs, tmp_path):
        """Two sessions on two workers: each request is one connected
        span tree (request -> queue + track -> frame -> kernels) with
        serve spans on the wall clock and kernel spans on the
        simulated-cycle clock, and the trees never interleave."""
        tracer, _ = fresh_obs
        config = TrackerConfig(camera=TINY_CAMERA,
                               pim_device_detect=True)
        sequence = make_sequence("fr1_xyz", n_frames=2,
                                 camera=TINY_CAMERA)
        errors = []

        def client(session_id):
            try:
                for frame in sequence.frames:
                    service.submit(session_id, frame.gray,
                                   frame.depth, frame.timestamp)
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        with VOService(workers=2, frontend="pim",
                       config=config) as service:
            threads = [threading.Thread(target=client, args=(sid,))
                       for sid in ("cam-a", "cam-b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []

        requests = [s for s in tracer.spans if s.name == "request"]
        assert len(requests) == 4            # 2 sessions x 2 frames
        seen_span_ids = set()
        for request in requests:
            assert request.trace_id == request.span_id
            tree = _tree(tracer, request.trace_id)
            by_name = {}
            for span in tree:
                by_name.setdefault(span.name, []).append(span)

            # Serve plane: queue + track hang off the request root.
            (queue,) = by_name["queue"]
            (track,) = by_name["track"]
            assert queue.parent_id == request.span_id
            assert track.parent_id == request.span_id
            session = request.attrs["session"]
            assert track.attrs["session"] == session
            assert queue.attrs["session"] == session
            assert track.attrs["outcome"] == "ok"
            assert queue.attrs["outcome"] == "dispatched"
            # Serve spans live on the wall-clock timeline too.
            for span in (request, queue, track):
                assert span.category == "serve"
                assert span.wall_ts > 0.0

            # Device plane: the tracker's frame span nests under
            # track, and PIM kernel spans nest under it with
            # simulated-cycle durations.
            (frame,) = by_name["frame"]
            assert frame.parent_id == track.span_id
            kernels = [s for s in tree if s.category == "kernel"]
            assert {s.name for s in kernels} >= {"lpf", "hpf", "nms"}
            assert sum(s.dur for s in kernels) > 0

            # Trees never share spans (no cross-request interleaving).
            ids = {s.span_id for s in tree}
            assert not (ids & seen_span_ids)
            seen_span_ids |= ids

        # One Chrome trace carries both timelines: pid 0 simulated
        # cycles for everything, pid 1 wall clock for serve spans.
        path = write_chrome_trace(tmp_path / "trace.json",
                                  tracer=tracer)
        events = json.loads(path.read_text())["traceEvents"]
        complete = [e for e in events if e.get("ph") == "X"]
        pids = {e["pid"] for e in complete}
        assert pids == {0, 1}
        serve_wall = [e for e in complete
                      if e["pid"] == 1 and e["cat"] == "serve"]
        assert {e["name"] for e in serve_wall} >= \
            {"request", "queue", "track"}
        # Every exported event names its span/trace for correlation.
        assert all("trace_id" in e["args"] for e in complete)

    def test_disabled_tracing_records_nothing(self, fresh_obs):
        """With tracing off the serve path allocates no spans."""
        tracer, _ = fresh_obs
        tracer.disable()
        config = TrackerConfig(camera=TINY_CAMERA)
        sequence = make_sequence("fr1_xyz", n_frames=1,
                                 camera=TINY_CAMERA)
        with VOService(workers=1, frontend="float",
                       config=config) as service:
            result = service.submit("a", sequence.frames[0].gray,
                                    sequence.frames[0].depth)
        assert result.frame_index == 0
        assert tracer.spans == []


class _FlakyTracker:
    """Fails the global attempt numbers listed in ``failures``."""

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


class TestRetryAndDeadlineTracing:
    def test_retry_rollback_span_joins_request_trace(self, fresh_obs):
        """A worker retry's rollback span lands in the request tree."""
        tracer, _ = fresh_obs
        scheduler = FifoScheduler(max_queue=16, workers=1)
        sessions = SessionManager()
        pool = DevicePool(
            1, scheduler, sessions,
            lambda: _FlakyTracker({1: RuntimeError("transient")}),
            max_retries=1, retry_backoff_s=0.0,
            breaker_threshold=3, breaker_cooldown_s=0.05)

        def submit(seq):
            request = tracer.begin("request", category="serve",
                                   session="a", seq=seq)
            item = WorkItem(
                session="a", seq=seq,
                payload=(None, None, 0.0), ctx=request.context,
                queue_handle=tracer.begin("queue", category="serve",
                                          parent=request.context))
            scheduler.submit(item)
            result = item.future.result(5)
            request.finish(outcome="ok", retries=result.retries)
            return request.context.trace_id, result

        pool.start()
        try:
            submit(0)
            trace_id, result = submit(1)   # attempt 1 fails, retry ok
        finally:
            pool.stop()

        assert result.retries == 1
        tree = _tree(tracer, trace_id)
        names = [s.name for s in tree]
        assert "rollback" in names
        (rollback,) = [s for s in tree if s.name == "rollback"]
        (track,) = [s for s in tree if s.name == "track"]
        assert rollback.parent_id == track.span_id
        assert rollback.attrs["attempt"] == 1
        assert track.attrs["retries"] == 1

    def test_deadline_miss_finishes_queue_span_and_records(
            self, fresh_obs):
        """Queue expiry closes the queue span, feeds the SLO window,
        and leaves a flight-recorder event."""
        tracer, _ = fresh_obs
        slo = SloEngine(window_s=60.0)
        flight = FlightRecorder()

        class Clock:
            now = 100.0

            def __call__(self):
                return self.now

        clock = Clock()
        scheduler = FifoScheduler(max_queue=8, clock=clock,
                                  slo=slo, flight=flight)
        request = tracer.begin("request", category="serve")
        item = WorkItem(session="a", seq=0,
                        payload=None, ctx=request.context,
                        queue_handle=tracer.begin(
                            "queue", category="serve",
                            parent=request.context))
        item.deadline = clock.now + 1.0
        scheduler.submit(item)
        clock.now += 5.0
        assert scheduler.next_item(timeout=0) is None
        with pytest.raises(DeadlineExceeded):
            item.future.result(0)
        request.finish(outcome="deadline_miss")

        tree = _tree(tracer, request.context.trace_id)
        (queue,) = [s for s in tree if s.name == "queue"]
        assert queue.attrs["outcome"] == "deadline_miss"
        assert queue.attrs["queue_s"] == pytest.approx(5.0)
        snap = slo.snapshot()
        assert snap["counts"]["deadline_miss"] == 1
        assert snap["deadline_miss_rate"] == 1.0
        kinds = [e["kind"] for e in flight.bundle()["events"]]
        assert kinds == ["admitted", "deadline_miss"]


class TestServiceSloAndIncidents:
    def test_stats_surface_slo_and_flight(self, fresh_obs):
        config = TrackerConfig(camera=TINY_CAMERA)
        sequence = make_sequence("fr1_xyz", n_frames=2,
                                 camera=TINY_CAMERA)
        with VOService(workers=1, frontend="float",
                       config=config) as service:
            for frame in sequence.frames:
                service.submit("a", frame.gray, frame.depth)
            stats = service.stats()
        snap = stats["slo"]
        assert snap["counts"]["ok"] == 2
        assert snap["availability"] == 1.0
        assert snap["latency_s"]["p99"] is not None
        assert snap["queue_s"]["p99"] is not None
        assert snap["goodput_rps"] > 0
        # Admissions landed in the flight recorder's event ring.
        assert stats["flight"]["events"] >= 2

    def test_deadline_missed_request_captures_incident(
            self, fresh_obs):
        """A service-level deadline miss records the request's span
        tree in the flight recorder."""
        tracer, _ = fresh_obs
        config = TrackerConfig(camera=TINY_CAMERA)
        sequence = make_sequence("fr1_xyz", n_frames=1,
                                 camera=TINY_CAMERA)
        frame = sequence.frames[0]
        with VOService(workers=1, frontend="float", config=config,
                       min_service_s=0.5) as service:
            blocker = threading.Thread(
                target=lambda: service.submit("busy", frame.gray,
                                              frame.depth))
            blocker.start()
            time.sleep(0.1)   # let "busy" reach the worker
            with pytest.raises(DeadlineExceeded):
                service.submit("late", frame.gray, frame.depth,
                               deadline_s=0.05)
            blocker.join()
            bundle = service.flight.bundle()
        incidents = [i for i in bundle["incidents"]
                     if i["reason"] == "DeadlineExceeded"]
        assert len(incidents) == 1
        incident = incidents[0]
        assert incident["session"] == "late"
        assert incident["trace_id"] > 0
        span_names = {s["name"] for s in incident["spans"]}
        assert {"request", "queue"} <= span_names


class TestLoadgenReport:
    def test_report_carries_slo_and_bench_stamp(self, fresh_obs,
                                                tmp_path):
        config = TrackerConfig(camera=TINY_CAMERA)
        workload = build_workload(sessions=1, frames=2, scale=0.25)
        with VOService(workers=1, frontend="float",
                       config=config) as service:
            report, _ = run_load(service, workload)
        assert report["deadline_misses"] == 0
        assert report["slo"]["counts"]["ok"] == 2
        assert report["slo"]["latency_s"]["p99"] is not None

        path = write_bench_report(report, tmp_path / "BENCH_serve.json")
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "vo-serve-loadgen"
        for key in ("timestamp", "python", "numpy", "machine"):
            assert key in payload
        assert "git_sha" in payload
        assert payload["slo"] == report["slo"]


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode()


class TestStatusServer:
    def test_endpoints(self, fresh_obs):
        config = TrackerConfig(camera=TINY_CAMERA)
        sequence = make_sequence("fr1_xyz", n_frames=1,
                                 camera=TINY_CAMERA)
        with VOService(workers=1, frontend="float",
                       config=config) as service:
            service.submit("a", sequence.frames[0].gray,
                           sequence.frames[0].depth)
            with StatusServer(service, port=0) as status:
                assert status.port  # ephemeral port was bound
                base = status.url

                code, text = _get(f"{base}/metrics")
                assert code == 200
                samples = parse_prometheus_text(text)
                assert "serve_queue_depth" in samples

                code, body = _get(f"{base}/healthz")
                assert code == 200
                assert json.loads(body)["healthy"] is True

                code, body = _get(f"{base}/slo")
                assert code == 200
                snap = json.loads(body)
                assert snap["counts"]["ok"] == 1
                assert "error_budget" in snap

                code, body = _get(f"{base}/flightrecorder")
                assert code == 200
                bundle = json.loads(body)
                assert bundle["schema"] == "repro.obs.flight/1"
                assert any(e["kind"] == "admitted"
                           for e in bundle["events"])

                with pytest.raises(urllib.error.HTTPError) as exc:
                    _get(f"{base}/nope")
                assert exc.value.code == 404
                assert "/metrics" in exc.value.read().decode()
            # Server is down after the context exits.
            assert status.port is None

    def test_healthz_reports_unhealthy_after_close(self, fresh_obs):
        config = TrackerConfig(camera=TINY_CAMERA)
        service = VOService(workers=1, frontend="float",
                            config=config)
        service.start()
        status = StatusServer(service, port=0).start()
        try:
            service.close()
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(f"{status.url}/healthz")
            assert exc.value.code == 503
        finally:
            status.stop()
            service.close()
