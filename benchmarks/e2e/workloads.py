"""The four benchmark workloads: inputs, measurement and output checks.

Every input is made from the run's seed and nothing else.  Scenes,
trajectories, frame size and tracker configuration are fixed; the seed
adds hand-held camera jitter to each rendered trajectory and, for the
serving workloads, draws the Poisson arrival schedule.  So every seed
renders different frames with the same workload properties (feature
count, keyframe rate, health).

``track_*`` time whole tracked QVGA frames on the default
``PIMFrontend``; ``serve_*`` time requests through the shard-plane front
door with the simulated device dwell off.  Each workload returns an
:class:`Outcome` whose metric names are the ones ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import hashlib
import queue
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dataset.synthetic import (
    make_corridor_scene,
    make_desk_scene,
    make_room_scene,
    make_structure_notex_scene,
    render_sequence,
)
from repro.dataset.trajectories import (
    corridor_walk_trajectory,
    desk_orbit_trajectory,
    notex_far_trajectory,
    xyz_shake_trajectory,
)
from repro.evaluation import absolute_trajectory_error
from repro.geometry.camera import TUM_QVGA
from repro.geometry.se3 import SE3
from repro.kernels.common import KERNEL_PROGRAM_CACHE
from repro.obs.metrics import get_registry
from repro.obs.slo import percentile
from repro.serve.loadgen import trajectories_match
from repro.serve.scheduler import Backpressure, DeadlineExceeded
from repro.shard import ShardRouter, ShardSpec, Supervisor
from repro.vo import EBVOTracker, FloatFrontend, PIMFrontend, TrackerConfig

import hostspeed
from tracing import FRAME_LAYERS, FRAME_SPAN_NAMES, SERVE_LAYERS, Recorder

#: Scene, its default seed and trajectory of each sequence, as
#: ``repro.dataset.make_sequence`` builds them with ``seed=0``.
SEQUENCES = {
    "fr1_xyz": (make_room_scene, 0, xyz_shake_trajectory),
    "fr2_desk": (make_desk_scene, 10, desk_orbit_trajectory),
    "fr3_st_ntex_far": (make_structure_notex_scene, 20,
                        notex_far_trajectory),
    "corridor": (make_corridor_scene, 30, corridor_walk_trajectory),
}
#: Per-frame camera jitter (metres, radians; one sigma per axis).
JITTER_T = 5e-4
JITTER_R = 5e-4

#: Tracking workloads.  A run tracks each of its segments ``passes``
#: times, each pass on a fresh tracker with cold program caches.
#: Segments carry independent jitter, so one run averages LM work over
#: several inputs; ``segment_s`` is what the passes over one segment
#: take on the reference host (x86_64, 2 cores), which turns
#: ``--seconds`` into a fixed number of segments -- the same work
#: however fast the program runs.
#:
#: LM iterations per frame range from 1 to 10 and move with any change
#: to the input, so the mean frame time of one seed differs from the
#: next by the sampling error of its frame count: resampled, ~9%
#: (interquartile over median, ten seeds) at 70 dense frames and ~7% at
#: 140; measured, 10-13% at 105.  Distinct frames therefore buy
#: steadiness where repeated passes do not.
#: Passes are bit-identical, so with two passes a frame's time is taken
#: from the faster one, which filters out short bursts of load from
#: other processes that the host probe misses; sparse segments are
#: tracked twice because rendering a frame costs as much as tracking it.
TRACK = {
    # 6000 features per frame (the budget cap): the Hessian mirror is
    # ~80% of the frame and detection (numpy mirror) ~3%.
    "track_dense": {"sequence": "fr1_xyz", "frames": 35, "passes": 1,
                    "segment_s": 5.0, "device_detect": False},
    # ~1.2k features and a keyframe every ~25 frames: Hessian, warp and
    # lookup, compiled-replay detection and the keyframe DT all show.
    # fr3 degrades from ~500 frames on, so segments stay well short.
    "track_sparse_device": {"sequence": "fr3_st_ntex_far", "frames": 75,
                            "passes": 2, "segment_s": 5.0,
                            "device_detect": True},
}
#: Least time between two host probes (each costs ~12 ms): about one
#: probe per dense frame, one per two sparse frames.
PROBE_EVERY_S = 0.05

#: Serving sessions, one per sequence, each playing its rendered frames
#: forward then backward (a continuous camera path of any length).
SERVE_SEQUENCES = ("fr1_xyz", "fr2_desk", "fr3_st_ntex_far", "corridor")
SERVE_FRAMES = 30
#: Open-loop rungs: total frames/s over all sessions.
RUNGS = (20, 40)
#: A rung is met when its p90 latency is within this limit, no request
#: failed, and the last reply came within ``DRAIN_LIMIT_S`` of the last
#: arrival.
LATENCY_LIMIT_MS = 100.0
DRAIN_LIMIT_S = 1.0
CHECKPOINT_INTERVAL_S = 0.5
#: Set-ups per serving run; ``setup_s`` is their median.
SETUPS = 5
#: Shares of ``--seconds``.  An untraced run spends ``SERIAL_SHARE`` on
#: one-at-a-time requests; a traced run spends ``TRACED_SERIAL_SHARE``
#: on them untraced and again traced, then ``RUNG_SHARE`` on the
#: open-loop rungs (split evenly) and ``CAPACITY_SHARE`` on capacity.
SERIAL_SHARE = 0.75
TRACED_SERIAL_SHARE = 0.1
RUNG_SHARE = 0.55
CAPACITY_SHARE = 0.25
#: Closed-loop window between two host probes.
CAPACITY_WINDOW_S = 1.0
#: Idle time a probe needs before the next arrival is due.
PROBE_GAP_S = 0.02
#: How long to wait for outstanding replies before calling them lost.
REPLY_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs held."""

    metrics: Dict[str, float] = field(default_factory=dict)
    checks: List[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    #: Context that is not a metric: the unrescaled latency and the
    #: median host probe reading behind the rescaling.
    info: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok),
                            "detail": detail})

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks)


def render(name: str, n_frames: int, seed: tuple):
    """``(frames, groundtruth)`` of one sequence with seeded jitter."""
    make_scene, scene_seed, make_trajectory = SEQUENCES[name]
    rng = np.random.default_rng(seed)
    poses = [pose @ SE3.exp(np.concatenate([rng.normal(0, JITTER_T, 3),
                                            rng.normal(0, JITTER_R, 3)]))
             for pose in make_trajectory(n_frames)]
    frames = render_sequence(make_scene(scene_seed), poses, TUM_QVGA)
    return frames, poses


def input_digest(arrays) -> str:
    """SHA-256 over the dtype, shape and bytes of every input array."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _pct(values: Sequence[float], q: float) -> float:
    return float(percentile(list(values), q)) if len(values) else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _poses_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.R, y.R) and np.array_equal(x.t, y.t)
        for x, y in zip(a, b))


# -- tracking -------------------------------------------------------------

#: Per-layer metrics only the tracking workloads measure.
TRACK_LAYER_METRICS = tuple(f"{name}.self_ms" for name in
                            FRAME_SPAN_NAMES) + (
    "vo.frame_ms_p50",
    "vo.frame_ms_p90",
    "kernels.hessian.lane_batches_per_call",
    "kernels.hessian.lane_fill_ratio",
    "vo.lm.linearize_calls_per_frame",
    "vo.lm.iterations_per_frame",
    "vo.lm.step_accept_ratio",
    "vo.features.features_per_frame",
    "vision.prepare_keyframe.per_100_frames",
    "obs.self_time_coverage_pct",
    "quality.ate_rmse_cm",
    "pim.sim_cycles_per_frame",
    "pim.sim_energy_nj_per_frame",
)


def segment_count(workload: str, seconds: float) -> int:
    """Segments one run of ``seconds`` tracks (see :data:`TRACK`)."""
    return max(1, round(seconds / TRACK[workload]["segment_s"]))


def track_inputs(workload: str, seed: int, seconds: float,
                 frames: Optional[int] = None):
    """The segments of one tracking run and the digest of their frames."""
    spec = TRACK[workload]
    n = frames or spec["frames"]
    segments = [render(spec["sequence"], n, (seed, k))
                for k in range(segment_count(workload, seconds))]
    digest = input_digest(a for frames_, _ in segments for f in frames_
                          for a in (f.gray, f.depth))
    return segments, digest


def _track_pass(segment, config: TrackerConfig) -> dict:
    """Track one segment on a fresh tracker with cold program caches.

    The host probe runs before set-up and after every ``PROBE_EVERY_S``
    of tracking; each frame is rescaled by the probes around it.
    """
    frames, groundtruth = segment
    KERNEL_PROGRAM_CACHE.clear()
    cycles = get_registry().histogram("frame_detect_cycles")
    energy = get_registry().histogram("frame_detect_energy_pj")
    cycles.reset()
    energy.reset()
    probes = [(0, hostspeed.probe())]
    start = perf_counter()
    tracker = EBVOTracker(PIMFrontend(config), config)
    built = perf_counter()
    tracker.process(frames[0].gray, frames[0].depth, frames[0].timestamp)
    first = perf_counter()
    frame_s = []
    since_probe = 0.0
    for frame in frames[1:]:
        t0 = perf_counter()
        tracker.process(frame.gray, frame.depth, frame.timestamp)
        frame_s.append(perf_counter() - t0)
        since_probe += frame_s[-1]
        if since_probe >= PROBE_EVERY_S or len(frame_s) == len(frames) - 1:
            probes.append((len(frame_s), hostspeed.probe()))
            since_probe = 0.0
    scaled = []
    for (begin, before), (end, after) in zip(probes, probes[1:]):
        factor = hostspeed.scale(before, after)
        scaled.extend(t * factor for t in frame_s[begin:end])
    return {
        "setup_s": first - start,
        "setup_scaled_s": (first - start) * hostspeed.NOMINAL_S /
        probes[0][1],
        "first_frame_s": first - built,
        "frame_s": frame_s,
        "frame_scaled_s": scaled,
        "probes_s": [p for _, p in probes],
        "results": list(tracker.results),
        "trajectory": list(tracker.trajectory),
        "ate_cm": absolute_trajectory_error(
            tracker.trajectory, groundtruth).rmse * 100.0,
        "cycles": cycles.summary(),
        "energy_pj": energy.summary(),
    }


def _check_track(out: Outcome, workload: str, passes, n_segments: int,
                 expected: dict) -> None:
    """Output checks shared by the untraced and traced runs.

    ``passes`` runs over the segments in order, possibly several times.
    """
    if len(passes) > n_segments:
        same = all(_poses_equal(p["trajectory"],
                                passes[i % n_segments]["trajectory"])
                   for i, p in enumerate(passes))
        out.check("repeated passes bit-identical", same,
                  f"{len(passes)} passes over {n_segments} segments")
    ceiling = expected["ate_ceiling_cm"][workload]
    worst = max(p["ate_cm"] for p in passes)
    out.check("ate under ceiling", worst <= ceiling,
              f"worst {worst:.3f} cm, ceiling {ceiling} cm")
    sim = expected["sim"].get(workload)
    if sim is None:
        return
    # The detect chain's device cost is data-independent: every frame
    # must charge exactly the committed cycles and energy.
    for key, field_, unit in (("cycles", "cycles_per_frame", "cycles"),
                              ("energy_pj", "energy_pj_per_frame", "pJ")):
        seen = {p[key][bound] for p in passes for bound in ("min", "max")}
        out.check(f"sim {key} per frame as committed",
                  seen == {sim[field_]},
                  f"saw {sorted(seen)} {unit}, committed {sim[field_]}")


def _count_frames(out: Outcome, passes) -> None:
    """Timed frames attempted; those not tracked ``OK`` failed."""
    timed = [r for p in passes for r in p["results"][1:]]
    out.attempted = len(timed)
    out.failed = sum(1 for r in timed if r.health != "OK")


def run_track(workload: str, seed: int, seconds: float, trace: bool,
              expected: dict, frames: Optional[int] = None,
              recorder: Optional[Recorder] = None) -> Outcome:
    """Track the workload's segments: its untraced ``passes``, or one
    untraced reference pass plus one traced pass per segment."""
    segments, digest = track_inputs(workload, seed, seconds, frames)
    config = TrackerConfig(
        pim_device_detect=TRACK[workload]["device_detect"])
    out = Outcome(digest=digest)
    n = len(segments)
    if not trace:
        repeats = TRACK[workload]["passes"]
        passes = [_track_pass(segment, config)
                  for _ in range(repeats) for segment in segments]
        _check_track(out, workload, passes, n, expected)
        _count_frames(out, passes)

        def fastest(key):
            return [t for k in range(n) for t in np.min(
                [passes[r * n + k][key] for r in range(repeats)], axis=0)]

        out.metrics.update({
            "setup_s": float(np.median([p["setup_scaled_s"]
                                        for p in passes])),
            "latency_ms_mean": 1e3 * _mean(fastest("frame_scaled_s")),
        })
        out.info.update({
            "latency_ms_mean_unscaled": 1e3 * _mean(fastest("frame_s")),
            "probe_ms_median": 1e3 * float(np.median(
                [x for p in passes for x in p["probes_s"]])),
        })
        return out

    # An untraced pass over the first segment is the reference for the
    # tracing overhead and for traced-equals-untraced.
    reference = _track_pass(segments[0], config)
    recorder = recorder if recorder is not None else Recorder()
    with recorder.installed(FRAME_LAYERS):
        passes = [_track_pass(segment, config) for segment in segments]
    _check_track(out, workload, passes, n, expected)
    out.check("traced trajectory equals untraced",
              _poses_equal(passes[0]["trajectory"],
                           reference["trajectory"]), "first segment")
    _count_frames(out, passes)
    out.metrics.update(_frame_layers(recorder, passes, reference))
    coverage = out.metrics["obs.self_time_coverage_pct"]
    out.check("layer self times sum to the frame time",
              abs(coverage - 100.0) <= 5.0, f"{coverage:.2f}%")
    out.metrics.update(dict.fromkeys(SERVE_LAYER_METRICS, 0.0))
    return out


def _frame_layers(recorder: Recorder, passes, reference) -> dict:
    results = [r for p in passes for r in p["results"]]
    n_frames = len(results)
    self_s = recorder.self_times()
    metrics = {f"{name}.self_ms": self_s.get(name, 0.0) * 1e3 / n_frames
               for name in FRAME_SPAN_NAMES}
    # The frame time the workload's own clock saw around every traced
    # tracker.process call.
    clock_s = sum(p["first_frame_s"] + sum(p["frame_s"]) for p in passes)
    frame_ms = [t * 1e3 for p in passes for t in p["frame_s"]]
    solves = [r.lm for r in results if r.lm is not None]
    # Each solve calls error() once up front and once per trial step.
    attempts = recorder.count("vo.frontend.error") - \
        recorder.count("vo.lm.lm_estimate")
    rejected = sum(s.rejected_steps for s in solves)
    calls = recorder.hessian_calls
    slots = recorder.hessian_lane_slots
    cycles = [p["cycles"] for p in passes if p["cycles"]["count"]]
    energy = [p["energy_pj"] for p in passes if p["energy_pj"]["count"]]
    metrics.update({
        "vo.frame_ms_p50": _pct(frame_ms, 50),
        "vo.frame_ms_p90": _pct(frame_ms, 90),
        "kernels.hessian.lane_batches_per_call":
            recorder.hessian_batches / calls if calls else 0.0,
        "kernels.hessian.lane_fill_ratio":
            recorder.hessian_lanes_used / slots if slots else 0.0,
        "vo.lm.linearize_calls_per_frame":
            recorder.count("vo.frontend.linearize") / n_frames,
        "vo.lm.iterations_per_frame":
            sum(s.iterations for s in solves) / n_frames,
        "vo.lm.step_accept_ratio":
            (attempts - rejected) / attempts if attempts else 0.0,
        "vo.features.features_per_frame":
            _mean([r.num_features for r in results]),
        "vision.prepare_keyframe.per_100_frames":
            100.0 * recorder.count("vision.prepare_keyframe") / n_frames,
        "obs.self_time_coverage_pct":
            100.0 * sum(self_s.values()) / clock_s,
        "obs.trace_overhead_pct":
            100.0 * (sum(passes[0]["frame_scaled_s"]) /
                     sum(reference["frame_scaled_s"]) - 1.0),
        "quality.ate_rmse_cm": _mean([p["ate_cm"] for p in passes]),
        "pim.sim_cycles_per_frame":
            sum(c["sum"] for c in cycles) / sum(c["count"] for c in cycles)
            if cycles else 0.0,
        "pim.sim_energy_nj_per_frame":
            sum(e["sum"] for e in energy) /
            sum(e["count"] for e in energy) / 1e3 if energy else 0.0,
    })
    return metrics


# -- serving --------------------------------------------------------------

def _rung_metrics(rate: int) -> tuple:
    return tuple(f"serve.r{rate}.{m}" for m in (
        "latency_ms_p50", "latency_ms_p90", "refused", "errored",
        "drain_s"))


#: Per-layer metrics only the serving workloads measure.
SERVE_LAYER_METRICS = (
    "serve.scheduler.queue_ms_p50",
    "serve.scheduler.queue_ms_p90",
    "serve.pool.service_ms_p50",
    "serve.pool.service_ms_p90",
    "shard.transport.hop_ms_p50",
    "shard.transport.hop_ms_p90",
    "shard.router.submit_ms_p50",
    "shard.router.submit_ms_p90",
    "shard.supervisor.checkpoint_ms_p50",
    "shard.supervisor.checkpoints_per_s",
    "shard.placement.max_sessions_per_shard",
    "shard.restarts",
    "shard.failovers",
) + tuple(m for rate in RUNGS for m in _rung_metrics(rate)) + (
    "serve.max_rate_fps",
    "serve.capacity_per_s",
    "serve.pool.utilization",
    "serve.sessions_checked",
    "loadgen.late_ms_p95",
)


class _Request:
    """One request's clock readings and outcome."""

    __slots__ = ("sid", "due", "sent", "admitted", "done", "result",
                 "error", "_finished")

    def __init__(self, sid: str, due: float, finished):
        self.sid = sid
        self.due = due
        self.sent = self.admitted = self.done = 0.0
        self.result = None
        self.error: Optional[str] = None
        self._finished = finished

    def complete(self, future) -> None:
        self.done = perf_counter()
        exc = future.exception()
        if exc is None:
            self.result = future.result()
        else:
            self.error = "deadline" if isinstance(
                exc, DeadlineExceeded) else "errored"
        self._finished(self)

    @property
    def latency_s(self) -> float:
        """From when the request was due to its reply."""
        return self.done - self.due


def stream_frame(frames: list, i: int):
    """Frame ``i`` of a stream playing ``frames`` forward then back."""
    period = max(1, 2 * len(frames) - 2)
    k = i % period
    return frames[k if k < len(frames) else period - k]


class _Load:
    """The generator's view of the service: streams, sends, replies.

    Only the thread that owns this object sends; replies arrive on the
    service's threads and are handed back through a queue.
    """

    def __init__(self, router, streams: Dict[int, list]):
        self.router = router
        self.streams = streams
        self.sequence_of: Dict[str, int] = {}
        self._position: Dict[str, int] = {}
        self.replies: "queue.Queue[_Request]" = queue.Queue()
        self.requests: List[_Request] = []

    def send(self, sid: str, sequence: int, due: float) -> _Request:
        """Submit the session's next frame; never blocks on the reply."""
        self.sequence_of.setdefault(sid, sequence)
        index = self._position.get(sid, 0)
        self._position[sid] = index + 1
        frame = stream_frame(self.streams[self.sequence_of[sid]], index)
        request = _Request(sid, due, self.replies.put)
        request.sent = perf_counter()
        try:
            future = self.router.submit_nowait(
                sid, frame.gray, frame.depth, timestamp=index / 30.0)
        except Backpressure:
            request.error = "refused"
        except RuntimeError:
            # SessionLost or a closed router: an error, not a refusal.
            request.error = "errored"
        else:
            future.add_done_callback(request.complete)
        request.admitted = perf_counter()
        self.requests.append(request)
        return request

    def in_flight(self) -> bool:
        """Whether a recent request still awaits its reply."""
        return any(r.error is None and not r.done
                   for r in self.requests[-8:])

    def wait(self, requests: List[_Request]) -> float:
        """Block until every sent request replied; last reply time."""
        outstanding = {id(r) for r in requests
                       if r.error not in ("refused", "errored")
                       and not r.done}
        deadline = perf_counter() + REPLY_TIMEOUT_S
        while outstanding:
            try:
                reply = self.replies.get(
                    timeout=max(0.0, deadline - perf_counter()))
            except queue.Empty:
                for r in requests:
                    if id(r) in outstanding:
                        r.error = "errored"
                break
            outstanding.discard(id(reply))
        return max((r.done for r in requests if r.done), default=0.0)


def arrival_plan(rng: np.random.Generator, rate: float, duration: float,
                 sessions: int) -> List[tuple]:
    """Poisson arrivals ``(offset_s, session)`` at ``rate`` in total."""
    plan = []
    offset = float(rng.exponential(1.0 / rate))
    while offset < duration:
        plan.append((offset, int(rng.integers(sessions))))
        offset += float(rng.exponential(1.0 / rate))
    return plan


class _HostSpeed:
    """Host probe readings along a serving run, taken only while no
    request is in flight so the probe never competes with the work."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.seconds: List[float] = []

    def take(self) -> float:
        start = perf_counter()
        seconds = hostspeed.probe()
        self.at.append(start + seconds / 2)
        self.seconds.append(seconds)
        return seconds

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def factor(self, when: float) -> float:
        """Rescaling factor for work done around ``when``."""
        return hostspeed.NOMINAL_S / float(
            np.interp(when, self.at, self.seconds))


def _open_loop(load: _Load, sids, plan, host: _HostSpeed) -> dict:
    """Send every arrival of ``plan`` when due, from this thread.

    While nothing is in flight and the next arrival is far enough off,
    the gap is used to probe the host.
    """
    start = perf_counter()
    sent = []
    for offset, sequence in plan:
        due = start + offset
        if host.due():
            latest = due - PROBE_GAP_S
            while load.in_flight() and perf_counter() < latest:
                sleep(0.002)
            if perf_counter() < latest and not load.in_flight():
                host.take()
        delay = due - perf_counter()
        if delay > 0:
            sleep(delay)
        sent.append(load.send(sids[sequence], sequence, due))
    last_arrival = max((r.admitted for r in sent), default=start)
    last_reply = load.wait(sent)
    host.take()
    return {"requests": sent,
            "drain_s": max(0.0, last_reply - last_arrival)}


def _closed_loop(load: _Load, sids, duration: float,
                 host: _HostSpeed) -> dict:
    """One request in flight per session: capacity.

    Runs in windows of ``CAPACITY_WINDOW_S``; between windows the
    sessions drain and the host is probed.  Capacity is the median of
    the rescaled window rates.
    """
    sent: List[_Request] = []
    rates = []
    windows = max(1, round(duration / CAPACITY_WINDOW_S))
    for _ in range(windows):
        before = host.seconds[-1]
        start = perf_counter()
        window = [load.send(sid, k, start) for k, sid in enumerate(sids)]
        in_flight = {r.sid for r in window if r.error is None}
        while in_flight:
            remaining = start + duration / windows - perf_counter()
            try:
                reply = load.replies.get(timeout=max(0.0, remaining))
            except queue.Empty:
                break
            if reply.sid not in in_flight:
                continue  # a late reply of an earlier phase
            in_flight.discard(reply.sid)
            if perf_counter() - start < duration / windows:
                nxt = load.send(reply.sid, load.sequence_of[reply.sid],
                                perf_counter())
                window.append(nxt)
                if nxt.error is None:
                    in_flight.add(nxt.sid)
        last_reply = load.wait(window)
        after = host.take()
        served = sum(1 for r in window if r.result is not None)
        rates.append(served / max(last_reply - start, 1e-9) /
                     hostspeed.scale(before, after))
        sent.extend(window)
    return {"requests": sent, "per_s": float(np.median(rates))}


def _serial(load: _Load, sids, duration: float, host: _HostSpeed) -> list:
    """One request at a time, round robin over the sessions: latency
    with no queueing.  The host is probed between every two requests."""
    sent = []
    start = perf_counter()
    while perf_counter() - start < duration:
        host.take()
        k = len(sent) % len(sids)
        request = load.send(sids[k], k, perf_counter())
        load.wait([request])
        sent.append(request)
    host.take()
    return sent


def _start_plane(workload: str, max_queue: int):
    spec = ShardSpec(workers=2 if workload == "serve_inline" else 1,
                     frontend="float", config=TrackerConfig(),
                     max_queue=max_queue)
    router = ShardRouter(shards=0 if workload == "serve_inline" else 2,
                         spec=spec)
    router.start()
    supervisor = None
    if not router.inline:
        supervisor = Supervisor(
            router, checkpoint_interval_s=CHECKPOINT_INTERVAL_S).start()
    return router, supervisor


def _stop_plane(router, supervisor) -> None:
    if supervisor is not None:
        supervisor.stop()
    router.close()


def _failed(requests) -> int:
    return sum(1 for r in requests if r.error is not None)


def _check_sessions(out: Outcome, load: _Load, streams) -> int:
    """Every session with no failed request must be a bit-identical
    prefix of its solo run; returns how many sessions were checked."""
    by_session: Dict[str, List[_Request]] = {}
    for request in load.requests:
        by_session.setdefault(request.sid, []).append(request)
    clean = {sid: sorted((r.result for r in reqs),
                         key=lambda res: res.frame_index)
             for sid, reqs in by_session.items()
             if all(r.result is not None for r in reqs)}
    longest: Dict[int, int] = {}
    for sid, results in clean.items():
        k = load.sequence_of[sid]
        longest[k] = max(longest.get(k, 0), len(results))
    solo = {}
    config = TrackerConfig()
    for k, n in longest.items():
        tracker = EBVOTracker(FloatFrontend(config), config)
        for index in range(n):
            frame = stream_frame(streams[k], index)
            tracker.process(frame.gray, frame.depth, index / 30.0)
        solo[k] = list(tracker.trajectory)
    served = {sid: [res.pose for res in results]
              for sid, results in clean.items()}
    reference = {sid: solo[load.sequence_of[sid]][:len(results)]
                 for sid, results in clean.items()}
    problems = trajectories_match(served, reference)
    out.check("served sessions are prefixes of their solo runs",
              bool(clean) and not problems,
              f"{len(clean)} of {len(by_session)} sessions checked"
              + (f"; {problems[:3]}" if problems else ""))
    return len(clean)


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              frames: Optional[int] = None, rungs: Sequence[int] = RUNGS,
              max_queue: int = ShardSpec.max_queue,
              recorder: Optional[Recorder] = None) -> Outcome:
    """Untraced: one-at-a-time latency.  Traced: the same against an
    untraced reference, then the open-loop rungs and capacity."""
    n = frames or SERVE_FRAMES
    streams = {k: render(name, n, (seed, k))[0]
               for k, name in enumerate(SERVE_SEQUENCES)}
    rng = np.random.default_rng(seed)
    rung_s = RUNG_SHARE * seconds / len(rungs)
    plans = {rate: arrival_plan(rng, rate, rung_s, len(streams))
             for rate in rungs}
    schedule = np.array([(rate, off, k) for rate in rungs
                         for off, k in plans[rate]], dtype=np.float64)
    out = Outcome(digest=input_digest(
        [a for frames_ in streams.values() for f in frames_
         for a in (f.gray, f.depth)] + [schedule]))

    # Set-up: construction to the first completed request, repeated;
    # the last plane built stays up for the measurement.  Shard start-up
    # runs mostly in the new processes, which one probe in this process
    # before each set-up tracks poorly, so the median set-up is rescaled
    # by the median of those probes.
    host = _HostSpeed()
    setups = []
    for attempt in range(SETUPS):
        host.take()
        start = perf_counter()
        router, supervisor = _start_plane(workload, max_queue)
        load = _Load(router, streams)
        load.wait([load.send("setup", 0, start)])
        setups.append(perf_counter() - start)
        if attempt < SETUPS - 1:
            _stop_plane(router, supervisor)
    setup_s = float(np.median(setups)) * hostspeed.NOMINAL_S / float(
        np.median(host.seconds))

    # One session per camera for the whole run: sessions stay resident
    # until their idle timeout, so fresh ids per phase would grow the
    # shard checkpoint sweep with the benchmark's own phase count.
    sids = list(SERVE_SEQUENCES)
    recorder = recorder if recorder is not None else Recorder()
    try:
        if not trace:
            serial = _serial(load, sids, SERIAL_SHARE * seconds, host)
        else:
            reference = _serial(load, sids, TRACED_SERIAL_SHARE * seconds,
                                host)
            start = perf_counter()
            with recorder.installed(SERVE_LAYERS):
                serial = _serial(load, sids,
                                 TRACED_SERIAL_SHARE * seconds, host)
                ladder = {rate: _open_loop(load, sids, plans[rate], host)
                          for rate in rungs}
                capacity = _closed_loop(load, sids,
                                        CAPACITY_SHARE * seconds, host)
            traced_s = perf_counter() - start
        status = router.shards_status()
        stats = router.stats() if router.inline else None
    finally:
        _stop_plane(router, supervisor)

    def latency_ms(requests, rescale=True) -> float:
        return 1e3 * _mean([r.latency_s * (host.factor(r.due) if rescale
                                           else 1.0)
                            for r in requests if r.result is not None])

    measured = serial if not trace else reference + serial + [
        r for rate in rungs for r in ladder[rate]["requests"]] + \
        capacity["requests"]
    out.attempted = len(measured)
    out.failed = _failed(measured)
    checked = _check_sessions(out, load, streams)
    if not trace:
        out.metrics.update({
            "setup_s": setup_s,
            "latency_ms_mean": latency_ms(serial),
        })
        out.info.update({
            "latency_ms_mean_unscaled": latency_ms(serial, rescale=False),
            "probe_ms_median": 1e3 * float(np.median(host.seconds)),
        })
        return out

    for request in load.requests:
        if request.done:
            parent = recorder.add_span("serve.request", request.sent,
                                       request.done)
            recorder.add_span("shard.router.submit", request.sent,
                              request.admitted, parent)
    out.metrics.update(dict.fromkeys(TRACK_LAYER_METRICS, 0.0))
    out.metrics.update(_serve_layers(recorder, ladder, rungs, status,
                                     stats, traced_s))
    out.metrics.update({
        "serve.capacity_per_s": capacity["per_s"],
        "serve.sessions_checked": float(checked),
        "obs.trace_overhead_pct":
            100.0 * (latency_ms(serial) / latency_ms(reference) - 1.0),
    })
    return out


def _serve_layers(recorder, ladder, rungs, status, stats,
                  traced_s: float) -> dict:
    rung_requests = [r for rate in rungs for r in ladder[rate]["requests"]]
    ok = [r for r in rung_requests if r.result is not None]
    queue_ms = [r.result.queue_s * 1e3 for r in ok]
    service_ms = [r.result.service_s * 1e3 for r in ok]
    # Whatever the reply spent outside the worker's queue and service:
    # router bookkeeping, pickling and loopback transport both ways.
    hop_ms = [((r.done - r.sent) - r.result.queue_s - r.result.service_s)
              * 1e3 for r in ok]
    submit_ms = [(r.admitted - r.sent) * 1e3 for r in rung_requests]
    checkpoint_ms = [d * 1e3 for d in
                     recorder.durations("shard.supervisor.checkpoint")]
    if status["mode"] == "inline":
        per_shard = status["sessions"]
        utilization = _mean([w["utilization"]
                             for w in stats["pool"]["per_worker"]])
    else:
        per_shard = max(row["sessions"] for row in status["shards"])
        utilization = 0.0
    metrics = {
        "serve.scheduler.queue_ms_p50": _pct(queue_ms, 50),
        "serve.scheduler.queue_ms_p90": _pct(queue_ms, 90),
        "serve.pool.service_ms_p50": _pct(service_ms, 50),
        "serve.pool.service_ms_p90": _pct(service_ms, 90),
        "shard.transport.hop_ms_p50": _pct(hop_ms, 50),
        "shard.transport.hop_ms_p90": _pct(hop_ms, 90),
        "shard.router.submit_ms_p50": _pct(submit_ms, 50),
        "shard.router.submit_ms_p90": _pct(submit_ms, 90),
        "shard.supervisor.checkpoint_ms_p50": _pct(checkpoint_ms, 50),
        "shard.supervisor.checkpoints_per_s":
            len(checkpoint_ms) / traced_s,
        "shard.placement.max_sessions_per_shard": float(per_shard),
        "shard.restarts": float(sum(row["restarts"]
                                    for row in status["shards"])),
        "shard.failovers": float(status["failovers_total"]),
        "serve.pool.utilization": utilization,
        "loadgen.late_ms_p95": _pct(
            [(r.sent - r.due) * 1e3 for r in rung_requests], 95),
    }
    max_rate = 0.0
    for rate in rungs:
        requests = ladder[rate]["requests"]
        latency_ms = [r.latency_s * 1e3 for r in requests
                      if r.result is not None]
        refused = sum(1 for r in requests if r.error == "refused")
        errored = _failed(requests) - refused
        p90 = _pct(latency_ms, 90)
        metrics.update(zip(_rung_metrics(rate), (
            _pct(latency_ms, 50), p90, float(refused), float(errored),
            ladder[rate]["drain_s"])))
        if p90 <= LATENCY_LIMIT_MS and refused + errored == 0 and \
                ladder[rate]["drain_s"] <= DRAIN_LIMIT_S:
            max_rate = float(rate)
    metrics["serve.max_rate_fps"] = max_rate
    return metrics
