"""Serving-layer wall-clock benchmark: pool scaling, correctness
under interleaving, and backpressure under saturation.

The pool dwells for the simulated device service time per frame
(``min_service_s``), so throughput here measures how well the
scheduler/pool overlap *device* occupancy across workers -- the
single-core host contributes only the (cheap, shared) tracking
compute.  Acceptance: a 4-worker pool sustains >= 2x the 1-worker
frame throughput; every session's trajectory is bit-identical to a
solo tracker run; a saturated admission queue produces counted
rejections that clients survive via retry.
"""

from repro.analysis import format_table
from repro.geometry.camera import TUM_QVGA
from repro.obs.metrics import get_registry
from repro.serve import (
    VOService,
    build_workload,
    run_load,
    service_trajectories,
    solo_trajectories,
    trajectories_match,
)
from repro.vo import PIMFrontend, TrackerConfig

#: Simulated device service time per frame.  At QVGA the paper's
#: device finishes a frame's kernels in ~0.9 ms at 216 MHz; we
#: inflate it so device dwell, not host numpy, dominates wall-clock
#: and pool scaling is actually exercised on a single-core host.
SERVICE_S = 0.12
SESSIONS = 8
FRAMES = 10
SCALE = 0.5  # 160x120 keeps host compute well under the dwell


def _throughput(workers: int, workload) -> dict:
    config = TrackerConfig(camera=TUM_QVGA.scaled(SCALE))
    with VOService(workers=workers, frontend="float", config=config,
                   max_queue=64, min_service_s=SERVICE_S) as service:
        report, _ = run_load(service, workload)
    assert report["frames_tracked"] == report["frames_submitted"]
    return report


def test_pool_scaling_and_isolation(record_report):
    workload = build_workload(sessions=SESSIONS, frames=FRAMES,
                              scale=SCALE)
    one = _throughput(1, workload)
    four = _throughput(4, workload)
    scaling = four["throughput_fps"] / one["throughput_fps"]

    # Correctness under interleaving: PIM frontend, 2 workers, every
    # per-session trajectory bit-identical to its solo run.
    config = TrackerConfig(camera=TUM_QVGA.scaled(SCALE),
                           pim_device_detect=True)
    iso_load = build_workload(sessions=3, frames=6, scale=SCALE)
    with VOService(workers=2, frontend="pim",
                   config=config) as service:
        iso_report, clients = run_load(service, iso_load)
    served = service_trajectories(
        [r for c in clients for r in c.results])
    solo = solo_trajectories(iso_load, PIMFrontend, config)
    mismatches = trajectories_match(served, solo)

    table = format_table(
        ["metric", "value"],
        [["1-worker throughput",
          f"{one['throughput_fps']:.1f} frames/s"],
         ["4-worker throughput",
          f"{four['throughput_fps']:.1f} frames/s"],
         ["scaling", f"{scaling:.2f}x (>= 2.0x required)"],
         ["queue p95 (4 workers)",
          f"{four['queue_latency_s']['p95']:.3f} s"],
         ["device cycles/frame (pim)",
          f"{iso_report['device_cycles_per_frame']:.0f}"],
         ["sessions checked bit-identical", str(len(solo))],
         ["trajectory mismatches", str(len(mismatches))]],
        title=f"Serving throughput ({SESSIONS} sessions x "
              f"{FRAMES} frames, {SERVICE_S * 1e3:.0f} ms device "
              f"service time)")
    record_report("serve_throughput", table)

    assert scaling >= 2.0, (
        f"4-worker pool only {scaling:.2f}x the 1-worker throughput")
    assert mismatches == [], mismatches


def test_backpressure_under_saturation(record_report):
    rejected = get_registry().counter(
        "serve_admission_rejected_total")
    before = rejected.total()
    config = TrackerConfig(camera=TUM_QVGA.scaled(SCALE))
    workload = build_workload(sessions=4, frames=6, scale=SCALE)
    with VOService(workers=1, frontend="float", config=config,
                   max_queue=2, min_service_s=0.05) as service:
        report, _ = run_load(service, workload)
    rejections = int(rejected.total() - before)

    table = format_table(
        ["metric", "value"],
        [["frames tracked",
          f"{report['frames_tracked']}/{report['frames_submitted']}"],
         ["admission rejections", str(rejections)],
         ["client retries", str(report["retries"])],
         ["queue p99", f"{report['queue_latency_s']['p99']:.3f} s"]],
        title="Backpressure under saturation (1 worker, queue=2)")
    record_report("serve_backpressure", table)

    assert report["frames_tracked"] == report["frames_submitted"]
    assert rejections > 0, "queue never saturated; no backpressure"
    assert report["retries"] >= rejections
