"""``python -m repro.shard``: open-loop load against the shard plane.

Spins up a :class:`~repro.shard.router.ShardRouter` with N supervised
worker processes, drives K synthetic client sessions as an open-loop
(Poisson-arrival) workload, and writes the latency/goodput report to
``<out>/shard_report.json`` plus a stamped ``BENCH_serve.json``.  With
``--smoke`` it additionally requires every offered frame tracked and
every trajectory bit-identical to a solo tracker run (closed-loop
submission for determinism), exiting non-zero on violation.  With
``--shards 0`` the router runs inline -- the single-process baseline
on the same code path.
"""

from __future__ import annotations

import argparse
import json
import logging
from pathlib import Path

from repro.obs import setup_logging
from repro.serve.loadgen import (
    build_workload,
    run_load,
    run_open_loop_load,
    service_trajectories,
    solo_trajectories,
    trajectories_match,
    write_bench_report,
)
from repro.serve.service import _FRONTENDS
from repro.shard.router import ShardRouter
from repro.shard.supervisor import Supervisor
from repro.shard.worker import ShardSpec
from repro.vo.config import TrackerConfig

log = logging.getLogger("repro.shard.cli")


def main(argv=None) -> int:
    """Entry point of the sharded load generator."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard", description=__doc__)
    parser.add_argument("--shards", type=int, default=3,
                        help="worker processes (0 = inline, no "
                             "processes)")
    parser.add_argument("--workers", type=int, default=1,
                        help="device-pool workers per shard")
    parser.add_argument("--sessions", type=int, default=6,
                        help="concurrent client sessions")
    parser.add_argument("--frames", type=int, default=20,
                        help="frames per client session")
    parser.add_argument("--rate-hz", type=float, default=30.0,
                        help="per-session open-loop arrival rate")
    parser.add_argument("--closed-loop", action="store_true",
                        help="closed-loop clients (frame N+1 waits "
                             "for frame N) instead of open-loop "
                             "arrivals")
    parser.add_argument("--frontend", choices=sorted(_FRONTENDS),
                        default="pim", help="tracker arithmetic")
    parser.add_argument("--device-detect", action="store_true",
                        help="run edge detection on the simulated "
                             "device")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="image scale relative to QVGA")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="per-request queue deadline")
    parser.add_argument("--checkpoint-s", type=float, default=0.5,
                        help="supervisor checkpoint sweep interval")
    parser.add_argument("--program-store", default=None,
                        metavar="DIR",
                        help="shared persistent program store "
                             "directory (all shards warm-start from "
                             "it)")
    parser.add_argument("--start-method", default="forkserver",
                        choices=["fork", "forkserver", "spawn"],
                        help="multiprocessing start method for shard "
                             "workers")
    parser.add_argument("--status-port", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics, /healthz and /shards "
                             "on PORT while the load runs (0 = "
                             "ephemeral)")
    parser.add_argument("--out", default="shard_output",
                        help="output directory for the report")
    parser.add_argument("--smoke", action="store_true",
                        help="closed-loop completeness + solo "
                             "bit-identity gate")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level console logging")
    args = parser.parse_args(argv)
    for flag, value in (("--frames", args.frames),
                        ("--sessions", args.sessions),
                        ("--workers", args.workers)):
        if value < 1:
            parser.error(f"{flag} must be >= 1")
    if args.shards < 0:
        parser.error("--shards must be >= 0")
    setup_logging(verbose=args.verbose)
    out = Path(args.out)
    out.mkdir(exist_ok=True)

    config = TrackerConfig(pim_device_detect=args.device_detect)
    if args.scale != 1.0:
        import dataclasses
        config = dataclasses.replace(
            config, camera=config.camera.scaled(args.scale))
    spec = ShardSpec(workers=args.workers, frontend=args.frontend,
                     config=config,
                     program_store=args.program_store,
                     start_method=args.start_method)
    workload = build_workload(sessions=args.sessions,
                              frames=args.frames, scale=args.scale,
                              seed=args.seed)
    closed_loop = args.closed_loop or args.smoke
    log.info("%s load: %d sessions x %d frames over %d shard(s)",
             "closed-loop" if closed_loop else "open-loop",
             args.sessions, args.frames, args.shards)

    router = ShardRouter(shards=args.shards, spec=spec,
                         incident_dir=out)
    supervisor = None
    status = None
    with router:
        if not router.inline:
            supervisor = Supervisor(
                router, checkpoint_interval_s=args.checkpoint_s,
                incident_dir=out).start()
        if args.status_port is not None:
            from repro.serve.status import StatusServer
            status = StatusServer(router,
                                  port=args.status_port).start()
        try:
            if closed_loop:
                report, clients = run_load(
                    router, workload, deadline_s=args.deadline_s) \
                    if router.inline else _closed_loop_sharded(
                        router, workload, args.deadline_s)
            else:
                report, clients = run_open_loop_load(
                    router, workload, rate_hz=args.rate_hz,
                    seed=args.seed, deadline_s=args.deadline_s)
            report["shards_status"] = router.shards_status()
            if status is not None:
                from urllib.request import urlopen
                with urlopen(f"{status.url}/metrics",
                             timeout=10) as resp:
                    (out / "metrics.prom").write_bytes(resp.read())
        finally:
            if status is not None:
                status.stop()
            if supervisor is not None:
                supervisor.stop()

    failures = []
    if args.smoke:
        offered = sum(len(seq.frames) for seq in workload.values())
        tracked = report["frames_tracked"]
        if tracked != offered:
            failures.append(f"tracked {tracked} of {offered} frames")
        served = service_trajectories(
            [r for c in clients for r in c.results])
        solo = solo_trajectories(workload,
                                 _FRONTENDS[args.frontend], config)
        failures.extend(trajectories_match(served, solo))
        report["smoke"] = {"passed": not failures,
                           "failures": failures}
        for failure in failures:
            log.error("smoke failure: %s", failure)
        if not failures:
            log.info("smoke ok: all %d frames tracked, every "
                     "trajectory bit-identical to its solo run",
                     tracked)

    report_path = out / "shard_report.json"
    report_path.write_text(json.dumps(report, indent=2,
                                      default=float) + "\n")
    bench_path = write_bench_report(report, out / "BENCH_serve.json")
    log.info("wrote %s and %s", report_path, bench_path)
    return 1 if failures else 0


def _closed_loop_sharded(router, workload, deadline_s):
    """Closed-loop clients against the sharded front door.

    :func:`run_load`'s report reads the in-process pool stats, which a
    sharded router does not expose; this drives the same client model
    and reports the router-side view instead.
    """
    import threading
    import time

    from repro.obs.slo import percentile
    from repro.serve.loadgen import ClientStats, _client

    clients = [ClientStats(sid=sid, sequence=seq.name)
               for sid, seq in workload.items()]
    threads = [
        threading.Thread(target=_client, name=f"loadgen-{c.sid}",
                         args=(router, c.sid, workload[c.sid], c,
                               1000, deadline_s))
        for c in clients]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - t0
    results = [r for c in clients for r in c.results]
    queue_s = [r.queue_s for r in results]
    report = {
        "mode": "closed-loop",
        "sessions": len(clients),
        "frames_submitted": sum(len(workload[c.sid].frames)
                                for c in clients),
        "frames_tracked": len(results),
        "wall_s": wall_s,
        "throughput_fps": len(results) / wall_s if wall_s else 0.0,
        "queue_latency_s": {
            "p50": percentile(queue_s, 50),
            "p95": percentile(queue_s, 95),
            "p99": percentile(queue_s, 99),
        },
        "retries": sum(c.retries for c in clients),
        "deadline_misses": sum(c.deadline_misses for c in clients),
        "per_session": {c.sid: {
            "sequence": c.sequence,
            "frames": len(c.results),
            "retries": c.retries,
            "errors": c.errors,
        } for c in clients},
    }
    return report, clients


if __name__ == "__main__":
    raise SystemExit(main())
