"""``python -m repro.serve``: load-generate against a local service.

Spins up a :class:`~repro.serve.service.VOService`, replays K
synthetic TUM-profile client streams against it, and writes the
throughput/latency report to ``<out>/serve_report.json``.  With
``--smoke`` it additionally asserts that every frame was tracked and
that every session's trajectory is bit-identical to a solo tracker
run, exiting non-zero on any violation -- the CI serving smoke test.
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
    service_trajectories,
    solo_trajectories,
    trajectories_match,
    write_bench_report,
)
from repro.serve.service import _FRONTENDS, VOService
from repro.vo.config import TrackerConfig

# Run as ``python -m repro.serve`` this module is ``__main__``, which
# would fall outside the ``repro`` logging namespace; name explicitly.
log = logging.getLogger("repro.serve.cli")


def main(argv=None) -> int:
    """Entry point of the serving load generator."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__)
    parser.add_argument("--frames", type=int, default=20,
                        help="frames per client session")
    parser.add_argument("--sessions", type=int, default=3,
                        help="concurrent client sessions")
    parser.add_argument("--workers", type=int, default=2,
                        help="device-pool workers")
    parser.add_argument("--queue", type=int, default=64,
                        help="admission queue capacity")
    parser.add_argument("--frontend", choices=sorted(_FRONTENDS),
                        default="pim", help="tracker arithmetic")
    parser.add_argument("--device-detect", action="store_true",
                        help="run edge detection on the simulated "
                             "device (program replay + cycle ledger)")
    parser.add_argument("--min-service-s", type=float, default=0.0,
                        help="simulated device service-time floor per "
                             "frame (seconds)")
    parser.add_argument("--clock-hz", type=float, default=None,
                        help="simulated device clock; dwell = "
                             "cycles / clock-hz")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="image scale relative to QVGA")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--program-store", default=None, metavar="DIR",
                        help="persist recorded PIM programs in DIR; a "
                             "second serve process pointed at the same "
                             "directory warm-starts without recording")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="per-request queue deadline; expired "
                             "frames are dropped and counted")
    parser.add_argument("--status-port", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics, /healthz, /slo and "
                             "/flightrecorder on PORT while the load "
                             "runs (0 = ephemeral); the final scrape "
                             "is saved to <out>/metrics.prom")
    parser.add_argument("--out", default="serve_output",
                        help="output directory for the report")
    parser.add_argument("--smoke", action="store_true",
                        help="assert completeness + solo bit-identity")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level console logging")
    args = parser.parse_args(argv)
    for flag, value in (("--frames", args.frames),
                        ("--sessions", args.sessions),
                        ("--workers", args.workers)):
        if value < 1:
            parser.error(f"{flag} must be >= 1")
    setup_logging(verbose=args.verbose)
    out = Path(args.out)
    out.mkdir(exist_ok=True)

    config = TrackerConfig(pim_device_detect=args.device_detect)
    if args.scale != 1.0:
        import dataclasses
        config = dataclasses.replace(
            config, camera=config.camera.scaled(args.scale))
    log.info("serving %d sessions x %d frames on %d workers "
             "(%s frontend%s)", args.sessions, args.frames,
             args.workers, args.frontend,
             ", device detect" if args.device_detect else "")
    workload = build_workload(sessions=args.sessions,
                              frames=args.frames, scale=args.scale,
                              seed=args.seed)
    with VOService(workers=args.workers, frontend=args.frontend,
                   config=config, max_queue=args.queue,
                   min_service_s=args.min_service_s,
                   device_clock_hz=args.clock_hz,
                   program_store=args.program_store,
                   incident_dir=out) as service:
        status = None
        if args.status_port is not None:
            from repro.serve.status import StatusServer
            status = StatusServer(service,
                                  port=args.status_port).start()
        try:
            report, clients = run_load(service, workload,
                                       deadline_s=args.deadline_s)
            if service.program_store is not None:
                report["programs"] = service.stats()["programs"]
            if status is not None:
                # Scrape our own /metrics endpoint -- the same bytes a
                # collector would pull -- so the artifact proves the
                # exposition is live and parseable.
                from urllib.request import urlopen
                with urlopen(f"{status.url}/metrics",
                             timeout=10) as resp:
                    prom_path = out / "metrics.prom"
                    prom_path.write_bytes(resp.read())
                    log.info("scraped %s/metrics -> %s", status.url,
                             prom_path)
        finally:
            if status is not None:
                status.stop()

    failures = []
    if args.smoke:
        if report["frames_tracked"] != report["frames_submitted"]:
            failures.append(
                f"tracked {report['frames_tracked']} of "
                f"{report['frames_submitted']} frames")
        served = service_trajectories(
            [r for c in clients for r in c.results])
        solo = solo_trajectories(workload,
                                 _FRONTENDS[args.frontend], config)
        failures.extend(trajectories_match(served, solo))
        report["smoke"] = {"passed": not failures,
                           "failures": failures}
        if failures:
            for failure in failures:
                log.error("smoke failure: %s", failure)
        else:
            log.info("smoke ok: all %d frames tracked, every "
                     "trajectory bit-identical to its solo run",
                     report["frames_tracked"])

    report_path = out / "serve_report.json"
    report_path.write_text(json.dumps(report, indent=2,
                                      default=float) + "\n")
    bench_path = write_bench_report(report, out / "BENCH_serve.json")
    log.info("throughput %.1f frames/s, queue p95 %s s; wrote %s "
             "and %s", report["throughput_fps"],
             report["queue_latency_s"]["p95"], report_path,
             bench_path)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
