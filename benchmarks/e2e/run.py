#!/usr/bin/env python3
"""End-to-end benchmark: tracked-frame and served-request performance.

One workload, as one run::

    python3 benchmarks/e2e/run.py --workload track_dense --seed 0 \\
        --seconds 15 --trace 0 [--out DIR]

prints every metric by name and unit, the output checks and the input
digest, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` times each layer
from outside and reports the per-layer metrics.  It exits 1 when an
output check fails.

Every workload, each in its own process, untraced and then traced::

    python3 benchmarks/e2e/run.py [--seed N] [--out DIR]

writes ``DIR/results.json`` (stamped) next to every run's record and
span dump, and exits 1 if any check failed.

Parent against change, from runs recorded with ``--out``::

    python3 benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR \\
        [--claim WORKLOAD:METRIC]

See ``benchmarks/e2e/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORKLOADS = ("track_dense", "track_sparse_device", "serve_inline",
             "serve_sharded")


def load_spec() -> dict:
    """``BENCHMARK.json``: metric declarations and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(spec: dict, trace: bool) -> dict:
    """``{metric: unit}`` a run with this ``trace`` setting reports."""
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def _use_private_tempdir() -> None:
    """Keep temporary files (the forkserver socket) in the checkout.

    A Unix socket path must stay short, so the shorter of the absolute
    and the cwd-relative spelling is used.
    """
    path = ROOT / ".bench_tmp"
    path.mkdir(exist_ok=True)
    spelled = min((str(path), os.path.relpath(path)), key=len)
    os.environ["TMPDIR"] = spelled
    tempfile.tempdir = spelled


def _stop_helper_processes() -> None:
    """Stop the forkserver and resource tracker that shard start-up
    launched, and wait for both to exit."""
    from multiprocessing import forkserver, resource_tracker
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    descendant; shard workers count once the forkserver that forked
    them has been stopped and waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_one(args, spec: dict) -> int:
    from repro.obs.stamp import run_stamp

    import workloads
    from tracing import Recorder

    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    trace = bool(args.trace)
    recorder = Recorder()
    started_at = time.time()
    try:
        if args.workload.startswith("track_"):
            out = workloads.run_track(args.workload, args.seed,
                                      args.seconds, trace, expected,
                                      frames=args.frames,
                                      recorder=recorder)
        else:
            out = workloads.run_serve(args.workload, args.seed,
                                      args.seconds, trace,
                                      frames=args.frames,
                                      recorder=recorder)
    finally:
        _stop_helper_processes()
    if not trace:
        out.metrics["peak_rss_mb"] = peak_rss_mb()
    units = declared(spec, trace)
    if set(out.metrics) != set(units):
        missing = sorted(set(units) - set(out.metrics))
        extra = sorted(set(out.metrics) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing "
              f"{missing}, undeclared {extra}", file=sys.stderr)
        return 2

    metrics = {name: {"value": float(out.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {int(trace)}  input sha256 {out.digest}")
    for check in out.checks:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} "
              f"{check['check']}: {check['detail']}")
    print(f"  attempted {out.attempted}  failed {out.failed}")
    for name, value in out.info.items():
        print(f"  ({name} {value:.4f})")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    if args.out is not None:
        stem = (f"{args.workload}.t{int(trace)}.s{args.seed}."
                f"{time.time_ns()}")
        args.out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": int(trace),
            "started_at": started_at, "stamp": run_stamp(),
            "input_sha256": out.digest, "correct": out.correct,
            "attempted": out.attempted, "failed": out.failed,
            "checks": out.checks, "metrics": metrics, "info": out.info,
        }
        (args.out / f"{stem}.run.json").write_text(
            json.dumps(record, indent=1) + "\n")
        if trace:
            recorder.write(args.out / f"{stem}.spans.json")
    print(json.dumps({"correct": out.correct,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0 if out.correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, untraced then traced."""
    from repro.obs.stamp import run_stamp

    out_dir = args.out if args.out is not None else ROOT / ".bench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {"benchmark": "e2e", "stamp": run_stamp(),
               "seed": args.seed, "seconds": args.seconds,
               "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = results["workloads"][workload] = {}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(out_dir)]
            if args.frames is not None:
                command += ["--frames", str(args.frames)]
            done = subprocess.run(command, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE)
            sys.stdout.write(done.stdout)
            ok = ok and done.returncode == 0
            records = sorted(out_dir.glob(
                f"{workload}.t{trace}.s{args.seed}.*.run.json"))
            if done.returncode not in (0, 1) or not records:
                entry[f"trace{trace}"] = {"error": done.returncode}
                continue
            record = json.loads(records[-1].read_text())
            entry["input_sha256"] = record["input_sha256"]
            entry[f"trace{trace}"] = {
                key: record[key] for key in
                ("correct", "attempted", "failed", "checks", "metrics")}
    (out_dir / "results.json").write_text(
        json.dumps(results, indent=1) + "\n")
    print(f"wrote {out_dir / 'results.json'}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no repro sources or BENCHMARK.json; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:], spec)

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all, each "
                             "untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long one run measures (tracking: a fixed "
                             "amount of work sized to take about this "
                             "long on the reference host)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for run records and span dumps")
    parser.add_argument("--frames", type=int, default=None,
                        help="frames per segment or session (default: "
                             "each workload's own)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.frames is not None and args.frames < 2:
        parser.error("--frames must be at least 2")
    _use_private_tempdir()
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
