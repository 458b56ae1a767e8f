#!/usr/bin/env python
"""Run the compiled-vs-eager wall-clock benchmark, write BENCH_pim.json.

Usage::

    PYTHONPATH=src python benchmarks/run_wallclock.py [--repeats N]
                                                      [--out PATH]

The JSON lands at the repository root by default so the measured
speedup of the compiled-program replay path is committed alongside the
code that produces it.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.wallclock import (  # noqa: E402
    gate_failures,
    run_wallclock,
    write_results,
)
from repro.obs import setup_logging  # noqa: E402

log = logging.getLogger("repro.benchmarks.wallclock")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions (best-of)")
    parser.add_argument("--features", type=int, default=2000,
                        help="feature count for the warp benchmark")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: repo-root "
                             "BENCH_pim.json)")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level console logging")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.features < 1:
        parser.error("--features must be >= 1")
    setup_logging(verbose=args.verbose)
    results = run_wallclock(repeats=args.repeats,
                            num_features=args.features)
    path = write_results(results, args.out)
    log.info("results:\n%s", json.dumps(results, indent=2))
    log.info("wrote %s", path)
    failures = gate_failures(results)
    for failure in failures:
        log.error("gate: %s", failure)
    edge = results["edge_pipeline"]["compiled_speedup_vs_eager"]
    warp = results["warp"]["compiled_speedup_vs_eager"]
    log.info("compiled vs eager: edge pipeline %sx, warp %sx (%s)",
             edge, warp, "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
