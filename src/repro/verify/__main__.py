"""CLI driver: run the full conformance harness, emit a JSON report.

::

    PYTHONPATH=src python -m repro.verify --seed 2026 \\
        --out verify_report.json --check-baseline tests/conformance_baseline.json

The ``chaos`` subcommand runs the serving-layer chaos storm instead
(``--migrate`` or ``--kill`` pick the other two disruptions)::

    PYTHONPATH=src python -m repro.verify chaos --seed 0 --frames 40

Runs, in order: the conformance matrix (every cell, all backends),
the differential fuzzer, the persisted regression corpus, and the
fault-injection robustness trials (stored and transient).  The exit
code is non-zero when any backend mismatched the golden model, a
corpus entry regressed, a fault went undetected, or -- with
``--check-baseline`` -- matrix coverage regressed against the
committed baseline.  ``--write-baseline`` refreshes that baseline
from this run instead of gating.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.verify.coverage import CoverageLedger
from repro.verify.fuzz import DifferentialFuzzer, replay_corpus
from repro.verify.matrix import ConformanceRunner
from repro.verify.robustness import fault_detection_trials

__all__ = ["main"]

#: Coverage below this fraction fails the run even without a baseline.
MIN_COVERAGE = 0.95


def main(argv=None) -> int:
    """Entry point; returns the process exit code.

    ``python -m repro.verify chaos ...`` dispatches to the chaos
    harness (:mod:`repro.verify.chaos`); everything else runs the
    conformance harness below.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "chaos":
        from repro.verify.chaos import main as chaos_main
        return chaos_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential ISA conformance harness")
    parser.add_argument("--seed", type=int, default=2026,
                        help="root seed for random vectors and fuzzing")
    parser.add_argument("--samples", type=int, default=1,
                        help="random vector rounds per matrix cell")
    parser.add_argument("--fuzz-cases", type=int, default=150,
                        help="differential fuzz cases to run")
    parser.add_argument("--fault-trials", type=int, default=25,
                        help="fault-injection trials per mode")
    parser.add_argument("--corpus", default="tests/corpus",
                        help="regression corpus directory to replay")
    parser.add_argument("--out", default="verify_report.json",
                        help="where to write the JSON report")
    parser.add_argument("--check-baseline", default=None,
                        help="coverage baseline JSON to gate against")
    parser.add_argument("--write-baseline", default=None,
                        help="write this run's coverage as the baseline")
    parser.add_argument("--methods", nargs="*", default=None,
                        help="restrict the matrix to these methods")
    args = parser.parse_args(argv)

    problems = []

    runner = ConformanceRunner(seed=args.seed, samples=args.samples)
    conformance = runner.run(methods=args.methods)
    if not conformance.ok:
        problems.append(
            f"{len(conformance.mismatches)} matrix mismatches, "
            f"{len(conformance.cycle_disagreements)} cycle "
            f"disagreements")

    coverage = conformance.ledger.coverage()
    if args.methods is None and coverage < MIN_COVERAGE:
        problems.append(f"coverage {coverage:.3f} < {MIN_COVERAGE}")

    baseline_diff = None
    if args.check_baseline:
        baseline = CoverageLedger.load_report(args.check_baseline)
        baseline_diff = conformance.ledger.regressions(baseline)
        if baseline_diff["missing_cells"]:
            problems.append(
                f"coverage regressed: "
                f"{len(baseline_diff['missing_cells'])} baseline "
                f"cells no longer covered")
    if args.write_baseline:
        conformance.ledger.write(args.write_baseline)

    fuzzer = DifferentialFuzzer(seed=args.seed)
    fuzz_report = fuzzer.run(cases=args.fuzz_cases,
                             corpus_dir=Path(args.corpus))
    if not fuzz_report["ok"]:
        problems.append(
            f"{len(fuzz_report['failures'])} fuzz failures "
            f"(minimized cases persisted under {args.corpus})")

    corpus_results = replay_corpus(args.corpus)
    corpus_failures = [r for r in corpus_results if r["mismatches"]]
    if corpus_failures:
        problems.append(
            f"{len(corpus_failures)} corpus regressions: " +
            ", ".join(r["name"] for r in corpus_failures))

    faults = {
        "stored": fault_detection_trials(trials=args.fault_trials,
                                         seed=args.seed),
        "transient": fault_detection_trials(trials=args.fault_trials,
                                            seed=args.seed,
                                            transient=True),
    }
    for mode, summary in faults.items():
        if not summary["ok"]:
            problems.append(
                f"{mode} fault trials: {len(summary['missed'])} of "
                f"{summary['armed']} armed faults missed")

    report = {
        "schema": "repro.verify.report/1",
        "seed": args.seed,
        "ok": not problems,
        "problems": problems,
        "conformance": conformance.to_dict(),
        "baseline_diff": baseline_diff,
        "fuzz": fuzz_report,
        "corpus": corpus_results,
        "faults": faults,
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"conformance: {conformance.cells_run} cells, "
          f"{conformance.vectors} vectors, "
          f"coverage {coverage:.3f}, "
          f"{len(conformance.mismatches)} mismatches")
    print(f"fuzz: {fuzz_report['cases']} cases, "
          f"{len(fuzz_report['failures'])} failures; "
          f"corpus: {len(corpus_results)} entries, "
          f"{len(corpus_failures)} regressions")
    for mode, summary in faults.items():
        print(f"faults[{mode}]: {summary['detected']} detected + "
              f"{summary['masked']} masked of {summary['armed']} "
              f"armed ({summary['trials']} trials)")
    print(f"report: {out}")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
