"""Parent against change: ``run.py compare PARENT_DIR CHANGE_DIR``.

Both directories hold untraced run records written by ``run.py --out``,
made with the same benchmark code and settings, at least ten per
workload, alternating which side ran first.  The i-th parent run of a
workload is paired with its i-th change run, in start order.

* A claimed ``WORKLOAD:METRIC`` (``--claim``) is a win when the change
  is better in at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the distance between the
  parent's quartiles.
* Every other pairing regresses when the change's median is worse than
  the parent's by more than the metric's bound in ``BENCHMARK.json``.
  Where the parent's own spread is wider than the bound it is
  ``unresolved``, unless every change run beats every parent run.
* The change is rejected when a larger share of its operations failed,
  or when any of its runs failed an output check.

Exit status: 0 accepted, 1 rejected, 2 not enough pairs to judge.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Untraced run records per workload, in start order."""
    runs: Dict[str, List[dict]] = {}
    for path in directory.glob("*.t0.*.run.json"):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values: List[float]) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _better(a: float, b: float, direction: str) -> bool:
    """``a`` strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def judge(parent: List[float], change: List[float], bound: float,
          direction: str, claimed: bool) -> str:
    """Verdict for one (workload, metric) over paired runs."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if claimed:
        wins = sum(_better(c, p, direction) for p, c in zip(parent, change))
        gap = abs(c_med - p_med)
        won = wins >= WIN_SHARE * len(parent) and \
            _better(c_med, p_med, direction) and gap > p_q3 - p_q1
        return "win" if won else "not met"
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    if abs(p_med) > 0 and worse / abs(p_med) > bound:
        return "regressed"
    if abs(p_med) > 0 and (p_q3 - p_q1) / abs(p_med) > bound:
        if all(_better(c, p, direction) for c in change for p in parent):
            return "better"
        return "unresolved"
    return "ok"


def _alternated(parent: List[dict], change: List[dict]) -> bool:
    sides = [side for _, side in sorted(
        [(r["started_at"], "p") for r in parent] +
        [(r["started_at"], "c") for r in change])]
    return all(a != b for a, b in zip(sides, sides[1:]))


def main(argv, spec: dict) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description=__doc__)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="a gain the change claims (repeatable)")
    args = parser.parse_args(argv)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload, metric in claims:
        if metric not in metrics:
            parser.error(f"--claim names no end-to-end metric: {metric}")

    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    workloads = sorted(set(parent_runs) | set(change_runs))
    rejected = False
    print(f"{'workload':<20} {'metric':<18} {'parent med [q1, q3]':>30} "
          f"{'change med [q1, q3]':>30} {'delta':>8}  verdict")
    for workload in workloads:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        pairs = min(len(parent), len(change))
        if pairs < MIN_PAIRS:
            print(f"{workload:<20} only {pairs} pairs; need {MIN_PAIRS}")
            return 2
        parent, change = parent[:pairs], change[:pairs]
        if not _alternated(parent, change):
            print(f"{workload:<20} warning: runs did not alternate "
                  f"between parent and change")
        for name, metric in metrics.items():
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            verdict = judge(p, c, metric["bound"], metric["better"],
                            (workload, name) in claims)
            rejected |= verdict in ("regressed", "not met")
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            print(f"{workload:<20} {name:<18} "
                  f"{pq[1]:>11.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
                  f"{cq[1]:>11.4g} [{cq[0]:.4g}, {cq[2]:.4g}] "
                  f"{delta:>+8.1%}  {verdict}")
        shares = []
        for side in (parent, change):
            attempted = sum(r["attempted"] for r in side)
            shares.append(sum(r["failed"] for r in side) / attempted)
        print(f"{workload:<20} failed share: parent {shares[0]:.4%}, "
              f"change {shares[1]:.4%}")
        if shares[1] > shares[0]:
            print(f"{workload:<20} REJECT: more operations failed")
            rejected = True
        if not all(r["correct"] for r in change):
            print(f"{workload:<20} REJECT: a change run failed a check")
            rejected = True
    print("rejected" if rejected else "accepted")
    return 1 if rejected else 0
