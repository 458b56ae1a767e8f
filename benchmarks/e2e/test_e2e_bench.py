"""Smoke test of the end-to-end benchmark at tiny sizes.

Run with ``pytest benchmarks/e2e`` from the repository root.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def tiny_run():
    """Every workload, untraced then traced: 5 frames, 2 s runs."""
    out = ROOT / ".bench_out" / "smoke"
    shutil.rmtree(out, ignore_errors=True)
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "2",
         "--frames", "5", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads((out / "results.json").read_text())


def test_every_declared_metric_is_emitted_with_its_unit(tiny_run):
    stdout, results = tiny_run
    assert set(results["workloads"]) == \
        {w["name"] for w in SPEC["workloads"]}
    for workload, entry in results["workloads"].items():
        assert len(entry["input_sha256"]) == 64
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            run = entry[f"trace{trace}"]
            assert run["correct"], (workload, trace, run["checks"])
            emitted = run["metrics"]
            for metric in SPEC[section]:
                assert emitted[metric["name"]]["unit"] == metric["unit"]
            assert set(emitted) == {m["name"] for m in SPEC[section]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"\s{re.escape(metric['name'])}\s+\S+ "
                         rf"{re.escape(metric['unit'])}\n", stdout)


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_forced_backpressure_counts_as_failure():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads

    # The open-loop rung (a traced run) overflows a queue of one.
    out = workloads.run_serve("serve_inline", seed=0, seconds=2.0,
                              trace=True, frames=5, rungs=(200,),
                              max_queue=1)
    assert out.failed > 0
    assert out.attempted > out.failed
    assert out.correct, out.checks
