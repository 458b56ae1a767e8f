"""Wall-clock speedup of compiled-program replay (simulator speed).

Asserts the headline acceptance criteria of the capture/replay layer:
compiled replay runs the QVGA LPF -> HPF -> NMS chain at least 10x
faster than eagerly replaying the same programs row by row, and the
warp kernel no slower than eager, with bit-identical SRAM contents,
identical ledger totals and a mask equal to the numpy mirror (see
:data:`repro.analysis.wallclock.SPEEDUP_FLOORS`).  Results are
archived under ``benchmarks/results/``; the JSON file is written to a
temporary directory, since only ``benchmarks/run_wallclock.py`` writes
the committed repo-root ``BENCH_pim.json``.
"""

import json

from repro.analysis.wallclock import (
    BENCH_FILENAME,
    SPEEDUP_FLOORS,
    gate_failures,
    run_wallclock,
    write_results,
)


def test_wallclock_replay_speedup(record_report, tmp_path):
    assert SPEEDUP_FLOORS == {"edge_pipeline": 10.0, "warp": 1.0}
    results = run_wallclock(repeats=3)
    assert gate_failures(results) == []

    path = write_results(results, tmp_path / BENCH_FILENAME)
    record_report("wallclock_replay", json.dumps(results, indent=2))
    assert path.exists()
    assert json.loads(path.read_text()) == results
