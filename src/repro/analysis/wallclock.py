"""Wall-clock benchmark: compiled replay vs eager execution.

This measures *simulator* speed, not modelled device cycles: how much
faster the Python simulator runs the QVGA LPF -> HPF -> NMS chain (and
the warp kernel) when each per-row program is lowered once by
:mod:`repro.pim.lowering` and executed as fused 2-D numpy operations
with O(1) ledger accounting, compared to replaying the same programs
one micro-op at a time.  Both tiers run the *same* recorded programs,
so the parity checks (bit-identical memory, identical ledger totals)
are part of the benchmark contract.  Each section also times the
numpy mirror (``mirror_ms``: :func:`detect_edges_fast`,
:func:`warp_fast`) and checks compiled replay against it
(``matches_vectorized_reference``), so the choice between mirror and
compiled replay as the production path is read off this artifact.

Results are stamped with the git revision and the numpy version so
BENCH_pim.json stays attributable across the PR sequence.

The harness is shared by ``benchmarks/test_wallclock.py`` (asserts
:func:`gate_failures` is empty), ``benchmarks/run_wallclock.py``
(writes ``BENCH_pim.json`` at the repository root) and the CI bench
sanity step.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.geometry.camera import TUM_QVGA
from repro.geometry.se3 import SE3
from repro.kernels.edge_detect import detect_edges_fast, detect_edges_replay
from repro.kernels.warp import (
    WarpRows,
    QuantizedFeatures,
    quantize_features,
    quantize_pose,
    warp_fast,
    warp_pim,
    warp_pim_batched,
)
from repro.obs.stamp import run_stamp
from repro.pim import PIMDevice

__all__ = ["run_wallclock", "gate_failures", "write_results",
           "BENCH_FILENAME", "SPEEDUP_FLOORS"]

BENCH_FILENAME = "BENCH_pim.json"

#: Minimum compiled-vs-eager host speedup per section.  The edge chain
#: measures ~60x on a 2-vCPU x86_64 VM, so 10x leaves room for slow or
#: shared CI runners; warp must simply not lose to eager.
SPEEDUP_FLOORS = {"edge_pipeline": 10.0, "warp": 1.0}

_LEDGER_FIELDS = ("cycles", "sram_reads", "sram_writes", "tmp_accesses",
                  "logic_ops", "host_transfers")


def _ledgers_equal(a, b) -> bool:
    return all(getattr(a, f) == getattr(b, f) for f in _LEDGER_FIELDS) \
        and dict(a.op_counts) == dict(b.op_counts) \
        and dict(a.op_profile) == dict(b.op_profile)


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_edge_pipeline(image: np.ndarray, repeats: int) -> Dict:
    th1, th2 = 40, 2
    # Warm-up compiles the three stage programs into the kernel cache.
    detect_edges_replay(PIMDevice(), image, th1, th2)

    eager_s = _best_of(
        lambda: detect_edges_replay(PIMDevice(), image, th1, th2,
                                    mode="eager"),
        max(1, repeats // 2))
    compiled_s = _best_of(
        lambda: detect_edges_replay(PIMDevice(), image, th1, th2),
        repeats)
    mirror_s = _best_of(lambda: detect_edges_fast(image, th1, th2),
                        repeats)

    dev_e, dev_c = PIMDevice(), PIMDevice()
    res_e = detect_edges_replay(dev_e, image, th1, th2, mode="eager")
    res_c = detect_edges_replay(dev_c, image, th1, th2)
    fast = detect_edges_fast(image, th1, th2)
    return {
        "stages": ["lpf", "hpf", "nms"],
        "image_shape": list(image.shape),
        "eager_ms": round(eager_s * 1e3, 3),
        "compiled_ms": round(compiled_s * 1e3, 3),
        "compiled_speedup_vs_eager": round(eager_s / compiled_s, 2),
        "mirror_ms": round(mirror_s * 1e3, 3),
        "mask_bit_identical": bool(
            np.array_equal(res_e.edge_map, res_c.edge_map)),
        "matches_vectorized_reference": bool(
            np.array_equal(res_c.edge_map, fast.edge_map)),
        "sram_bit_identical": bool(np.array_equal(dev_e._mem, dev_c._mem)),
        "ledger_identical": _ledgers_equal(dev_e.ledger, dev_c.ledger),
        "replay_cycles": dict(res_c.cycles),
    }


def _bench_warp(num_features: int, repeats: int) -> Dict:
    rng = np.random.default_rng(7)
    feats = quantize_features(rng.uniform(-0.8, 0.8, num_features),
                              rng.uniform(-0.6, 0.6, num_features),
                              rng.uniform(0.2, 2.0, num_features))
    qpose = quantize_pose(SE3.exp(
        np.array([0.01, -0.02, 0.015, 0.002, -0.001, 0.003])))
    camera = TUM_QVGA

    def eager() -> PIMDevice:
        device = PIMDevice()
        lanes = device.config.lanes(16)
        rows = WarpRows(*range(10))
        for start in range(0, num_features, lanes):
            block = QuantizedFeatures(
                a=feats.a[start:start + lanes],
                b=feats.b[start:start + lanes],
                c=feats.c[start:start + lanes], fmt=feats.fmt)
            warp_pim(device, qpose, block, camera, rows)
        return device

    def replayed(mode: str) -> tuple:
        device = PIMDevice()
        return device, warp_pim_batched(device, qpose, feats, camera,
                                        mode=mode)

    eager_s = _best_of(eager, max(1, repeats // 2))
    compiled_s = _best_of(lambda: replayed("auto"), repeats)
    mirror_s = _best_of(lambda: warp_fast(qpose, feats, camera), repeats)
    dev_e = eager()
    dev_c, res_c = replayed("auto")
    fast = warp_fast(qpose, feats, camera)
    # The block layout differs from the eager loop's reused rows, so
    # memory is compared against the same layout replayed eagerly.
    dev_r, _ = replayed("eager")
    return {
        "features": num_features,
        "eager_ms": round(eager_s * 1e3, 3),
        "compiled_ms": round(compiled_s * 1e3, 3),
        "compiled_speedup_vs_eager": round(eager_s / compiled_s, 2),
        "mirror_ms": round(mirror_s * 1e3, 3),
        "ledger_identical": _ledgers_equal(dev_e.ledger, dev_c.ledger),
        "sram_bit_identical": bool(np.array_equal(dev_r._mem, dev_c._mem)),
        "matches_vectorized_reference": all(
            np.array_equal(getattr(res_c, f), getattr(fast, f))
            for f in ("u", "v", "rx", "ry", "z", "valid")),
    }


def run_wallclock(repeats: int = 5, image_shape=(240, 320),
                  num_features: int = 2000, seed: int = 0) -> Dict:
    """Run the replay-vs-eager wall-clock benchmark.

    Returns a JSON-serializable result dict; timings are best-of-N to
    suppress scheduler noise.  The eager reference replays the *same*
    recorded programs through the per-row micro-op path, so the
    speedup isolates the compiled plan and the O(1) accounting.
    """
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, size=image_shape, dtype=np.uint8)
    return {
        "benchmark": "pim-program-replay-wallclock",
        **run_stamp(),
        "repeats": repeats,
        "edge_pipeline": _bench_edge_pipeline(image, repeats),
        "warp": _bench_warp(num_features, repeats),
    }


def gate_failures(results: Dict) -> List[str]:
    """Parity checks and speedup floors a :func:`run_wallclock` result
    misses (empty when it passes)."""
    failures = [f"{section}: {key} is false"
                for section in SPEEDUP_FLOORS
                for key, value in results[section].items()
                if isinstance(value, bool) and not value]
    for section, floor in SPEEDUP_FLOORS.items():
        speedup = results[section]["compiled_speedup_vs_eager"]
        if speedup < floor:
            failures.append(f"{section}: compiled only {speedup}x "
                            f"eager (floor {floor}x)")
    return failures


def write_results(results: Dict, path=None) -> Path:
    """Write benchmark results as JSON (default: repo-root file)."""
    if path is None:
        path = Path(__file__).resolve().parents[3] / BENCH_FILENAME
    path = Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path
