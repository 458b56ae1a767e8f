"""The differential conformance matrix runner.

Enumerates every cell of the ISA conformance matrix -- device-surface
method x lane width x signed/saturation config -- and cross-checks all
execution backends against the pure-python golden model
(:mod:`repro.verify.golden`) on the same operand vectors:

* ``pim`` -- the word-level :class:`~repro.pim.device.PIMDevice`;
* ``bitpim`` -- the bit-true :class:`~repro.pim.device.BitPIMDevice`
  (per-op cycle charges are also pinned against ``pim``);
* ``replay-eager`` / ``replay-compiled`` -- the op recorded as a
  one-op relative :class:`~repro.pim.program.PIMProgram` and replayed
  through both :meth:`~repro.pim.device.PIMDevice.run_program` tiers
  (the compiled column runs ``mode="auto"``, which exercises the
  :mod:`repro.pim.lowering` backend).

Every cell sees *directed* edge vectors (zero, +-1, the lane MIN/MAX,
their neighbours, alternating 01/10 patterns, and the carry patterns
around every 8-bit slice boundary -- the values that historically break
carry-cut arithmetic) plus seeded random vectors; the per-cell RNG
stream is derived from ``(seed, cell)`` so results are independent of
cell enumeration order.  Each checked cell is recorded in a
:class:`~repro.verify.coverage.CoverageLedger`, and every mismatch is
reported with the exact operand patterns that produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import get_registry
from repro.pim.config import SUPPORTED_PRECISIONS, PIMConfig
from repro.pim.device import BitPIMDevice, PIMDevice
from repro.pim.isa import Rel
from repro.pim.program import ProgramRecorder
from repro.verify.coverage import METHOD_CONFIGS, CoverageLedger
from repro.verify.golden import golden_op, sign_value, to_pattern

__all__ = ["Mismatch", "ConformanceReport", "ConformanceRunner",
           "directed_patterns", "DEFAULT_BACKENDS"]

DEFAULT_BACKENDS = ("pim", "bitpim", "replay-eager", "replay-compiled")

#: run_program mode driven by each replay-* conformance backend.
_REPLAY_MODES = {"replay-eager": "eager", "replay-compiled": "auto"}

#: Row layout inside the runner's device: two independent operand
#: groups (A, B -> DST) at bases 0 and 4, far enough apart that the
#: one-op relative program batches despite its rel-order hazard.
_SRC_A, _SRC_B, _DST = 0, 1, 2
_BASES = (0, 4)


@dataclass(frozen=True)
class Mismatch:
    """One lane where a backend disagreed with the golden model."""

    method: str
    precision: int
    cfg: str
    backend: str
    lane: int
    operands: Tuple[int, ...]     # source lane patterns
    expected: int                 # golden lane pattern
    actual: int                   # backend lane pattern
    kwargs: Tuple[Tuple[str, object], ...] = ()

    def describe(self) -> str:
        kw = ", ".join(f"{k}={v}" for k, v in self.kwargs)
        ops = ", ".join(f"0x{p:x}" for p in self.operands)
        return (f"{self.method}[{self.precision}b,{self.cfg}] "
                f"{self.backend} lane {self.lane}: ({ops}) -> "
                f"0x{self.actual:x}, golden 0x{self.expected:x} ({kw})")


@dataclass
class ConformanceReport:
    """Aggregate result of a conformance run."""

    seed: int
    cells_run: int = 0
    vectors: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    cycle_disagreements: List[str] = field(default_factory=list)
    ledger: CoverageLedger = field(default_factory=CoverageLedger)

    @property
    def ok(self) -> bool:
        """True when every backend matched on every vector."""
        return not self.mismatches and not self.cycle_disagreements

    def to_dict(self) -> dict:
        return {
            "schema": "repro.verify.conformance/1",
            "seed": self.seed,
            "cells_run": self.cells_run,
            "vectors": self.vectors,
            "ok": self.ok,
            "mismatches": [m.describe() for m in self.mismatches],
            "cycle_disagreements": list(self.cycle_disagreements),
            "coverage": self.ledger.report(),
        }


def directed_patterns(bits: int) -> List[int]:
    """Edge-case lane bit patterns for one lane width.

    Zero, one, all-ones, the signed extremes and their neighbours,
    alternating 01/10 patterns, and the carry-boundary patterns around
    every 8-bit slice cut (``2**k - 1``, ``2**k``, ``2**k + 1``) --
    the operands that break ripple-carry and saturation logic.
    """
    mask = (1 << bits) - 1
    top = 1 << (bits - 1)
    pats = {0, 1, mask, top, top - 1, top + 1 & mask, mask - 1,
            sum(1 << i for i in range(0, bits, 2)),        # 0101...
            sum(1 << i for i in range(1, bits, 2))}        # 1010...
    for cut in range(8, bits, 8):
        for p in ((1 << cut) - 1, 1 << cut, (1 << cut) + 1):
            pats.add(p & mask)
    return sorted(pats)


def _op_kwargs(method: str, cfg: str) -> dict:
    """Device-call keyword arguments for one config tag."""
    signed = cfg.startswith("s")
    if method in ("add", "sub"):
        return {"signed": signed, "saturate": cfg.endswith("-sat")}
    if method == "mul":
        return {"signed": signed, "saturate": not cfg.endswith("-wrap")}
    if method.startswith("logic_"):
        return {}
    return {"signed": signed}


def _variants(method: str, kwargs: dict) -> List[dict]:
    """Parameter variants per vector round (shift distances etc.)."""
    if method == "shift_lanes":
        return [{**kwargs, "pixels": p} for p in (1, -2)]
    if method == "shift_bits":
        return [{**kwargs, "amount": a} for a in (3, -3)]
    return [kwargs]


def _cell_rng(seed: int, method: str, bits: int, cfg: str) -> np.random.Generator:
    """Per-cell RNG, stable across cell enumeration order."""
    digest = hashlib.sha256(
        f"{seed}:{method}:{bits}:{cfg}".encode()).digest()
    return np.random.default_rng(
        int.from_bytes(digest[:8], "little"))


class ConformanceRunner:
    """Drives the matrix: one differential check per cell and vector.

    Args:
        config: Device geometry (default: 512-bit word line, 8 rows --
            wide enough for 8 lanes at 64-bit, small enough to be
            fast).  The word line must be divisible by 64.
        seed: Root seed for the per-cell random vectors.
        samples: Random vector *rounds* per cell (each round fills all
            lanes of both operand groups).
        backends: Which device backends to check (default all four).
    """

    def __init__(self, config: Optional[PIMConfig] = None,
                 seed: int = 2026, samples: int = 2,
                 backends: Sequence[str] = DEFAULT_BACKENDS):
        self.config = config or PIMConfig(wordline_bits=512, num_rows=8,
                                          num_tmp_registers=2)
        if self.config.wordline_bits % 64:
            raise ValueError("runner geometry needs 64-bit-divisible "
                             "word lines")
        unknown = set(backends) - set(DEFAULT_BACKENDS)
        if unknown:
            raise ValueError(f"unknown backends: {sorted(unknown)}")
        self.seed = int(seed)
        self.samples = int(samples)
        self.backends = tuple(backends)
        registry = get_registry()
        self._vectors_ctr = registry.counter(
            "verify_vectors_total",
            "Operand vectors differentially checked per backend")
        self._mismatch_ctr = registry.counter(
            "verify_mismatches_total",
            "Lanes where a backend disagreed with the golden model")
        self._coverage_gauge = registry.gauge(
            "verify_conformance_coverage",
            "Fraction of the expected conformance matrix covered")

    # -- vector generation ----------------------------------------------

    def _pairs(self, bits: int,
               rng: np.random.Generator) -> List[Tuple[int, int]]:
        """Directed cross-product plus seeded random operand pairs."""
        directed = directed_patterns(bits)
        pairs = [(a, b) for a in directed for b in directed]
        lanes = self.config.lanes(bits)
        nbytes = bits // 8
        for _ in range(self.samples * lanes):
            blob = rng.bytes(2 * nbytes)
            pairs.append((int.from_bytes(blob[:nbytes], "little"),
                          int.from_bytes(blob[nbytes:], "little")))
        return pairs

    # -- one cell --------------------------------------------------------

    def run_cell(self, method: str, bits: int, cfg: str,
                 report: ConformanceReport) -> None:
        """Differentially check one matrix cell on every backend."""
        kwargs = _op_kwargs(method, cfg)
        rng = _cell_rng(self.seed, method, bits, cfg)
        lanes = self.config.lanes(bits)
        pairs = self._pairs(bits, rng)
        nsrc = 1 if method in ("shift_lanes", "shift_bits",
                               "copy") else 2
        for kw in _variants(method, kwargs):
            for start in range(0, len(pairs), lanes):
                chunk = pairs[start:start + lanes]
                chunk += [(0, 0)] * (lanes - len(chunk))
                a_pats = [p[0] for p in chunk]
                b_pats = [p[1] for p in chunk]
                self._check_round(method, bits, cfg, kw, nsrc,
                                  a_pats, b_pats, report)
        report.cells_run += 1

    def _check_round(self, method: str, bits: int, cfg: str, kw: dict,
                     nsrc: int, a_pats: List[int], b_pats: List[int],
                     report: ConformanceReport) -> None:
        signed_view = cfg.startswith("s") or bits >= 64
        call_kw = {k: v for k, v in kw.items()
                   if k not in ("pixels", "amount")}
        extra = tuple(kw[k] for k in ("pixels", "amount") if k in kw)
        # Group 2 swaps the operands, so each replay round checks two
        # independent vector sets (and operand-order sensitivity).
        groups = [(a_pats, b_pats), (b_pats, a_pats)]
        golden = [
            golden_op(method, bits,
                      [g[0]] if nsrc == 1 else [g[0], g[1]], **kw)
            for g in groups]

        def load(dev, base: int, group) -> None:
            dev.set_precision(bits)
            for row, pats in ((base + _SRC_A, group[0]),
                              (base + _SRC_B, group[1])):
                vals = [sign_value(p, bits, signed_view) for p in pats]
                dev.load(row, np.array(vals, dtype=np.int64),
                         signed=signed_view)

        def out_patterns(dev, base: int) -> List[int]:
            vals = dev.store(base + _DST, signed=signed_view)
            return [to_pattern(int(v), bits) for v in vals]

        cycles: Dict[str, int] = {}
        for backend in self.backends:
            if backend in ("pim", "bitpim"):
                dev = PIMDevice(self.config) if backend == "pim" \
                    else BitPIMDevice(self.config)
                for base, group in zip(_BASES, groups):
                    load(dev, base, group)
                before = dev.ledger.cycles
                for base in _BASES:
                    args = (base + _SRC_A,) if nsrc == 1 else \
                        (base + _SRC_A, base + _SRC_B)
                    getattr(dev, method)(base + _DST, *args, *extra,
                                         **call_kw)
                cycles[backend] = dev.ledger.cycles - before
            else:
                recorder = ProgramRecorder(self.config,
                                           name=f"verify:{method}")
                recorder.set_precision(bits)
                args = (Rel(_SRC_A),) if nsrc == 1 else \
                    (Rel(_SRC_A), Rel(_SRC_B))
                getattr(recorder, method)(Rel(_DST), *args, *extra,
                                          **call_kw)
                program = recorder.finish()
                dev = PIMDevice(self.config)
                for base, group in zip(_BASES, groups):
                    load(dev, base, group)
                before = dev.ledger.cycles
                dev.run_program(program, _BASES,
                                mode=_REPLAY_MODES[backend])
                cycles[backend] = dev.ledger.cycles - before
            for base, expect in zip(_BASES, golden):
                got = out_patterns(dev, base)
                for lane, (e, g) in enumerate(zip(expect, got)):
                    if e != g:
                        group = groups[_BASES.index(base)]
                        mism = Mismatch(
                            method, bits, cfg, backend, lane,
                            tuple(src[lane]
                                  for src in group[:nsrc]),
                            e, g, tuple(sorted(kw.items())))
                        report.mismatches.append(mism)
                        self._mismatch_ctr.inc(backend=backend,
                                               method=method)
            report.vectors += len(a_pats) * len(_BASES)
            self._vectors_ctr.inc(len(a_pats) * len(_BASES),
                                  backend=backend)
            report.ledger.record(method, bits, cfg, backend,
                                 vectors=len(a_pats) * len(_BASES))
        # Cost contract: every backend charges identical cycles for
        # the same op stream (compiled replay is cost-exact by design).
        if len(set(cycles.values())) > 1:
            report.cycle_disagreements.append(
                f"{method}[{bits}b,{cfg}] cycles diverged: " +
                ", ".join(f"{k}={v}" for k, v in sorted(cycles.items())))

    # -- the full matrix -------------------------------------------------

    def run(self, methods: Optional[Sequence[str]] = None,
            precisions: Sequence[int] = SUPPORTED_PRECISIONS,
            ) -> ConformanceReport:
        """Run every requested cell; returns the aggregate report."""
        report = ConformanceReport(seed=self.seed)
        picked = METHOD_CONFIGS if methods is None else {
            m: METHOD_CONFIGS[m] for m in methods}
        for method, cfgs in sorted(picked.items()):
            for bits in precisions:
                for cfg in cfgs:
                    if bits >= 64 and not cfg.startswith("s") \
                            and not method.startswith("logic_"):
                        continue
                    self.run_cell(method, bits, cfg, report)
        self._coverage_gauge.set(report.ledger.coverage())
        return report
