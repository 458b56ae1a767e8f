"""Deterministic differential fuzzer with a persisted regression corpus.

The fuzzer generates random micro-op programs -- random initial SRAM
contents, random op sequences with precision switches, rows and Tmp
registers as operands -- and runs each one through every backend
(:class:`~repro.pim.device.PIMDevice`, the bit-true
:class:`~repro.pim.device.BitPIMDevice`, and the op stream recorded as
a :class:`~repro.pim.program.PIMProgram` and replayed through
``run_program`` both eagerly and via the compiled lowering backend),
comparing the complete final machine state (every
row, every Tmp register, byte for byte) and the cycle ledgers against
the pure-python golden model.

Everything is seeded: case ``i`` of seed ``s`` is derived from the
string ``"{s}:case:{i}"`` (:class:`random.Random` hashes string seeds
process-stably), so a failure reported by CI reproduces locally with
no corpus transfer needed.

When a case fails it is *minimized* -- shortest failing op prefix,
then greedy removal of interior ops, then shrinking the initial memory
bytes toward zero -- and the shrunk case is written as JSON under the
regression corpus directory (``tests/corpus/``).  Corpus entries are
replayed forever by the test suite: a fixed bug stays fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.metrics import get_registry
from repro.pim.config import SUPPORTED_PRECISIONS, PIMConfig
from repro.pim.device import BitPIMDevice, PIMDevice, Tmp
from repro.pim.program import ProgramRecorder
from repro.verify.golden import GoldenMachine

__all__ = ["FuzzCase", "FuzzFailure", "DifferentialFuzzer",
           "replay_corpus", "CORPUS_SCHEMA"]

CORPUS_SCHEMA = "repro.verify.corpus/1"

#: Bytes overrepresented in generated memory: the carry/sign/saturation
#: edges that historically break lane arithmetic.
EDGE_BYTES = (0x00, 0x01, 0x7F, 0x80, 0xFF, 0x55, 0xAA, 0xFE)

_BACKENDS = ("pim", "bitpim", "replay", "replay-compiled")


def _encode_operand(op) -> object:
    if isinstance(op, Tmp) or type(op).__name__ == "_TmpSentinel":
        return f"T{op.index}"
    return int(op)


def _decode_operand(op):
    if isinstance(op, str) and op.startswith("T"):
        return Tmp(int(op[1:]))
    return int(op)


@dataclass
class FuzzCase:
    """One self-contained differential test case (JSON-serializable).

    Attributes:
        config: Device geometry the case runs on.
        memory: Initial SRAM contents, one byte list per row.
        program: Op steps: ``{"method", "dst", "srcs", "kwargs"}``
            dicts (``set_precision`` steps carry only kwargs).
            Operands are row ints or ``"T<i>"`` Tmp references.
        name: Identifier used in reports and corpus filenames.
    """

    config: PIMConfig
    memory: List[List[int]]
    program: List[dict]
    name: str = "case"

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": CORPUS_SCHEMA,
            "name": self.name,
            "config": {
                "wordline_bits": self.config.wordline_bits,
                "num_rows": self.config.num_rows,
                "slice_bits": self.config.slice_bits,
                "num_tmp_registers": self.config.num_tmp_registers,
            },
            "memory": [list(map(int, row)) for row in self.memory],
            "program": self.program,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        if data.get("schema") != CORPUS_SCHEMA:
            raise ValueError(
                f"not a corpus entry (schema={data.get('schema')!r})")
        return cls(config=PIMConfig(**data["config"]),
                   memory=[list(map(int, row))
                           for row in data["memory"]],
                   program=list(data["program"]),
                   name=str(data.get("name", "corpus")))

    # -- execution -------------------------------------------------------

    def _fresh_backends(self) -> Dict[str, object]:
        return {"pim": PIMDevice(self.config),
                "bitpim": BitPIMDevice(self.config),
                "replay": PIMDevice(self.config),
                "replay-compiled": PIMDevice(self.config)}

    def _load(self, machine) -> None:
        machine.set_precision(8)
        for row, data in enumerate(self.memory):
            machine.load(row, np.array(data, dtype=np.int64),
                         signed=False)

    def _apply(self, machine) -> None:
        for step in self.program:
            method = step["method"]
            if method == "set_precision":
                machine.set_precision(step["kwargs"]["precision"])
                continue
            dst = _decode_operand(step["dst"])
            srcs = tuple(_decode_operand(s) for s in step["srcs"])
            getattr(machine, method)(dst, *srcs, **step["kwargs"])

    def run(self, backends: Sequence[str] = _BACKENDS) -> List[str]:
        """Run on every backend; returns mismatch descriptions."""
        failures: List[str] = []
        golden = GoldenMachine(self.config)
        self._load(golden)
        try:
            self._apply(golden)
        except Exception as exc:  # noqa: BLE001 -- report, don't mask
            return [f"{self.name}: golden model raised {exc!r}"]
        golden.set_precision(8)
        want_rows = [golden.store_patterns(r)
                     for r in range(self.config.num_rows)]
        golden_tmps = golden.snapshot()["tmp"]

        cycles: Dict[str, int] = {}
        devices = self._fresh_backends()
        for backend in backends:
            dev = devices[backend]
            self._load(dev)
            try:
                if backend in ("replay", "replay-compiled"):
                    recorder = ProgramRecorder(self.config,
                                               name=self.name)
                    self._apply(recorder)
                    dev.run_program(
                        recorder.finish(), [0],
                        mode="eager" if backend == "replay"
                        else "auto")
                else:
                    self._apply(dev)
            except Exception as exc:  # noqa: BLE001
                failures.append(
                    f"{self.name}: {backend} raised {exc!r}")
                continue
            cycles[backend] = dev.ledger.cycles
            dev.set_precision(8)
            for row, want in enumerate(want_rows):
                got = [int(v) for v in dev.store(row, signed=False)]
                if got != want:
                    failures.append(
                        f"{self.name}: {backend} row {row} = "
                        f"{got} want {want}")
            for i, want in enumerate(golden_tmps):
                got = [int(v) & 0xFF
                       for v in dev.read_tmp(signed=False, index=i)]
                if got != want:
                    failures.append(
                        f"{self.name}: {backend} tmp{i} = "
                        f"{got} want {want}")
        if len(set(cycles.values())) > 1:
            failures.append(
                f"{self.name}: cycle ledgers diverged: " +
                ", ".join(f"{k}={v}"
                          for k, v in sorted(cycles.items())))
        return failures


@dataclass
class FuzzFailure:
    """A failing case with its minimized form and first mismatch."""

    index: int
    mismatch: str
    case: FuzzCase
    minimized: FuzzCase


class DifferentialFuzzer:
    """Seeded program generator + shrinker + corpus writer.

    Args:
        seed: Root seed; every case derives deterministically from it.
        config: Device geometry (default: 128-bit word line, 6 rows,
            2 Tmp registers -- two 64-bit lanes up to sixteen 8-bit
            lanes, small enough to shrink quickly).
        ops_per_case: Op steps per generated case.
    """

    def __init__(self, seed: int = 2026,
                 config: Optional[PIMConfig] = None,
                 ops_per_case: int = 10):
        self.seed = int(seed)
        self.config = config or PIMConfig(wordline_bits=128,
                                          num_rows=6,
                                          num_tmp_registers=2)
        self.ops_per_case = int(ops_per_case)
        registry = get_registry()
        self._cases_ctr = registry.counter(
            "verify_fuzz_cases_total", "Differential fuzz cases run")
        self._failures_ctr = registry.counter(
            "verify_fuzz_failures_total",
            "Differential fuzz cases that found a mismatch")

    def _rng(self, tag: str) -> random.Random:
        # String seeds hash via sha512 -> stable across processes.
        return random.Random(f"{self.seed}:{tag}")

    # -- generation ------------------------------------------------------

    def generate(self, index: int) -> FuzzCase:
        """Deterministically generate case ``index``."""
        rng = self._rng(f"case:{index}")
        cfg = self.config
        memory = [[rng.choice(EDGE_BYTES) if rng.random() < 0.5
                   else rng.randrange(256)
                   for _ in range(cfg.row_bytes)]
                  for _ in range(cfg.num_rows)]
        precisions = [p for p in SUPPORTED_PRECISIONS
                      if cfg.wordline_bits % p == 0]
        program: List[dict] = []
        precision = 8
        while len(program) < self.ops_per_case:
            if rng.random() < 0.15:
                precision = rng.choice(precisions)
                program.append({"method": "set_precision",
                                "kwargs": {"precision": precision}})
                continue
            program.append(self._gen_op(rng, precision))
        return FuzzCase(config=cfg, memory=memory, program=program,
                        name=f"fuzz-{self.seed}-{index:04d}")

    def _operand(self, rng: random.Random) -> object:
        if rng.random() < 0.2:
            return f"T{rng.randrange(self.config.num_tmp_registers)}"
        return rng.randrange(self.config.num_rows)

    def _gen_op(self, rng: random.Random, precision: int) -> dict:
        method = rng.choice((
            "add", "sub", "avg", "cmp_gt", "logic_and", "logic_or",
            "logic_xor", "logic_nor", "shift_lanes", "shift_bits",
            "copy", "abs_diff", "maximum", "minimum", "mul", "div"))
        # At 64-bit lane width the unsigned view is host-bound on the
        # word device but exact on the bit device -- the architecture
        # contract is signed-only there (see repro.verify.golden).
        signed = True if precision >= 64 else rng.random() < 0.5
        dst = self._operand(rng)
        step = {"method": method, "dst": dst, "kwargs": {}}
        if method in ("shift_lanes", "shift_bits", "copy"):
            step["srcs"] = [self._operand(rng)]
        else:
            step["srcs"] = [self._operand(rng), self._operand(rng)]
        if method in ("add", "sub"):
            step["kwargs"] = {"signed": signed,
                              "saturate": rng.random() < 0.5}
        elif method == "mul":
            step["kwargs"] = {"signed": signed,
                              "saturate": rng.random() < 0.5,
                              "rshift": rng.randrange(4)}
        elif method == "div":
            step["kwargs"] = {"signed": signed}
        elif method == "shift_lanes":
            step["kwargs"] = {"pixels": rng.randint(-2, 2),
                              "signed": signed}
        elif method == "shift_bits":
            step["kwargs"] = {"amount": rng.randint(-4, 4),
                              "signed": signed}
        elif not method.startswith("logic_"):
            step["kwargs"] = {"signed": signed}
        return step

    # -- shrinking -------------------------------------------------------

    def minimize(self, case: FuzzCase) -> FuzzCase:
        """Shrink a failing case while it keeps failing.

        Three passes: shortest failing op prefix, greedy removal of
        interior ops, then memory bytes zeroed/halved row by row.  The
        result is the case that lands in the corpus.
        """

        def variant(program=None, memory=None) -> FuzzCase:
            return FuzzCase(config=case.config,
                            memory=memory if memory is not None
                            else [list(r) for r in case.memory],
                            program=list(program)
                            if program is not None
                            else list(case.program),
                            name=case.name)

        program = list(case.program)
        memory = [list(r) for r in case.memory]
        for k in range(1, len(program) + 1):
            if variant(program=program[:k], memory=memory).run():
                program = program[:k]
                break
        i = 0
        while i < len(program):
            trial = program[:i] + program[i + 1:]
            if trial and variant(program=trial, memory=memory).run():
                program = trial
            else:
                i += 1
        for row in range(len(memory)):
            zeroed = [list(r) for r in memory]
            zeroed[row] = [0] * len(memory[row])
            if variant(program=program, memory=zeroed).run():
                memory = zeroed
        changed = True
        while changed:
            changed = False
            for row in range(len(memory)):
                for j, byte in enumerate(memory[row]):
                    if byte == 0:
                        continue
                    for smaller in (0, byte // 2):
                        trial = [list(r) for r in memory]
                        trial[row][j] = smaller
                        if variant(program=program,
                                   memory=trial).run():
                            memory = trial
                            changed = True
                            break
        return variant(program=program, memory=memory)

    # -- campaign --------------------------------------------------------

    def run(self, cases: int = 50,
            corpus_dir: Optional[Path] = None,
            max_failures: int = 5) -> dict:
        """Fuzz ``cases`` cases; minimize and persist any failures.

        Returns a JSON-ready report.  Stops early after
        ``max_failures`` distinct failing cases (each one costs a
        shrink run).
        """
        failures: List[FuzzFailure] = []
        ran = 0
        for index in range(cases):
            case = self.generate(index)
            ran += 1
            self._cases_ctr.inc()
            mismatches = case.run()
            if not mismatches:
                continue
            self._failures_ctr.inc()
            minimized = self.minimize(case)
            failures.append(FuzzFailure(index=index,
                                        mismatch=mismatches[0],
                                        case=case,
                                        minimized=minimized))
            if corpus_dir is not None:
                corpus_dir = Path(corpus_dir)
                corpus_dir.mkdir(parents=True, exist_ok=True)
                entry = minimized.to_dict()
                entry["mismatch_at_discovery"] = mismatches[0]
                path = corpus_dir / f"{case.name}.json"
                path.write_text(json.dumps(entry, indent=1,
                                           sort_keys=True) + "\n")
            if len(failures) >= max_failures:
                break
        return {
            "schema": "repro.verify.fuzz/1",
            "seed": self.seed,
            "cases": ran,
            "failures": [
                {"index": f.index, "mismatch": f.mismatch,
                 "minimized_ops": len(f.minimized.program)}
                for f in failures],
            "ok": not failures,
        }


def replay_corpus(corpus_dir) -> List[dict]:
    """Replay every corpus entry; returns one result dict per entry.

    Each result is ``{"path", "name", "mismatches"}`` -- an empty
    ``mismatches`` list means the regression stayed fixed.  Missing or
    empty directories yield an empty list (no corpus is a valid
    state, not an error).
    """
    corpus_dir = Path(corpus_dir)
    results: List[dict] = []
    if not corpus_dir.is_dir():
        return results
    for path in sorted(corpus_dir.glob("*.json")):
        case = FuzzCase.from_dict(json.loads(path.read_text()))
        results.append({"path": str(path), "name": case.name,
                        "mismatches": case.run()})
    return results
