"""The differential conformance harness for the PIM ISA.

Three layers pin the simulator's numerical semantics:

* :mod:`repro.verify.golden` -- a pure-python, bit-true golden model
  of every micro-op (independent of the numpy device internals), both
  as the stateless :func:`~repro.verify.golden.golden_op` and as the
  stateful :class:`~repro.verify.golden.GoldenMachine`.
* :mod:`repro.verify.matrix` -- the conformance matrix runner:
  OpKind x lane width x signed/saturation config, every backend
  (word device, bit-true device, eager and compiled program replay)
  differentially checked on directed edge vectors and seeded random
  vectors, with a :mod:`repro.verify.coverage` ledger and a baseline
  gate so coverage can only grow.
* :mod:`repro.verify.fuzz` -- a deterministic differential fuzzer
  whose minimized failures persist in ``tests/corpus/`` and replay
  forever.

``python -m repro.verify`` runs the whole harness (matrix + fuzz +
corpus replay + fault-injection trials) and emits a JSON report; CI
gates on zero mismatches and non-regressing coverage.

A fourth layer, :mod:`repro.verify.chaos` (``python -m repro.verify
chaos``), pins *recovery* rather than semantics: one seeded storm
loop against the live serving stack under a fault, migration or
SIGKILL disruption, gated on zero unrecovered sessions, full fault
attribution and bit-identity against the disruption's reference.
"""

from repro.verify.chaos import (
    ChaosConfig,
    InjectedFault,
    build_fault_storm,
    run_chaos,
)
from repro.verify.coverage import (
    CoverageLedger,
    METHOD_CONFIGS,
    METHOD_OPKINDS,
    expected_cells,
)
from repro.verify.fuzz import DifferentialFuzzer, FuzzCase, replay_corpus
from repro.verify.golden import GoldenMachine, golden_op, sign_value, to_pattern
from repro.verify.matrix import (
    ConformanceReport,
    ConformanceRunner,
    Mismatch,
    directed_patterns,
)
from repro.verify.robustness import fault_detection_trials

__all__ = [
    "golden_op",
    "GoldenMachine",
    "sign_value",
    "to_pattern",
    "ConformanceRunner",
    "ConformanceReport",
    "Mismatch",
    "directed_patterns",
    "CoverageLedger",
    "expected_cells",
    "METHOD_CONFIGS",
    "METHOD_OPKINDS",
    "DifferentialFuzzer",
    "FuzzCase",
    "replay_corpus",
    "fault_detection_trials",
    "ChaosConfig",
    "InjectedFault",
    "build_fault_storm",
    "run_chaos",
]
