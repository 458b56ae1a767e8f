"""The physical layer: a bit-parallel SRAM-PIM device simulator.

The package models the architecture of paper section 4:

* :mod:`repro.pim.config` -- array geometry and precision modes.
* :mod:`repro.pim.bitsram` -- bit-true SRAM array with sense-amp
  AND/NOR/XOR/OR bitline logic (Fig. 6-a).
* :mod:`repro.pim.accumulator` -- the peripheral accumulator/shifter in
  8-bit slices with run-time carry control (Fig. 6-c).
* :mod:`repro.pim.alu` -- lane-level functional semantics of every
  multi-stage operation (Fig. 7).
* :mod:`repro.pim.device` -- :class:`PIMDevice`, the word-level
  cycle/energy-accounted device the EBVO kernels program, and
  :class:`BitPIMDevice`, a bit-true reference device pinned to it by
  equivalence tests.
* :mod:`repro.pim.cost` / :mod:`repro.pim.energy` -- the cycle ledger and
  the 90 nm energy/area model.
* :mod:`repro.pim.program` -- program capture (:class:`ProgramRecorder`)
  and replay (:meth:`PIMDevice.run_program`) with an LRU
  :class:`ProgramCache`.  Replay has two tiers: eager, the per-row
  reference, and compiled, bit-exact and cost-exact against it.
* :mod:`repro.pim.lowering` -- the compiled tier: programs lowered
  once into fused vectorized plans, run by ``mode="auto"`` whenever
  the hazard analysis proves them eager-equivalent.
* :mod:`repro.pim.store` -- :class:`ProgramStore`, content-addressed
  on-disk persistence layered under :class:`ProgramCache` so new
  processes warm-start without re-recording.
"""

from repro.pim.config import PIMConfig
from repro.pim.cost import CostLedger
from repro.pim.device import TMP, BitPIMDevice, Imm, PIMDevice, Rel, Tmp
from repro.pim.energy import AreaModel, EnergyModel, EnergyReport
from repro.pim.faults import FaultInjector, FaultPlan
from repro.pim.isa import ISA_VERSION
from repro.pim.program import (
    PIMProgram,
    ProgramCache,
    ProgramRecorder,
    program_key,
)
from repro.pim.store import ProgramStore

__all__ = [
    "ISA_VERSION",
    "ProgramStore",
    "PIMConfig",
    "CostLedger",
    "PIMDevice",
    "BitPIMDevice",
    "TMP",
    "Tmp",
    "Imm",
    "Rel",
    "PIMProgram",
    "ProgramRecorder",
    "ProgramCache",
    "program_key",
    "EnergyModel",
    "EnergyReport",
    "AreaModel",
    "FaultPlan",
    "FaultInjector",
]
