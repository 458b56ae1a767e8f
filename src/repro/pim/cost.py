"""Cycle and access accounting for the PIM device.

The ledger implements the cost contract of DESIGN.md section 5: basic
ops are one cycle, mul/div are ``n + 2``, SRAM-destined results pay one
extra write-back cycle, and every SRAM row activation / logic op /
Tmp-register access is counted for the energy model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.pim.energy import EnergyModel, EnergyReport
from repro.pim.isa import OpKind

__all__ = ["CostLedger", "AccessBreakdown"]

#: Per-op-class cost fields tracked in :attr:`CostLedger.op_costs`.
_OP_COST_FIELDS = ("cycles", "sram_reads", "sram_writes",
                   "tmp_accesses", "logic_ops")


@dataclass
class AccessBreakdown:
    """Memory-access decomposition (paper Fig. 10-b)."""

    sram_reads: int = 0
    sram_writes: int = 0
    tmp_accesses: int = 0

    @property
    def total(self) -> int:
        return self.sram_reads + self.sram_writes + self.tmp_accesses

    def shares(self) -> Dict[str, float]:
        """Fraction of accesses by category."""
        total = self.total
        if total == 0:
            return {"mem_rd": 0.0, "mem_wr": 0.0, "tmp_reg": 0.0}
        return {
            "mem_rd": self.sram_reads / total,
            "mem_wr": self.sram_writes / total,
            "tmp_reg": self.tmp_accesses / total,
        }


@dataclass
class CostLedger:
    """Accumulates cycles and accesses across device micro-ops.

    Attributes:
        cycles: Total issue cycles, including write-back cycles.
        sram_reads: Row activations performed to fetch operands.
        sram_writes: Row activations performed to write results back.
        tmp_accesses: Tmp-register reads and writes.
        logic_ops: Accumulator/shifter operations issued.
        host_transfers: Host DMA row transfers (excluded from ``cycles``
            per the paper's "without considering the I/O overhead").
        op_counts: Micro-op histogram by :class:`OpKind`.
        op_profile: Histogram by ``(OpKind, precision)`` - the raw
            material for cross-architecture cost comparisons (for
            example the bit-serial model re-prices this profile).
        op_costs: Cost decomposition by op class, keyed
            ``(OpKind, field)`` with ``field`` one of ``cycles`` /
            ``sram_reads`` / ``sram_writes`` / ``tmp_accesses`` /
            ``logic_ops``.  :meth:`breakdown` renders it as the
            structured per-class cycle/energy table consumers used to
            reconstruct by diffing snapshots around each kernel.
    """

    cycles: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    tmp_accesses: int = 0
    logic_ops: int = 0
    host_transfers: int = 0
    op_counts: Counter = field(default_factory=Counter)
    op_profile: Counter = field(default_factory=Counter)
    op_costs: Counter = field(default_factory=Counter)

    def charge(self, kind: OpKind, cycles: int, sram_reads: int = 0,
               sram_writes: int = 0, tmp_accesses: int = 0,
               logic_ops: int = 1, precision: int = 0) -> None:
        """Record one micro-op."""
        self.cycles += cycles
        self.sram_reads += sram_reads
        self.sram_writes += sram_writes
        self.tmp_accesses += tmp_accesses
        self.logic_ops += logic_ops
        self.op_counts[kind] += 1
        if precision:
            self.op_profile[(kind, precision)] += 1
        self.op_costs[(kind, "cycles")] += cycles
        if sram_reads:
            self.op_costs[(kind, "sram_reads")] += sram_reads
        if sram_writes:
            self.op_costs[(kind, "sram_writes")] += sram_writes
        if tmp_accesses:
            self.op_costs[(kind, "tmp_accesses")] += tmp_accesses
        if logic_ops:
            self.op_costs[(kind, "logic_ops")] += logic_ops

    def charge_host_transfer(self, rows: int = 1) -> None:
        """Record host DMA traffic (not charged to cycles)."""
        self.host_transfers += rows

    def charge_program(self, aggregate: "CostLedger",
                       reps: int = 1) -> None:
        """Charge a recorded program's aggregate cost ``reps`` times.

        This is the O(1) accounting path of compiled replay
        (:meth:`PIMDevice.run_program`): one recorded iteration's totals
        are scaled by the repetition count instead of re-charging every
        micro-op.  The result is exactly what ``reps`` eager replays
        would have charged, because the aggregate was itself produced by
        the per-step cost function (:func:`repro.pim.isa.step_cost`).
        """
        if reps < 0:
            raise ValueError(f"negative repetition count {reps}")
        self.cycles += aggregate.cycles * reps
        self.sram_reads += aggregate.sram_reads * reps
        self.sram_writes += aggregate.sram_writes * reps
        self.tmp_accesses += aggregate.tmp_accesses * reps
        self.logic_ops += aggregate.logic_ops * reps
        self.host_transfers += aggregate.host_transfers * reps
        for kind, count in aggregate.op_counts.items():
            self.op_counts[kind] += count * reps
        for key, count in aggregate.op_profile.items():
            self.op_profile[key] += count * reps
        for key, count in aggregate.op_costs.items():
            self.op_costs[key] += count * reps

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger into this one."""
        self.cycles += other.cycles
        self.sram_reads += other.sram_reads
        self.sram_writes += other.sram_writes
        self.tmp_accesses += other.tmp_accesses
        self.logic_ops += other.logic_ops
        self.host_transfers += other.host_transfers
        self.op_counts.update(other.op_counts)
        self.op_profile.update(other.op_profile)
        self.op_costs.update(other.op_costs)

    def snapshot(self) -> "CostLedger":
        """An independent copy of the current totals."""
        copy = CostLedger(
            cycles=self.cycles,
            sram_reads=self.sram_reads,
            sram_writes=self.sram_writes,
            tmp_accesses=self.tmp_accesses,
            logic_ops=self.logic_ops,
            host_transfers=self.host_transfers,
        )
        copy.op_counts = Counter(self.op_counts)
        copy.op_profile = Counter(self.op_profile)
        copy.op_costs = Counter(self.op_costs)
        return copy

    def delta_since(self, snapshot: "CostLedger") -> "CostLedger":
        """Totals accumulated since ``snapshot`` was taken."""
        delta = CostLedger(
            cycles=self.cycles - snapshot.cycles,
            sram_reads=self.sram_reads - snapshot.sram_reads,
            sram_writes=self.sram_writes - snapshot.sram_writes,
            tmp_accesses=self.tmp_accesses - snapshot.tmp_accesses,
            logic_ops=self.logic_ops - snapshot.logic_ops,
            host_transfers=self.host_transfers - snapshot.host_transfers,
        )
        delta.op_counts = self.op_counts - snapshot.op_counts
        delta.op_profile = self.op_profile - snapshot.op_profile
        delta.op_costs = self.op_costs - snapshot.op_costs
        return delta

    def breakdown(self, model: EnergyModel = EnergyModel()
                  ) -> Dict[str, Dict[str, float]]:
        """Structured per-op-class cycle/energy decomposition.

        Returns ``{op_class: {count, cycles, cycle_share, sram_reads,
        sram_writes, tmp_accesses, logic_ops, energy_pj,
        energy_share}}``, sorted by descending cycles.  Classes are
        :class:`OpKind` names lower-cased.  This is the introspection
        hook :mod:`repro.sim` and the Fig. 10 console summary consume
        instead of diffing snapshots around every kernel.
        """
        rows: Dict[str, Dict[str, float]] = {}
        for kind, count in self.op_counts.items():
            cost = {f: int(self.op_costs.get((kind, f), 0))
                    for f in _OP_COST_FIELDS}
            energy = model.report(
                sram_accesses=cost["sram_reads"] + cost["sram_writes"],
                logic_ops=cost["logic_ops"],
                tmp_accesses=cost["tmp_accesses"])
            rows[kind.name.lower()] = {
                "count": int(count),
                "energy_pj": energy.total_pj,
                **cost,
            }
        total_cycles = sum(r["cycles"] for r in rows.values())
        total_pj = sum(r["energy_pj"] for r in rows.values())
        for row in rows.values():
            row["cycle_share"] = (row["cycles"] / total_cycles
                                  if total_cycles else 0.0)
            row["energy_share"] = (row["energy_pj"] / total_pj
                                   if total_pj else 0.0)
        return dict(sorted(rows.items(),
                           key=lambda kv: -kv[1]["cycles"]))

    @property
    def accesses(self) -> AccessBreakdown:
        """Memory-access decomposition for Fig. 10-b."""
        return AccessBreakdown(
            sram_reads=self.sram_reads,
            sram_writes=self.sram_writes,
            tmp_accesses=self.tmp_accesses,
        )

    def energy(self, model: EnergyModel = EnergyModel()) -> EnergyReport:
        """Energy report under the given model (Fig. 10-a)."""
        return model.report(
            sram_accesses=self.sram_reads + self.sram_writes,
            logic_ops=self.logic_ops,
            tmp_accesses=self.tmp_accesses,
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.cycles = 0
        self.sram_reads = 0
        self.sram_writes = 0
        self.tmp_accesses = 0
        self.logic_ops = 0
        self.host_transfers = 0
        self.op_counts.clear()
        self.op_profile.clear()
        self.op_costs.clear()
