"""Micro-operation definitions, operands, charge plans and traces.

Every kernel in the algorithm layer compiles down to this small
instruction set, which matches what the hardware of paper section 4 can
issue in one (or, for multiply/divide, ``n + 2``) clock cycles.

This module is the single source of truth for *what an op costs*: the
:func:`charge_plan` table lists the accumulator steps each micro-op
expands to (composites like ``abs_diff`` are two steps), and
:func:`step_cost` prices one step exactly as DESIGN.md section 5
specifies.  Both the executing devices and the
:class:`~repro.pim.program.ProgramRecorder` derive their ledger charges
from here, which is what makes recorded-program replay cost-exact by
construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

__all__ = [
    "ISA_VERSION",
    "OpKind", "TraceRecord", "op_cycles",
    "TMP", "Tmp", "Imm", "Rel", "Src", "Dst",
    "ChargeStep", "StepCost", "charge_plan", "step_cost",
]

#: Version of the micro-op ISA semantics and cost contract.  Bump this
#: whenever op semantics, the charge plans or the recorded-program
#: format change incompatibly: the on-disk
#: :class:`~repro.pim.store.ProgramStore` keys entries by
#: ``(cache key, device geometry, ISA_VERSION)``, so a bump invalidates
#: every persisted program instead of replaying stale semantics.
ISA_VERSION = 1


class OpKind(enum.Enum):
    """The micro-operations the device can issue.

    Single-cycle operations (paper section 5.1: "all basic operations
    are single-cycle"):

    * ``AND/OR/XOR/NOR`` -- in-array sense-amp logic (Fig. 6-a).
    * ``ADD/SUB`` -- accumulator add/sub, optionally saturating.
    * ``AVG`` -- add then shift-right-one (the LPF primitive).
    * ``CMP_GT`` -- comparison mask from the borrow/carry extension.
    * ``SHIFT_LANES`` -- shift the word line by whole lanes (pixels).
    * ``SHIFT_BITS`` -- arithmetic shift within lanes.
    * ``COPY`` -- move a value through the accumulator unchanged.

    Multi-cycle operations (``n + 2`` cycles for n-bit lanes,
    section 4.2):

    * ``MUL`` -- MSB-first shift-add multiplication (Fig. 7-c).
    * ``DIV`` -- restoring division (Fig. 7-d).
    """

    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    ADD = "add"
    SUB = "sub"
    AVG = "avg"
    CMP_GT = "cmp_gt"
    SHIFT_LANES = "shift_lanes"
    SHIFT_BITS = "shift_bits"
    COPY = "copy"
    MUL = "mul"
    DIV = "div"

    # Members are singletons compared by identity, so the identity hash
    # is valid, and it is computed in C: ``Enum.__hash__`` hashes the
    # name in Python, and the ledger hashes a kind for every key it
    # charges (``CostLedger.charge_program``, 26 keys per program).
    __hash__ = object.__hash__


def op_cycles(kind: OpKind, precision: int) -> int:
    """Issue cycles for one micro-op at the given lane width.

    Multiplication and division take ``n + 2`` cycles including their
    SRAM read/write overhead (paper section 4.2); everything else is a
    single cycle.  The extra write-back cycle for SRAM destinations is
    charged separately by the device.
    """
    if kind in (OpKind.MUL, OpKind.DIV):
        return precision + 2
    return 1


# -- operands -------------------------------------------------------------


class _TmpSentinel:
    """Marker for a Tmp register operand.

    The paper's design has one Tmp register; section 5.4 notes that
    "we could use more registers to further improve the efficiency".
    The device supports a configurable bank: :data:`TMP` is register 0,
    ``Tmp(i)`` addresses the others.
    """

    def __init__(self, index: int = 0):
        self.index = index

    def __repr__(self) -> str:
        return "TMP" if self.index == 0 else f"TMP{self.index}"

    def __eq__(self, other) -> bool:
        return isinstance(other, _TmpSentinel) and \
            other.index == self.index

    def __hash__(self) -> int:
        return hash(("tmp", self.index))


#: The (first) Tmp register operand.
TMP = _TmpSentinel(0)


def Tmp(index: int) -> _TmpSentinel:  # noqa: N802 (operand constructor)
    """Operand for Tmp register ``index`` (0 is :data:`TMP`)."""
    return _TmpSentinel(index)


@dataclass(frozen=True)
class Imm:
    """A broadcast immediate routed through the input multiplexer.

    The hardware feeds constants (thresholds, shift counts) to the
    accumulator without an SRAM access; we model that as a free operand.
    """

    value: Union[int, float]


class Rel(int):
    """A base-relative row operand for recorded programs.

    ``Rel(k)`` addresses "row ``base + k``" where ``base`` is supplied
    at replay time (:meth:`PIMDevice.run_program`); a plain ``int``
    addresses an absolute row.  ``Rel`` subclasses ``int`` so the cost
    model prices it exactly like any other SRAM row operand.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        off = int(self)
        return f"R{'+' if off >= 0 else ''}{off}"


Src = Union[int, _TmpSentinel, Imm]
Dst = Union[int, _TmpSentinel]


# -- charge plans ---------------------------------------------------------


@dataclass(frozen=True)
class ChargeStep:
    """One accumulator step of a micro-op, as charged to the ledger."""

    kind: OpKind
    srcs: Tuple
    dst: object
    note: Optional[str] = None
    operand_bits: Optional[int] = None


@dataclass(frozen=True)
class StepCost:
    """Priced form of one :class:`ChargeStep` at a given precision."""

    cycles: int
    sram_reads: int
    sram_writes: int
    tmp_accesses: int
    logic_ops: int
    precision: int


def step_cost(step: ChargeStep, precision: int) -> StepCost:
    """Price one charge step per the DESIGN.md section 5 contract.

    * every basic op is 1 cycle; ``mul``/``div`` are ``n + 2`` cycles
      including their internal SRAM read/write overhead;
    * an SRAM destination adds 1 write-back cycle and 1 SRAM write
      (mul/div fold theirs into the ``n + 2``);
    * each SRAM source costs one row activation; each Tmp source or
      destination costs one Tmp access;
    * mul/div run ``n`` shift-add steps with partials held in Tmp.
    """
    n = step.operand_bits or precision
    cycles = op_cycles(step.kind, n)
    sram_reads = sum(1 for s in step.srcs if isinstance(s, int))
    tmp_accesses = sum(1 for s in step.srcs
                       if isinstance(s, _TmpSentinel))
    sram_writes = 0
    logic = 1
    if step.kind in (OpKind.MUL, OpKind.DIV):
        # n shift-add/subtract steps, partial results held in Tmp.
        logic = n
        tmp_accesses += n
    if isinstance(step.dst, int):
        sram_writes += 1
        if step.kind not in (OpKind.MUL, OpKind.DIV):
            cycles += 1  # write-back cycle (mul/div include theirs)
    else:
        tmp_accesses += 1
    return StepCost(cycles=cycles, sram_reads=sram_reads,
                    sram_writes=sram_writes, tmp_accesses=tmp_accesses,
                    logic_ops=logic, precision=n)


def charge_plan(method: str, dst, srcs: Tuple, **kw) -> Tuple[ChargeStep,
                                                              ...]:
    """The accumulator steps a device micro-op method expands to.

    ``method`` is the device-surface name (``"add"``, ``"abs_diff"``,
    ...); composites expand to the multi-step sequences of Fig. 7.
    The returned plan is what both the word-level device and the
    program recorder charge, step by step, to their ledgers.
    """
    if method in ("add", "sub"):
        kind = OpKind.ADD if method == "add" else OpKind.SUB
        return (ChargeStep(kind, srcs, dst,
                           "sat" if kw.get("saturate") else None),)
    if method == "avg":
        return (ChargeStep(OpKind.AVG, srcs, dst),)
    if method == "cmp_gt":
        return (ChargeStep(OpKind.CMP_GT, srcs, dst),)
    if method == "logic_and":
        return (ChargeStep(OpKind.AND, srcs, dst),)
    if method == "logic_or":
        return (ChargeStep(OpKind.OR, srcs, dst),)
    if method == "logic_xor":
        return (ChargeStep(OpKind.XOR, srcs, dst),)
    if method == "logic_nor":
        return (ChargeStep(OpKind.NOR, srcs, dst),)
    if method == "shift_lanes":
        return (ChargeStep(OpKind.SHIFT_LANES, srcs, dst,
                           f"{kw['pixels']}pix"),)
    if method == "shift_bits":
        return (ChargeStep(OpKind.SHIFT_BITS, srcs, dst,
                           f"{kw['amount']}b"),)
    if method == "copy":
        return (ChargeStep(OpKind.COPY, srcs, dst),)
    if method == "abs_diff":
        a, b = srcs
        return (ChargeStep(OpKind.SUB, (a, b), TMP, "absdiff:diff"),
                ChargeStep(OpKind.XOR, (TMP,), dst, "absdiff:neg"))
    if method == "maximum":
        a, b = srcs
        return (ChargeStep(OpKind.SUB, (a, b), TMP, "max:satsub"),
                ChargeStep(OpKind.ADD, (TMP, b), dst, "max:add"))
    if method == "minimum":
        a, b = srcs
        return (ChargeStep(OpKind.SUB, (a, b), TMP, "min:satsub"),
                ChargeStep(OpKind.SUB, (a, TMP), dst, "min:sub"))
    if method == "mul":
        return (ChargeStep(OpKind.MUL, srcs, dst,
                           f">>{kw.get('rshift', 0)}",
                           operand_bits=kw.get("multiplier_bits")),)
    if method == "div":
        return (ChargeStep(OpKind.DIV, srcs, dst,
                           f"<<{kw.get('lshift', 0)}"),)
    raise ValueError(f"no charge plan for micro-op {method!r}")


@dataclass(frozen=True)
class TraceRecord:
    """One executed micro-op, for debugging and mapping validation."""

    kind: OpKind
    precision: int
    cycles: int
    dst: str
    srcs: Tuple[str, ...]
    note: Optional[str] = None

    def __str__(self) -> str:
        srcs = ", ".join(self.srcs)
        suffix = f"  ; {self.note}" if self.note else ""
        return (f"{self.kind.value:<12} {self.dst:<8} <- {srcs:<20} "
                f"[{self.precision}b, {self.cycles}cyc]{suffix}")
