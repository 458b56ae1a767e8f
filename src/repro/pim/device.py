"""The SRAM-PIM device simulators.

Two devices share one micro-op interface and one cost contract:

* :class:`PIMDevice` -- the word-level device.  Rows are stored as raw
  bytes; every micro-op interprets them as lanes of the current
  precision, computes with the lane semantics of
  :mod:`repro.fixedpoint.ops`, and charges the
  :class:`~repro.pim.cost.CostLedger`.  This is the device the EBVO
  kernels program, fast enough to process full QVGA frames.

* :class:`BitPIMDevice` -- the bit-true reference.  Rows live in a
  :class:`~repro.pim.bitsram.BitSRAM`; addition/subtraction walk the
  8-bit accumulator slices with gated carries
  (:class:`~repro.pim.accumulator.SliceAccumulator`); multiplication and
  division execute the actual MSB-first shift-add and restoring-division
  loops of Fig. 7.  Property tests pin :class:`PIMDevice` to it.

Operands are SRAM rows (``int`` indices), the Tmp register (the
:data:`TMP` sentinel) or broadcast immediates (:class:`Imm`, routed
through the input multiplexer).  Results go to a row (paying the
write-back cycle) or to the Tmp register (free, the paper's key energy
optimization).

Cost contract (DESIGN.md section 5):

* every basic op is 1 cycle; ``mul``/``div`` are ``n + 2`` cycles
  including their internal SRAM read/write overhead;
* an SRAM destination adds 1 write-back cycle and 1 SRAM write access;
* each SRAM source costs one row activation; each Tmp source or
  destination costs one Tmp access;
* composite ops (absolute difference, min/max) are built from the basic
  ops, so their cost emerges from composition;
* host DMA (``load``/``store``) is tracked separately and excluded from
  cycle counts, matching the paper's exclusion of I/O overhead.

Both devices price micro-ops through :func:`repro.pim.isa.charge_plan`
and :func:`repro.pim.isa.step_cost`; so does the
:class:`~repro.pim.program.ProgramRecorder`, which is why a recorded
program's aggregate ledger can be multiplied out analytically by
:meth:`PIMDevice.run_program` without drifting from eager execution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fixedpoint import ops
from repro.obs.metrics import get_registry
from repro.obs.tracer import CLOCK, get_tracer
from repro.pim.accumulator import SliceAccumulator
from repro.pim.bitsram import BitSRAM, bits_to_lanes, lanes_to_bits
from repro.pim.config import DEFAULT_CONFIG, PIMConfig
from repro.pim.cost import CostLedger
from repro.pim.isa import (
    TMP,
    ChargeStep,
    Dst,
    Imm,
    OpKind,
    Rel,
    Src,
    Tmp,
    TraceRecord,
    _TmpSentinel,
    charge_plan,
    step_cost,
)

__all__ = ["PIMDevice", "BitPIMDevice", "TMP", "Tmp", "Imm", "Rel"]

_LANE_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}


def _as_rows(rows) -> np.ndarray:
    """Row indices (a ``range`` or a sequence of ints) as one int64 array."""
    if isinstance(rows, range):
        return np.arange(rows.start, rows.stop, rows.step, dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


#: Base-row sets whose admission verdict one program keeps.
_ADMISSION_MEMO_SIZE = 16


def _alias_hit(bases: np.ndarray, rows, offsets) -> bool:
    """Whether some ``base + offset`` equals one of ``rows``.

    ``bases`` must be sorted: each ``row - offset`` is looked up in
    them by binary search.
    """
    if not bases.size or not rows or not offsets:
        return False
    want = (np.fromiter(rows, np.int64, len(rows))[:, None]
            - np.fromiter(offsets, np.int64, len(offsets))).ravel()
    pos = np.searchsorted(bases, want)
    return bool((bases[np.minimum(pos, bases.size - 1)] == want).any())


def _read_signedness(method: str, kwargs: dict) -> bool:
    """Signedness with which a micro-op interprets its source lanes."""
    if method.startswith("logic_"):
        return False
    return bool(kwargs.get("signed", True))


def _check_multiplier(vb: np.ndarray, multiplier_bits: Optional[int],
                      signed: bool) -> None:
    """Enforce the declared multiplier width of a shortened MUL loop."""
    if multiplier_bits is None:
        return
    lo = -(1 << (multiplier_bits - 1)) if signed else 0
    hi = (1 << (multiplier_bits - 1)) - 1 if signed \
        else (1 << multiplier_bits) - 1
    if vb.size and (vb.min() < lo or vb.max() > hi):
        raise ValueError(
            f"multiplier values exceed {multiplier_bits} bits")


def _compute(method: str, n: int, vals: Tuple[np.ndarray, ...],
             kwargs: dict) -> np.ndarray:
    """Lane semantics of one micro-op, shape-polymorphic.

    ``vals`` holds the already-read source operands as int64 arrays;
    the same function serves the eager path (1-D, one row) and the
    compiled plan's fallback ops (2-D, all target rows at once)
    because every underlying :mod:`repro.fixedpoint.ops` primitive is
    elementwise and lane shifts index the last axis.
    """
    signed = bool(kwargs.get("signed", True))
    if method == "add":
        a, b = vals
        if kwargs.get("saturate"):
            return ops.sat_add(a, b, n, signed)
        return ops.wrap(a + b, n, signed)
    if method == "sub":
        a, b = vals
        if kwargs.get("saturate"):
            return ops.sat_sub(a, b, n, signed)
        return ops.wrap(a - b, n, signed)
    if method == "avg":
        return ops.average(vals[0], vals[1])
    if method == "cmp_gt":
        return ops.greater_than(vals[0], vals[1])
    if method == "logic_and":
        return vals[0] & vals[1]
    if method == "logic_or":
        return vals[0] | vals[1]
    if method == "logic_xor":
        return vals[0] ^ vals[1]
    if method == "logic_nor":
        # The raw sense-amp output; the complement is wrapped back to
        # lane width by the pack step.
        return ~(vals[0] | vals[1])
    if method == "shift_lanes":
        va = vals[0]
        pixels = kwargs["pixels"]
        out = np.zeros_like(va)
        if pixels == 0:
            out[...] = va
        elif pixels > 0:
            out[..., :-pixels or None] = va[..., pixels:]
        else:
            out[..., -pixels:] = va[..., :pixels]
        return out
    if method == "shift_bits":
        amount = kwargs["amount"]
        if amount >= 0:
            return ops.shift_left(vals[0], amount, n, signed)
        return ops.shift_right(vals[0], -amount, arithmetic=signed)
    if method == "copy":
        return vals[0]
    if method == "abs_diff":
        return ops.abs_diff(vals[0], vals[1])
    if method == "maximum":
        return ops.branchfree_max(vals[0], vals[1], n, signed)
    if method == "minimum":
        return ops.branchfree_min(vals[0], vals[1], n, signed)
    if method == "mul":
        prod = ops.multiply(vals[0], vals[1], n, signed) \
            >> kwargs.get("rshift", 0)
        if kwargs.get("saturate", True):
            return ops.saturate(prod, n, signed)
        return ops.wrap(prod, n, signed)
    if method == "div":
        va = vals[0] << kwargs.get("lshift", 0)
        vb = vals[1]
        wide = max(n, 63)
        q = ops.divide(va, vb, wide, signed)
        # Division by zero saturates toward the *lane* bound, as the
        # restoring loop would leave an all-ones quotient.  64-bit
        # lanes take the signed bound regardless of view (int64 host
        # bound, see repro.fixedpoint.ops._bounds).
        lane_hi = (1 << (n - 1)) - 1 if signed or n >= 64 \
            else (1 << n) - 1
        q = np.where(vb == 0,
                     np.where(va >= 0, lane_hi,
                              -lane_hi if signed else lane_hi), q)
        return ops.saturate(q, n, signed)
    raise ValueError(f"unknown micro-op {method!r}")


class _DeviceCore:
    """State and cost accounting shared by both device flavours."""

    def __init__(self, config: PIMConfig = DEFAULT_CONFIG,
                 trace: bool = False,
                 max_trace: Optional[int] = None):
        self.config = config
        self.ledger = CostLedger()
        self._precision = 8
        #: Whether charges advance the shared simulated-cycle clock.
        #: Executing devices do; the ProgramRecorder (whose charges are
        #: compile-time aggregates, not execution) clears it.
        self._advances_clock = True
        self._trace_enabled = trace
        if max_trace is not None and max_trace < 1:
            raise ValueError("max_trace must be positive (or None)")
        self._max_trace = max_trace
        self.trace: List[TraceRecord] = []

    # -- configuration -------------------------------------------------

    @property
    def precision(self) -> int:
        """Current lane width in bits."""
        return self._precision

    def set_precision(self, precision: int) -> None:
        """Reconfigure the carry control to a new lane width.

        Run-time reconfiguration is a control-register write; we charge
        no cycles for it (it overlaps with instruction issue).
        """
        self.config.validate_precision(precision)
        self._precision = precision

    @property
    def lanes(self) -> int:
        """SIMD lanes at the current precision."""
        return self.config.lanes(self._precision)

    def _check_imm(self, imm: Imm, signed: bool) -> int:
        """An immediate's value, checked against the lane range the op
        reads it with (the same rule at record and execution time).

        64-bit lanes are host-bound signed, so no unsigned immediate
        exceeds the int64 maximum.
        """
        val = int(imm.value)
        n = self._precision
        lo, hi = (-(1 << (n - 1)), (1 << (n - 1)) - 1) if signed else \
            (0, (1 << min(n, 63)) - 1)
        if not lo <= val <= hi:
            raise ValueError(f"immediate {val} exceeds {n}-bit range")
        return val

    # -- cost accounting -----------------------------------------------

    def _charge_step(self, step: ChargeStep) -> None:
        """Charge one accumulator step, priced by the shared cost fn."""
        cost = step_cost(step, self._precision)
        self.ledger.charge(step.kind, cost.cycles,
                           sram_reads=cost.sram_reads,
                           sram_writes=cost.sram_writes,
                           tmp_accesses=cost.tmp_accesses,
                           logic_ops=cost.logic_ops,
                           precision=cost.precision)
        # Observability charge hook: advance the shared simulated-cycle
        # clock so span timestamps stay monotone across devices.  One
        # attribute check when tracing is off.
        if CLOCK.enabled and self._advances_clock:
            CLOCK.advance(cost.cycles)
        if self._trace_enabled:
            self._append_trace(TraceRecord(
                kind=step.kind, precision=cost.precision,
                cycles=cost.cycles, dst=self._name(step.dst),
                srcs=tuple(self._name(s) for s in step.srcs),
                note=step.note))

    def _charge(self, kind: OpKind, srcs, dst: Dst,
                note: Optional[str] = None,
                operand_bits: Optional[int] = None) -> None:
        self._charge_step(ChargeStep(kind, tuple(srcs), dst, note,
                                     operand_bits))

    def _append_trace(self, record: TraceRecord) -> None:
        """Append with ring-buffer semantics when ``max_trace`` is set."""
        self.trace.append(record)
        if self._max_trace is not None and \
                len(self.trace) > self._max_trace:
            del self.trace[:len(self.trace) - self._max_trace]

    @staticmethod
    def _name(operand) -> str:
        if isinstance(operand, Imm):
            return f"#{operand.value}"
        if isinstance(operand, _TmpSentinel):
            return "tmp" if operand.index == 0 else f"tmp{operand.index}"
        return f"r{int(operand)}"


class PIMDevice(_DeviceCore):
    """Word-level SRAM-PIM device with cycle/energy accounting."""

    def __init__(self, config: PIMConfig = DEFAULT_CONFIG,
                 trace: bool = False,
                 max_trace: Optional[int] = None):
        super().__init__(config, trace, max_trace)
        self._mem = np.zeros((config.num_rows, config.row_bytes),
                             dtype=np.uint8)
        self._tmp = [np.zeros(config.row_bytes, dtype=np.uint8)
                     for _ in range(config.num_tmp_registers)]
        self._fault_injector = None
        #: Stored bits flipped via :meth:`inject_fault` since the last
        #: reset -- the health signal the serve pool's faulty-device
        #: eviction path checks.
        self._stored_faults = 0

    def reset(self) -> None:
        """Return the device to its power-on state, keeping the config.

        Zeroes the SRAM array and every Tmp register, resets the
        :class:`~repro.pim.cost.CostLedger` and drops the trace stream,
        detaches any attached fault injector (clearing both stored and
        transient faults), and restores the default 8-bit lane width.
        A reset device is bit-identical to a freshly constructed one
        (equivalence tests pin this), which is what lets a pool worker
        hand its device to a new session without reallocating anything
        (:class:`repro.serve.pool.DevicePool`).
        """
        self._mem.fill(0)
        for reg in self._tmp:
            reg.fill(0)
        self.ledger.reset()
        self.trace.clear()
        self._precision = 8
        self._fault_injector = None
        self._stored_faults = 0

    # -- storage views ---------------------------------------------------

    def _unpack(self, raw_bytes: np.ndarray, signed: bool) -> np.ndarray:
        """Interpret row bytes as int64 lane values at current precision.

        Works on one row (1-D bytes) or a stack of rows (2-D bytes);
        lane decoding always applies to the last axis.
        """
        lanes = raw_bytes.view(_LANE_DTYPES[self._precision])
        vals = lanes.astype(np.int64) if self._precision < 64 else \
            lanes.view(np.int64).copy()
        if signed:
            vals = ops.wrap(vals, self._precision, signed=True)
        return vals

    def _pack(self, values: np.ndarray) -> np.ndarray:
        """Pack int64 lane values (any sign) into row bytes, wrapping."""
        n = self._precision
        u = np.asarray(values, dtype=np.int64)
        if n < 64:
            u = u & ((1 << n) - 1)
            return u.astype(_LANE_DTYPES[n]).view(np.uint8)
        return np.ascontiguousarray(u).view(np.uint64).astype(
            "<u8").view(np.uint8)

    def _read(self, src: Src, signed: bool) -> np.ndarray:
        if isinstance(src, Imm):
            return np.full(self.lanes, self._check_imm(src, signed),
                           dtype=np.int64)
        if isinstance(src, _TmpSentinel):
            self._check_tmp(src)
            return self._unpack(self._tmp[src.index], signed)
        self._check_row(src)
        raw = self._mem[src]
        if self._fault_injector is not None:
            raw = self._fault_injector.corrupt_read(raw, int(src))
        return self._unpack(raw, signed)

    def _write(self, dst: Dst, values: np.ndarray) -> None:
        packed = self._pack(values)
        if isinstance(dst, _TmpSentinel):
            self._check_tmp(dst)
            self._tmp[dst.index][:] = packed
        else:
            self._check_row(dst)
            self._mem[dst][:] = packed

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.config.num_rows:
            raise IndexError(
                f"row {row} out of range [0, {self.config.num_rows})")

    def _check_tmp(self, tmp: _TmpSentinel) -> None:
        if not 0 <= tmp.index < self.config.num_tmp_registers:
            raise IndexError(
                f"tmp register {tmp.index} out of range "
                f"[0, {self.config.num_tmp_registers})")

    # -- host DMA (excluded from cycle counts) ---------------------------

    def load(self, row: int, values, signed: bool = True) -> None:
        """Host DMA: write lane values into a row.

        Short vectors are zero-padded; values must fit the current lane
        width (signed or unsigned per ``signed``).
        """
        self._check_row(row)
        vals = np.asarray(values, dtype=np.int64).ravel()
        if vals.size > self.lanes:
            raise ValueError(f"{vals.size} values exceed {self.lanes} lanes")
        lo = -(1 << (self._precision - 1)) if signed else 0
        hi = (1 << (self._precision - 1)) - 1 if signed \
            else (1 << self._precision) - 1
        if vals.size and (vals.min() < lo or vals.max() > hi):
            raise ValueError(f"values exceed {self._precision}-bit range")
        full = np.zeros(self.lanes, dtype=np.int64)
        full[:vals.size] = vals
        self._mem[row][:] = self._pack(full)
        self.ledger.charge_host_transfer()

    def store(self, row: int, signed: bool = True) -> np.ndarray:
        """Host DMA: read a row back as lane values."""
        self._check_row(row)
        self.ledger.charge_host_transfer()
        return self._read(row, signed)

    def load_rows(self, rows: Sequence[int], values,
                  signed: bool = True) -> None:
        """Host DMA: write a 2-D block of lane values, one row each.

        ``values`` has shape ``(len(rows), <= lanes)``; short rows are
        zero-padded.  Charges one host transfer per row, and writes and
        refuses exactly what a loop of :meth:`load` would, but performs
        the pack and the memory scatter as single numpy operations.
        Integer blocks are range-checked in their own dtype; float,
        bool and ``uint64`` blocks are first converted to int64, as
        :meth:`load` does (floats truncate, ``uint64`` wraps).  The
        pack writes straight into the lane dtype, whose cast wraps
        each checked value to its n-bit pattern.
        """
        idx = _as_rows(rows)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.config.num_rows:
            raise IndexError(
                f"rows outside [0, {self.config.num_rows})")
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu" \
                and values.dtype != np.uint64:
            vals = values
        else:
            vals = np.asarray(values, dtype=np.int64)
        if vals.ndim != 2 or vals.shape[0] != idx.size:
            raise ValueError(
                f"values must have shape ({idx.size}, <= {self.lanes})")
        width = vals.shape[1]
        if width > self.lanes:
            raise ValueError(
                f"{width} values exceed {self.lanes} lanes")
        n = self._precision
        lo = -(1 << (n - 1)) if signed else 0
        hi = (1 << (n - 1)) - 1 if signed else (1 << n) - 1
        if vals.size and (int(vals.min()) < lo or int(vals.max()) > hi):
            raise ValueError(f"values exceed {n}-bit range")
        block = np.empty((idx.size, self.lanes), dtype=_LANE_DTYPES[n])
        block[:, :width] = vals
        block[:, width:] = 0
        self._mem[idx] = block.view(np.uint8)
        self.ledger.charge_host_transfer(int(idx.size))

    def store_rows(self, rows: Sequence[int],
                   signed: bool = True) -> np.ndarray:
        """Host DMA: read several rows back as a 2-D lane-value block."""
        idx = _as_rows(rows)
        if idx.size == 0:
            return np.zeros((0, self.lanes), dtype=np.int64)
        if idx.min() < 0 or idx.max() >= self.config.num_rows:
            raise IndexError(
                f"rows outside [0, {self.config.num_rows})")
        self.ledger.charge_host_transfer(int(idx.size))
        return self._unpack(self._mem[idx], signed)

    def _store_row_bytes(self, base_row: int, count: int) -> np.ndarray:
        """Host DMA: ``count`` rows from ``base_row`` as raw row bytes.

        Charges one host transfer per row, as :meth:`store_rows` does.
        At 8-bit lanes each byte is an unsigned lane value, so a 0/1
        mask reads back without the int64 unpack.
        """
        if count and (base_row < 0 or
                      base_row + count > self.config.num_rows):
            raise IndexError(
                f"rows outside [0, {self.config.num_rows})")
        self.ledger.charge_host_transfer(count)
        return self._mem[base_row:base_row + count].copy()

    def read_tmp(self, signed: bool = True, index: int = 0) -> np.ndarray:
        """Host debug view of a Tmp register (no charge)."""
        return self._unpack(self._tmp[index], signed)

    def inject_fault(self, row: int, bit: int) -> None:
        """Flip one stored SRAM bit (fault-injection hook for tests).

        Args:
            row: Word line index.
            bit: Bit position within the word line (0 = LSB of lane 0).
        """
        self._check_row(row)
        if not 0 <= bit < self.config.wordline_bits:
            raise IndexError(f"bit {bit} outside the word line")
        self._mem[row][bit // 8] ^= np.uint8(1 << (bit % 8))
        self._stored_faults += 1
        if self._fault_injector is not None:
            self._fault_injector.record_stored()

    def attach_fault_injector(self, injector) -> None:
        """Arm a :class:`~repro.pim.faults.FaultInjector` on this device.

        The plan's stored flips are applied to the array immediately;
        transient read errors corrupt every subsequent row read until
        :meth:`detach_fault_injector` or :meth:`reset`.
        """
        self._fault_injector = injector
        for row, bit in injector.plan.stored_flips:
            self.inject_fault(row, bit)

    def detach_fault_injector(self) -> None:
        """Stop corrupting reads.  Stored flips remain until reset."""
        self._fault_injector = None

    def fault_state(self) -> dict:
        """Health view: faults injected since the last reset.

        ``suspect`` is True when the array may hold corrupted state --
        the signal :class:`repro.serve.pool.PoolWorker` uses to evict
        (reset) a device between frames.
        """
        injector = self._fault_injector
        return {
            "stored_faults": self._stored_faults,
            "read_faults": injector.read_faults if injector else 0,
            "injector_attached": injector is not None,
            "suspect": self._stored_faults > 0 or injector is not None,
        }

    # -- micro-op execution -----------------------------------------------

    def _execute(self, method: str, dst: Dst, srcs: Tuple[Src, ...],
                 kwargs: dict) -> None:
        """Read, charge (per the shared plan), compute, write."""
        signed = _read_signedness(method, kwargs)
        vals = tuple(self._read(s, signed) for s in srcs)
        if method == "mul":
            _check_multiplier(vals[1], kwargs.get("multiplier_bits"),
                              bool(kwargs.get("signed", True)))
        for step in charge_plan(method, dst, srcs, **kwargs):
            self._charge_step(step)
        self._write(dst, _compute(method, self._precision, vals, kwargs))

    # -- single-cycle micro-ops -------------------------------------------

    def add(self, dst: Dst, a: Src, b: Src, saturate: bool = False,
            signed: bool = True) -> None:
        """``dst = a + b`` (wrapping, or saturating when requested)."""
        self._execute("add", dst, (a, b),
                      {"saturate": saturate, "signed": signed})

    def sub(self, dst: Dst, a: Src, b: Src, saturate: bool = False,
            signed: bool = True) -> None:
        """``dst = a - b`` (wrapping, or saturating when requested)."""
        self._execute("sub", dst, (a, b),
                      {"saturate": saturate, "signed": signed})

    def avg(self, dst: Dst, a: Src, b: Src, signed: bool = False) -> None:
        """``dst = (a + b) >> 1`` -- the LPF primitive."""
        self._execute("avg", dst, (a, b), {"signed": signed})

    def cmp_gt(self, dst: Dst, a: Src, b: Src, signed: bool = True) -> None:
        """``dst = (a > b) ? 1 : 0`` per lane (borrow-derived mask)."""
        self._execute("cmp_gt", dst, (a, b), {"signed": signed})

    def logic_and(self, dst: Dst, a: Src, b: Src) -> None:
        """Bitwise AND (in-array when both operands are rows)."""
        self._execute("logic_and", dst, (a, b), {})

    def logic_or(self, dst: Dst, a: Src, b: Src) -> None:
        """Bitwise OR."""
        self._execute("logic_or", dst, (a, b), {})

    def logic_xor(self, dst: Dst, a: Src, b: Src) -> None:
        """Bitwise XOR."""
        self._execute("logic_xor", dst, (a, b), {})

    def logic_nor(self, dst: Dst, a: Src, b: Src) -> None:
        """Bitwise NOR -- the native sense-amp output (Fig. 6-a)."""
        self._execute("logic_nor", dst, (a, b), {})

    def shift_lanes(self, dst: Dst, a: Src, pixels: int,
                    signed: bool = False) -> None:
        """Shift by whole lanes: lane ``i`` receives lane ``i + pixels``.

        Positive shifts bring in right-hand neighbours (the "<< 1pix"
        of Fig. 2); vacated lanes are zero-filled.
        """
        self._execute("shift_lanes", dst, (a,),
                      {"pixels": pixels, "signed": signed})

    def shift_bits(self, dst: Dst, a: Src, amount: int,
                   signed: bool = True) -> None:
        """Shift each lane by ``amount`` bits (positive = left, wrapping;
        negative = right, arithmetic when ``signed``)."""
        self._execute("shift_bits", dst, (a,),
                      {"amount": amount, "signed": signed})

    def copy(self, dst: Dst, src: Src, signed: bool = True) -> None:
        """Move a value through the accumulator unchanged."""
        self._execute("copy", dst, (src,), {"signed": signed})

    # -- composite single-cycle-per-step macros ----------------------------

    def abs_diff(self, dst: Dst, a: Src, b: Src,
                 signed: bool = False) -> None:
        """``dst = |a - b|`` via the carry-extension trick (Fig. 7-a).

        Two accumulator steps: the subtraction that latches the borrow
        mask, then the conditional negation ``(M + N) ^ N``.
        """
        self._execute("abs_diff", dst, (a, b), {"signed": signed})

    def maximum(self, dst: Dst, a: Src, b: Src,
                signed: bool = False) -> None:
        """``dst = max(a, b) = sat0(a - b) + b`` (Fig. 7-b)."""
        self._execute("maximum", dst, (a, b), {"signed": signed})

    def minimum(self, dst: Dst, a: Src, b: Src,
                signed: bool = False) -> None:
        """``dst = min(a, b) = a - sat0(a - b)`` (Fig. 7-b)."""
        self._execute("minimum", dst, (a, b), {"signed": signed})

    # -- multi-cycle ops ----------------------------------------------------

    def mul(self, dst: Dst, a: Src, b: Src, rshift: int = 0,
            saturate: bool = True, signed: bool = True,
            multiplier_bits: Optional[int] = None) -> None:
        """``dst = (a * b) >> rshift`` in ``n + 2`` cycles (Fig. 7-c).

        The full 2n-bit product is formed MSB-first in the accumulator;
        ``rshift`` realigns fixed-point products (for example Q1.15 x
        Q4.12 with ``rshift=15`` yields Q4.12).  The narrowed result
        saturates by default, wraps otherwise.

        ``multiplier_bits`` shortens the MSB-first loop when operand
        ``b`` is known to be narrower than the lane (e.g. 16-bit Q14.2
        Jacobians multiplied inside 32-bit Q29.3 accumulation lanes):
        the loop runs one step per multiplier bit, so cycles become
        ``multiplier_bits + 2``.  The values of ``b`` are checked
        against the declared width.
        """
        self._execute("mul", dst, (a, b),
                      {"rshift": rshift, "saturate": saturate,
                       "signed": signed,
                       "multiplier_bits": multiplier_bits})

    def div(self, dst: Dst, a: Src, b: Src, lshift: int = 0,
            signed: bool = True) -> None:
        """``dst = (a << lshift) / b`` in ``n + 2`` cycles (Fig. 7-d).

        Restoring division on magnitudes with sign fix-up (C-style
        truncation); ``lshift`` pre-scales the numerator for fixed-point
        quotients.  Division by zero saturates toward the signed bound.
        """
        self._execute("div", dst, (a, b),
                      {"lshift": lshift, "signed": signed})

    # -- recorded-program replay -------------------------------------------

    def run_program(self, program, base_rows: Sequence[int],
                    mode: str = "auto") -> None:
        """Replay a recorded program once per base row.

        Args:
            program: A :class:`~repro.pim.program.PIMProgram`.
            base_rows: Row indices substituted for the program's
                :class:`~repro.pim.isa.Rel` operands, one replay each,
                in order.
            mode: ``"auto"`` runs the compiled plan (see
                :mod:`repro.pim.lowering`) when it is provably
                equivalent and falls back to eager on a hazard;
                ``"eager"`` forces one-by-one replay through the
                ordinary micro-op methods (the reference).

        Compiled execution performs the recorded ops across all base
        rows at once and charges the ledger in O(1) (program aggregate
        x number of bases).  Memory contents, Tmp registers, ledger
        totals and (when tracing) the trace stream are identical to
        the eager path; the program's hazard analysis plus the
        base-row checks below guarantee it, and equivalence tests pin
        it.

        Every call records its decision in the metrics registry
        (``pim_replay_total{mode=...}``; auto-mode fallbacks also bump
        ``pim_replay_fallback_total{reason=...}`` with the hazard rule
        that fired, see :meth:`batch_rejection_reason`) and, when
        tracing, runs under a ``run_program:<name>`` span carrying the
        same attributes -- plus, on a compiled run, the plan's section
        compute dtypes (``lane_dtypes``, see
        :attr:`~repro.pim.lowering.CompiledPlan.lane_dtypes`).
        """
        if mode not in ("auto", "eager"):
            raise ValueError(f"unknown replay mode {mode!r}")
        if program.config_digest != self.config.digest():
            raise ValueError(
                "program was recorded for a different device geometry")
        bases = _as_rows(base_rows)
        if not bases.size:
            return
        if mode == "eager":
            reason: Optional[str] = "mode-forced-eager"
        else:
            reason = self.batch_rejection_reason(program, bases)
        executed = "eager" if reason is not None else "compiled"
        registry = get_registry()
        registry.counter(
            "pim_replay_total",
            "run_program calls by executed replay mode").inc(
                mode=executed)
        if mode == "auto" and reason is not None:
            registry.counter(
                "pim_replay_fallback_total",
                "auto-mode compiled->eager fallbacks by hazard rule"
            ).inc(reason=reason)
        tracer = get_tracer()
        if not tracer.enabled:
            self._replay(program, bases, reason is None)
            return
        attrs = {"program": program.name, "bases": int(bases.size),
                 "requested_mode": mode, "executed_mode": executed}
        if reason is not None:
            attrs["fallback_reason"] = reason
        with tracer.span(f"run_program:{program.name}", device=self,
                         category="replay", **attrs) as span:
            plan = self._replay(program, bases, reason is None)
            if plan is not None:
                span.set_attr("lane_dtypes", plan.lane_dtypes)

    def _replay(self, program, bases: np.ndarray, compiled: bool):
        """:meth:`run_program`'s replay; returns the plan it ran, if
        compiled."""
        self.set_precision(program.initial_precision)
        if not compiled:
            for base in bases.tolist():
                program.replay(self, base)
            return None
        from repro.pim.lowering import compiled_plan
        plan = compiled_plan(program, self.config)
        self._replay_compiled(program, plan, bases)
        return plan

    def _replay_compiled(self, program, plan,
                         bases: np.ndarray) -> None:
        """Execute a lowered plan with the O(1) aggregate charge."""
        reps = int(bases.size)
        self.ledger.charge_program(program.aggregate, reps)
        if CLOCK.enabled and self._advances_clock:
            CLOCK.advance(program.aggregate.cycles * reps)
        plan.execute(self, bases)
        if self._trace_enabled:
            self._emit_program_trace(program, bases)

    def batch_rejection_reason(self, program,
                               bases: Sequence[int]) -> Optional[str]:
        """Why compiled replay is not provably eager-equivalent (None =
        it is).

        The structural half (:attr:`PIMProgram.batchable`) covers
        relative-operand and register hazards; the rest checks the
        properties only known at replay time: bases strictly
        increasing (eager order equals row order) and no collision
        between absolute rows and the rows addressed relatively.
        A program whose relative op order is *not* provably safe can
        still run compiled when the bases are spread further apart
        than the program's relative footprint (disjoint footprints
        cannot alias across elements).

        With a single base row the cross-element hazards vanish.  The
        compiled executor's section caches then hold exactly one
        element per slot: a read before the slot's first write loads
        the pre-state (memory, register, or the byte carrier of an
        earlier section), every later read returns the cached last
        write, and that lone element is what gets written back --
        eager visibility, op by op.  With no second base there is no
        minimum gap, so distinct relative offsets never alias and no
        cached relative read is stale.  Hence the ``registers_ok`` and
        ``rel_order_safe`` structural checks are skipped.  The
        fault-injection and abs/rel aliasing checks still apply:
        absolute and relative slots are cached under different keys
        and relative writes are scattered only at section boundaries,
        so an absolute read of a relatively-written row could
        otherwise observe stale memory.

        Returns the name of the first hazard rule that fired --
        ``"fault-injection-active"``, ``"bases-not-increasing"``,
        ``"precision-switch-mid-program"``,
        ``"register-reuse-hazard"``, ``"rel-aliasing-within-span"``,
        ``"abs-write-aliases-rel-row"`` or
        ``"abs-read-aliases-rel-write"`` -- so auto-mode fallbacks
        are attributable instead of silent.

        The fault rule is evaluated on every call; the verdict of the
        rules after it is kept on the program
        (:attr:`~repro.pim.program.PIMProgram.admission_memo`), keyed
        by ``num_rows`` and the bases.

        Rules are checked in that order, and an :class:`IndexError`
        for bases that address rows outside the array is raised after
        the span rule and before the two aliasing rules.  Each check
        works in array form, with no per-base Python loop: the order
        and span rules on ``np.diff`` of the bases, the row range on
        the end bases (sorted by then), and the aliasing rules by a
        binary search of each ``row - offset`` in the bases.
        """
        if self._fault_injector is not None and \
                self._fault_injector.transient:
            # Transient read errors must hit each per-row read in
            # eager order so the seeded draw sequence is well defined;
            # the compiled plan reads memory wholesale and would skip
            # the corruption hook.
            return "fault-injection-active"
        bases = np.asarray(bases, dtype=np.int64)
        # Every later rule reads only the immutable program, the bases
        # and num_rows, so its verdict is kept per program.
        memo = program.admission_memo
        key = (self.config.num_rows, bases.tobytes())
        reason = memo.get(key, False)
        if reason is False:
            reason = self._structural_rejection(program, bases)
            if len(memo) < _ADMISSION_MEMO_SIZE:
                memo[key] = reason
        return reason

    def _structural_rejection(self, program,
                              bases: np.ndarray) -> Optional[str]:
        """:meth:`batch_rejection_reason` after its fault rule."""
        multi = bases.size > 1
        min_gap = int(np.diff(bases).min()) if multi else 0
        if multi and min_gap <= 0:
            return "bases-not-increasing"
        if multi and not program.precision_stable:
            # Eager replay is base-major: a precision switch recorded
            # after a compute op persists into the next base's replay
            # of the earlier ops, so op-major execution would compute
            # (and charge) those ops at the wrong precision.
            return "precision-switch-mid-program"
        if multi and not program.registers_ok:
            return "register-reuse-hazard"
        if multi and not program.rel_order_safe and \
                min_gap <= program.rel_span:
            return "rel-aliasing-within-span"
        offsets = program.rel_read_offsets | program.rel_write_offsets
        if bases.size and offsets and (
                int(bases[0]) + min(offsets) < 0 or
                int(bases[-1]) + max(offsets) >= self.config.num_rows):
            raise IndexError(
                f"program addresses rows outside "
                f"[0, {self.config.num_rows}) for these bases")
        if _alias_hit(bases, program.abs_write_rows, offsets):
            return "abs-write-aliases-rel-row"
        if _alias_hit(bases, program.abs_read_rows,
                      program.rel_write_offsets):
            return "abs-read-aliases-rel-write"
        return None

    def _emit_program_trace(self, program, bases: np.ndarray) -> None:
        """Emit the eager-identical trace stream for a vectorized run."""
        for base in bases:
            for op in program.ops:
                for step, cost in zip(op.plan, op.costs):
                    self._append_trace(TraceRecord(
                        kind=step.kind, precision=cost.precision,
                        cycles=cost.cycles,
                        dst=self._resolved_name(step.dst, base),
                        srcs=tuple(self._resolved_name(s, base)
                                   for s in step.srcs),
                        note=step.note))

    @classmethod
    def _resolved_name(cls, operand, base: int) -> str:
        if isinstance(operand, Rel):
            return f"r{base + int(operand)}"
        return cls._name(operand)


class BitPIMDevice(_DeviceCore):
    """Bit-true reference device built on the slice accumulator.

    Supports the same micro-ops as :class:`PIMDevice` (minus the
    fixed-point ``rshift``/``lshift`` conveniences) but computes through
    the explicit bit datapath: sense-amp logic for AND/OR/XOR, gated
    slice carries for add/sub, and the genuine iterative algorithms of
    Fig. 7 for absolute difference, min/max, multiplication and
    division.  Intended for small configurations in equivalence tests.
    """

    def __init__(self, config: PIMConfig = PIMConfig(wordline_bits=64,
                                                     num_rows=16),
                 trace: bool = False,
                 max_trace: Optional[int] = None):
        super().__init__(config, trace, max_trace)
        self.sram = BitSRAM(config.num_rows, config.wordline_bits)
        self.acc = SliceAccumulator(config.wordline_bits, config.slice_bits)
        self._tmp_bits = [np.zeros(config.wordline_bits, dtype=np.uint8)
                          for _ in range(config.num_tmp_registers)]

    # -- bit-level operand plumbing --------------------------------------

    def _to_unsigned(self, vals: np.ndarray) -> np.ndarray:
        vals = np.asarray(vals, dtype=np.int64)
        if self._precision >= 64:
            return vals.view(np.uint64).copy()
        mask = (1 << self._precision) - 1
        return (vals & mask).astype(np.uint64)

    def _from_unsigned(self, u: np.ndarray, signed: bool) -> np.ndarray:
        vals = u.astype(np.int64)
        return ops.wrap(vals, self._precision, signed) if signed else vals

    def _read_bits(self, src: Src) -> np.ndarray:
        if isinstance(src, Imm):
            u = self._to_unsigned(np.full(self.lanes, int(src.value)))
            return lanes_to_bits(u, self._precision,
                                 self.config.wordline_bits)
        if isinstance(src, _TmpSentinel):
            return self._tmp_bits[src.index].copy()
        return self.sram.read_row(src)

    def _write_bits(self, dst: Dst, bits: np.ndarray) -> None:
        if isinstance(dst, _TmpSentinel):
            self._tmp_bits[dst.index] = np.asarray(bits,
                                                   dtype=np.uint8).copy()
        else:
            self.sram.write_row(dst, bits)

    def _lanes_of(self, bits: np.ndarray, signed: bool) -> np.ndarray:
        return self._from_unsigned(
            bits_to_lanes(bits, self._precision), signed)

    def _bits_of(self, vals: np.ndarray) -> np.ndarray:
        return lanes_to_bits(self._to_unsigned(vals), self._precision,
                             self.config.wordline_bits)

    # -- host DMA ---------------------------------------------------------

    def load(self, row: int, values, signed: bool = True) -> None:
        """Host DMA: write lane values into a row."""
        vals = np.asarray(values, dtype=np.int64).ravel()
        full = np.zeros(self.lanes, dtype=np.int64)
        full[:vals.size] = vals
        self.sram.write_row(row, self._bits_of(full))
        self.ledger.charge_host_transfer()

    def store(self, row: int, signed: bool = True) -> np.ndarray:
        """Host DMA: read a row back as lane values."""
        self.ledger.charge_host_transfer()
        return self._lanes_of(self.sram.read_row(row), signed)

    def read_tmp(self, signed: bool = True, index: int = 0) -> np.ndarray:
        """Host debug view of a Tmp register (no charge)."""
        return self._lanes_of(self._tmp_bits[index], signed)

    # -- micro-ops through the slice datapath ------------------------------

    def _saturate_from_masks(self, sum_bits: np.ndarray, va: np.ndarray,
                             vb: np.ndarray, subtract: bool,
                             signed: bool) -> np.ndarray:
        """Apply the saturation unit to a raw accumulator result.

        The hardware decides saturation from the carry-extension mask
        and the operand sign bits; functionally that equals clamping the
        wide-precision result, which is what we compute here from the
        already-available lane values.
        """
        wide = va - vb if subtract else va + vb
        return self._bits_of(ops.saturate(wide, self._precision, signed))

    def add(self, dst: Dst, a: Src, b: Src, saturate: bool = False,
            signed: bool = True) -> None:
        """``dst = a + b`` through the slice adder."""
        a_bits, b_bits = self._read_bits(a), self._read_bits(b)
        self._charge(OpKind.ADD, (a, b), dst)
        result = self.acc.add(a_bits, b_bits, self._precision)
        out = result.sum_bits
        if saturate:
            out = self._saturate_from_masks(
                out, self._lanes_of(a_bits, signed),
                self._lanes_of(b_bits, signed), False, signed)
        self._write_bits(dst, out)

    def sub(self, dst: Dst, a: Src, b: Src, saturate: bool = False,
            signed: bool = True) -> None:
        """``dst = a - b`` via two's complement through the slice adder."""
        a_bits, b_bits = self._read_bits(a), self._read_bits(b)
        self._charge(OpKind.SUB, (a, b), dst)
        result = self.acc.subtract(a_bits, b_bits, self._precision)
        out = result.sum_bits
        if saturate:
            out = self._saturate_from_masks(
                out, self._lanes_of(a_bits, signed),
                self._lanes_of(b_bits, signed), True, signed)
        self._write_bits(dst, out)

    def avg(self, dst: Dst, a: Src, b: Src, signed: bool = False) -> None:
        """``dst = (a + b) >> 1`` -- slice add, then the carry mask
        supplies the shifted-out ninth bit."""
        a_bits, b_bits = self._read_bits(a), self._read_bits(b)
        self._charge(OpKind.AVG, (a, b), dst)
        result = self.acc.add(a_bits, b_bits, self._precision)
        vals = bits_to_lanes(result.sum_bits, self._precision).astype(
            np.int64)
        vals |= result.carry_mask.astype(np.int64) << self._precision
        if signed:
            sa = self._lanes_of(a_bits, True)
            sb = self._lanes_of(b_bits, True)
            vals = (sa + sb)
        self._write_bits(dst, self._bits_of(vals >> 1))

    def cmp_gt(self, dst: Dst, a: Src, b: Src, signed: bool = True) -> None:
        """``dst = a > b`` from the borrow mask of ``b - a``."""
        a_bits, b_bits = self._read_bits(a), self._read_bits(b)
        self._charge(OpKind.CMP_GT, (a, b), dst)
        if signed:
            mask = (self._lanes_of(a_bits, True) >
                    self._lanes_of(b_bits, True)).astype(np.int64)
        else:
            # not-borrow of (b - a) is 1 when b >= a; invert for a > b.
            result = self.acc.subtract(b_bits, a_bits, self._precision)
            mask = 1 - result.carry_mask.astype(np.int64)
        self._write_bits(dst, self._bits_of(mask))

    def logic_and(self, dst: Dst, a: Src, b: Src) -> None:
        """In-array AND when both operands are rows, else gate logic."""
        self._charge(OpKind.AND, (a, b), dst)
        if isinstance(a, int) and isinstance(b, int):
            self._write_bits(dst, self.sram.bitline_and(a, b))
        else:
            self._write_bits(dst, self._read_bits(a) & self._read_bits(b))

    def logic_or(self, dst: Dst, a: Src, b: Src) -> None:
        """In-array OR (NOT NOR) when both operands are rows."""
        self._charge(OpKind.OR, (a, b), dst)
        if isinstance(a, int) and isinstance(b, int):
            self._write_bits(dst, self.sram.bitline_or(a, b))
        else:
            self._write_bits(dst, self._read_bits(a) | self._read_bits(b))

    def logic_xor(self, dst: Dst, a: Src, b: Src) -> None:
        """In-array XOR (NOR of the two SA outputs) for row operands."""
        self._charge(OpKind.XOR, (a, b), dst)
        if isinstance(a, int) and isinstance(b, int):
            self._write_bits(dst, self.sram.bitline_xor(a, b))
        else:
            self._write_bits(dst, self._read_bits(a) ^ self._read_bits(b))

    def logic_nor(self, dst: Dst, a: Src, b: Src) -> None:
        """In-array NOR -- the second sense amplifier of Fig. 6-a."""
        self._charge(OpKind.NOR, (a, b), dst)
        if isinstance(a, int) and isinstance(b, int):
            self._write_bits(dst, self.sram.bitline_nor(a, b))
        else:
            self._write_bits(
                dst, 1 - (self._read_bits(a) | self._read_bits(b)))

    def shift_lanes(self, dst: Dst, a: Src, pixels: int,
                    signed: bool = False) -> None:
        """Shift the word line by whole lanes through the shifter."""
        bits = self._read_bits(a)
        self._charge(OpKind.SHIFT_LANES, (a,), dst, f"{pixels}pix")
        self._write_bits(
            dst, self.acc.shift_lanes(bits, pixels, self._precision))

    def shift_bits(self, dst: Dst, a: Src, amount: int,
                   signed: bool = True) -> None:
        """Shift each lane by ``amount`` bits (left positive)."""
        bits = self._read_bits(a)
        self._charge(OpKind.SHIFT_BITS, (a,), dst, f"{amount}b")
        if amount >= 0:
            vals = self._lanes_of(bits, signed)
            out = ops.shift_left(vals, amount, self._precision, signed)
            self._write_bits(dst, self._bits_of(out))
        else:
            self._write_bits(dst, self.acc.shift_bits_right(
                bits, -amount, self._precision, arithmetic=signed))

    def copy(self, dst: Dst, src: Src, signed: bool = True) -> None:
        """Move a value through the accumulator unchanged."""
        bits = self._read_bits(src)
        self._charge(OpKind.COPY, (src,), dst)
        self._write_bits(dst, bits)

    def abs_diff(self, dst: Dst, a: Src, b: Src,
                 signed: bool = False) -> None:
        """Fig. 7-a executed literally on the bit datapath."""
        a_bits, b_bits = self._read_bits(a), self._read_bits(b)
        self._charge(OpKind.SUB, (a, b), TMP, "absdiff:diff")
        self._charge(OpKind.XOR, (TMP,), dst, "absdiff:neg")
        diff = self.acc.subtract(a_bits, b_bits, self._precision)
        # N: all-ones in lanes whose difference is negative.  For
        # unsigned lanes that is the borrow (carry-out 0); for signed
        # lanes the saturation unit uses the signed comparison instead.
        if signed:
            negative = (self._lanes_of(a_bits, True) <
                        self._lanes_of(b_bits, True)).astype(np.uint64)
        else:
            negative = 1 - diff.carry_mask.astype(np.uint64)
        n_mask_vals = negative * ((1 << self._precision) - 1)
        n_bits = lanes_to_bits(n_mask_vals, self._precision,
                               self.config.wordline_bits)
        plus_n = self.acc.add(diff.sum_bits, n_bits, self._precision)
        out = plus_n.sum_bits ^ n_bits
        self._write_bits(dst, out)

    def maximum(self, dst: Dst, a: Src, b: Src,
                signed: bool = False) -> None:
        """``max(a, b) = sat0(a - b) + b`` on the bit datapath."""
        a_bits, b_bits = self._read_bits(a), self._read_bits(b)
        self._charge(OpKind.SUB, (a, b), TMP, "max:satsub")
        self._charge(OpKind.ADD, (TMP, b), dst, "max:add")
        diff = self._sat0_diff(a_bits, b_bits, signed)
        out = self.acc.add(diff, b_bits, self._precision)
        self._write_bits(dst, out.sum_bits)

    def minimum(self, dst: Dst, a: Src, b: Src,
                signed: bool = False) -> None:
        """``min(a, b) = a - sat0(a - b)`` on the bit datapath."""
        a_bits, b_bits = self._read_bits(a), self._read_bits(b)
        self._charge(OpKind.SUB, (a, b), TMP, "min:satsub")
        self._charge(OpKind.SUB, (a, TMP), dst, "min:sub")
        diff = self._sat0_diff(a_bits, b_bits, signed)
        out = self.acc.subtract(a_bits, diff, self._precision)
        self._write_bits(dst, out.sum_bits)

    def _sat0_diff(self, a_bits: np.ndarray, b_bits: np.ndarray,
                   signed: bool) -> np.ndarray:
        """``max(a - b, 0)`` as bits, via the borrow/sign masks."""
        diff = self.acc.subtract(a_bits, b_bits, self._precision)
        if signed:
            negative = (self._lanes_of(a_bits, True) <
                        self._lanes_of(b_bits, True))
        else:
            negative = diff.carry_mask == 0  # borrowed
        vals = bits_to_lanes(diff.sum_bits, self._precision)
        vals = np.where(negative, np.uint64(0), vals)
        return lanes_to_bits(vals, self._precision,
                             self.config.wordline_bits)

    def mul(self, dst: Dst, a: Src, b: Src, rshift: int = 0,
            saturate: bool = True, signed: bool = True) -> None:
        """MSB-first shift-add multiplication (Fig. 7-c), bit-level.

        Negative operands are inverted before and the product sign
        restored after, as the paper prescribes.  The double-width
        product is accumulated lane-locally, then ``rshift`` and the
        narrowing to lane width are applied by the shifter/saturation
        unit.
        """
        n = self._precision
        va = self._lanes_of(self._read_bits(a), signed)
        vb = self._lanes_of(self._read_bits(b), signed)
        self._charge(OpKind.MUL, (a, b), dst, f">>{rshift}")
        mag_a = np.abs(va).astype(np.uint64)
        mag_b = np.abs(vb).astype(np.uint64)
        # The genuine MSB-first loop: shift partial product left, add the
        # multiplicand where the current multiplier bit is set.
        partial = np.zeros_like(mag_a)
        for bit in range(n - 1, -1, -1):
            partial = partial << np.uint64(1)
            take = (mag_b >> np.uint64(bit)) & np.uint64(1)
            partial = partial + mag_a * take
        if signed or n >= 64:
            prod = partial.astype(np.int64)
            neg = (va < 0) ^ (vb < 0)
            prod = np.where(neg, -prod, prod) >> rshift
        else:
            # The exact 2n-bit unsigned product can exceed int64 at
            # n = 32; keep it in uint64 (wrap/saturate narrow it).
            prod = partial >> np.uint64(rshift)
        out = ops.saturate(prod, n, signed) if saturate else \
            ops.wrap(prod, n, signed)
        self._write_bits(dst, self._bits_of(out))

    def div(self, dst: Dst, a: Src, b: Src, lshift: int = 0,
            signed: bool = True) -> None:
        """Restoring division (Fig. 7-d), bit-level.

        ``lshift`` is unsupported here (word-level only); quotient bits
        are developed MSB-first into the LSBs while the partial
        remainder lives in the Tmp register.
        """
        if lshift:
            raise NotImplementedError(
                "BitPIMDevice models plain n-bit division only")
        n = self._precision
        va = self._lanes_of(self._read_bits(a), signed)
        vb = self._lanes_of(self._read_bits(b), signed)
        self._charge(OpKind.DIV, (a, b), dst)
        # Magnitudes develop in uint64: |INT64_MIN| does not exist in
        # int64, and the restoring loop's partial remainder is unsigned
        # in the hardware anyway.
        ua = va.astype(np.uint64)
        ub = vb.astype(np.uint64)
        num = np.where(va < 0, ~ua + np.uint64(1), ua)
        den = np.where(vb < 0, ~ub + np.uint64(1), ub)
        remainder = np.zeros_like(num)
        quotient = np.zeros_like(num)
        for bit in range(n - 1, -1, -1):
            remainder = (remainder << np.uint64(1)) | \
                ((num >> np.uint64(bit)) & np.uint64(1))
            ok = (remainder >= den) & (den > np.uint64(0))
            remainder = np.where(ok, remainder - den, remainder)
            quotient = (quotient << np.uint64(1)) | ok.astype(np.uint64)
        neg = (va < 0) ^ (vb < 0)
        quotient = np.where(neg, ~quotient + np.uint64(1),
                            quotient).astype(np.int64)
        # 64-bit lanes take the signed bounds regardless of view (the
        # int64 host bound; see repro.fixedpoint.ops._bounds).
        _, hi = (-(1 << (n - 1)), (1 << (n - 1)) - 1) \
            if signed or n >= 64 else (0, (1 << n) - 1)
        overflow = np.where(va >= 0, hi, -hi if signed else hi)
        quotient = np.where(vb == 0, overflow, quotient)
        self._write_bits(dst, self._bits_of(
            ops.saturate(quotient, n, signed)))
