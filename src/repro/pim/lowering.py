"""Compiled replay: lower :class:`~repro.pim.program.PIMProgram` IR to
fused NumPy execution plans.

Interpreting a recorded op stream costs one bytes -> int64 unpack,
one :func:`repro.pim.device._compute` dispatch and one pack per op;
the byte<->int64 conversions dominate (the arithmetic itself is a
fraction of the cost).  This module compiles the IR *once* into a
:class:`CompiledPlan`, the vectorized tier of
:meth:`PIMDevice.run_program` (eager replay is the other, and the
reference):

* the op stream is split into *sections* at ``set_precision``
  boundaries; within a section every slot (Tmp register, relative
  offset, absolute row) is cached as an unsigned lane *pattern* array
  in a narrow compute dtype (int16 for 8-bit lanes, int32 for 16-bit,
  int64 above), so values flow op-to-op without ever round-tripping
  through row bytes;
* each op is specialized at compile time into a closure with its
  kwargs, masks and dtype escalations baked in.  Ops whose exact
  semantics are risky to re-derive (division always; multiplication at
  widths whose exact product exceeds int64; extreme bit shifts)
  fall back to converting their operands to int64 and calling the very
  same :func:`~repro.pim.device._compute` eager replay uses, so
  divergence is impossible by construction;
* dirty slots are flushed to SRAM bytes only at section boundaries and
  at the end of the plan, and the last base's value of each Tmp
  register and absolute row is written back -- what sequential eager
  replay leaves behind.

Equivalence contract: executing a plan leaves memory, Tmp registers and
the trace stream bit-identical to eager replay whenever
:meth:`PIMDevice.batch_rejection_reason` returns ``None`` -- the hazard
precondition, plus the bind-time minimum base gap rule below for
relative-operand visibility.  Ledger charging
is not done here at all: :meth:`PIMDevice.run_program` keeps the O(1)
``aggregate x reps`` charge, so cycles/energy stay bit-exact trivially.

Relative-operand visibility.  Within a section a write to offset ``w``
is cached, not scattered.  A later gather of offset ``r`` could then
see stale memory if the row sets ``bases + w`` and ``bases + r``
intersect.  Rows can only collide across *different* bases, and base
differences are at least the minimum adjacent gap of the (sorted)
bases, so ``|w - r| < min_gap`` proves disjointness -- the warp kernel
(stride 10, span 9) never flushes.  Otherwise the plan conservatively
scatters all dirty relative slots before the gather and drops cached
reads that may have been overwritten.

Lowering is total: an op that cannot be proven exactly hand-lowerable
becomes a fallback closure around ``_compute`` (counted in
:attr:`CompiledPlan.fallback_ops`), so :func:`compiled_plan` returns a
plan for every program the recorder accepts.  An immediate outside
int64 -- only a tampered stored program can hold one -- raises
``ValueError``, as eager replay does.

``numba.njit`` is used opportunistically when the package is
importable (it is not a dependency): the hot unsigned saturating-add
kernel is jitted, everything else is pure NumPy.  Results are
identical either way; :data:`NUMBA_VERSION` records what the build
used so benchmark stamps are attributable.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import get_registry
from repro.pim.device import (
    _check_multiplier,
    _compute,
    _read_signedness,
)
from repro.pim.isa import Imm, Rel, _TmpSentinel

__all__ = ["CompiledPlan", "compiled_plan", "NUMBA_VERSION"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    NUMBA_VERSION: Optional[str] = numba.__version__

    @numba.njit(cache=True)
    def _njit_sat_add_u(a, b, hi):  # pragma: no cover
        out = np.empty_like(a)
        for i in range(a.size):
            s = a.flat[i] + b.flat[i]
            out.flat[i] = hi if s > hi else s
        return out
except ImportError:  # numba is optional; pure NumPy is the default
    NUMBA_VERSION = None
    _njit_sat_add_u = None

_LANE_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}

#: Narrowest signed dtype that holds an n-bit pattern plus the headroom
#: the hand-lowered ops need (one add/sub of two lane values).
_COMPUTE_DTYPES = {8: np.int16, 16: np.int32, 32: np.int64, 64: np.int64}

_DTYPE_BITS = {np.int16: 16, np.int32: 32, np.int64: 64}

#: Ops whose packed result depends only on the inputs modulo ``2**n``:
#: for these, pattern-space inputs need no sign conversion.
_MODN_METHODS = frozenset((
    "logic_and", "logic_or", "logic_xor", "logic_nor",
    "shift_lanes", "copy",
))


class _Unsupported(Exception):
    """Raised during lowering when an op cannot be proven exact."""


# -- pattern <-> bytes ------------------------------------------------------

def _unpack_pattern(raw: np.ndarray, n: int, D) -> np.ndarray:
    """Row bytes -> unsigned lane patterns in compute dtype ``D``.

    At 64-bit lane width the "pattern" is the int64 bit
    reinterpretation, which is also the semantic value (the unsigned
    view is host-bound signed, see :func:`repro.fixedpoint.ops.wrap`).
    """
    lanes = raw.view(_LANE_DTYPES[n])
    if n < 64:
        return lanes.astype(D)
    return lanes.view(np.int64).astype(np.int64, copy=True)


def _pack_pattern(pat: np.ndarray, n: int) -> np.ndarray:
    """Lane patterns -> row bytes, mirroring ``PIMDevice._pack``."""
    if n < 64:
        return np.ascontiguousarray(pat).astype(
            _LANE_DTYPES[n]).view(np.uint8)
    return np.ascontiguousarray(pat).view(np.uint64).astype(
        "<u8").view(np.uint8)


def _to_signed(pat: np.ndarray, n: int) -> np.ndarray:
    """Pattern -> two's-complement signed value, in the same dtype."""
    if n >= 64:
        return pat
    sign_bit = pat.dtype.type(1 << (n - 1))
    return pat - ((pat & sign_bit) << 1)


# -- slot keys --------------------------------------------------------------

def _slot_key(operand) -> Optional[Tuple[str, int]]:
    if isinstance(operand, _TmpSentinel):
        return ("t", operand.index)
    if isinstance(operand, Rel):
        return ("r", int(operand))
    if isinstance(operand, int):
        return ("a", int(operand))
    return None  # Imm


# -- execution state --------------------------------------------------------

class _Exec:
    """Per-execution state: slot caches, dirty tracking, carriers."""

    __slots__ = ("device", "bases", "reps", "min_gap", "n", "D",
                 "lanes", "vals", "dirty", "rel_seq", "_seq",
                 "carriers")

    def __init__(self, device, bases: np.ndarray, min_gap: Optional[int]):
        self.device = device
        self.bases = bases
        self.reps = int(bases.size)
        #: Smallest gap between adjacent (sorted) bases; None means a
        #: single base -- no cross-base aliasing is possible at all.
        self.min_gap = min_gap
        self.n = 0
        self.D = np.int64
        self.lanes = 0
        self.vals: Dict[Tuple[str, int], np.ndarray] = {}
        self.dirty: Dict[Tuple[str, int], bool] = {}
        self.rel_seq: Dict[int, int] = {}
        self._seq = 0
        #: Byte images of written Tmp/abs slots, one row per base,
        #: carried across precision sections (reinterpretation happens
        #: on bytes, exactly as eager replay's register/row state).
        self.carriers: Dict[Tuple[str, int], np.ndarray] = {}

    # -- section lifecycle ------------------------------------------

    def begin_section(self, n: int, lanes: int, D) -> None:
        self.n = n
        self.lanes = lanes
        self.D = D

    def end_section(self) -> None:
        self.flush_rel()
        for key, is_dirty in self.dirty.items():
            if is_dirty and key[0] in ("t", "a"):
                packed = _pack_pattern(self.vals[key], self.n)
                packed = packed.reshape(self.reps, -1)
                carrier = self.carriers.get(key)
                if carrier is None:
                    self.carriers[key] = np.ascontiguousarray(packed)
                else:
                    carrier[:] = packed
        self.vals.clear()
        self.dirty.clear()

    def finalize(self) -> None:
        """Last-base-wins write-back, identical to eager replay."""
        for key, carrier in self.carriers.items():
            kind, index = key
            if kind == "t":
                self.device._tmp[index][:] = carrier[-1]
            else:
                self.device._mem[index][:] = carrier[-1]

    # -- relative-operand visibility --------------------------------

    def _conflicts(self, off: int, other: int) -> bool:
        return self.min_gap is not None and \
            abs(off - other) >= self.min_gap

    def flush_rel(self) -> None:
        """Scatter every dirty relative slot, in op order of last write."""
        if not self.rel_seq:
            return
        for off in sorted(self.rel_seq, key=self.rel_seq.get):
            key = ("r", off)
            self.device._mem[self.bases + off] = _pack_pattern(
                self.vals[key], self.n).reshape(self.reps, -1)
            self.dirty[key] = False
        self.rel_seq.clear()

    # -- slot access ------------------------------------------------

    def load(self, key: Tuple[str, int]) -> np.ndarray:
        kind, index = key
        dev = self.device
        if kind == "r":
            if any(self._conflicts(index, off) for off in self.rel_seq):
                self.flush_rel()
            raw = dev._mem[self.bases + index]
            pat = _unpack_pattern(raw, self.n, self.D)
        else:
            carrier = self.carriers.get(key)
            if carrier is not None:
                pat = _unpack_pattern(carrier, self.n, self.D)
            else:
                base = dev._tmp[index] if kind == "t" else dev._mem[index]
                pat = np.broadcast_to(
                    _unpack_pattern(base, self.n, self.D),
                    (self.reps, self.lanes))
        self.vals[key] = pat
        self.dirty[key] = False
        return pat

    def get(self, key: Tuple[str, int]) -> np.ndarray:
        pat = self.vals.get(key)
        if pat is None:
            pat = self.load(key)
        return pat

    def put(self, key: Tuple[str, int], pat: np.ndarray) -> None:
        self.vals[key] = pat
        self.dirty[key] = True
        if key[0] == "r":
            off = key[1]
            self._seq += 1
            self.rel_seq[off] = self._seq
            # A cached (clean) slot whose rows may have been
            # overwritten by this write must be re-gathered after the
            # eventual flush; dirty slots keep their (correct, proven
            # by the hazard rules) cached value.
            for other_key in list(self.vals):
                if other_key[0] == "r" and other_key[1] != off and \
                        not self.dirty.get(other_key) and \
                        self._conflicts(off, other_key[1]):
                    del self.vals[other_key]
                    self.dirty.pop(other_key, None)


# -- op lowering ------------------------------------------------------------

def _imm_value(src: Imm) -> int:
    return int(src.value)


def _src_reader(src, n: int, D, sign_convert: bool,
                imm_semantic: bool, mask: int):
    """Compile one source operand into ``reader(ex) -> array``.

    ``sign_convert`` turns cached patterns into two's-complement
    signed values (needed by sign-sensitive ops under a signed read;
    unsigned patterns already *are* their semantic values).
    ``imm_semantic`` keeps an immediate's raw value instead of its
    masked pattern -- eager replay broadcasts ``np.full(src.value)``
    to every value-sensitive op, and compiled execution must agree.
    An immediate outside int64 raises ``ValueError``: no tier can
    broadcast it, and the recorder never accepts one.
    """
    if isinstance(src, Imm):
        value = _imm_value(src)
        if not -(1 << 63) <= value < (1 << 63):
            raise ValueError(f"immediate {value} exceeds int64")
        if imm_semantic or n >= 64:
            const = np.array(value, dtype=D)
        else:
            const = np.array(value & mask, dtype=D)
        return lambda ex: const
    key = _slot_key(src)
    if sign_convert and n < 64:
        return lambda ex: _to_signed(ex.get(key), n)
    return lambda ex: ex.get(key)


def _broadcast2d(a: np.ndarray, ex: _Exec) -> np.ndarray:
    if a.ndim < 2:
        return np.broadcast_to(a, (ex.reps, ex.lanes))
    return a


def _lower_op(op, n: int, lanes: int):
    """Compile one recorded op into a ``step(ex)`` closure.

    The returned closure reads its sources from the slot cache,
    computes the op in the section's compute dtype, and stores the
    destination as a masked pattern.  Raises :class:`_Unsupported`
    when exactness cannot be guaranteed by hand-lowering; the caller
    then falls back to a closure around the interpreted
    :func:`~repro.pim.device._compute`.
    """
    method, kw = op.method, op.kwargs
    D = _COMPUTE_DTYPES[n]
    mask = (1 << n) - 1
    mask_d = D(mask) if n < 64 else None
    signed = bool(kw.get("signed", True))
    read_signed = _read_signedness(method, kw)
    semantic = method not in _MODN_METHODS and not (
        method == "shift_bits" and kw["amount"] >= 0)
    readers = tuple(
        _src_reader(s, n, D, semantic and read_signed, semantic, mask)
        for s in op.srcs)
    dst_key = _slot_key(op.dst)

    def emit(ex: _Exec, res: np.ndarray) -> None:
        if mask_d is not None:
            res = res & mask_d
            if res.dtype != D:
                res = res.astype(D)
        if res.ndim < 2:
            res = _broadcast2d(res, ex)
        ex.put(dst_key, res)

    if method in ("add", "sub"):
        sat = bool(kw.get("saturate"))
        sub = method == "sub"
        if sat:
            if n >= 64:
                raise _Unsupported("64-bit saturation wraps host-side")
            lo = -(1 << (n - 1)) if signed else 0
            hi = (1 << (n - 1)) - 1 if signed else mask
            use_njit = _njit_sat_add_u is not None and not signed \
                and not sub

            def step(ex):
                a, b = readers[0](ex), readers[1](ex)
                if use_njit and a.ndim == 2 and b.ndim == 2:
                    emit(ex, _njit_sat_add_u(
                        np.ascontiguousarray(a),
                        np.ascontiguousarray(b), D(hi)))
                    return
                s = a - b if sub else a + b
                emit(ex, np.clip(s, lo, hi))
        else:
            def step(ex):
                a, b = readers[0](ex), readers[1](ex)
                emit(ex, a - b if sub else a + b)
        return step

    if method == "avg":
        def step(ex):
            emit(ex, (readers[0](ex) + readers[1](ex)) >> 1)
        return step

    if method == "cmp_gt":
        def step(ex):
            emit(ex, (readers[0](ex) > readers[1](ex)).astype(D))
        return step

    if method.startswith("logic_"):
        nor = method == "logic_nor"
        fn = {"logic_and": np.bitwise_and, "logic_or": np.bitwise_or,
              "logic_xor": np.bitwise_xor,
              "logic_nor": np.bitwise_or}[method]

        def step(ex):
            res = fn(readers[0](ex), readers[1](ex))
            emit(ex, ~res if nor else res)
        return step

    if method == "shift_lanes":
        pixels = int(kw["pixels"])

        def step(ex):
            a = _broadcast2d(readers[0](ex), ex)
            out = np.zeros((ex.reps, lanes), dtype=D)
            if pixels == 0:
                out[...] = a
            elif pixels > 0:
                out[..., :-pixels or None] = a[..., pixels:]
            else:
                out[..., -pixels:] = a[..., :pixels]
            ex.put(dst_key, out)
        return step

    if method == "shift_bits":
        amount = int(kw["amount"])
        if amount >= 0:
            # Left shift is mod-2**n safe on patterns, but needs
            # n + amount + 1 bits of headroom for exactness.
            if n + amount < _DTYPE_BITS[D]:
                def step(ex):
                    emit(ex, readers[0](ex) << amount)
            elif n + amount <= 62:
                def step(ex):
                    emit(ex, readers[0](ex).astype(np.int64) << amount)
            else:
                raise _Unsupported("left shift exceeds int64 headroom")
        else:
            # Patterns are non-negative below 64 bits, so a plain >>
            # is the logical shift; signed values shift arithmetically;
            # at 64 bits both eager branches reduce to int64 >>.
            def step(ex):
                emit(ex, readers[0](ex) >> -amount)
        return step

    if method == "copy":
        def step(ex):
            a = readers[0](ex)
            ex.put(dst_key, _broadcast2d(a, ex) if a.ndim < 2 else a)
        return step

    if method == "abs_diff":
        if n < 64:
            # The compute dtype has headroom, so the difference never
            # wraps and the borrow formula reduces to plain |a - b|.
            def step(ex):
                emit(ex, np.abs(readers[0](ex) - readers[1](ex)))
        else:
            # int64 differences can wrap; mirror the eager borrow
            # formula bit for bit ((m + neg) ^ neg with neg from the
            # operand comparison, not the wrapped difference's sign).
            def step(ex):
                a, b = readers[0](ex), readers[1](ex)
                m = a - b
                neg = np.where(a < b, D(-1), D(0))
                emit(ex, (m + neg) ^ neg)
        return step

    if method in ("maximum", "minimum"):
        fn = np.maximum if method == "maximum" else np.minimum

        def step(ex):
            emit(ex, fn(readers[0](ex), readers[1](ex)))
        return step

    if method == "mul":
        rshift = int(kw.get("rshift", 0))
        saturate = bool(kw.get("saturate", True))
        multiplier_bits = kw.get("multiplier_bits")
        if n >= 64:
            imm_lo, imm_hi = -(1 << 63), (1 << 63) - 1
        elif signed:
            imm_lo, imm_hi = -(1 << (n - 1)), (1 << (n - 1)) - 1
        else:
            imm_lo, imm_hi = 0, mask
        for src in op.srcs:
            if isinstance(src, Imm) and \
                    not imm_lo <= _imm_value(src) <= imm_hi:
                # Out-of-lane-range immediates make ops.multiply
                # raise; route through _compute for the identical
                # exception.
                raise _Unsupported("immediate outside lane range")
        if n >= 64:
            W = np.int64  # eager's int64 product wraps identically
        elif n == 8 or (n == 16 and signed):
            W = np.int32
        elif n == 32 and not signed:
            raise _Unsupported("exact u32 product exceeds int64")
        else:
            W = np.int64
        lo = -(1 << (n - 1)) if signed or n >= 64 else 0
        hi = ((1 << (n - 1)) - 1) if signed or n >= 64 else mask

        def step(ex):
            a, b = readers[0](ex), readers[1](ex)
            if multiplier_bits is not None:
                _check_multiplier(b, multiplier_bits, signed)
            prod = a.astype(W) * b.astype(W) if W != a.dtype \
                else a * b
            if rshift:
                prod = prod >> rshift
            if n >= 64:
                emit(ex, prod)
            elif saturate:
                emit(ex, np.clip(prod, lo, hi))
            else:
                emit(ex, prod & W(mask))
        return step

    # div (restoring-division corner cases) and anything new fall
    # through to the interpreted single-op semantics.
    raise _Unsupported(method)


def _lower_fallback(op, n: int):
    """Exact-by-construction closure around the interpreted semantics."""
    method, kw = op.method, op.kwargs
    D = _COMPUTE_DTYPES[n]
    mask = (1 << n) - 1
    read_signed = _read_signedness(method, kw)
    readers = tuple(_src_reader(s, n, D, read_signed, True, mask)
                    for s in op.srcs)
    dst_key = _slot_key(op.dst)
    signed = bool(kw.get("signed", True))

    def step(ex: _Exec) -> None:
        vals = tuple(np.asarray(r(ex), dtype=np.int64)
                     for r in readers)
        if method == "mul":
            _check_multiplier(vals[1], kw.get("multiplier_bits"),
                              signed)
        res = _compute(method, n, vals, kw)
        if n < 64:
            res = (np.asarray(res, dtype=np.int64) & mask).astype(D)
        else:
            res = np.asarray(res, dtype=np.int64)
        ex.put(dst_key, _broadcast2d(res, ex)
               if res.ndim < 2 else res)
    return step


# -- the plan ---------------------------------------------------------------

class _Section:
    __slots__ = ("precision", "lanes", "dtype", "steps")

    def __init__(self, precision: int, lanes: int):
        self.precision = precision
        self.lanes = lanes
        self.dtype = _COMPUTE_DTYPES[precision]
        self.steps: List[Callable[[_Exec], None]] = []


class CompiledPlan:
    """A PIMProgram lowered to per-section fused NumPy closures.

    Immutable after construction; one plan serves any number of
    executions on any device with the program's geometry (the plan
    holds no device state -- all per-run state lives in the private
    :class:`_Exec` context).
    """

    def __init__(self, program, config) -> None:
        self.name = program.name
        self.final_precision = program.initial_precision
        self.sections: List[_Section] = []
        self.fallback_ops = 0
        section = _Section(program.initial_precision,
                           config.lanes(program.initial_precision))
        self.sections.append(section)
        precision = program.initial_precision
        for op in program.ops:
            if op.method == "set_precision":
                new = int(op.kwargs["precision"])
                if new != precision:
                    precision = new
                    section = _Section(new, config.lanes(new))
                    self.sections.append(section)
                self.final_precision = new
                continue
            try:
                step = _lower_op(op, precision, section.lanes)
            except _Unsupported:
                step = _lower_fallback(op, precision)
                self.fallback_ops += 1
            section.steps.append(step)

    @property
    def num_ops(self) -> int:
        return sum(len(s.steps) for s in self.sections)

    def execute(self, device, bases: np.ndarray) -> None:
        """Run the plan; bit-identical to eager replay.

        The caller (``run_program``) has already verified the hazard
        precondition and charged the ledger aggregate.
        """
        if bases.size > 1:
            min_gap = int(np.diff(bases).min())
        else:
            min_gap = None
        ex = _Exec(device, bases, min_gap)
        for section in self.sections:
            ex.begin_section(section.precision, section.lanes,
                             section.dtype)
            for step in section.steps:
                step(ex)
            ex.end_section()
        ex.finalize()
        device.set_precision(self.final_precision)


def compiled_plan(program, config) -> CompiledPlan:
    """The memoized compiled plan for a program.

    The plan is cached on the program object itself
    (``object.__setattr__`` on the frozen dataclass, the same pattern
    its ``__post_init__`` uses), so a program cached in a
    :class:`~repro.pim.program.ProgramCache` -- or persisted and
    reloaded through a :class:`~repro.pim.store.ProgramStore` -- is
    compiled at most once per process.  Compile time and hit/miss
    counts go to the metrics registry (``pim_plan_compile_seconds``,
    ``pim_plan_cache_{hits,misses}_total``).
    """
    plan = getattr(program, "_compiled_plan", None)
    registry = get_registry()
    if plan is not None:
        registry.counter(
            "pim_plan_cache_hits_total",
            "Compiled-plan lookups served from the per-program memo"
        ).inc()
        return plan
    registry.counter(
        "pim_plan_cache_misses_total",
        "Compiled-plan lookups that required lowering").inc()
    start = time.perf_counter()
    built = CompiledPlan(program, config)
    registry.histogram(
        "pim_plan_compile_seconds",
        "Wall-clock seconds spent lowering PIMPrograms",
        bounds=(0.0001, 0.001, 0.01, 0.1, 1.0)).observe(
            time.perf_counter() - start)
    object.__setattr__(program, "_compiled_plan", built)
    return built
