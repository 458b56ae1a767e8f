"""Program capture and replay for the word-level PIM device.

A kernel's per-row body is usually identical for every row it
processes; driving :class:`~repro.pim.device.PIMDevice` one Python
micro-op at a time therefore re-interprets the same op stream hundreds
of times per frame.  This module captures the body *once* and replays
it for many rows at a cost of one numpy operation per recorded op:

* :class:`ProgramRecorder` exposes the full ``PIMDevice`` micro-op
  surface but records a :class:`PIMProgram` instead of executing.
  Row operands are either absolute ``int`` rows or base-relative
  :class:`~repro.pim.isa.Rel` offsets, resolved at replay time.
* :meth:`PIMDevice.run_program` replays a program for a list of base
  rows -- through the compiled plan of :mod:`repro.pim.lowering`,
  vectorized across all rows at once, when the program's hazard
  analysis proves that equivalent, eagerly otherwise -- and charges the
  :class:`~repro.pim.cost.CostLedger` in O(1) per replay (the recorded
  aggregate times the number of base rows).
* :class:`ProgramCache` is a small LRU keyed by
  ``(kernel, shape, precision, config digest)`` so a frontend compiles
  each kernel once per pyramid level and replays it every frame.

Compiled replay is *bit-exact and cost-exact*: memory state, ledger
totals and trace streams match the eager per-row path.  The hazard
rules that make this provable are documented on
:attr:`PIMProgram.batchable`.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.pim.config import DEFAULT_CONFIG, PIMConfig
from repro.pim.cost import CostLedger
from repro.pim.device import _DeviceCore, _read_signedness
from repro.pim.isa import (
    ChargeStep,
    Dst,
    Imm,
    Rel,
    Src,
    StepCost,
    _TmpSentinel,
    charge_plan,
    step_cost,
)

__all__ = ["PIMProgram", "ProgramOp", "ProgramRecorder", "ProgramCache",
           "Rel", "program_key"]


@dataclass(frozen=True)
class ProgramOp:
    """One recorded micro-op (or the ``set_precision`` pseudo-op).

    Attributes:
        method: Device-surface method name (``"add"``, ``"mul"``, ...).
        dst: Destination operand as recorded (``Rel``, ``int`` or Tmp).
        srcs: Source operands as recorded.
        kwargs: The method's keyword arguments, fully resolved.
        precision: Lane width active when the op was recorded.
        plan: The op's accumulator steps (cost choreography).
        costs: Each step priced at the recorded precision.
    """

    method: str
    dst: object
    srcs: Tuple
    kwargs: dict
    precision: int
    plan: Tuple[ChargeStep, ...]
    costs: Tuple[StepCost, ...]

    def resolve(self, operand, base: int):
        """Materialize one operand for a given base row."""
        if isinstance(operand, Rel):
            return int(base + int(operand))
        return operand


def _first_access_ok(ops: List[ProgramOp], key_of) -> bool:
    """True when every written resource is written before it is read.

    ``key_of`` maps an operand to a hashable resource key (or ``None``
    to ignore it).  Resources that are only ever read are fine -- every
    replay sees the same pre-program state.  Resources that are written
    get a private per-base copy during compiled replay, which is only
    equivalent to sequential replay if no base reads another base's
    leftover state: i.e. the first access within the program must be a
    write.
    """
    written = set()
    ever_written = set()
    for op in ops:
        key = key_of(op.dst)
        if key is not None:
            ever_written.add(key)
    for op in ops:
        for src in op.srcs:
            key = key_of(src)
            if key is not None and key in ever_written and \
                    key not in written:
                return False
        key = key_of(op.dst)
        if key is not None:
            written.add(key)
    return True


def _rel_hazards_ok(ops: List[ProgramOp]) -> bool:
    """Check relative-operand aliasing between base rows.

    Eager replay runs bases in ascending order, so for strictly
    increasing bases a write at offset ``w`` and a read at offset ``r``
    of *different* rows alias across neighbouring bases exactly when
    their offsets differ.  Matching visibility between the element-major
    eager order and the op-major vectorized order requires:

    * ``w > r`` (the writer runs on an *earlier* base): the write is
      visible eagerly, so the vectorized write must precede the read --
      write op strictly before read op.
    * ``w < r`` (the writer runs on a *later* base): the write is not
      visible eagerly, so the vectorized write must not precede the
      read (same-op is safe: vectorized ops gather before they
      scatter).
    * two writes at offsets ``w1`` (earlier op) and ``w2`` (later op)
      collide across bases when ``w2 > w1``; the vectorized final value
      would come from the later op while eager leaves the earlier op's
      value from a later base.
    """
    writes = [(p, int(op.dst)) for p, op in enumerate(ops)
              if isinstance(op.dst, Rel)]
    reads = [(q, int(s)) for q, op in enumerate(ops)
             for s in op.srcs if isinstance(s, Rel)]
    for p, w in writes:
        for q, r in reads:
            if w > r and p >= q:
                return False
            if w < r and p < q:
                return False
    for i, (p, w1) in enumerate(writes):
        for q, w2 in writes[i + 1:]:
            if p < q and w2 > w1:
                return False
    return True


@dataclass(frozen=True)
class PIMProgram:
    """An immutable recorded op stream with its aggregate cost.

    Produced by :meth:`ProgramRecorder.finish`; executed by
    :meth:`PIMDevice.run_program`.  The aggregate ledger holds exactly
    what one eager replay charges, so ``aggregate x len(base_rows)`` is
    the O(1) compiled charge.
    """

    name: str
    ops: Tuple[ProgramOp, ...]
    initial_precision: int
    aggregate: CostLedger
    config_digest: str
    batchable: bool = field(init=False)
    registers_ok: bool = field(init=False)
    rel_order_safe: bool = field(init=False)
    precision_stable: bool = field(init=False)
    rel_read_offsets: FrozenSet[int] = field(init=False)
    rel_write_offsets: FrozenSet[int] = field(init=False)
    abs_read_rows: FrozenSet[int] = field(init=False)
    abs_write_rows: FrozenSet[int] = field(init=False)

    def __post_init__(self) -> None:
        body = [op for op in self.ops if op.method != "set_precision"]
        object.__setattr__(self, "rel_read_offsets", frozenset(
            int(s) for op in body for s in op.srcs
            if isinstance(s, Rel)))
        object.__setattr__(self, "rel_write_offsets", frozenset(
            int(op.dst) for op in body if isinstance(op.dst, Rel)))
        object.__setattr__(self, "abs_read_rows", frozenset(
            int(s) for op in body for s in op.srcs
            if isinstance(s, int) and not isinstance(s, Rel)))
        object.__setattr__(self, "abs_write_rows", frozenset(
            int(op.dst) for op in body
            if isinstance(op.dst, int) and not isinstance(op.dst, Rel)))
        tmp_ok = _first_access_ok(
            body, lambda o: ("tmp", o.index)
            if isinstance(o, _TmpSentinel) else None)
        abs_ok = _first_access_ok(
            body, lambda o: ("row", int(o))
            if isinstance(o, int) and not isinstance(o, Rel) else None)
        object.__setattr__(self, "registers_ok", tmp_ok and abs_ok)
        object.__setattr__(self, "rel_order_safe", _rel_hazards_ok(body))
        # Eager replay is base-major: a set_precision recorded after a
        # compute op persists into the next base's replay of the ops
        # before it, which op-major (vectorized) execution cannot
        # reproduce.  Leading switches are safe -- replay resets to
        # initial_precision, so every base sees them before computing.
        seen_compute = False
        stable = True
        for op in self.ops:
            if op.method == "set_precision":
                if seen_compute:
                    stable = False
                    break
            else:
                seen_compute = True
        object.__setattr__(self, "precision_stable", stable)
        object.__setattr__(self, "batchable",
                           tmp_ok and abs_ok and self.rel_order_safe)
        #: ``(num_rows, bases bytes) -> reason`` of
        #: :meth:`PIMDevice.batch_rejection_reason`'s replay-time rules,
        #: which depend on nothing else.  Not a field.
        object.__setattr__(self, "admission_memo", {})

    @property
    def rel_span(self) -> int:
        """Width of the relative footprint (max offset - min offset).

        When consecutive base rows are further apart than this span the
        footprints of different bases cannot alias, so compiled replay is
        equivalent even without :attr:`rel_order_safe` (the per-element
        op order is preserved; only cross-element visibility could
        differ, and disjoint footprints rule it out).
        """
        offsets = self.rel_read_offsets | self.rel_write_offsets
        if not offsets:
            return 0
        return max(offsets) - min(offsets)

    def row_footprint(self, base: int = 0) -> FrozenSet[int]:
        """Absolute SRAM rows one replay at ``base`` touches.

        Relative offsets are resolved against ``base``; absolute rows
        are included as-is.  This is the introspection hook the
        :mod:`repro.sim` timing model uses to derive a replay's bank
        footprint without re-interpreting the op stream.
        """
        rel = self.rel_read_offsets | self.rel_write_offsets
        return (frozenset(int(base) + off for off in rel)
                | self.abs_read_rows | self.abs_write_rows)

    def banks_touched(self, config, bases) -> FrozenSet[int]:
        """Banks of ``config`` touched when replaying over ``bases``."""
        rows = set()
        for base in bases:
            rows.update(self.row_footprint(int(base)))
        return config.banks_of_rows(rows)

    def __len__(self) -> int:
        return sum(1 for op in self.ops
                   if op.method != "set_precision")

    def replay(self, device, base: int) -> None:
        """Eagerly replay once for ``base`` through the device surface.

        Every micro-op goes through the ordinary device methods, so
        execution, cost accounting and tracing are the device's own --
        this path *is* the equivalence reference for compiled replay.
        """
        for op in self.ops:
            if op.method == "set_precision":
                device.set_precision(op.kwargs["precision"])
                continue
            dst = op.resolve(op.dst, base)
            srcs = tuple(op.resolve(s, base) for s in op.srcs)
            getattr(device, op.method)(dst, *srcs, **op.kwargs)


class ProgramRecorder(_DeviceCore):
    """Records the device micro-op surface into a :class:`PIMProgram`.

    Drop-in for :class:`~repro.pim.device.PIMDevice` inside a kernel's
    row body: the same calls that would execute ops instead append them
    to the program, while the recorder's own ledger accumulates the
    aggregate cost through the exact same
    :func:`~repro.pim.isa.charge_plan` / ``step_cost`` pipeline the
    device uses.  Row operands may be absolute ``int`` rows or
    base-relative :class:`~repro.pim.isa.Rel` offsets; host DMA
    (``load``/``store``) is deliberately absent -- transfers stay
    outside programs, matching the paper's exclusion of I/O from cycle
    counts.
    """

    def __init__(self, config: PIMConfig = DEFAULT_CONFIG,
                 name: str = "program"):
        super().__init__(config, trace=False)
        # Recording charges are compile-time aggregates, not execution:
        # they must not advance the observability cycle clock.
        self._advances_clock = False
        self.name = name
        self._ops: List[ProgramOp] = []
        self._initial_precision = self._precision
        self._finished = False

    # -- recording plumbing ---------------------------------------------

    def _record(self, method: str, dst: Dst, srcs: Tuple[Src, ...],
                kwargs: dict) -> None:
        if self._finished:
            raise RuntimeError(
                "recorder already finished; start a new one")
        self._validate(dst, srcs, _read_signedness(method, kwargs))
        plan = charge_plan(method, dst, srcs, **kwargs)
        costs = tuple(step_cost(s, self._precision) for s in plan)
        for step in plan:
            self._charge_step(step)
        self._ops.append(ProgramOp(method, dst, tuple(srcs),
                                   dict(kwargs), self._precision,
                                   plan, costs))

    def _validate(self, dst, srcs, signed: bool) -> None:
        for operand in (dst, *srcs):
            if isinstance(operand, Imm):
                self._check_imm(operand, signed)
            elif isinstance(operand, _TmpSentinel):
                if not 0 <= operand.index < \
                        self.config.num_tmp_registers:
                    raise IndexError(
                        f"tmp register {operand.index} out of range "
                        f"[0, {self.config.num_tmp_registers})")
            elif isinstance(operand, Rel):
                if abs(int(operand)) >= self.config.num_rows:
                    raise IndexError(
                        f"relative offset {int(operand)} can never be "
                        f"in range [0, {self.config.num_rows})")
            else:
                if not 0 <= int(operand) < self.config.num_rows:
                    raise IndexError(
                        f"row {operand} out of range "
                        f"[0, {self.config.num_rows})")

    def set_precision(self, precision: int) -> None:
        """Record a lane-width switch (free, like on the device)."""
        super().set_precision(precision)
        self._ops.append(ProgramOp("set_precision", None, (),
                                   {"precision": precision}, precision,
                                   (), ()))

    def finish(self) -> PIMProgram:
        """Freeze the recording into an immutable program."""
        self._finished = True
        return PIMProgram(name=self.name, ops=tuple(self._ops),
                          initial_precision=self._initial_precision,
                          aggregate=self.ledger.snapshot(),
                          config_digest=self.config.digest())

    # -- the recorded micro-op surface ----------------------------------

    def add(self, dst: Dst, a: Src, b: Src, saturate: bool = False,
            signed: bool = True) -> None:
        """Record ``dst = a + b``."""
        self._record("add", dst, (a, b),
                     {"saturate": saturate, "signed": signed})

    def sub(self, dst: Dst, a: Src, b: Src, saturate: bool = False,
            signed: bool = True) -> None:
        """Record ``dst = a - b``."""
        self._record("sub", dst, (a, b),
                     {"saturate": saturate, "signed": signed})

    def avg(self, dst: Dst, a: Src, b: Src,
            signed: bool = False) -> None:
        """Record ``dst = (a + b) >> 1``."""
        self._record("avg", dst, (a, b), {"signed": signed})

    def cmp_gt(self, dst: Dst, a: Src, b: Src,
               signed: bool = True) -> None:
        """Record ``dst = (a > b) ? 1 : 0``."""
        self._record("cmp_gt", dst, (a, b), {"signed": signed})

    def logic_and(self, dst: Dst, a: Src, b: Src) -> None:
        """Record a bitwise AND."""
        self._record("logic_and", dst, (a, b), {})

    def logic_or(self, dst: Dst, a: Src, b: Src) -> None:
        """Record a bitwise OR."""
        self._record("logic_or", dst, (a, b), {})

    def logic_xor(self, dst: Dst, a: Src, b: Src) -> None:
        """Record a bitwise XOR."""
        self._record("logic_xor", dst, (a, b), {})

    def logic_nor(self, dst: Dst, a: Src, b: Src) -> None:
        """Record a bitwise NOR."""
        self._record("logic_nor", dst, (a, b), {})

    def shift_lanes(self, dst: Dst, a: Src, pixels: int,
                    signed: bool = False) -> None:
        """Record a whole-lane shift."""
        self._record("shift_lanes", dst, (a,),
                     {"pixels": pixels, "signed": signed})

    def shift_bits(self, dst: Dst, a: Src, amount: int,
                   signed: bool = True) -> None:
        """Record an in-lane bit shift."""
        self._record("shift_bits", dst, (a,),
                     {"amount": amount, "signed": signed})

    def copy(self, dst: Dst, src: Src, signed: bool = True) -> None:
        """Record an accumulator move."""
        self._record("copy", dst, (src,), {"signed": signed})

    def abs_diff(self, dst: Dst, a: Src, b: Src,
                 signed: bool = False) -> None:
        """Record ``dst = |a - b|`` (two accumulator steps)."""
        self._record("abs_diff", dst, (a, b), {"signed": signed})

    def maximum(self, dst: Dst, a: Src, b: Src,
                signed: bool = False) -> None:
        """Record ``dst = max(a, b)`` (two accumulator steps)."""
        self._record("maximum", dst, (a, b), {"signed": signed})

    def minimum(self, dst: Dst, a: Src, b: Src,
                signed: bool = False) -> None:
        """Record ``dst = min(a, b)`` (two accumulator steps)."""
        self._record("minimum", dst, (a, b), {"signed": signed})

    def mul(self, dst: Dst, a: Src, b: Src, rshift: int = 0,
            saturate: bool = True, signed: bool = True,
            multiplier_bits: Optional[int] = None) -> None:
        """Record ``dst = (a * b) >> rshift``."""
        self._record("mul", dst, (a, b),
                     {"rshift": rshift, "saturate": saturate,
                      "signed": signed,
                      "multiplier_bits": multiplier_bits})

    def div(self, dst: Dst, a: Src, b: Src, lshift: int = 0,
            signed: bool = True) -> None:
        """Record ``dst = (a << lshift) / b``."""
        self._record("div", dst, (a, b),
                     {"lshift": lshift, "signed": signed})


def program_key(kernel: str, shape, precision: int,
                config: PIMConfig) -> Tuple:
    """Canonical cache key: kernel, shape, precision, config digest."""
    if isinstance(shape, (list, tuple)):
        shape = tuple(int(s) for s in shape)
    return (kernel, shape, int(precision), config.digest())


class ProgramCache:
    """A small LRU of compiled :class:`PIMProgram` objects.

    Keys are caller-chosen tuples, canonically built by
    :func:`program_key` so a change of kernel, image shape, lane width
    or device geometry can never replay a stale program.

    Hit/miss accounting lives in the process-wide metrics registry
    (``program_cache_hits_total`` / ``program_cache_misses_total``,
    labelled with the cache's ``name``); :attr:`hits` / :attr:`misses`
    are read-only views over those counters and :meth:`stats` bundles
    the full snapshot.

    Thread-safety: every structural operation (lookup recency bump,
    insert, eviction, clear, stats) holds an internal lock, so one
    cache can back many device-pool workers
    (:class:`repro.serve.pool.DevicePool`) concurrently.  A concurrent
    :meth:`get_or_record` miss on the same key may record the program
    more than once; the first insert wins and the duplicates are
    dropped, so callers always replay one canonical program object.
    """

    _instances = itertools.count(1)

    def __init__(self, capacity: int = 64, name: Optional[str] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: Label distinguishing this cache's metric series.  Anonymous
        #: caches get a unique one so instances never share counts.
        self.name = name if name is not None else \
            f"cache-{next(self._instances)}"
        registry = get_registry()
        self._hits = registry.counter(
            "program_cache_hits_total",
            "ProgramCache lookups that found a compiled program")
        self._misses = registry.counter(
            "program_cache_misses_total",
            "ProgramCache lookups that required recording")
        self._evictions = registry.counter(
            "program_cache_evictions_total",
            "ProgramCache entries dropped by LRU capacity pressure")
        self._recordings = registry.counter(
            "program_recorded_total",
            "Programs recorded from scratch (memory and store missed)")
        self._hits_base = float(self._hits.value(cache=self.name))
        self._misses_base = float(self._misses.value(cache=self.name))
        self._evictions_base = float(
            self._evictions.value(cache=self.name))
        self._lock = threading.RLock()
        self._programs: "OrderedDict[Tuple, PIMProgram]" = OrderedDict()
        self._store = None

    @property
    def hits(self) -> int:
        """Hit count since creation/:meth:`clear` (registry-backed)."""
        return int(self._hits.value(cache=self.name) - self._hits_base)

    @property
    def misses(self) -> int:
        """Miss count since creation/:meth:`clear` (registry-backed)."""
        return int(self._misses.value(cache=self.name) -
                   self._misses_base)

    @property
    def evictions(self) -> int:
        """LRU evictions since creation/:meth:`clear`."""
        return int(self._evictions.value(cache=self.name) -
                   self._evictions_base)

    @property
    def store(self):
        """The attached :class:`~repro.pim.store.ProgramStore` or None."""
        return self._store

    def attach_store(self, store) -> None:
        """Layer a persistent :class:`~repro.pim.store.ProgramStore`.

        Once attached, :meth:`get_or_record` consults the store on a
        memory miss before re-recording, and writes fresh recordings
        through, so a later process (or a pool of workers sharing the
        directory) warm-starts without recording anything.
        """
        self._store = store

    def stats(self) -> Dict[str, object]:
        """Point-in-time snapshot: hits, misses, size, capacity, rate."""
        hits, misses = self.hits, self.misses
        lookups = hits + misses
        with self._lock:
            size = len(self._programs)
            store = self._store
        stats = {
            "name": self.name,
            "hits": hits,
            "misses": misses,
            "evictions": self.evictions,
            "recorded": int(self._recordings.value(cache=self.name)),
            "size": size,
            "capacity": self.capacity,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
        if store is not None:
            stats["store"] = store.stats()
        return stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._programs

    def get(self, key) -> Optional[PIMProgram]:
        """Look up a program, refreshing its recency; None on miss."""
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self._programs.move_to_end(key)
        if program is None:
            self._misses.inc(cache=self.name)
            return None
        self._hits.inc(cache=self.name)
        return program

    def put(self, key, program: PIMProgram) -> None:
        """Insert (or refresh) a program, evicting the oldest entry."""
        with self._lock:
            self._programs[key] = program
            self._programs.move_to_end(key)
            while len(self._programs) > self.capacity:
                self._programs.popitem(last=False)
                self._evictions.inc(cache=self.name)

    def get_or_record(self, key, config: PIMConfig,
                      build: Callable[[ProgramRecorder], None],
                      name: Optional[str] = None) -> PIMProgram:
        """Return the cached program for ``key``, recording on miss.

        ``build`` receives a fresh :class:`ProgramRecorder` and records
        the kernel body into it; the finished program is cached and
        returned.  Recording happens outside the lock (it can take
        milliseconds), so two threads missing on the same key may both
        record -- the first insert wins and both callers get the
        canonical cached object.

        With a store attached (:meth:`attach_store`), a memory miss
        first tries the persistent layer; only a miss in *both* layers
        records (counted by ``program_recorded_total``), and the fresh
        recording is written through to disk.
        """
        program = self.get(key)
        if program is None:
            store = self._store
            if store is not None:
                program = store.load(key, config)
            recorded = program is None
            if recorded:
                recorder = ProgramRecorder(config,
                                           name=name or str(key[0]))
                build(recorder)
                program = recorder.finish()
                self._recordings.inc(cache=self.name)
            with self._lock:
                existing = self._programs.get(key)
                if existing is not None:
                    self._programs.move_to_end(key)
                    program = existing
                else:
                    self.put(key, program)
            if recorded and store is not None and program is not None:
                store.save(key, program)
        return program

    def clear(self) -> None:
        """Drop every cached program and zero this cache's hit/miss view.

        The registry counters themselves stay monotonic (metrics never
        go down); the cache keeps a baseline so :attr:`hits` /
        :attr:`misses` restart from zero.
        """
        with self._lock:
            self._programs.clear()
            self._hits_base = float(self._hits.value(cache=self.name))
            self._misses_base = float(
                self._misses.value(cache=self.name))
