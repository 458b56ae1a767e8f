"""Hierarchical span tracing on the simulated-cycle timeline.

A *span* covers one phase of work (an LPF pass, an LM iteration, a
whole frame).  When a span is opened with a ``device``, the tracer
snapshots the device's :class:`~repro.pim.cost.CostLedger` on entry and
computes the delta on exit, so the span carries exactly the cycles,
SRAM/Tmp accesses and energy charged inside it.  Because the ledger is
the single source of cost truth, leaf spans tile their parent: the sum
of leaf-span cycle deltas over a frame equals the device ledger's total
for that frame, which is what makes the Fig. 10-style attribution
tables exact rather than sampled.

Timestamps come from :data:`CLOCK`, a process-wide simulated-cycle
clock advanced by the instrumented devices' charge hooks
(:meth:`repro.pim.device._DeviceCore._charge_step`).  Using one shared
clock keeps the timeline monotone even when several devices interleave
(the tracker runs one detect device per pyramid level).

Tracing is **disabled by default** and then a true no-op: ``span()``
returns a shared null context manager and the device hook is a single
attribute check, so results and ledger state are bit-identical to an
uninstrumented run.

Thread-safety: the span stack is thread-local; finished spans and span
id allocation are guarded by a lock; each span records its thread so
exporters can lay out one track per thread.

Cross-thread trees: a span opened with an explicit ``parent``
(:class:`~repro.obs.context.TraceContext`) joins that remote tree
instead of the local stack top, and :meth:`Tracer.begin` opens a
detached :class:`~repro.obs.context.SpanHandle` that can be finished
from any thread -- see :mod:`repro.obs.context`.  Every span carries a
``trace_id`` (its root's span id), so one request's spans can be
collected afterwards with :meth:`Tracer.spans_for_trace`.

Finished spans live in a bounded ring (``max_spans``): when a long run
overflows it, the oldest spans are dropped, a one-line warning is
emitted on the first drop, and every drop is counted in the
``obs_tracer_spans_dropped_total`` metric so silent span loss under
heavy load is visible.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.obs.context import NULL_HANDLE, SpanHandle, TraceContext

__all__ = [
    "CLOCK", "SimClock", "Span", "Tracer",
    "annotate", "current_span", "disable_tracing", "enable_tracing",
    "get_tracer", "set_tracer", "span", "tracing_enabled",
]

log = logging.getLogger(__name__)


class SimClock:
    """Process-wide simulated-cycle clock.

    Instrumented devices advance it by every cycle they charge (the
    per-step hook in eager execution, one aggregate bump in compiled
    replay), but only while ``enabled`` -- the flag keeps the
    uninstrumented hot path to a single attribute check.
    """

    __slots__ = ("enabled", "_cycles")

    def __init__(self) -> None:
        self.enabled = False
        self._cycles = 0

    def advance(self, cycles: int) -> None:
        """Advance the clock by ``cycles`` simulated cycles."""
        self._cycles += int(cycles)

    def now(self) -> int:
        """Current simulated-cycle timestamp."""
        return self._cycles

    def reset(self) -> None:
        """Rewind to cycle zero (start of a new trace)."""
        self._cycles = 0


#: The shared simulated-cycle clock the device charge hooks advance.
CLOCK = SimClock()


@dataclass
class Span:
    """One finished span with its cost attribution.

    Attributes:
        name: Span label (``"lpf"``, ``"frame"``, ...).
        category: Coarse grouping for exporters (``"kernel"``,
            ``"frame"``, ``"vo"``, ``"replay"``, ``"serve"``...).
        span_id: Unique id, allocated in start order.
        parent_id: Enclosing span's id (None for roots).
        trace_id: Span id of this tree's root (equals ``span_id``
            for a root span) -- shared by every span of one request.
        thread: Native thread id the span ran on.
        ts: Simulated-cycle timestamp at span start (shared clock).
        wall_ts: Host ``perf_counter`` timestamp at span start, for
            the wall-clock export timeline.
        dur: Simulated cycles elapsed on the shared clock.
        cycles: Device-ledger cycle delta (None when no device given).
            Equals ``dur`` when the span's device is the only one
            charging while it is open.
        ledger: The full :class:`~repro.pim.cost.CostLedger` delta
            (None when no device given).
        energy_pj: Energy of the ledger delta under the default model.
        wall_s: Host wall-clock seconds spent in the span.
        attrs: Free-form attributes set at open time or via
            :func:`annotate`.
    """

    name: str
    category: str = ""
    span_id: int = 0
    parent_id: Optional[int] = None
    trace_id: int = 0
    thread: int = 0
    ts: int = 0
    wall_ts: float = 0.0
    dur: int = 0
    cycles: Optional[int] = None
    ledger: Optional[Any] = None
    energy_pj: Optional[float] = None
    wall_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def accesses(self) -> Optional[Dict[str, int]]:
        """Memory accesses of the ledger delta, by category."""
        if self.ledger is None:
            return None
        return {
            "mem_rd": int(self.ledger.sram_reads),
            "mem_wr": int(self.ledger.sram_writes),
            "tmp_reg": int(self.ledger.tmp_accesses),
        }

    def context(self) -> TraceContext:
        """This span as a parent context for cross-thread children."""
        return TraceContext(self.trace_id, self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record (flight-recorder incident bundles)."""
        record: Dict[str, Any] = {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "thread": self.thread,
            "ts": int(self.ts),
            "dur": int(self.dur),
            "wall_ts": float(self.wall_ts),
            "wall_s": float(self.wall_s),
            "attrs": dict(self.attrs),
        }
        if self.cycles is not None:
            record["cycles"] = int(self.cycles)
        if self.energy_pj is not None:
            record["energy_pj"] = float(self.energy_pj)
        if self.ledger is not None:
            record["accesses"] = self.accesses
        return record


class _NullSpan:
    """The shared disabled-tracer context manager (no allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set_attr(self, key: str, value) -> None:
        """No-op attribute setter, mirroring :class:`_ActiveSpan`."""


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager for one live span of an enabled tracer."""

    __slots__ = ("_tracer", "_span", "_device", "_snapshot", "_wall",
                 "_explicit")

    def __init__(self, tracer: "Tracer", span: Span, device,
                 explicit_parent: bool = False) -> None:
        self._tracer = tracer
        self._span = span
        self._device = device
        self._snapshot = None
        self._wall = 0.0
        self._explicit = explicit_parent

    def set_attr(self, key: str, value) -> None:
        """Attach an attribute to the span while it is open."""
        self._span.attrs[key] = value

    @property
    def context(self) -> TraceContext:
        """The open span as a parent context for remote children."""
        return self._span.context()

    def __enter__(self) -> "_ActiveSpan":
        if self._device is not None:
            self._snapshot = self._device.ledger.snapshot()
        self._span.ts = CLOCK.now()
        self._wall = time.perf_counter()
        self._span.wall_ts = self._wall
        self._tracer._push(self._span, explicit=self._explicit)
        return self

    def __exit__(self, *exc) -> None:
        span = self._span
        span.wall_s = time.perf_counter() - self._wall
        span.dur = CLOCK.now() - span.ts
        if self._snapshot is not None:
            delta = self._device.ledger.delta_since(self._snapshot)
            span.ledger = delta
            span.cycles = int(delta.cycles)
            span.energy_pj = float(delta.energy().total_pj)
        self._tracer._pop(span)


class Tracer:
    """Collects spans when enabled; a strict no-op otherwise.

    ``max_spans`` bounds the finished-span ring: a run that outgrows
    it keeps the *newest* spans, warns once, and counts every dropped
    span (``dropped_spans`` and the
    ``obs_tracer_spans_dropped_total`` metric).
    """

    #: Default finished-span ring capacity.
    DEFAULT_MAX_SPANS = 200_000

    def __init__(self, enabled: bool = False,
                 max_spans: Optional[int] = None):
        self.enabled = enabled
        self.max_spans = self.DEFAULT_MAX_SPANS if max_spans is None \
            else int(max_spans)
        if self.max_spans < 1:
            raise ValueError("max_spans must be positive")
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._finished: Deque[Span] = deque(maxlen=self.max_spans)
        self._dropped = 0
        self._drop_warned = False

    # -- lifecycle -------------------------------------------------------

    def enable(self, reset: bool = True) -> None:
        """Turn tracing on (and the device cycle clock with it)."""
        if reset:
            self.reset()
        self.enabled = True
        CLOCK.enabled = True

    def disable(self) -> None:
        """Turn tracing off; collected spans remain readable."""
        self.enabled = False
        CLOCK.enabled = False

    def reset(self) -> None:
        """Drop all finished spans and rewind the cycle clock."""
        with self._lock:
            self._finished = deque(maxlen=self.max_spans)
            self._ids = itertools.count(1)
            self._dropped = 0
            self._drop_warned = False
        CLOCK.reset()

    # -- span API --------------------------------------------------------

    def _new_span(self, name: str, category: str, parent,
                  attrs: Dict[str, Any]) -> Span:
        """Allocate a span record, resolving an explicit parent."""
        with self._lock:
            span_id = next(self._ids)
        record = Span(name=name, category=category, span_id=span_id,
                      thread=threading.get_ident(), attrs=attrs)
        if parent is not None:
            record.parent_id = parent.span_id
            record.trace_id = parent.trace_id or parent.span_id
        return record

    def span(self, name: str, device=None, category: str = "",
             parent: Optional[TraceContext] = None, **attrs):
        """Open a span; returns a context manager.

        Args:
            name: Span label.
            device: Optional PIM device whose ledger delta the span
                should capture (entry/exit snapshots).
            category: Coarse grouping used by exporters.
            parent: Explicit parent (a
                :class:`~repro.obs.context.TraceContext` or
                :class:`Span`) overriding the thread-local stack top
                -- the cross-thread propagation path.  The span still
                pushes onto *this* thread's stack, so nested work
                joins the remote tree automatically.
            **attrs: Initial span attributes.
        """
        if not self.enabled:
            return _NULL_SPAN
        record = self._new_span(name, category, parent, dict(attrs))
        return _ActiveSpan(self, record, device,
                           explicit_parent=parent is not None)

    def begin(self, name: str, category: str = "",
              parent: Optional[TraceContext] = None, **attrs):
        """Open a detached span finishable from any thread.

        Returns a :class:`~repro.obs.context.SpanHandle` (or a shared
        no-op handle while disabled).  The span never joins a thread's
        stack; its parent is ``parent`` (or it roots a new trace).
        """
        if not self.enabled:
            return NULL_HANDLE
        record = self._new_span(name, category, parent, dict(attrs))
        if record.trace_id == 0:
            record.trace_id = record.span_id
        record.ts = CLOCK.now()
        wall = time.perf_counter()
        record.wall_ts = wall
        return SpanHandle(self, record, wall)

    def annotate(self, key: str, value) -> None:
        """Set an attribute on the innermost open span, if any."""
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            stack[-1].attrs[key] = value

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread (None when idle)."""
        if not self.enabled:
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    # -- results ---------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Finished spans in completion order (leaves before parents)."""
        with self._lock:
            return list(self._finished)

    def leaf_spans(self) -> List[Span]:
        """Finished spans that have no finished children."""
        finished = self.spans
        parents = {s.parent_id for s in finished
                   if s.parent_id is not None}
        return [s for s in finished if s.span_id not in parents]

    def roots(self) -> List[Span]:
        """Finished spans with no parent."""
        return [s for s in self.spans if s.parent_id is None]

    def spans_for_trace(self, trace_id: int) -> List[Span]:
        """Finished spans of one trace, in completion order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    @property
    def dropped_spans(self) -> int:
        """Finished spans evicted from the ring since the last reset."""
        with self._lock:
            return self._dropped

    # -- internals -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span, explicit: bool = False) -> None:
        stack = self._stack()
        if stack and not explicit:
            span.parent_id = stack[-1].span_id
            span.trace_id = stack[-1].trace_id
        if span.trace_id == 0:
            span.trace_id = span.span_id
        stack.append(span)

    def _record(self, span: Span) -> None:
        """Append a finished span, evicting at the ring cap."""
        warn = dropped = False
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self._finished.popleft()
                self._dropped += 1
                dropped = True
                if not self._drop_warned:
                    self._drop_warned = warn = True
            self._finished.append(span)
        if warn:
            log.warning(
                "tracer span ring full (cap %d): dropping oldest "
                "spans; see obs_tracer_spans_dropped_total",
                self.max_spans)
        if dropped:
            _dropped_counter().inc()

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self._record(span)

    def _finish_detached(self, span: Span, wall_start: float) -> None:
        """Close a :meth:`begin` span (called by its handle)."""
        span.wall_s = time.perf_counter() - wall_start
        span.dur = CLOCK.now() - span.ts
        self._record(span)


def _dropped_counter():
    """The shared span-drop counter (lazy: avoids an import cycle)."""
    from repro.obs.metrics import get_registry
    return get_registry().counter(
        "obs_tracer_spans_dropped_total",
        "Finished spans evicted from the tracer ring buffer")


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> None:
    """Swap the process-wide default tracer (tests)."""
    global _TRACER
    _TRACER = tracer


def span(name: str, device=None, category: str = "",
         parent: Optional[TraceContext] = None, **attrs):
    """Open a span on the default tracer (no-op when disabled)."""
    return _TRACER.span(name, device=device, category=category,
                        parent=parent, **attrs)


def annotate(key: str, value) -> None:
    """Set an attribute on the default tracer's innermost span."""
    _TRACER.annotate(key, value)


def current_span() -> Optional[Span]:
    """Innermost open span of the default tracer."""
    return _TRACER.current_span()


def tracing_enabled() -> bool:
    """Whether the default tracer is collecting."""
    return _TRACER.enabled


def enable_tracing(reset: bool = True) -> Tracer:
    """Enable the default tracer (resetting it first by default)."""
    _TRACER.enable(reset=reset)
    return _TRACER


def disable_tracing() -> None:
    """Disable the default tracer."""
    _TRACER.disable()
