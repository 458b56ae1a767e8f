"""Out-of-program tracing: timing wrappers around public layer entry points.

A traced run rebinds the names callers resolve at call time -- module
globals such as ``repro.vo.frontend.hessian_fast`` and methods such as
``PIMFrontend.linearize`` -- to wrappers that record one span per call.
The program itself is unchanged and its own tracer stays off.  Spans
live in memory as ``(id, name, start, end, parent)`` tuples and are
written out once, when the benchmark ends.

A layer's self time is its span's duration minus the durations of the
spans it directly contains.  Spans nest per thread, so child spans of
one parent never overlap and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: ``(owner, attribute, span name)`` of every tracked-frame layer.  The
#: owner is the module or class whose attribute the caller looks up, so
#: rebinding it reaches every call site.
FRAME_LAYERS = (
    ("repro.vo.tracker:EBVOTracker", "process", "vo.tracker.process"),
    ("repro.vo.tracker", "validate_frame", "vo.health.validate_frame"),
    ("repro.vo.tracker", "build_pyramid", "vo.pyramid.build_pyramid"),
    ("repro.vo.frontend:PIMFrontend", "detect", "vo.frontend.detect"),
    ("repro.vo.frontend", "detect_edges_fast",
     "kernels.edge_detect.detect"),
    ("repro.vo.frontend", "detect_edges_replay",
     "kernels.edge_detect.detect"),
    ("repro.vo.tracker", "extract_features",
     "vo.features.extract_features"),
    ("repro.vo.frontend:PIMFrontend", "prepare_keyframe",
     "vision.prepare_keyframe"),
    ("repro.vo.frontend:PIMFrontend", "make_features",
     "vo.frontend.make_features"),
    ("repro.vo.tracker", "lm_estimate", "vo.lm.lm_estimate"),
    ("repro.vo.frontend:PIMFrontend", "error", "vo.frontend.error"),
    ("repro.vo.frontend:PIMFrontend", "linearize",
     "vo.frontend.linearize"),
    ("repro.vo.frontend", "warp_fast", "kernels.warp.warp_fast"),
    ("repro.vo.frontend", "jacobian_fast",
     "kernels.jacobian.jacobian_fast"),
    ("repro.vo.frontend", "hessian_fast",
     "kernels.hessian.hessian_fast"),
)

#: Span names of :data:`FRAME_LAYERS`, in order, without duplicates.
FRAME_SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in
                                       FRAME_LAYERS))

#: Serving-plane layers timed from outside the request path.
SERVE_LAYERS = (
    ("repro.shard.router:ShardRouter", "submit_nowait",
     "shard.router.submit"),
    ("repro.shard.router:ShardRouter", "checkpoint_shard",
     "shard.supervisor.checkpoint"),
)

Span = Tuple[int, str, float, float, int]


def _resolve(owner: str):
    import importlib
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.hessian_calls = 0
        self.hessian_lanes_used = 0
        self.hessian_lane_slots = 0
        self.hessian_batches = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` with one span per call (and ``observe(args, kwargs)``)."""
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append((span_id, name, start, end, parent))

        return timed

    def add_span(self, name: str, start: float, end: float,
                 parent: int = 0) -> int:
        """Record a span measured elsewhere; returns its id."""
        span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent))
        return span_id

    def _observe_hessian(self, default_lanes: int) -> Callable:
        def observe(args, kwargs):
            # hessian_fast(j_raw, r_raw, lanes=...): one lane per
            # feature, batches of ``lanes`` (the last one padded).
            features = np.asarray(args[1]).size
            lanes = int(kwargs.get("lanes", default_lanes))
            batches = max(1, -(-features // lanes))
            self.hessian_calls += 1
            self.hessian_lanes_used += features
            self.hessian_batches += batches
            self.hessian_lane_slots += batches * lanes
        return observe

    @contextlib.contextmanager
    def installed(self, layers: Iterable[tuple]):
        """Rebind every layer to its timing wrapper for the block."""
        saved = []
        try:
            for owner, attr, name in layers:
                target = _resolve(owner)
                original = inspect.getattr_static(target, attr)
                observe = None
                if name == "kernels.hessian.hessian_fast":
                    lanes = inspect.signature(original).parameters[
                        "lanes"].default
                    observe = self._observe_hessian(lanes)
                saved.append((target, attr, original))
                setattr(target, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    # -- rollups ---------------------------------------------------------

    def self_times(self, spans: Optional[List[Span]] = None
                   ) -> Dict[str, float]:
        """Total self time in seconds per span name."""
        spans = self.spans if spans is None else spans
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in spans:
            if parent:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return dict(totals)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _ in self.spans
                if n == name]

    def write(self, path: Path) -> None:
        """Dump every span as JSON (times in seconds, perf_counter)."""
        rows = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4]} for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")
