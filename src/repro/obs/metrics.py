"""A small, dependency-free metrics registry (counters/gauges/histograms).

Instruments are named, typed, and optionally labelled (Prometheus
style, e.g. ``pim_replay_total{mode="eager"}``).  The stack's
standing instruments -- program-cache hits/misses, compiled-vs-eager
replay decisions with fallback reason, LM iterations, keyframe
insertions, per-frame cycles/energy/edge counts -- all live in the
process-wide default registry so one :func:`snapshot` (or the JSONL
exporter) captures a whole run.

Unlike the tracer, instruments are always live: updates are a dict
bump per event (frame-rate, not cycle-rate, call sites), so there is
no enable/disable switch to forget.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry",
]

_Labels = Tuple[Tuple[str, str], ...]


def _labelkey(labels: Dict[str, object]) -> _Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared naming/series plumbing of every instrument type."""

    kind = "instrument"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._lock = threading.Lock()

    def series(self) -> List[dict]:
        """All label series as JSON-ready dicts."""
        raise NotImplementedError

    def reset(self) -> None:
        """Zero every series."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._values: Dict[_Labels, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (default 1) to the labelled series."""
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        """Current count of one labelled series (0 if never touched)."""
        return self._values.get(_labelkey(labels), 0)

    def total(self) -> float:
        """Sum across all label series."""
        return sum(self._values.values())

    def series(self) -> List[dict]:
        with self._lock:
            return [{"labels": dict(k), "value": v}
                    for k, v in sorted(self._values.items())]

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Instrument):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._values: Dict[_Labels, float] = {}

    def set(self, value: float, **labels) -> None:
        """Set the labelled series to ``value``."""
        with self._lock:
            self._values[_labelkey(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        """Adjust the labelled series by ``amount``."""
        key = _labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> Optional[float]:
        """Current value of one labelled series (None if unset)."""
        return self._values.get(_labelkey(labels))

    def series(self) -> List[dict]:
        with self._lock:
            return [{"labels": dict(k), "value": v}
                    for k, v in sorted(self._values.items())]

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class _HistSeries:
    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self, bounds: Tuple[float, ...]):
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets = [0] * (len(bounds) + 1)


class Histogram(_Instrument):
    """A distribution: count/sum/min/max plus cumulative buckets."""

    kind = "histogram"

    #: Default bucket upper bounds; generous because observations range
    #: from LM iteration counts (~10) to per-frame cycles (~1e5).
    DEFAULT_BOUNDS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 1e3,
                      1e4, 1e5, 1e6, 1e7)

    def __init__(self, name: str, description: str = "",
                 bounds: Optional[Tuple[float, ...]] = None):
        super().__init__(name, description)
        self.bounds = tuple(sorted(bounds)) if bounds is not None \
            else self.DEFAULT_BOUNDS
        self._series: Dict[_Labels, _HistSeries] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation in the labelled series."""
        value = float(value)
        key = _labelkey(labels)
        with self._lock:
            s = self._series.get(key)
            if s is None:
                s = self._series[key] = _HistSeries(self.bounds)
            s.count += 1
            s.total += value
            s.minimum = min(s.minimum, value)
            s.maximum = max(s.maximum, value)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    s.buckets[i] += 1
                    break
            else:
                s.buckets[-1] += 1

    def summary(self, **labels) -> dict:
        """count/sum/min/max/mean of one labelled series."""
        s = self._series.get(_labelkey(labels))
        if s is None or s.count == 0:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": None}
        return {"count": s.count, "sum": s.total, "min": s.minimum,
                "max": s.maximum, "mean": s.total / s.count}

    def series(self) -> List[dict]:
        with self._lock:
            out = []
            for key, s in sorted(self._series.items()):
                # Buckets are stored per-bin; export them cumulative
                # (Prometheus convention: bucket[b] = observations <= b,
                # "+Inf" = count).
                running = 0
                cumulative = []
                for n in s.buckets:
                    running += n
                    cumulative.append(running)
                out.append({
                    "labels": dict(key),
                    "count": s.count, "sum": s.total,
                    "min": s.minimum if s.count else None,
                    "max": s.maximum if s.count else None,
                    "mean": s.total / s.count if s.count else None,
                    "buckets": {
                        **{str(b): n for b, n in
                           zip(self.bounds, cumulative)},
                        "+Inf": cumulative[-1],
                    },
                })
            return out

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Named instruments, created on first use and type-checked after."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, description: str,
                       **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(
                    name, description, **kwargs)
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{inst.kind}, not {cls.kind}")
            return inst

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, description)

    def histogram(self, name: str, description: str = "",
                  bounds: Optional[Tuple[float, ...]] = None
                  ) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(Histogram, name, description,
                                   bounds=bounds)

    def get(self, name: str) -> Optional[_Instrument]:
        """Look up an instrument by name."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def snapshot(self) -> List[dict]:
        """Every instrument with its series, JSON-serializable."""
        with self._lock:
            instruments = list(self._instruments.values())
        return [{
            "name": inst.name,
            "type": inst.kind,
            "description": inst.description,
            "series": inst.series(),
        } for inst in sorted(instruments, key=lambda i: i.name)]

    def reset(self) -> None:
        """Zero every instrument (instruments stay registered)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for inst in instruments:
            inst.reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> None:
    """Swap the process-wide default registry (tests)."""
    global _REGISTRY
    _REGISTRY = registry
