"""Multi-session VO serving on a shared pool of simulated PIM devices.

The ROADMAP's north star is a service, not a script: many independent
clients streaming RGB-D frames at a bounded fleet of accelerators.
This package is that serving layer for the simulated stack:

* :mod:`repro.serve.session` -- per-client
  :class:`~repro.vo.tracker.TrackerState` keyed by session id, with
  idle/capacity eviction and generation numbers
  (:class:`SessionManager`).
* :mod:`repro.serve.scheduler` -- a bounded FIFO admission queue with
  per-session ordering, explicit :class:`Backpressure` rejection, and
  one frame per worker pull (:class:`FifoScheduler`).
* :mod:`repro.serve.pool` -- N worker threads, each owning one
  tracker + PIM devices, dwelling for the simulated device service
  time so wall-clock reflects device occupancy, not host speed
  (:class:`DevicePool`).
* :mod:`repro.serve.service` -- the synchronous facade
  (:class:`VOService`): ``submit(session_id, gray, depth)`` returns a
  :class:`TrackResult`.
* :mod:`repro.serve.loadgen` -- a K-client closed-loop load generator
  with retry-on-backpressure and a JSON throughput/latency report
  (:func:`run_load`), also behind ``python -m repro.serve``; the
  stamped serving benchmark lands in ``BENCH_serve.json``
  (:func:`write_bench_report`).
* :mod:`repro.serve.status` -- a stdlib HTTP status endpoint
  (:class:`StatusServer`): ``/metrics`` (Prometheus text),
  ``/healthz``, ``/slo``, ``/flightrecorder``.

Per-session results are bit-identical to solo tracker runs; see
``docs/serving.md`` for the architecture and the backpressure
contract.

Fault containment rides on the same pieces: per-request deadlines and
:class:`DeadlineExceeded`, bounded worker retries with checkpoint
restore, and a per-worker :class:`CircuitBreaker`; see
``docs/resilience.md``.
"""

from repro.serve.loadgen import (
    ClientStats,
    build_workload,
    run_load,
    run_open_loop_load,
    service_trajectories,
    solo_trajectories,
    trajectories_match,
    write_bench_report,
)
from repro.serve.status import StatusServer
from repro.serve.pool import CircuitBreaker, DevicePool, TrackResult
from repro.serve.scheduler import (
    Backpressure,
    DeadlineExceeded,
    FifoScheduler,
    WorkItem,
)
from repro.serve.service import VOService
from repro.serve.session import Session, SessionManager

__all__ = [
    "Backpressure",
    "CircuitBreaker",
    "ClientStats",
    "DeadlineExceeded",
    "DevicePool",
    "FifoScheduler",
    "Session",
    "SessionManager",
    "StatusServer",
    "TrackResult",
    "VOService",
    "WorkItem",
    "build_workload",
    "run_load",
    "run_open_loop_load",
    "service_trajectories",
    "solo_trajectories",
    "trajectories_match",
    "write_bench_report",
]
