"""Shared test fixtures: resource-leak detection and replay spans.

Every test in the suite runs under :func:`no_leaked_workers`, which
fails the *leaking* test (not some innocent later one) when it leaves
behind:

* **pool worker threads** (``pim-pool*``) -- a ``DevicePool`` that was
  started but never stopped;
* **shard plane threads** (``shard-*``) -- a router/supervisor pump or
  monitor that outlived its owner;
* **child processes** -- a ``multiprocessing`` worker that was spawned
  but never joined (``multiprocessing.active_children()`` also reaps
  finished-but-unjoined children as a side effect, so a zombie shows
  up here rather than accumulating).

Threads and processes get a short grace period: teardown is allowed
to be in flight when the test body returns, it just has to finish.
The baseline is captured per test, so the long-lived ``forkserver``
helper process (which ``multiprocessing`` keeps for the session) and
daemon threads started by earlier fixtures are not misattributed.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.obs.tracer import Tracer, get_tracer, set_tracer

#: Thread-name prefixes owned by service/shard planes; anything else
#: (e.g. pytest's own machinery) is not this fixture's business.
_TRACKED_THREAD_PREFIXES = ("pim-pool", "shard-", "serve-status")


def _tracked_threads(before_idents):
    return [t for t in threading.enumerate()
            if t.ident not in before_idents and t.is_alive()
            and t.name.startswith(_TRACKED_THREAD_PREFIXES)]


def _leaked_children(before_pids):
    # active_children() joins finished children as a side effect, so
    # calling it both reaps zombies and reports true leaks.
    return [p for p in multiprocessing.active_children()
            if p.pid not in before_pids]


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail the test that leaked threads or child processes."""
    before_threads = {t.ident for t in threading.enumerate()}
    before_pids = {p.pid for p in multiprocessing.active_children()}
    yield
    deadline = time.monotonic() + 5.0
    threads = _tracked_threads(before_threads)
    children = _leaked_children(before_pids)
    while (threads or children) and time.monotonic() < deadline:
        time.sleep(0.02)
        threads = _tracked_threads(before_threads)
        children = _leaked_children(before_pids)
    problems = []
    if threads:
        problems.append(
            f"leaked worker threads: "
            f"{[t.name for t in threads]}")
    if children:
        # Do not leave them running for the rest of the suite.
        for proc in children:
            proc.terminate()
        for proc in children:
            proc.join(timeout=5.0)
        problems.append(
            f"leaked child processes: "
            f"{[(p.name, p.pid) for p in children]}")
    assert not problems, "; ".join(problems)


@pytest.fixture
def replay_spans():
    """A private, enabled tracer for the test.

    Yields a function returning the attributes of every
    ``run_program`` span recorded so far (``requested_mode``,
    ``executed_mode`` and, on a fallback, ``fallback_reason``).
    """
    old = get_tracer()
    tracer = Tracer()
    set_tracer(tracer)
    tracer.enable()
    try:
        yield lambda: [s.attrs for s in tracer.spans
                       if s.category == "replay"]
    finally:
        tracer.disable()
        set_tracer(old)
