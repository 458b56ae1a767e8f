"""Property tests of the serving scheduler's two invariants.

Hypothesis drives random submission/dispatch/completion interleavings
against :class:`repro.serve.FifoScheduler` and checks, regardless of
the interleaving:

* frames of one session are delivered strictly in submission order
  and never run concurrently (per-session FIFO);
* every pull hands out the earliest queued frame whose session is not
  in flight (head-of-line order among idle sessions);
* :class:`~repro.serve.scheduler.Backpressure` always carries a
  positive ``retry_after_s`` hint, whatever service times fed the EMA.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import Backpressure, FifoScheduler, WorkItem


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_per_session_fifo_under_random_interleavings(data):
    n_sessions = data.draw(st.integers(1, 4), label="sessions")
    n_items = data.draw(st.integers(1, 24), label="items")

    sched = FifoScheduler(max_queue=64)
    pending = []
    for i in range(n_items):
        session = f"s{data.draw(st.integers(0, n_sessions - 1))}"
        seq = sum(1 for it in pending if it.session == session)
        pending.append(WorkItem(session=session, seq=seq,
                                payload=None))
    submitted = 0
    queued = []      # model of the scheduler queue, in order
    inflight = []
    delivered = {}

    def pull():
        busy = {it.session for it in inflight}
        expected = next(
            (it for it in queued if it.session not in busy), None)
        item = sched.next_item(timeout=0)
        # Head-of-line: the earliest queued frame of a session that
        # is not in flight, or nothing when every session is busy.
        assert item is expected
        if item is None:
            return
        # No two frames of one session may be in flight at once.
        assert item.session not in busy
        queued.remove(item)
        delivered.setdefault(item.session, []).append(item.seq)
        inflight.append(item)

    while submitted < len(pending) or inflight or sched.depth():
        choices = []
        if submitted < len(pending):
            choices.append("submit")
        if sched.depth():
            choices.append("pull")
        if inflight:
            choices.append("complete")
        action = data.draw(st.sampled_from(choices), label="action")
        if action == "submit":
            sched.submit(pending[submitted])
            queued.append(pending[submitted])
            submitted += 1
        elif action == "pull":
            pull()
        else:
            idx = data.draw(
                st.integers(0, len(inflight) - 1), label="complete")
            sched.done(inflight.pop(idx), service_s=0.001)

    for session, seqs in delivered.items():
        assert seqs == sorted(seqs), \
            f"{session} delivered out of order: {seqs}"
        assert seqs == list(range(len(seqs))), \
            f"{session} dropped or duplicated frames: {seqs}"


@settings(max_examples=40, deadline=None)
@given(max_queue=st.integers(1, 8),
       workers=st.integers(1, 4),
       service_times=st.lists(
           st.floats(min_value=0.0, max_value=2.0,
                     allow_nan=False, allow_infinity=False),
           max_size=12))
def test_backpressure_retry_after_is_always_positive(
        max_queue, workers, service_times):
    sched = FifoScheduler(max_queue=max_queue, workers=workers)
    # Drive the service-time EMA through arbitrary observations,
    # including zero-cost frames that shrink it toward zero.
    for service_s in service_times:
        sched.done(WorkItem(session="warm", seq=0, payload=None),
                   service_s=service_s)
    for i in range(max_queue):
        sched.submit(WorkItem(session=f"s{i}", seq=0, payload=None))
    with_full_queue = WorkItem(session="late", seq=0, payload=None)
    try:
        sched.submit(with_full_queue)
        raise AssertionError("full queue accepted a frame")
    except Backpressure as bp:
        assert bp.retry_after_s > 0.0
        assert bp.depth == max_queue
