"""Property tests: vectorized replay is bit- and cost-exact vs eager.

Randomized programs over the full micro-op surface are replayed through
``run_program`` in ``auto`` (compiled whenever the hazard analysis
allows) and ``eager`` mode on identically-seeded devices.  Whatever
path ``auto`` picks, the SRAM bytes, Tmp registers, every ledger
counter (including the per-op and per-precision profiles) and the
trace stream must be identical to one-by-one replay.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pim import (
    Imm,
    PIMConfig,
    PIMDevice,
    ProgramRecorder,
    Rel,
    TMP,
)

CONFIG = PIMConfig(wordline_bits=64, num_rows=16)

# Bases in [1, 10] with rel offsets in [-1, 1] touch rows 0..11; the
# absolute scratch rows sit above at 12..14, so programs can never be
# rejected for rel/abs row collisions or out-of-range rows.
_SCRATCH = (12, 13, 14)
_DSTS = [TMP, Rel(-1), Rel(0), Rel(1), *_SCRATCH]
_SRCS = _DSTS + [Imm(0), Imm(3), Imm(77), Imm(100)]

_LEDGER_FIELDS = ("cycles", "sram_reads", "sram_writes", "tmp_accesses",
                  "logic_ops", "host_transfers")

_dst = st.sampled_from(_DSTS)
_src = st.sampled_from(_SRCS)
_flag = st.booleans()

_op = st.one_of(
    st.tuples(st.sampled_from(["add", "sub"]), _dst, _src, _src,
              _flag, _flag).map(
        lambda t: (t[0], (t[1], t[2], t[3]),
                   {"saturate": t[4], "signed": t[5]})),
    st.tuples(st.sampled_from(["avg", "abs_diff", "maximum", "minimum",
                               "cmp_gt"]), _dst, _src, _src, _flag).map(
        lambda t: (t[0], (t[1], t[2], t[3]), {"signed": t[4]})),
    st.tuples(st.sampled_from(["logic_and", "logic_or", "logic_xor"]),
              _dst, _src, _src).map(
        lambda t: (t[0], (t[1], t[2], t[3]), {})),
    st.tuples(st.just("shift_lanes"), _dst, _src,
              st.integers(-2, 2)).map(
        lambda t: (t[0], (t[1], t[2]), {"pixels": t[3]})),
    st.tuples(st.just("shift_bits"), _dst, _src,
              st.integers(-3, 3), _flag).map(
        lambda t: (t[0], (t[1], t[2]),
                   {"amount": t[3], "signed": t[4]})),
    st.tuples(st.just("copy"), _dst, _src, _flag).map(
        lambda t: (t[0], (t[1], t[2]), {"signed": t[3]})),
    st.tuples(st.just("mul"), _dst, _src, _src, st.integers(0, 3),
              _flag, _flag).map(
        lambda t: (t[0], (t[1], t[2], t[3]),
                   {"rshift": t[4], "saturate": t[5], "signed": t[6]})),
    st.tuples(st.just("div"), _dst, _src, _src, st.integers(0, 2),
              _flag).map(
        lambda t: (t[0], (t[1], t[2], t[3]),
                   {"lshift": t[4], "signed": t[5]})),
)

_bases = st.sets(st.integers(1, 10), min_size=1, max_size=8).map(sorted)


def _record(ops, precision):
    rec = ProgramRecorder(CONFIG, name="fuzz")
    if precision != 8:
        rec.set_precision(precision)
    for method, operands, kwargs in ops:
        getattr(rec, method)(*operands, **kwargs)
    return rec.finish()


def _fresh_device(seed):
    device = PIMDevice(CONFIG, trace=True)
    rng = np.random.default_rng(seed)
    device._mem[:] = rng.integers(0, 256, size=device._mem.shape,
                                  dtype=np.uint8)
    return device


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=10),
       precision=st.sampled_from([8, 16, 32]),
       bases=_bases,
       seed=st.integers(0, 2**16))
def test_auto_replay_matches_eager(ops, precision, bases, seed):
    program = _record(ops, precision)
    dev_auto = _fresh_device(seed)
    dev_eager = _fresh_device(seed)

    dev_auto.run_program(program, bases, mode="auto")
    dev_eager.run_program(program, bases, mode="eager")

    assert np.array_equal(dev_auto._mem, dev_eager._mem), \
        "SRAM bytes diverge between auto and eager replay"
    assert all(np.array_equal(a, b) for a, b in
               zip(dev_auto._tmp, dev_eager._tmp)), \
        "Tmp registers diverge between auto and eager replay"
    for field in _LEDGER_FIELDS:
        assert getattr(dev_auto.ledger, field) == \
            getattr(dev_eager.ledger, field), field
    assert dict(dev_auto.ledger.op_counts) == \
        dict(dev_eager.ledger.op_counts)
    assert dict(dev_auto.ledger.op_profile) == \
        dict(dev_eager.ledger.op_profile)
    assert dev_auto.trace == dev_eager.trace


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=8),
       bases=_bases)
def test_o1_charge_is_aggregate_times_reps(ops, bases):
    """Ledger totals are exactly the recorded aggregate x replay count."""
    program = _record(ops, 8)
    device = PIMDevice(CONFIG)
    device.run_program(program, bases)
    reps = len(bases)
    for field in _LEDGER_FIELDS:
        assert getattr(device.ledger, field) == \
            getattr(program.aggregate, field) * reps, field
    expected_counts = {k: v * reps
                       for k, v in program.aggregate.op_counts.items()}
    assert dict(device.ledger.op_counts) == expected_counts
