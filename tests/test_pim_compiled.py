"""The compiled replay backend: bit-, ledger- and trace-exactness.

Property tests drive auto-mode (compiled) replay against eager replay
on randomized recorded programs (random op mixes, Rel offsets,
base-row sets) and assert complete machine-state equality; a totality
property pins that every program the recorder accepts lowers to a
plan, immediates at the validated range ends included.  Directed tests
pin the plan cache metrics, the fallback accounting, and the
single-base hazard relaxation that lets every one-base replay take the
vectorized path.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels.hpf import hpf_program
from repro.kernels.lpf import lpf_program
from repro.kernels.nms import nms_program
from repro.obs.metrics import get_registry
from repro.pim import (
    Imm,
    PIMConfig,
    PIMDevice,
    ProgramRecorder,
    Rel,
    TMP,
)
from repro.pim.lowering import CompiledPlan, compiled_plan

CONFIG = PIMConfig(wordline_bits=64, num_rows=16)

# Same layout contract as test_pim_program_property: bases in [1, 10]
# with rel offsets in [-1, 1] touch rows 0..11, absolute scratch sits
# above at 12..14, so rel/abs collisions can never reject a replay.
_SCRATCH = (12, 13, 14)
_DSTS = [TMP, Rel(-1), Rel(0), Rel(1), *_SCRATCH]
_SRCS = _DSTS + [Imm(0), Imm(3), Imm(77), Imm(100)]

_LEDGER_FIELDS = ("cycles", "sram_reads", "sram_writes", "tmp_accesses",
                  "logic_ops", "host_transfers")

_dst = st.sampled_from(_DSTS)
_flag = st.booleans()


def _edge_imms(n):
    """The recorder's validated immediate range ends at lane width n:
    signed MIN/MAX, -1, and the unsigned-only values above the signed
    MAX (at 64 bits, 2**63 and 2**64 - 1 must be rejected)."""
    half = 1 << (n - 1)
    return [Imm(v) for v in (-half, -1, 0, 1, half - 1, half,
                             (1 << n) - 1)]


def _ops(src):
    """One recorded op drawn over the source operand strategy."""
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub"]), _dst, src, src,
                  _flag, _flag).map(
            lambda t: (t[0], (t[1], t[2], t[3]),
                       {"saturate": t[4], "signed": t[5]})),
        st.tuples(st.sampled_from(["avg", "abs_diff", "maximum", "minimum",
                                   "cmp_gt"]), _dst, src, src, _flag).map(
            lambda t: (t[0], (t[1], t[2], t[3]), {"signed": t[4]})),
        st.tuples(st.sampled_from(["logic_and", "logic_or", "logic_xor",
                                   "logic_nor"]), _dst, src, src).map(
            lambda t: (t[0], (t[1], t[2], t[3]), {})),
        st.tuples(st.just("shift_lanes"), _dst, src,
                  st.integers(-2, 2)).map(
            lambda t: (t[0], (t[1], t[2]), {"pixels": t[3]})),
        st.tuples(st.just("shift_bits"), _dst, src,
                  st.integers(-3, 3), _flag).map(
            lambda t: (t[0], (t[1], t[2]),
                       {"amount": t[3], "signed": t[4]})),
        st.tuples(st.just("copy"), _dst, src, _flag).map(
            lambda t: (t[0], (t[1], t[2]), {"signed": t[3]})),
        st.tuples(st.just("mul"), _dst, src, src, st.integers(0, 3),
                  _flag, _flag).map(
            lambda t: (t[0], (t[1], t[2], t[3]),
                       {"rshift": t[4], "saturate": t[5], "signed": t[6]})),
        st.tuples(st.just("div"), _dst, src, src, st.integers(0, 2),
                  _flag).map(
            lambda t: (t[0], (t[1], t[2], t[3]),
                       {"lshift": t[4], "signed": t[5]})),
    )


_op = _ops(st.sampled_from(_SRCS))
_bases = st.sets(st.integers(1, 10), min_size=1, max_size=8).map(sorted)


def _record(ops, precision, precision_switch=None):
    rec = ProgramRecorder(CONFIG, name="fuzz")
    if precision != 8:
        rec.set_precision(precision)
    for index, (method, operands, kwargs) in enumerate(ops):
        if precision_switch is not None and index == precision_switch[0]:
            rec.set_precision(precision_switch[1])
        getattr(rec, method)(*operands, **kwargs)
    return rec.finish()


def _fresh_device(seed):
    device = PIMDevice(CONFIG, trace=True)
    rng = np.random.default_rng(seed)
    device._mem[:] = rng.integers(0, 256, size=device._mem.shape,
                                  dtype=np.uint8)
    return device


def _assert_state_equal(a: PIMDevice, b: PIMDevice) -> None:
    assert np.array_equal(a._mem, b._mem), "SRAM bytes diverge"
    assert all(np.array_equal(x, y) for x, y in zip(a._tmp, b._tmp)), \
        "Tmp registers diverge"
    assert a._precision == b._precision
    for field in _LEDGER_FIELDS:
        assert getattr(a.ledger, field) == getattr(b.ledger, field), \
            field
    assert dict(a.ledger.op_counts) == dict(b.ledger.op_counts)
    assert dict(a.ledger.op_profile) == dict(b.ledger.op_profile)
    assert a.trace == b.trace


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=12),
       precision=st.sampled_from([8, 16, 32, 64]),
       switch_precision=st.one_of(
           st.none(), st.sampled_from([8, 16, 32, 64])),
       switch_at=st.integers(0, 11),
       bases=_bases,
       seed=st.integers(0, 2**16))
def test_compiled_matches_eager(ops, precision, switch_precision,
                                switch_at, bases, seed):
    """Compiled replay is bit-, ledger- and trace-exact vs eager."""
    switch = None if switch_precision is None else \
        (switch_at, switch_precision)
    program = _record(ops, precision, switch)
    dev_c = _fresh_device(seed)
    dev_e = _fresh_device(seed)
    dev_c.run_program(program, bases, mode="auto")
    dev_e.run_program(program, bases, mode="eager")
    _assert_state_equal(dev_c, dev_e)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=8),
       seed=st.integers(0, 2**16))
def test_single_base_always_vectorizes(ops, seed):
    """At one base row every program takes a vectorized path.

    The single-base hazard relaxation skips the register-reuse and
    rel-order structural checks (the compiled section caches are
    provably eager-equivalent at one rep), so auto mode must never
    fall back to eager -- and must still match it exactly.
    """
    program = _record(ops, 8)
    counter = get_registry().counter(
        "pim_replay_total", "run_program calls by executed replay mode")
    eager_before = counter.value(mode="eager")
    dev_c = _fresh_device(seed)
    dev_e = _fresh_device(seed)
    dev_c.run_program(program, [5], mode="auto")
    assert counter.value(mode="eager") == eager_before
    dev_e.run_program(program, [5], mode="eager")
    _assert_state_equal(dev_c, dev_e)


def test_compiled_matches_eager_on_kernel_programs(replay_spans):
    """The real LPF/HPF/NMS stage programs run compiled and match eager."""
    cfg = PIMConfig()
    for name, program in (
            ("lpf", lpf_program(cfg)),
            ("hpf", hpf_program(cfg, scratch_base=200)),
            ("nms", nms_program(cfg, th1=20, th2=40, scratch_base=210))):
        ref, dev = PIMDevice(cfg), PIMDevice(cfg)
        rng = np.random.default_rng(11)
        image = rng.integers(0, 256, ref._mem.shape, dtype=np.uint8)
        ref._mem[:] = image
        dev._mem[:] = image
        bases = [5, 20, 35, 50]
        ref.run_program(program, bases, mode="eager")
        dev.run_program(program, bases, mode="auto")
        assert replay_spans()[-1]["executed_mode"] == "compiled", name
        assert np.array_equal(ref._mem, dev._mem), name
        for field in _LEDGER_FIELDS:
            assert getattr(ref.ledger, field) == \
                getattr(dev.ledger, field), (name, field)


def test_plan_is_compiled_once_per_program():
    """The lowered plan is memoized on the program (hit/miss metrics)."""
    registry = get_registry()
    hits = registry.counter("pim_plan_cache_hits_total", "")
    misses = registry.counter("pim_plan_cache_misses_total", "")
    rec = ProgramRecorder(CONFIG, name="memo")
    rec.add(Rel(0), Rel(0), Imm(1))
    program = rec.finish()
    h0, m0 = hits.total(), misses.total()
    device = PIMDevice(CONFIG)
    device.run_program(program, [1], mode="auto")
    device.run_program(program, [1], mode="auto")
    device.run_program(program, [1], mode="auto")
    assert misses.total() == m0 + 1, "plan compiled more than once"
    assert hits.total() == h0 + 2


def test_compiled_mode_falls_back_on_hazard():
    """A hazardous multi-base replay degrades to eager, with metrics."""
    rec = ProgramRecorder(CONFIG, name="hazard")
    rec.add(TMP, TMP, Imm(1))     # Tmp read before its first write
    rec.copy(Rel(0), TMP)
    program = rec.finish()
    assert not program.registers_ok
    registry = get_registry()
    fallback = registry.counter("pim_replay_fallback_total", "")
    dev_c = _fresh_device(3)
    dev_e = _fresh_device(3)
    reason = dev_c.batch_rejection_reason(program, [1, 2])
    assert reason == "register-reuse-hazard"
    before = fallback.value(reason=reason)
    dev_c.run_program(program, [1, 2], mode="auto")
    assert fallback.value(reason=reason) == before + 1
    dev_e.run_program(program, [1, 2], mode="eager")
    _assert_state_equal(dev_c, dev_e)


def test_mid_program_precision_switch_falls_back_multi_base():
    """A precision switch after a compute op rejects multi-base
    vectorized replay: eager is base-major, so the switch persists
    into the next base's replay of the earlier ops (changing both the
    bytes of precision-sensitive ops and the per-precision ledger
    profile), which op-major execution cannot reproduce.  Leading
    switches stay batchable, and a single base is always safe."""
    rec = ProgramRecorder(CONFIG, name="setp-mid")
    rec.add(Rel(0), Rel(0), Imm(100), saturate=True, signed=False)
    rec.set_precision(16)
    rec.copy(TMP, Rel(0))
    program = rec.finish()
    assert not program.precision_stable
    device = PIMDevice(CONFIG)
    assert device.batch_rejection_reason(program, [1]) is None
    assert device.batch_rejection_reason(program, [1, 2]) == \
        "precision-switch-mid-program"
    dev_c = _fresh_device(7)
    dev_e = _fresh_device(7)
    dev_c.run_program(program, [1, 2], mode="auto")
    dev_e.run_program(program, [1, 2], mode="eager")
    _assert_state_equal(dev_c, dev_e)

    leading = ProgramRecorder(CONFIG, name="setp-leading")
    leading.set_precision(16)
    leading.add(Rel(0), Rel(0), Imm(100), saturate=True, signed=False)
    program = leading.finish()
    assert program.precision_stable
    assert device.batch_rejection_reason(program, [1, 2]) is None


def test_single_base_relaxation_keeps_multi_base_hazards():
    """The relaxation is strictly single-base: reps > 1 still reject."""
    rec = ProgramRecorder(CONFIG, name="tmp-hazard")
    rec.add(TMP, TMP, Imm(1))     # Tmp read before any write
    program = rec.finish()
    device = PIMDevice(CONFIG)
    assert device.batch_rejection_reason(program, [1]) is None
    assert device.batch_rejection_reason(program, [1, 2]) == \
        "register-reuse-hazard"


def test_abs_rel_alias_checks_survive_relaxation():
    """Alias hazards stay checked at one base: compiled defers rel
    scatters, so an absolute read of a relatively-written row would
    otherwise observe stale memory."""
    rec = ProgramRecorder(CONFIG, name="alias")
    rec.add(Rel(0), Rel(0), Imm(1))
    rec.copy(TMP, 5)              # absolute read of row 5
    program = rec.finish()
    device = PIMDevice(CONFIG)
    # base 5 makes the rel write hit row 5, aliasing the abs read.
    assert device.batch_rejection_reason(program, [5]) == \
        "abs-read-aliases-rel-write"
    dev_c = _fresh_device(9)
    dev_e = _fresh_device(9)
    dev_c.run_program(program, [5], mode="auto")   # falls back
    dev_e.run_program(program, [5], mode="eager")
    _assert_state_equal(dev_c, dev_e)


def test_compiled_requested_mode_recorded_in_span(replay_spans):
    """Spans carry requested vs executed mode for the compiled path."""
    rec = ProgramRecorder(CONFIG, name="spanprog")
    rec.add(Rel(0), Rel(0), Imm(2))
    program = rec.finish()
    device = PIMDevice(CONFIG, trace=True)
    device.run_program(program, [1], mode="auto")
    attrs = replay_spans()[-1]
    assert attrs["requested_mode"] == "auto"
    assert attrs["executed_mode"] == "compiled"
    assert "fallback_reason" not in attrs


def _record_accepted(ops, precision):
    """Record every op the recorder accepts; skip the ones it rejects."""
    rec = ProgramRecorder(CONFIG, name="edges")
    if precision != 8:
        rec.set_precision(precision)
    for method, operands, kwargs in ops:
        try:
            getattr(rec, method)(*operands, **kwargs)
        except ValueError:
            pass  # an immediate outside the op's read range
    return rec.finish()


_edge_programs = st.sampled_from([8, 16, 32, 64]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        _ops(st.sampled_from(_DSTS + _edge_imms(n))),
        min_size=1, max_size=8)))


@settings(max_examples=60, deadline=None)
@given(drawn=_edge_programs, bases=_bases, seed=st.integers(0, 2**16))
@example(drawn=(64, [("add", (Rel(0), Rel(0), Imm(1 << 63)),
                      {"saturate": False, "signed": False})]),
         bases=[1], seed=0)
def test_lowering_is_total(drawn, bases, seed):
    """Every program the recorder accepts lowers to a plan and runs
    compiled == eager, immediates at the validated range ends too."""
    precision, ops = drawn
    program = _record_accepted(ops, precision)
    assert isinstance(compiled_plan(program, CONFIG), CompiledPlan)
    dev_c = _fresh_device(seed)
    dev_e = _fresh_device(seed)
    dev_c.run_program(program, bases, mode="auto")
    dev_e.run_program(program, bases, mode="eager")
    _assert_state_equal(dev_c, dev_e)


def test_out_of_int64_immediate_fails_closed():
    """A stored program tampered past the recorder's checks raises in
    both tiers instead of lowering or computing a wrapped value."""
    rec = ProgramRecorder(CONFIG, name="tampered")
    rec.set_precision(64)
    rec.add(Rel(0), Rel(0), Imm(1), signed=False)
    program = rec.finish()
    index = next(i for i, op in enumerate(program.ops)
                 if op.method == "add")
    ops = list(program.ops)
    ops[index] = replace(ops[index], srcs=(Rel(0), Imm(1 << 64)))
    tampered = replace(program, ops=tuple(ops))
    with pytest.raises(ValueError, match="immediate"):
        compiled_plan(tampered, CONFIG)
    for mode in ("auto", "eager"):
        with pytest.raises(ValueError, match="immediate"):
            PIMDevice(CONFIG).run_program(tampered, [1], mode=mode)
