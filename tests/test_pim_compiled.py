"""The compiled replay backend: bit-, ledger- and trace-exactness.

Property tests drive auto-mode (compiled) replay against eager replay
on randomized recorded programs (random op mixes, Rel offsets,
base-row sets) and assert complete machine-state equality; a totality
property pins that every program the recorder accepts lowers to a
plan, immediates at the validated range ends included.  Directed tests
pin the plan cache metrics, the fallback accounting, and the
single-base hazard relaxation that lets every one-base replay take the
vectorized path.  The array-form admission check is held to its
set-based reference, and the ops whose results skip the lane mask are
pinned and run at the lane bounds.
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
from repro.pim.faults import FaultInjector, FaultPlan
from repro.pim.lowering import CompiledPlan, _emits_pattern, compiled_plan

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


#: The QVGA detect device of ``PIMFrontend``: one 320-pixel row per
#: word line, the image in rows 0..239 and the stage scratch below.
_QVGA = PIMConfig(wordline_bits=320 * 8, num_rows=248)


#: ``(config, bases, (hpf, nms) scratch base)`` of the kernel-program
#: check: strided bases, step-1 ranges (the row window) and one base.
#: ``None`` bases are the QVGA chain's own ranges -- LPF over rows
#: 0..238, HPF and NMS over 1..238 with their scratch below the image,
#: as ``detect_edges_replay`` runs them.
_KERNEL_CASES = (
    (PIMConfig(), [5, 20, 35, 50], (200, 210)),
    (PIMConfig(), range(5, 9), (200, 210)),
    (PIMConfig(), [5], (200, 210)),
    (PIMConfig(), range(1, 150), (200, 210)),
    (_QVGA, None, (240, 240)),
)


def test_compiled_matches_eager_on_kernel_programs(replay_spans):
    """The real LPF/HPF/NMS stage programs run compiled and match
    eager: memory, Tmp, ledger and trace, over strided bases and over
    step-1 ranges (the row window)."""
    for cfg, bases, scratch in _KERNEL_CASES:
        for name, program, stage_bases in (
                ("lpf", lpf_program(cfg), range(0, 239)),
                ("hpf", hpf_program(cfg, scratch_base=scratch[0]),
                 range(1, 239)),
                ("nms", nms_program(cfg, th1=20, th2=40,
                                    scratch_base=scratch[1]),
                 range(1, 239))):
            ref = PIMDevice(cfg, trace=True)
            dev = PIMDevice(cfg, trace=True)
            rng = np.random.default_rng(11)
            image = rng.integers(0, 256, ref._mem.shape, dtype=np.uint8)
            ref._mem[:] = image
            dev._mem[:] = image
            run_bases = stage_bases if bases is None else bases
            ref.run_program(program, run_bases, mode="eager")
            dev.run_program(program, run_bases, mode="auto")
            assert replay_spans()[-1]["executed_mode"] == "compiled", \
                (name, run_bases)
            _assert_state_equal(dev, ref)


_WINDOW_CONFIG = PIMConfig(wordline_bits=64, num_rows=24)
#: Absolute scratch rows above every relative row (bases 2..13 with
#: offsets in [-2, 2] touch rows 0..15).
_WINDOW_SCRATCH = (16, 17, 18, 19, 20)
#: Unsigned two-source ops every lane width runs, u8 tier included.
_WINDOW_BINARY = st.sampled_from([
    ("avg", {"signed": False}), ("abs_diff", {"signed": False}),
    ("maximum", {"signed": False}), ("minimum", {"signed": False}),
    ("add", {"saturate": True, "signed": False}),
    ("sub", {"saturate": True, "signed": False}),
    ("logic_xor", {}),
])


@st.composite
def _window_programs(draw):
    """A program the compiled tier admits over step-1 ranges, built to
    exercise the row window.

    Relative reads at offsets ``>= w``, most through ``shift_lanes``
    with amounts drawn from a short list (so amounts repeat), then one
    relative write at ``w``, then reads at offsets ``<= w``: a read
    below ``w`` after the write forces the flush and a fresh window
    (the order :func:`repro.pim.program._rel_hazards_ok` accepts at a
    base gap of 1).  Scratch rows are written before they are read.
    """
    w = draw(st.integers(-2, 2))
    amounts = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2))
    before = draw(st.lists(st.integers(w, 2), min_size=2, max_size=4))
    after = draw(st.lists(st.integers(-2, w), min_size=1, max_size=3))
    s = _WINDOW_SCRATCH
    ops = []
    for k, r in enumerate(before):
        dst = s[k % 2] if k < 2 else TMP
        if draw(st.booleans()) or k < 2:
            ops.append(("shift_lanes", (dst, Rel(r)),
                        {"pixels": draw(st.sampled_from(amounts))}))
        else:
            method, kw = draw(_WINDOW_BINARY)
            ops.append((method, (dst, Rel(r), s[0]), kw))
    method, kw = draw(_WINDOW_BINARY)
    ops.append((method, (s[2], s[0], s[1]), kw))
    method, kw = draw(_WINDOW_BINARY)
    ops.append((method, (Rel(w), s[2], Rel(max(before))), kw))
    for k, r in enumerate(after):
        if draw(st.booleans()):
            ops.append(("shift_lanes", (s[3], Rel(r)),
                        {"pixels": draw(st.sampled_from(amounts))}))
        else:
            method, kw = draw(_WINDOW_BINARY)
            imm = Imm(draw(st.integers(0, 255)))
            ops.append((method, (s[3], Rel(r), imm), kw))
        method, kw = draw(_WINDOW_BINARY)
        ops.append((method, (s[4], s[3], Rel(r)), kw))
    return ops


@settings(max_examples=150, deadline=None)
@given(ops=_window_programs(), precision=st.sampled_from([8, 16]),
       start=st.integers(2, 13), length=st.integers(1, 12),
       as_range=_flag, seed=st.integers(0, 2**16))
@example(ops=[("shift_lanes", (16, Rel(1)), {"pixels": 2}),
              ("shift_lanes", (17, Rel(-1)), {"pixels": 2}),
              ("avg", (18, 16, 17), {"signed": False}),
              ("add", (Rel(-1), 18, Rel(1)),
               {"saturate": True, "signed": False}),
              ("shift_lanes", (19, Rel(-2)), {"pixels": 2}),
              ("maximum", (20, 19, Rel(-2)), {"signed": False})],
         precision=8, start=2, length=12, as_range=True, seed=0)
def test_step1_ranges_replay_on_the_row_window(ops, precision, start,
                                               length, as_range, seed):
    """Over a step-1 range of bases the compiled replay reads its
    relative rows from one window, shares each shift amount across
    offsets, and re-copies the window after a relative write; memory,
    Tmp, ledger and trace equal eager replay."""
    length = min(length, 14 - start)
    bases = range(start, start + length)
    rec = ProgramRecorder(_WINDOW_CONFIG, name="window")
    if precision != 8:
        rec.set_precision(precision)
    for method, operands, kwargs in ops:
        getattr(rec, method)(*operands, **kwargs)
    program = rec.finish()

    def fresh():
        device = PIMDevice(_WINDOW_CONFIG, trace=True)
        device._mem[:] = np.random.default_rng(seed).integers(
            0, 256, size=device._mem.shape, dtype=np.uint8)
        return device

    dev_c, dev_e = fresh(), fresh()
    assert dev_c.batch_rejection_reason(program, list(bases)) is None
    dev_c.run_program(program, bases if as_range else list(bases),
                      mode="auto")
    dev_e.run_program(program, bases, mode="eager")
    _assert_state_equal(dev_c, dev_e)


# -- the section's compute dtype ---------------------------------------------

def test_kernel_plans_run_every_section_on_uint8():
    """The QVGA LPF, HPF and NMS plans lower every section to uint8
    lanes: each of their ops is one the u8 tier runs exactly."""
    cfg = PIMConfig()
    for program in (lpf_program(cfg), hpf_program(cfg, scratch_base=200),
                    nms_program(cfg, th1=20, th2=40, scratch_base=210)):
        plan = compiled_plan(program, cfg)
        assert [s.dtype for s in plan.sections if s.steps] == \
            [np.uint8], program.name
        assert plan.lane_dtypes == "uint8"
        assert plan.fallback_ops == 0


def _u8_base_program(extra=None):
    """An HPF/NMS-like 8-bit body of u8-tier ops, plus one ``extra``
    op ``(method, dst, srcs, kwargs)`` appended before its last op."""
    rec = ProgramRecorder(CONFIG, name="tiers")
    rec.shift_lanes(12, Rel(1), 2, signed=False)
    rec.abs_diff(TMP, Rel(-1), 12, signed=False)
    rec.add(13, TMP, Rel(0), saturate=True, signed=False)
    rec.avg(13, 13, Imm(200), signed=False)
    rec.sub(TMP, 13, Imm(40), saturate=True, signed=False)
    rec.cmp_gt(14, TMP, Imm(20), signed=False)
    rec.logic_nor(14, 14, Rel(1))
    rec.maximum(13, 13, 14, signed=False)
    if extra is not None:
        method, dst, srcs, kwargs = extra
        getattr(rec, method)(dst, *srcs, **kwargs)
    rec.shift_lanes(Rel(-1), 13, -1, signed=False)
    return rec.finish()


@pytest.mark.parametrize("extra", [
    ("cmp_gt", TMP, (Rel(0), 13), {"signed": True}),
    ("add", 13, (13, Rel(1)), {"saturate": False, "signed": False}),
    ("minimum", 13, (13, TMP), {"signed": True}),
    ("shift_bits", 13, (13, -1), {"signed": False}),
], ids=lambda extra: extra[0])
def test_one_op_outside_the_u8_tier_runs_the_section_int16(extra):
    """A section holding one op the u8 lowering cannot run exactly --
    a signed read, a wrapping add, a bit shift -- runs on int16, and
    both tiers match eager replay."""
    for program, dtype in ((_u8_base_program(), np.uint8),
                           (_u8_base_program(extra), np.int16)):
        plan = compiled_plan(program, CONFIG)
        assert [s.dtype for s in plan.sections] == [dtype]
        for bases in ([4], [2, 5, 8], list(range(1, 11, 3))):
            dev_c = _fresh_device(len(bases))
            dev_e = _fresh_device(len(bases))
            dev_c.run_program(program, bases, mode="auto")
            dev_e.run_program(program, bases, mode="eager")
            _assert_state_equal(dev_c, dev_e)


_U8_SRCS = _DSTS + [Imm(0), Imm(1), Imm(77), Imm(128), Imm(255)]
_u8_src = st.sampled_from(_U8_SRCS)
_u8_op = st.one_of(
    st.tuples(st.sampled_from(["add", "sub"]), _dst, _u8_src,
              _u8_src).map(
        lambda t: (t[0], t[1:], {"saturate": True, "signed": False})),
    st.tuples(st.sampled_from(["avg", "abs_diff", "maximum", "minimum",
                               "cmp_gt"]), _dst, _u8_src, _u8_src).map(
        lambda t: (t[0], t[1:], {"signed": False})),
    st.tuples(st.sampled_from(["logic_and", "logic_or", "logic_xor",
                               "logic_nor"]), _dst, _u8_src,
              _u8_src).map(lambda t: (t[0], t[1:], {})),
    st.tuples(st.just("shift_lanes"), _dst, _u8_src,
              st.integers(-9, 9), _flag).map(
        lambda t: (t[0], t[1:3], {"pixels": t[3], "signed": t[4]})),
    st.tuples(st.just("copy"), _dst, _u8_src, _flag).map(
        lambda t: (t[0], t[1:3], {"signed": t[3]})),
)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_u8_op, min_size=1, max_size=12), bases=_bases,
       tail16=_flag, seed=st.integers(0, 2**16))
@example(ops=[("add", (Rel(0), Rel(0), Rel(1)),
               {"saturate": True, "signed": False}),
              ("avg", (Rel(1), Rel(0), Imm(255)), {"signed": False})],
         bases=[1, 2, 3, 4, 5, 6, 7, 8], tail16=False, seed=0)
def test_u8_tier_matches_eager(ops, bases, tail16, seed):
    """Programs of u8-tier ops (unsigned reads, immediates in
    ``[0, 255]``, lane shifts past the row) lower their 8-bit section
    to uint8 and replay compiled == eager, alone or ahead of a 16-bit
    section that reads their Tmp and rows back."""
    if tail16:
        ops = ops + [("set_precision", (16,), {}),
                     ("add", (Rel(0), TMP, 13),
                      {"saturate": True, "signed": True})]
        bases = bases[:1]  # a mid-program switch refuses multi-base
    program = _record_accepted(ops, 8)
    plan = compiled_plan(program, CONFIG)
    assert plan.sections[0].dtype is np.uint8
    dev_c = _fresh_device(seed)
    dev_e = _fresh_device(seed)
    dev_c.run_program(program, bases, mode="auto")
    dev_e.run_program(program, bases, mode="eager")
    _assert_state_equal(dev_c, dev_e)


def test_run_program_span_carries_lane_dtypes(replay_spans):
    """Compiled ``run_program`` spans name the section dtypes that ran;
    eager runs carry none."""
    mixed = _u8_base_program(("add", 13, (13, Rel(1)),
                              {"saturate": False, "signed": False}))
    rec = ProgramRecorder(CONFIG, name="two-sections")
    rec.avg(Rel(0), Rel(0), Rel(1), signed=False)
    rec.set_precision(16)
    rec.add(TMP, Rel(0), Imm(3))
    two = rec.finish()
    device = PIMDevice(CONFIG)
    for program, want in ((_u8_base_program(), "uint8"),
                          (mixed, "int16"), (two, "uint8,int32")):
        device.run_program(program, [4], mode="auto")
        assert replay_spans()[-1]["lane_dtypes"] == want
        device.run_program(program, [4], mode="eager")
        assert "lane_dtypes" not in replay_spans()[-1]


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


# -- the admission check against its set-based reference ---------------------

def _reference_rejection_reason(device, program, bases):
    """The set-based admission check that ``batch_rejection_reason``
    decides in array form: same rules, same order, same exceptions."""
    bases = [int(b) for b in bases]
    if device._fault_injector is not None and \
            device._fault_injector.transient:
        return "fault-injection-active"
    if len(bases) > 1 and any(b2 <= b1 for b1, b2 in
                              zip(bases, bases[1:])):
        return "bases-not-increasing"
    if len(bases) > 1 and not program.precision_stable:
        return "precision-switch-mid-program"
    if len(bases) > 1 and not program.registers_ok:
        return "register-reuse-hazard"
    if len(bases) > 1 and not program.rel_order_safe:
        span = program.rel_span
        if any(b2 - b1 <= span for b1, b2 in zip(bases, bases[1:])):
            return "rel-aliasing-within-span"
    rel_rows = {b + off for b in bases
                for off in program.rel_read_offsets |
                program.rel_write_offsets}
    if rel_rows and (min(rel_rows) < 0 or
                     max(rel_rows) >= device.config.num_rows):
        raise IndexError(
            f"program addresses rows outside "
            f"[0, {device.config.num_rows}) for these bases")
    if program.abs_write_rows & rel_rows:
        return "abs-write-aliases-rel-row"
    rel_written = {b + off for b in bases
                   for off in program.rel_write_offsets}
    if program.abs_read_rows & rel_written:
        return "abs-read-aliases-rel-write"
    return None


_admit_operand = st.one_of(
    st.builds(Rel, st.integers(-3, 3)),
    st.integers(0, CONFIG.num_rows - 1),
    st.just(TMP))
_admit_op = st.one_of(
    st.tuples(st.just("copy"), _admit_operand, _admit_operand),
    st.tuples(st.just("add"), _admit_operand, _admit_operand,
              _admit_operand))
_admit_bases = st.one_of(
    st.lists(st.integers(-4, CONFIG.num_rows + 4), max_size=8),
    st.integers(-1, CONFIG.num_rows).map(lambda base: [base]),
    st.lists(st.integers(0, CONFIG.num_rows - 1), max_size=8,
             unique=True).map(sorted),
    st.integers(1, 5).flatmap(lambda gap: st.integers(0, 4).map(
        lambda first: list(range(first, CONFIG.num_rows, gap)))))


def _admission_outcome(check, device, program, bases):
    try:
        return check(device, program, bases)
    except IndexError as exc:
        return ("IndexError", str(exc))


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_admit_op, min_size=1, max_size=6), bases=_admit_bases,
       switch_at=st.sampled_from([None] * 4 + list(range(6))),
       as_range=_flag, transient=st.sampled_from([False] * 5 + [True]))
@example(ops=[("add", Rel(0), Rel(-1), Rel(2))], bases=[2, 5, 8],
         switch_at=None, as_range=False, transient=False)
@example(ops=[("copy", Rel(1), 7)], bases=[6], switch_at=None,
         as_range=False, transient=False)
def test_admission_check_matches_set_reference(ops, bases, switch_at,
                                                as_range, transient):
    """The array-form admission check returns the reference's reason,
    or raises its ``IndexError``, for any program and base list --
    empty, single, unsorted, duplicated, negative or past the array.
    The examples pin the span rule's ``<=`` at a gap equal to the span
    and the absolute-read rule at one base."""
    rec = ProgramRecorder(CONFIG, name="admit")
    for index, (method, *operands) in enumerate(ops):
        if index == switch_at:
            rec.set_precision(16)
        getattr(rec, method)(*operands)
    program = rec.finish()
    device = PIMDevice(CONFIG)
    if transient:
        device.attach_fault_injector(FaultInjector(FaultPlan(
            seed=0, read_flip_prob=0.01)))
    if as_range and len(bases) > 1 and bases[1] > bases[0]:
        spec = range(bases[0], bases[-1] + 1, bases[1] - bases[0])
    else:
        spec = bases
    want = _admission_outcome(_reference_rejection_reason, device,
                              program, list(spec))
    got = _admission_outcome(
        lambda d, p, b: d.batch_rejection_reason(p, b), device,
        program, spec)
    assert got == want


# -- results that need no mask ----------------------------------------------

_LOGIC_METHODS = ("logic_and", "logic_or", "logic_xor", "logic_nor")
_VALUE_METHODS = ("cmp_gt", "abs_diff", "avg", "maximum", "minimum")
_SATURATING_METHODS = ("add", "sub")
_WIDE = PIMConfig(wordline_bits=256, num_rows=32)
_PATTERN_BASES = [0, 4, 8, 12, 16, 20]


def _two_source_ops(n):
    """Every two-source compare/logic/min-max op and saturating
    add/sub at lane width ``n``: ``(method, kwargs, second source)``,
    the second source a row or an immediate at a range end (the
    recorder refuses some of them)."""
    for method in _LOGIC_METHODS + _VALUE_METHODS + _SATURATING_METHODS:
        views = [{}] if method in _LOGIC_METHODS else \
            [{"signed": False}, {"signed": True}]
        for kwargs in views:
            if method in _SATURATING_METHODS:
                kwargs = dict(kwargs, saturate=True)
            for second in [Rel(1)] + _edge_imms(n):
                yield method, kwargs, second


def _pattern_program(n, method, kwargs, second):
    """``method`` into Tmp, then two ops that read Tmp by value: a
    logical right shift and an unsigned saturating add, which see any
    bits of a cached result above the lane width."""
    rec = ProgramRecorder(_WIDE, name="pattern")
    if n != 8:
        rec.set_precision(n)
    getattr(rec, method)(TMP, Rel(0), second, **kwargs)
    rec.shift_bits(Rel(2), TMP, -1, signed=False)
    rec.add(Rel(3), TMP, Imm(0), saturate=True, signed=False)
    return rec.finish()


def _lane_bound_device(n, seed):
    """Rows ``base`` and ``base + 1`` hold 0, 1, the signed bounds and
    ``mask`` in every pairing across the bases; the rest is random."""
    device = PIMDevice(_WIDE, trace=True)
    rng = np.random.default_rng(seed)
    device._mem[:] = rng.integers(0, 256, size=device._mem.shape,
                                  dtype=np.uint8)
    half, mask = 1 << (n - 1), (1 << n) - 1
    bounds = np.array([0, 1, half - 1, half, mask - 1, mask],
                      dtype=object)
    lanes = _WIDE.lanes(n)
    device.set_precision(n)
    for shift, base in enumerate(_PATTERN_BASES):
        for row, pats in ((base, bounds),
                          (base + 1, np.roll(bounds, shift))):
            values = [int(v) - (1 << n) if v >= half else int(v)
                      for v in np.resize(pats, lanes)]
            device.load(row, values)
    device.set_precision(8)
    device.ledger.reset()
    return device


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_unmasked_results_match_eager_at_lane_bounds(n):
    """Every compare/logic/min-max op and saturating add/sub, with and
    without the mask pass, runs compiled == eager with lanes at 0,
    ``mask`` and the signed bounds, and with immediates -- followed by
    ops that would see any bit of a cached result above the lane
    width."""
    for method, kwargs, second in _two_source_ops(n):
        try:
            program = _pattern_program(n, method, kwargs, second)
        except ValueError:
            continue  # an immediate outside the op's read range
        dev_c = _lane_bound_device(n, seed=n)
        dev_e = _lane_bound_device(n, seed=n)
        dev_c.run_program(program, _PATTERN_BASES, mode="auto")
        dev_e.run_program(program, _PATTERN_BASES, mode="eager")
        assert dev_c.batch_rejection_reason(
            program, _PATTERN_BASES) is None
        _assert_state_equal(dev_c, dev_e)


def test_mask_skip_set_is_pinned():
    """The ops whose compiled result skips the ``& mask`` pass: AND,
    OR and XOR; compare and absolute difference without an immediate;
    average, maximum and minimum of unsigned reads without one;
    unsigned saturating add and sub with or without one -- all below
    64-bit lanes, where the mask exists."""
    skipping = set()
    for n in (8, 16, 32, 64):
        for method, kwargs, second in _two_source_ops(n):
            try:
                program = _pattern_program(n, method, kwargs, second)
            except ValueError:
                continue
            op = next(op for op in program.ops if op.method == method)
            if _emits_pattern(op, n):
                skipping.add((n, method, kwargs.get("signed"),
                              isinstance(second, Imm)))
    expected = set()
    for n in (8, 16, 32):
        for method in ("logic_and", "logic_or", "logic_xor"):
            expected |= {(n, method, None, False), (n, method, None, True)}
        for method in ("cmp_gt", "abs_diff"):
            expected |= {(n, method, False, False), (n, method, True, False)}
        for method in ("avg", "maximum", "minimum"):
            expected.add((n, method, False, False))
        for method in ("add", "sub"):
            expected |= {(n, method, False, False), (n, method, False, True)}
    assert skipping == expected
