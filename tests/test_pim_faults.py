"""Fault-injection plumbing: injector semantics, reset contract,
replay interaction, and the serve pool's faulty-device eviction.

Satellite of the conformance-harness PR: beyond the robustness trials
in :mod:`repro.verify.robustness`, these tests pin the mechanics the
trials rely on -- seeded determinism of the injector, ``reset()``
returning a faulted device to power-on state bit-for-bit, and the
transient injector forcing eager replay so every read passes through
the corruption hook.
"""

import numpy as np
import pytest

from repro.obs.metrics import get_registry
from repro.pim import PIMConfig, PIMDevice, ProgramRecorder, Rel
from repro.pim.faults import FaultInjector, FaultPlan
from repro.serve import FifoScheduler
from repro.serve.pool import PoolWorker

CFG = PIMConfig(wordline_bits=128, num_rows=6, num_tmp_registers=2)


def _memory(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, CFG.row_bytes) for _ in range(CFG.num_rows)]


def _load(dev, memory):
    dev.set_precision(8)
    for row, data in enumerate(memory):
        dev.load(row, np.asarray(data, dtype=np.int64), signed=False)


def _rows(dev):
    dev.set_precision(8)
    return [[int(v) & 0xFF for v in dev.store(r, signed=False)]
            for r in range(CFG.num_rows)]


class TestFaultPlan:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultPlan(read_flip_prob=1.5)

    def test_plan_is_frozen(self):
        plan = FaultPlan(seed=1)
        with pytest.raises(Exception):
            plan.seed = 2


class TestFaultInjector:
    def test_stored_flip_changes_exactly_one_bit(self):
        memory = _memory()
        dev = PIMDevice(CFG)
        _load(dev, memory)
        before = _rows(dev)
        dev.inject_fault(1, 13)
        after = _rows(dev)
        diffs = [(r, i) for r in range(CFG.num_rows)
                 for i in range(CFG.row_bytes)
                 if before[r][i] != after[r][i]]
        assert diffs == [(1, 13 // 8)]
        assert before[1][1] ^ after[1][1] == 1 << (13 % 8)
        assert dev.fault_state()["suspect"]

    def test_corrupt_read_is_seeded_deterministic(self):
        plan = FaultPlan(seed=42, read_flip_prob=0.05)
        raw = np.arange(16, dtype=np.uint8)
        got_a = FaultInjector(plan).corrupt_read(raw.copy(), 0)
        got_b = FaultInjector(plan).corrupt_read(raw.copy(), 0)
        assert np.array_equal(got_a, got_b)

    def test_corrupt_read_leaves_stored_value_intact(self):
        plan = FaultPlan(seed=7, read_flip_prob=0.5)
        raw = np.zeros(16, dtype=np.uint8)
        FaultInjector(plan).corrupt_read(raw, 0)
        assert not raw.any(), "read fault must not write the array"

    def test_read_fault_locality_preserves_rng_sequence(self):
        # A row outside read_fault_rows consumes no RNG draws, so the
        # susceptible row sees the same corruption either way.
        plan = FaultPlan(seed=9, read_flip_prob=0.1,
                         read_fault_rows=(2,))
        raw = np.full(16, 0xA5, dtype=np.uint8)
        inj = FaultInjector(plan)
        assert np.array_equal(inj.corrupt_read(raw.copy(), 0), raw)
        via_other_row = inj.corrupt_read(raw.copy(), 2)
        direct = FaultInjector(plan).corrupt_read(raw.copy(), 2)
        assert np.array_equal(via_other_row, direct)


class TestResetContract:
    """Satellite: reset clears faults; replay is bit-identical to
    a fresh device afterwards."""

    @staticmethod
    def _program():
        rec = ProgramRecorder(CFG, name="probe")
        rec.add(Rel(2), Rel(0), Rel(1), saturate=True, signed=False)
        rec.logic_xor(Rel(3), Rel(0), Rel(2))
        return rec.finish()

    def test_reset_clears_fault_state(self):
        dev = PIMDevice(CFG)
        dev.attach_fault_injector(FaultInjector(FaultPlan(
            seed=1, stored_flips=((0, 5),), read_flip_prob=0.1)))
        dev.store(0, signed=False)  # draw at least one read
        assert dev.fault_state()["suspect"]
        dev.reset()
        state = dev.fault_state()
        assert state == {"stored_faults": 0, "read_faults": 0,
                         "injector_attached": False, "suspect": False} \
            or (not state["suspect"] and not state["stored_faults"])

    def test_reset_device_replays_bit_identical_to_fresh(self):
        program = self._program()
        memory = _memory(3)

        fresh = PIMDevice(CFG)
        _load(fresh, memory)
        fresh.run_program(program, [0])
        want = _rows(fresh)

        dev = PIMDevice(CFG)
        _load(dev, memory)
        dev.attach_fault_injector(FaultInjector(FaultPlan(
            seed=2, stored_flips=((0, 3), (2, 40)),
            read_flip_prob=0.05)))
        dev.run_program(program, [0])
        assert _rows(dev) != want, "faults should corrupt the replay"

        dev.reset()
        assert not dev.fault_state()["suspect"]
        _load(dev, memory)
        dev.run_program(program, [0])
        assert _rows(dev) == want

    def test_transient_injector_forces_eager_replay(self, replay_spans):
        program = self._program()
        dev = PIMDevice(CFG)
        assert dev.batch_rejection_reason(program, [0]) is None
        dev.attach_fault_injector(FaultInjector(FaultPlan(
            seed=1, read_flip_prob=0.01)))
        assert dev.batch_rejection_reason(program, [0]) == \
            "fault-injection-active"
        dev.run_program(program, [0], mode="auto")
        attrs = replay_spans()[-1]
        assert attrs["executed_mode"] == "eager"
        assert attrs["fallback_reason"] == "fault-injection-active"
        dev.detach_fault_injector()
        assert dev.batch_rejection_reason(program, [0]) is None

    def test_stored_only_injector_still_batches(self):
        # Stored flips corrupt the array once at attach time; compiled
        # replay reads the corrupted memory wholesale, so there is no
        # per-read hook to preserve and batching stays legal.
        program = self._program()
        dev = PIMDevice(CFG)
        dev.attach_fault_injector(FaultInjector(FaultPlan(
            seed=1, stored_flips=((0, 3),))))
        assert dev.batch_rejection_reason(program, [0]) is None


class _StubFrontend:
    def __init__(self, devices):
        self._detect_devices = devices


class _StubTracker:
    def __init__(self, devices):
        self.frontend = _StubFrontend(devices)


class TestServeEviction:
    def test_faulty_device_is_reset_and_counted(self):
        dev = PIMDevice(CFG)
        _load(dev, _memory(5))
        dev.inject_fault(1, 7)
        worker = PoolWorker(
            index=0, scheduler=FifoScheduler(),
            sessions=None, tracker_factory=lambda: _StubTracker(
                {0: dev}))
        ctr = get_registry().counter(
            "serve_device_evictions_total",
            "Devices reset between frames because faults were detected")
        before = ctr.total()
        assert worker._evict_faulty_devices() == 1
        assert ctr.total() == before + 1
        assert not dev.fault_state()["suspect"]
        # Power-on state: the eviction wiped the corrupted array.
        assert all(b == 0 for row in _rows(dev) for b in row)

    def test_healthy_device_is_left_alone(self):
        dev = PIMDevice(CFG)
        memory = _memory(6)
        _load(dev, memory)
        worker = PoolWorker(
            index=1, scheduler=FifoScheduler(),
            sessions=None, tracker_factory=lambda: _StubTracker(
                {0: dev}))
        assert worker._evict_faulty_devices() == 0
        assert _rows(dev) == [[int(b) for b in row] for row in memory]
