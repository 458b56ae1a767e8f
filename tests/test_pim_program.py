"""Unit tests for the program capture/replay layer (repro.pim.program)."""

import numpy as np
import pytest

from repro.pim import (
    PIMConfig,
    PIMDevice,
    ProgramCache,
    ProgramRecorder,
    program_key,
    Imm,
    Rel,
    TMP,
    Tmp,
)

SMALL = PIMConfig(wordline_bits=64, num_rows=16)


def _seed(device, seed=0):
    rng = np.random.default_rng(seed)
    device._mem[:] = rng.integers(0, 256, size=device._mem.shape,
                                  dtype=np.uint8)


def _record_lpf_row(rec):
    rec.avg(Rel(0), Rel(0), Rel(1))
    rec.shift_lanes(TMP, Rel(0), 1)
    rec.avg(Rel(0), Rel(0), TMP)


def _assert_auto_runs_eager(device, program, bases, rule, replay_spans):
    """The hazard analysis names ``rule`` and auto mode runs eager."""
    assert device.batch_rejection_reason(program, bases) == rule
    device.run_program(program, bases, mode="auto")
    attrs = replay_spans()[-1]
    assert attrs["executed_mode"] == "eager"
    assert attrs["fallback_reason"] == rule


class TestRecorder:
    def test_records_ops_and_aggregate(self):
        rec = ProgramRecorder(SMALL, name="lpf")
        _record_lpf_row(rec)
        program = rec.finish()
        assert program.name == "lpf"
        assert len(program) == 3
        # 2 avg with SRAM dst (2 cycles each) + 1 shift to Tmp (1).
        assert program.aggregate.cycles == 5
        assert program.config_digest == SMALL.digest()

    def test_finish_freezes(self):
        rec = ProgramRecorder(SMALL)
        rec.add(Rel(0), Rel(0), Imm(1))
        rec.finish()
        with pytest.raises(RuntimeError):
            rec.add(Rel(0), Rel(0), Imm(1))

    def test_validates_immediates(self):
        for precision, imm, signed in ((8, 300, True),
                                       (64, 1 << 63, False)):
            rec = ProgramRecorder(SMALL)
            rec.set_precision(precision)
            with pytest.raises(ValueError, match="exceeds"):
                rec.add(Rel(0), Rel(0), Imm(imm), signed=signed)
            device = PIMDevice(SMALL)
            device.set_precision(precision)
            with pytest.raises(ValueError, match="exceeds"):
                device.add(1, 1, Imm(imm), signed=signed)

    def test_validates_rows_and_registers(self):
        rec = ProgramRecorder(SMALL)
        with pytest.raises(IndexError):
            rec.add(99, Rel(0), Imm(1))
        with pytest.raises(IndexError):
            rec.add(Rel(99), Rel(0), Imm(1))
        with pytest.raises(IndexError):
            rec.add(Tmp(5), Rel(0), Imm(1))

    def test_set_precision_is_free_and_replayed(self):
        rec = ProgramRecorder(SMALL)
        rec.set_precision(16)
        rec.add(Rel(0), Rel(0), Imm(1000))
        program = rec.finish()
        assert program.initial_precision == 8
        assert len(program) == 1  # pseudo-ops don't count
        device = PIMDevice(SMALL)
        device.run_program(program, [3])
        assert device.precision == 16

    def test_recording_charges_like_device(self):
        rec = ProgramRecorder(SMALL)
        device = PIMDevice(SMALL)
        for target in (rec, device):
            target.mul(Rel(2), Rel(2), Imm(3), rshift=1)
            target.abs_diff(TMP, Rel(0), Rel(1))
            target.add(4, Rel(0), TMP, saturate=True)
        assert rec.ledger.cycles == device.ledger.cycles
        assert rec.ledger.sram_reads == device.ledger.sram_reads
        assert rec.ledger.sram_writes == device.ledger.sram_writes
        assert rec.ledger.tmp_accesses == device.ledger.tmp_accesses
        assert dict(rec.ledger.op_counts) == dict(device.ledger.op_counts)


class TestBatchability:
    def test_lpf_body_is_batchable(self):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        program = rec.finish()
        assert program.batchable
        assert program.rel_order_safe

    def test_read_below_after_write_is_hazard(self):
        # Writing Rel(0) then reading Rel(-1) later: eager order would
        # see the freshly-written value, vectorized would not.
        rec = ProgramRecorder(SMALL)
        rec.copy(Rel(0), Imm(1))
        rec.add(Rel(1), Rel(-1), Imm(1))
        program = rec.finish()
        assert not program.rel_order_safe

    def test_tmp_read_before_write_is_not_batchable(self):
        rec = ProgramRecorder(SMALL)
        rec.add(Rel(0), Rel(0), TMP)
        rec.copy(TMP, Rel(0))
        program = rec.finish()
        assert not program.registers_ok
        assert not program.batchable

    def test_scratch_read_before_write_is_not_batchable(self):
        rec = ProgramRecorder(SMALL)
        rec.add(Rel(0), Rel(0), 12)
        rec.copy(12, Rel(0))
        assert not rec.finish().batchable

    def test_hazard_names_rule_and_auto_runs_eager(self, replay_spans):
        rec = ProgramRecorder(SMALL)
        rec.add(Rel(0), Rel(0), TMP)
        rec.copy(TMP, Rel(0))
        program = rec.finish()
        device = PIMDevice(SMALL)
        _assert_auto_runs_eager(device, program, [1, 2],
                                "register-reuse-hazard", replay_spans)

    def test_footprint_disjoint_bases_batch_unsafe_order(self,
                                                          replay_spans):
        # Write offset 0, then read offset 1: with stride-1 bases the
        # vectorized op order would leak a later base's write into an
        # earlier base's read (the warp-kernel shape).
        rec = ProgramRecorder(SMALL)
        rec.copy(Rel(0), Imm(9))
        rec.add(Rel(1), Rel(1), Rel(0))
        program = rec.finish()
        assert not program.rel_order_safe
        assert program.rel_span == 1
        device = PIMDevice(SMALL)
        _assert_auto_runs_eager(device, program, [1, 2],
                                "rel-aliasing-within-span", replay_spans)
        # ...but runs compiled when bases are strided past the footprint.
        _seed(device)
        reference = PIMDevice(SMALL)
        _seed(reference)
        device.run_program(program, [1, 4, 7], mode="auto")
        assert replay_spans()[-1]["executed_mode"] == "compiled"
        reference.run_program(program, [1, 4, 7], mode="eager")
        assert np.array_equal(device._mem, reference._mem)

    def test_decreasing_bases_fall_back(self, replay_spans):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        program = rec.finish()
        device = PIMDevice(SMALL)
        _assert_auto_runs_eager(device, program, [5, 3],
                                "bases-not-increasing", replay_spans)

    def test_out_of_range_bases_raise(self):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        program = rec.finish()
        device = PIMDevice(SMALL)
        with pytest.raises(IndexError):
            device.run_program(program, [15])  # Rel(1) -> row 16


class TestRunProgram:
    def test_rejects_unknown_mode(self):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        program = rec.finish()
        device = PIMDevice(SMALL)
        for mode in ("sideways", "batched", "compiled"):
            with pytest.raises(ValueError, match="unknown replay mode"):
                device.run_program(program, [0], mode=mode)

    def test_rejects_geometry_mismatch(self):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        program = rec.finish()
        other = PIMDevice(PIMConfig(wordline_bits=128, num_rows=16))
        with pytest.raises(ValueError):
            other.run_program(program, [0])

    def test_empty_bases_is_noop(self):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        device = PIMDevice(SMALL)
        device.run_program(rec.finish(), [])
        assert device.ledger.cycles == 0

    def test_batched_equals_eager_memory_ledger_trace(self, replay_spans):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        program = rec.finish()
        dev_b = PIMDevice(SMALL, trace=True)
        dev_e = PIMDevice(SMALL, trace=True)
        _seed(dev_b, 3)
        _seed(dev_e, 3)
        bases = list(range(2, 9))
        dev_b.run_program(program, bases, mode="auto")
        assert replay_spans()[-1]["executed_mode"] == "compiled"
        dev_e.run_program(program, bases, mode="eager")
        assert np.array_equal(dev_b._mem, dev_e._mem)
        assert all(np.array_equal(a, b)
                   for a, b in zip(dev_b._tmp, dev_e._tmp))
        assert dev_b.ledger.cycles == dev_e.ledger.cycles
        assert dict(dev_b.ledger.op_profile) == \
            dict(dev_e.ledger.op_profile)
        assert dev_b.trace == dev_e.trace

    def test_o1_charging_matches_aggregate_times_reps(self):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        program = rec.finish()
        device = PIMDevice(SMALL)
        device.run_program(program, range(1, 11))
        assert device.ledger.cycles == program.aggregate.cycles * 10
        assert device.ledger.sram_reads == \
            program.aggregate.sram_reads * 10


class TestProgramCache:
    def _program(self, tag):
        rec = ProgramRecorder(SMALL, name=tag)
        _record_lpf_row(rec)
        return rec.finish()

    def test_lru_eviction(self):
        cache = ProgramCache(capacity=2)
        for tag in ("a", "b", "c"):
            cache.put((tag,), self._program(tag))
        assert ("a",) not in cache
        assert ("b",) in cache and ("c",) in cache

    def test_get_refreshes_recency_and_counts(self):
        cache = ProgramCache(capacity=2)
        cache.put(("a",), self._program("a"))
        cache.put(("b",), self._program("b"))
        assert cache.get(("a",)).name == "a"
        cache.put(("c",), self._program("c"))
        assert ("a",) in cache and ("b",) not in cache
        assert cache.hits == 1
        assert cache.get(("zzz",)) is None
        assert cache.misses == 1

    def test_get_or_record_compiles_once(self):
        cache = ProgramCache()
        calls = []

        def build(rec):
            calls.append(1)
            _record_lpf_row(rec)

        key = program_key("lpf", (), 8, SMALL)
        p1 = cache.get_or_record(key, SMALL, build, name="lpf")
        p2 = cache.get_or_record(key, SMALL, build, name="lpf")
        assert p1 is p2
        assert len(calls) == 1

    def test_program_key_includes_geometry(self):
        other = PIMConfig(wordline_bits=128, num_rows=16)
        assert program_key("k", (4, 4), 8, SMALL) != \
            program_key("k", (4, 4), 8, other)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ProgramCache(capacity=0)


class TestProgramCacheConcurrency:
    """The cache backs many pool workers; hammer it from threads."""

    def test_concurrent_access_keeps_invariants(self):
        import threading

        cache = ProgramCache(capacity=8)
        n_threads, n_keys, rounds = 8, 24, 40  # keys >> capacity
        lookups = n_threads * rounds
        errors = []
        start = threading.Barrier(n_threads)

        def build_for(tag):
            def build(rec):
                _record_lpf_row(rec)
            return build

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                start.wait()
                for _ in range(rounds):
                    tag = f"k{rng.integers(n_keys)}"
                    key = program_key(tag, (), 8, SMALL)
                    program = cache.get_or_record(
                        key, SMALL, build_for(tag), name=tag)
                    assert program.name == tag
                    len(cache)
                    cache.stats()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(cache) <= cache.capacity
        # Every lookup was counted exactly once as a hit or a miss.
        assert cache.hits + cache.misses == lookups

    def test_concurrent_miss_first_insert_wins(self):
        import threading

        cache = ProgramCache(capacity=8)
        key = program_key("lpf", (), 8, SMALL)
        gate = threading.Barrier(4)
        results = []

        def build(rec):
            _record_lpf_row(rec)

        def worker():
            gate.wait()
            results.append(cache.get_or_record(key, SMALL, build,
                                               name="lpf"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All callers converge on one canonical program object.
        assert len(cache) == 1
        canonical = cache.get(key)
        assert all(p is canonical for p in results)


class TestTraceRing:
    def test_max_trace_bounds_buffer(self):
        device = PIMDevice(SMALL, trace=True, max_trace=4)
        for i in range(10):
            device.add(TMP, 0, Imm(i % 5))
        assert len(device.trace) == 4
        # Ring keeps the latest records.
        assert device.trace[-1].srcs[-1] == "#4"

    def test_max_trace_validation(self):
        with pytest.raises(ValueError):
            PIMDevice(SMALL, trace=True, max_trace=0)

    def test_unbounded_by_default(self):
        device = PIMDevice(SMALL, trace=True)
        for _ in range(10):
            device.add(TMP, 0, Imm(1))
        assert len(device.trace) == 10

    def test_ring_applies_to_batched_replay(self, replay_spans):
        rec = ProgramRecorder(SMALL)
        _record_lpf_row(rec)
        program = rec.finish()
        device = PIMDevice(SMALL, trace=True, max_trace=3)
        device.run_program(program, range(0, 8), mode="auto")
        assert replay_spans()[-1]["executed_mode"] == "compiled"
        assert len(device.trace) == 3
        reference = PIMDevice(SMALL, trace=True)
        reference.run_program(program, range(0, 8), mode="eager")
        assert device.trace == reference.trace[-3:]


class TestBlockDMA:
    def test_load_rows_matches_loop(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 256, size=(5, 8), dtype=np.int64)
        d1, d2 = PIMDevice(SMALL), PIMDevice(SMALL)
        d1.load_rows(range(2, 7), values, signed=False)
        for i in range(5):
            d2.load(2 + i, values[i], signed=False)
        assert np.array_equal(d1._mem, d2._mem)
        assert d1.ledger.host_transfers == d2.ledger.host_transfers == 5

    def test_store_rows_matches_loop(self):
        device = PIMDevice(SMALL)
        _seed(device, 2)
        block = device.store_rows(range(3, 8), signed=False)
        rows = [device.store(3 + i, signed=False) for i in range(5)]
        assert np.array_equal(block, np.stack(rows))

    def test_load_rows_validation(self):
        device = PIMDevice(SMALL)
        with pytest.raises(IndexError):
            device.load_rows([99], np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            device.load_rows([1], np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            device.load_rows([1], np.full((1, 4), 999, dtype=np.int64))
        device.load_rows([], np.zeros((0, 4)))  # no-op
        assert device.ledger.host_transfers == 0

    def test_store_rows_empty(self):
        device = PIMDevice(SMALL)
        assert device.store_rows([]).shape == (0, device.lanes)

    # Candidate lane values per host dtype: the bounds of every lane
    # width and view, one past them, and (for floats) fractions that
    # truncate toward zero into or out of range.
    _DMA_VALUES = {
        "uint8": [0, 1, 127, 128, 255],
        "int16": [-32768, -129, -128, -1, 0, 127, 128, 255, 256, 32767],
        "int64": [-(1 << 63), -(1 << 31) - 1, -(1 << 31), -32769, -32768,
                  -129, -128, -1, 0, 255, 256, 65535, 65536,
                  (1 << 31) - 1, 1 << 31, (1 << 32) - 1, 1 << 32,
                  (1 << 63) - 1],
        "uint64": [0, 255, 256, (1 << 63) - 1, 1 << 63, (1 << 64) - 1],
        "float64": [-129.5, -128.9, -1.5, -0.7, 0.4, 127.9, 128.5, 255.99,
                    256.0, 32767.5, 65535.9, 65536.0, -32768.9],
        "bool": [False, True],
    }

    @staticmethod
    def _loop_load(config, precision, rows, values, signed):
        """A loop of ``load``: the device state or the exception."""
        device = PIMDevice(config)
        device.set_precision(precision)
        try:
            for row, line in zip(rows, values):
                device.load(row, line, signed=signed)
        except (ValueError, IndexError) as exc:
            return device, exc
        return device, None

    @pytest.mark.parametrize("dtype", sorted(_DMA_VALUES))
    @pytest.mark.parametrize("precision", [8, 16, 32, 64])
    @pytest.mark.parametrize("signed", [False, True])
    def test_dtype_matrix_matches_loop(self, dtype, precision, signed):
        """``load_rows``/``store_rows`` write, refuse and read back
        exactly what loops of ``load``/``store`` do, for every host
        dtype, lane width and view, full and short rows, and both
        ``range`` and list row specs."""
        config = PIMConfig(wordline_bits=128, num_rows=16)
        lanes = config.lanes(precision)
        candidates = self._DMA_VALUES[dtype]
        blocks = []
        for width in (lanes, lanes - 1):
            for k, value in enumerate(candidates):
                block = np.zeros((3, width), dtype=dtype)
                block[k % 3, k % width] = value
                blocks.append(block)
            # Every candidate a loop accepts, packed together.
            accepted = [v for v in candidates if self._loop_load(
                config, precision, [0], np.full((1, 1), v, dtype=dtype),
                signed)[1] is None]
            if accepted:
                blocks.append(np.resize(np.array(accepted, dtype=dtype),
                                        (3, width)))
        for block in blocks:
            for rows in (range(4, 7), [9, 2, 13]):
                want, error = self._loop_load(config, precision,
                                              list(rows), block, signed)
                device = PIMDevice(config)
                device.set_precision(precision)
                if error is not None:
                    with pytest.raises(type(error)) as got:
                        device.load_rows(rows, block, signed=signed)
                    assert str(got.value) == str(error)
                    assert not device._mem.any()
                    assert device.ledger.host_transfers == 0
                    continue
                device.load_rows(rows, block, signed=signed)
                assert np.array_equal(device._mem, want._mem)
                assert device.ledger.host_transfers == \
                    want.ledger.host_transfers == 3
                for view in (False, True):
                    got = device.store_rows(rows, signed=view)
                    ref = np.stack([want.store(r, signed=view)
                                    for r in rows])
                    assert got.dtype == np.int64
                    assert np.array_equal(got, ref)
                assert device.ledger.host_transfers == \
                    want.ledger.host_transfers

    @pytest.mark.parametrize("rows", [[16], [-1], range(14, 17),
                                      range(-1, 2), [3, 99, 4]])
    def test_rows_outside_the_array_raise_like_the_loop(self, rows):
        values = np.zeros((len(rows), 4), dtype=np.uint8)
        _, error = self._loop_load(SMALL, 8, list(rows), values, True)
        assert isinstance(error, IndexError)
        device = PIMDevice(SMALL)
        with pytest.raises(IndexError):
            device.load_rows(rows, values)
        with pytest.raises(IndexError):
            device.store_rows(rows)
        assert not device._mem.any()
        assert device.ledger.host_transfers == 0
