"""CostLedger per-op-class accounting (``op_costs`` / ``breakdown``)."""

import pytest

from repro.obs.export import op_breakdown_rows
from repro.obs.tracer import Span
from repro.pim.cost import CostLedger
from repro.pim.isa import OpKind


def _charged_ledger():
    ledger = CostLedger()
    ledger.charge(OpKind.ADD, cycles=1, sram_reads=2, sram_writes=1,
                  logic_ops=1)
    ledger.charge(OpKind.ADD, cycles=1, sram_reads=2, logic_ops=1)
    ledger.charge(OpKind.MUL, cycles=10, sram_reads=2, sram_writes=1,
                  tmp_accesses=1, logic_ops=10)
    return ledger


class TestBreakdown:
    def test_cycles_tile_the_ledger_total(self):
        ledger = _charged_ledger()
        rows = ledger.breakdown()
        assert sum(r["cycles"] for r in rows.values()) == \
            ledger.cycles
        assert sum(r["count"] for r in rows.values()) == \
            sum(ledger.op_counts.values())

    def test_per_class_fields(self):
        rows = _charged_ledger().breakdown()
        add, mul = rows["add"], rows["mul"]
        assert add["count"] == 2 and add["cycles"] == 2
        assert add["sram_reads"] == 4 and add["sram_writes"] == 1
        assert mul["count"] == 1 and mul["cycles"] == 10
        assert mul["tmp_accesses"] == 1 and mul["logic_ops"] == 10

    def test_sorted_by_descending_cycles_with_shares(self):
        rows = _charged_ledger().breakdown()
        cycles = [r["cycles"] for r in rows.values()]
        assert cycles == sorted(cycles, reverse=True)
        assert sum(r["cycle_share"] for r in rows.values()) == \
            pytest.approx(1.0)
        assert sum(r["energy_share"] for r in rows.values()) == \
            pytest.approx(1.0)
        assert all(r["energy_pj"] > 0 for r in rows.values())

    def test_empty_ledger_breaks_down_to_nothing(self):
        assert CostLedger().breakdown() == {}


class TestOpCostPropagation:
    def test_snapshot_delta_isolates_op_costs(self):
        ledger = _charged_ledger()
        snap = ledger.snapshot()
        ledger.charge(OpKind.ADD, cycles=1, sram_reads=2,
                      logic_ops=1)
        delta = ledger.delta_since(snap)
        assert delta.breakdown() == {
            "add": {"count": 1, "cycles": 1, "sram_reads": 2,
                    "sram_writes": 0, "tmp_accesses": 0,
                    "logic_ops": 1,
                    "energy_pj": delta.energy().total_pj,
                    "cycle_share": 1.0, "energy_share": 1.0}}
        # The snapshot is independent of later charges.
        assert snap.op_costs[(OpKind.ADD, "cycles")] == 2

    def test_merge_accumulates_op_costs(self):
        a, b = _charged_ledger(), _charged_ledger()
        a.merge(b)
        assert a.op_costs[(OpKind.MUL, "cycles")] == 20
        assert a.breakdown()["mul"]["count"] == 2

    def test_charge_program_scales_op_costs(self):
        aggregate = _charged_ledger()
        ledger = CostLedger()
        ledger.charge_program(aggregate, reps=3)
        assert ledger.op_costs[(OpKind.ADD, "cycles")] == 6
        assert ledger.breakdown()["mul"]["cycles"] == 30

    def test_reset_clears_op_costs(self):
        ledger = _charged_ledger()
        ledger.reset()
        assert not ledger.op_costs


class TestObsBreakdownRows:
    def test_rows_from_span_ledgers(self):
        spans = [
            Span(name="k1", category="kernel", span_id=1,
                 ledger=_charged_ledger()),
            Span(name="k2", category="kernel", span_id=2,
                 ledger=_charged_ledger()),
            Span(name="other", category="frame", span_id=3,
                 ledger=_charged_ledger()),
        ]
        rows = {r["op"]: r for r in op_breakdown_rows(spans)}
        assert rows["add"]["count"] == 4      # kernel spans only
        assert rows["mul"]["cycles"] == 20

    def test_no_ledgers_no_rows(self):
        spans = [Span(name="k", category="kernel", span_id=1)]
        assert op_breakdown_rows(spans) == []


def _charge_program_now(ledger, aggregate, reps):
    """``charge_program`` folded at once: the reference for the
    deferred histograms."""
    for name in ("cycles", "sram_reads", "sram_writes", "tmp_accesses",
                 "logic_ops", "host_transfers"):
        setattr(ledger, name,
                getattr(ledger, name) + getattr(aggregate, name) * reps)
    for name in ("op_counts", "op_profile", "op_costs"):
        counter = getattr(ledger, name)
        for key, count in getattr(aggregate, name).items():
            counter[key] += count * reps


def _aggregate(*kinds):
    ledger = CostLedger()
    for kind in kinds:
        ledger.charge(kind, cycles=2, sram_reads=1, tmp_accesses=1,
                      precision=8)
    return ledger


class TestDeferredProgramCharges:
    """``charge_program`` defers its histograms; every read sees what
    charging at once leaves, insertion order included."""

    @pytest.mark.parametrize("reps", [0, 1, 7])
    def test_interleaved_charges_equal_immediate_folding(self, reps):
        first = _aggregate(OpKind.AVG, OpKind.SHIFT_LANES)
        second = _aggregate(OpKind.MUL, OpKind.AVG)
        got, want = CostLedger(), CostLedger()
        steps = [("program", first, reps), ("program", second, 3),
                 ("charge", OpKind.XOR, 0), ("program", first, 2),
                 ("program", second, reps)]
        for step, arg, n in steps:
            if step == "program":
                got.charge_program(arg, n)
                _charge_program_now(want, arg, n)
            else:
                for ledger in (got, want):
                    ledger.charge(arg, cycles=1, sram_reads=2)
        assert got == want
        for name in ("op_counts", "op_profile", "op_costs"):
            assert list(getattr(got, name).items()) == \
                list(getattr(want, name).items()), name
        assert got.breakdown() == want.breakdown()

    def test_snapshot_delta_and_reset_see_pending_charges(self):
        aggregate = _aggregate(OpKind.ADD)
        ledger = CostLedger()
        snap = ledger.snapshot()
        ledger.charge_program(aggregate, 5)
        assert ledger.snapshot().op_counts[OpKind.ADD] == 5
        assert ledger.delta_since(snap).op_costs[
            (OpKind.ADD, "cycles")] == 10
        ledger.charge_program(aggregate, 1)
        ledger.reset()
        assert ledger == CostLedger()
        assert not ledger.op_counts
