"""Property tests for the shard placement policy layer.

The pure pieces of ``repro.shard.placement`` carry the contracts the
whole failover design leans on, so they get hypothesis coverage
rather than example tests:

* consistent hashing -- adding/removing one shard moves only the keys
  that touch that shard (~K/N of K keys), everything else stays put;
* failover replay plans -- strictly increasing, duplicate-free,
  gap- and error-refusing, exactly the ok and orphan frames past the
  checkpoint watermark;
* restart backoff -- monotone non-decreasing, never above its cap,
  budget bookkeeping exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.placement import (
    HashRing,
    ReplayGap,
    RestartBackoff,
    failover_replay_plan,
)

# Session-id-shaped keys; small alphabet provokes collisions on
# purpose (distinct keys must still place independently).
_keys = st.lists(
    st.text(alphabet="abcdef0123456789-", min_size=1, max_size=12),
    min_size=1, max_size=200, unique=True)
_shard_sets = st.lists(st.integers(min_value=0, max_value=63),
                       min_size=2, max_size=12, unique=True)


class TestHashRing:
    @given(keys=_keys, shards=_shard_sets, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_moves_only_keys_onto_the_new_shard(self, keys,
                                                    shards, data):
        """Scale-up remaps ~K/N keys, all of them to the new shard."""
        new = data.draw(st.integers(min_value=64, max_value=127))
        ring = HashRing(shards)
        before = {k: ring.lookup(k) for k in keys}
        ring.add(new)
        after = {k: ring.lookup(k) for k in keys}
        moved = {k for k in keys if before[k] != after[k]}
        assert all(after[k] == new for k in moved)
        # ~K/N with vnode noise: a generous statistical envelope that
        # still catches "everything rehashed" regressions cold.
        expected = len(keys) / (len(shards) + 1)
        assert len(moved) <= max(8, 3 * expected)

    @given(keys=_keys, shards=_shard_sets, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_remove_moves_only_the_dead_shards_keys(self, keys,
                                                    shards, data):
        """Scale-down strands nothing and disturbs no survivor."""
        dead = data.draw(st.sampled_from(shards))
        ring = HashRing(shards)
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(dead)
        after = {k: ring.lookup(k) for k in keys}
        for k in keys:
            if before[k] == dead:
                assert after[k] is not None and after[k] != dead
            else:
                assert after[k] == before[k]

    @given(keys=_keys, shards=_shard_sets, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exclude_equals_remove(self, keys, shards, data):
        """Failover targeting: exclude(dead) == lookup after remove,
        so the failover destination is as stable as the ring."""
        dead = data.draw(st.sampled_from(shards))
        ring = HashRing(shards)
        excluded = {k: ring.lookup(k, exclude=(dead,)) for k in keys}
        ring.remove(dead)
        assert excluded == {k: ring.lookup(k) for k in keys}

    @given(keys=_keys, shards=_shard_sets)
    @settings(max_examples=40, deadline=None)
    def test_placement_is_deterministic_and_total(self, keys, shards):
        a = HashRing(shards)
        b = HashRing(list(reversed(shards)))
        for k in keys:
            owner = a.lookup(k)
            assert owner in shards
            assert b.lookup(k) == owner  # insertion order irrelevant


class TestFailoverReplayPlan:
    @given(watermark=st.integers(min_value=0, max_value=50),
           extra=st.integers(min_value=0, max_value=30),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_contiguous_tail_replays_exactly_once_in_order(
            self, watermark, extra, data):
        """Any split of a contiguous tail between captured frames and
        pendings yields the same strictly-ordered, complete plan."""
        seqs = list(range(watermark + 1, watermark + 1 + extra))
        pending_set = set(data.draw(st.sets(st.sampled_from(seqs))
                                    if seqs else st.just(set())))
        tail = [(s, "ok", f"frame-{s}") for s in seqs
                if s not in pending_set]
        pending = [(s, f"frame-{s}") for s in sorted(pending_set)]
        plan = failover_replay_plan("s", watermark, tail, pending)
        assert [s for s, _ in plan] == seqs
        assert [f for _, f in plan] == [f"frame-{s}" for s in seqs]

    @given(watermark=st.integers(min_value=0, max_value=20),
           length=st.integers(min_value=2, max_value=20),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_interior_hole_raises_replay_gap(self, watermark,
                                                 length, data):
        seqs = list(range(watermark + 1, watermark + 1 + length))
        hole = data.draw(st.sampled_from(seqs[:-1]))
        tail = [(s, "ok", None) for s in seqs if s != hole]
        with pytest.raises(ReplayGap) as err:
            failover_replay_plan("s", watermark, tail, [])
        assert hole in err.value.missing

    @given(watermark=st.integers(min_value=0, max_value=20),
           below=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_frames_at_or_below_watermark_are_dropped(self, watermark,
                                                      below):
        """The checkpoint already covers them; replaying would double-
        apply.  Even a stale duplicate under the watermark is benign."""
        tail = [(max(0, watermark - below), "ok", "old"),
                (watermark, "ok", "old"), (watermark + 1, "ok", "new")]
        plan = failover_replay_plan("s", watermark, tail, [])
        assert plan == [(watermark + 1, "new")]

    @given(watermark=st.integers(min_value=0, max_value=20),
           dup=st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_duplicate_seq_is_an_error(self, watermark, dup):
        seq = watermark + dup
        with pytest.raises(ValueError):
            failover_replay_plan("s", watermark, [(seq, "ok", "a")],
                                 [(seq, "b")])

    @staticmethod
    def _split(data, watermark, length):
        """Draw a split of (watermark, watermark + length] into ok
        records, skipped records and orphans: ``(tail, orphans)``."""
        seqs = list(range(watermark + 1, watermark + 1 + length))
        kinds = data.draw(st.lists(
            st.sampled_from(["ok", "skipped", "orphan"]),
            min_size=length, max_size=length))
        tail = [(s, k, f"frame-{s}") for s, k in zip(seqs, kinds)
                if k != "orphan"]
        orphans = [(s, f"req-{s}") for s, k in zip(seqs, kinds)
                   if k == "orphan"]
        return tail, orphans

    @given(watermark=st.integers(min_value=0, max_value=20),
           length=st.integers(min_value=1, max_value=20),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_known_holes_are_skipped_not_gaps(self, watermark,
                                              length, data):
        """Any split of (w, last] into ok, skipped and orphan entries
        plans exactly the ok and orphan seqs, in order: a skipped
        record (shed or expiry) explains its seq without replaying
        it."""
        tail, orphans = self._split(data, watermark, length)
        plan = failover_replay_plan("s", watermark, tail, orphans)
        expected = sorted(
            [(s, f) for s, k, f in tail if k == "ok"] + orphans)
        assert plan == expected

    @given(watermark=st.integers(min_value=0, max_value=20),
           length=st.integers(min_value=2, max_value=20),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_unexplained_gap_still_refuses_despite_holes(
            self, watermark, length, data):
        """Removing any one entry below the last one leaves its seq
        unexplained: ReplayGap names exactly that seq, whatever kinds
        explain the others."""
        tail, orphans = self._split(data, watermark, length)
        gone = data.draw(st.integers(min_value=watermark + 1,
                                     max_value=watermark + length - 1))
        tail = [e for e in tail if e[0] != gone]
        orphans = [e for e in orphans if e[0] != gone]
        with pytest.raises(ReplayGap) as err:
            failover_replay_plan("s", watermark, tail, orphans)
        assert err.value.missing == [gone]

    @given(watermark=st.integers(min_value=0, max_value=20),
           length=st.integers(min_value=1, max_value=20),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_error_record_past_watermark_refuses(self, watermark,
                                                 length, data):
        """A terminal error above the watermark refuses the plan (the
        worker rolled the session back there); error records at or
        below it are settled in the checkpoint and ignored."""
        tail, orphans = self._split(data, watermark, length)
        settled = [(s, "error", None)
                   for s in range(max(1, watermark - 3), watermark + 1)]
        plan = failover_replay_plan("s", watermark, settled + tail,
                                    orphans)
        assert plan == failover_replay_plan("s", watermark, tail,
                                            orphans)
        bad = data.draw(st.integers(min_value=watermark + 1,
                                    max_value=watermark + length))
        tail = [e for e in tail if e[0] != bad] + [(bad, "error", None)]
        orphans = [e for e in orphans if e[0] != bad]
        with pytest.raises(ReplayGap) as err:
            failover_replay_plan("s", watermark, tail, orphans)
        assert err.value.missing == []
        assert f"frame {bad} failed terminally" in str(err.value)


class TestRestartBackoff:
    _params = st.fixed_dictionaries({
        "base_s": st.floats(min_value=1e-3, max_value=5.0,
                            allow_nan=False, allow_infinity=False),
        "factor": st.floats(min_value=1.0, max_value=10.0,
                            allow_nan=False, allow_infinity=False),
        "cap_s": st.floats(min_value=1e-3, max_value=30.0,
                           allow_nan=False, allow_infinity=False),
        "budget": st.integers(min_value=1, max_value=20),
    })

    @given(params=_params)
    @settings(max_examples=100, deadline=None)
    def test_delay_never_exceeds_cap_and_is_monotone(self, params):
        backoff = RestartBackoff(**params)
        delays = [backoff.next_delay_s()
                  for _ in range(params["budget"] + 3)]
        assert all(0 < d <= backoff.cap_s for d in delays)
        assert delays == sorted(delays)
        assert delays[0] == min(backoff.base_s, backoff.cap_s)

    @given(params=_params)
    @settings(max_examples=100, deadline=None)
    def test_budget_accounting_is_exact(self, params):
        backoff = RestartBackoff(**params)
        for used in range(params["budget"]):
            assert not backoff.exhausted()
            assert backoff.remaining() == params["budget"] - used
            backoff.next_delay_s()
        assert backoff.exhausted()
        assert backoff.remaining() == 0

    @given(params=_params,
           uptime=st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_stability_resets_iff_uptime_reaches_threshold(
            self, params, uptime):
        backoff = RestartBackoff(reset_after_s=30.0, **params)
        backoff.next_delay_s()
        attempts = backoff.attempts
        backoff.note_stable(uptime)
        if uptime >= 30.0:
            assert backoff.attempts == 0
            assert backoff.remaining() == params["budget"]
        else:
            assert backoff.attempts == attempts
