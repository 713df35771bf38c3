"""Tests for the cross-query sample cache tier (repro.cache).

The load-bearing invariants, in order of importance:

1. **Honest statistics.**  A cache-hit answer is a valid Horvitz–Thompson
   estimate with honest CI width — pinned by ``assert_ci_coverage`` over a
   repeated-with-variation workload where every measured run is served from
   cached blocks.
2. **Cold runs are bit-identical.**  An absent cache and an empty cache
   produce byte-for-byte the reports the PR 7 pipeline produced: the cache
   never consumes RNG state or changes batch sizes.
3. **No stale epochs.**  Any interleaving of mutations and aggregates never
   serves a block drawn under an older relation version (the Hypothesis
   property at the bottom).
4. **Bounded memory.**  Eviction is LRU over entries, accounted in bytes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aqp import AggregateSpec, OnlineAggregator, exact_aggregate
from repro.cache import SampleCache, shape_key
from repro.cache.store import CachedStream
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.executor import execute_join
from repro.joins.query import JoinQuery, observed_versions
from repro.relational.relation import Relation
from repro.sampling.blocks import SampleBlock

from tests.stat_helpers import assert_ci_coverage

TRIALS = 120
MIN_COVERAGE = 0.90


def build_chain(rows: int = 40, name: str = "cached_chain") -> JoinQuery:
    """R(a,b) ⋈ S(b,c): big enough to sample, small enough to join exactly."""
    r_rows = [(i, i % 7) for i in range(rows)]
    s_rows = [(b, float(100 * b + j)) for b in range(7) for j in range(3)]
    return JoinQuery(
        name,
        [Relation("R", ["a", "b"], r_rows), Relation("S", ["b", "c"], s_rows)],
        [JoinCondition("R", "b", "S", "b")],
        [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
    )


def sum_truth(query: JoinQuery) -> float:
    spec = AggregateSpec("sum", attribute="c")
    return exact_aggregate(execute_join(query), spec, query.output_schema)[()]


def make_block(n: int, weight: float = 6.0, attempts: int = None) -> SampleBlock:
    return SampleBlock(
        relation_order=("R", "S"),
        positions={
            "R": np.arange(n, dtype=np.intp),
            "S": np.arange(n, dtype=np.intp),
        },
        attempts=n if attempts is None else attempts,
        weight=weight,
    )


# ------------------------------------------------------------------ block views
class TestBlockViews:
    def test_slice_is_zero_copy(self):
        block = make_block(8)
        view = block.slice(2, 5)
        assert len(view) == 3
        assert view.attempts == 0
        assert view.positions["R"].base is block.positions["R"]
        assert np.array_equal(view.positions["R"], [2, 3, 4])

    def test_split_matches_slice_semantics(self):
        block = make_block(10, attempts=25)
        head, tail = block.split(4)
        assert len(head) == 4 and len(tail) == 6
        # Attempt accounting stays with the head — the caller accounted it.
        assert head.attempts == 25 and tail.attempts == 0

    def test_reweighted_view_shares_positions(self):
        block = make_block(5, weight=6.0)
        view = block.reweighted(7.5)
        assert view.weight == 7.5 and block.weight == 6.0
        assert view.positions is block.positions
        assert view.attempts == block.attempts

    def test_reweighted_refuses_per_sample_weights(self):
        block = make_block(3)
        block.weights = np.ones(3)
        with pytest.raises(ValueError, match="per-sample"):
            block.reweighted(2.0)

    def test_freeze_makes_arrays_read_only(self):
        block = make_block(4).freeze()
        with pytest.raises(ValueError):
            block.positions["R"][0] = 99

    def test_nbytes_counts_position_and_weight_arrays(self):
        block = make_block(6)
        expected = block.positions["R"].nbytes + block.positions["S"].nbytes
        assert block.nbytes == expected
        block.weights = np.ones(6)
        assert block.nbytes == expected + block.weights.nbytes


# ------------------------------------------------------------------- the store
class TestSampleCache:
    def test_entry_keyed_by_shape_and_epoch(self):
        query = build_chain()
        cache = SampleCache()
        entry = cache.entry(query, "ew")
        assert cache.entry(query, "ew") is entry, "same shape+epoch reuses"
        assert cache.entry(query, "eo") is not entry, "weights split the key"
        assert cache.stats_dict()["hits"] == 1

    def test_shape_key_distinguishes_query_names(self):
        a, b = build_chain(name="qa"), build_chain(name="qb")
        assert shape_key(a, "ew") != shape_key(b, "ew")

    def test_mutation_drops_only_touched_entries(self):
        q1, q2 = build_chain(name="q1"), build_chain(name="q2")
        cache = SampleCache()
        e1, e2 = cache.entry(q1, "ew"), cache.entry(q2, "ew")
        cache.publish(e1, make_block(4))
        cache.publish(e2, make_block(4))
        # q1's R mutates: only q1's entry must go (q2 has its own relations).
        q1.relation("R").delete_rows([0])
        dropped = cache.drop_relation("R")
        # Eager drop is by relation *name*: both entries reference an "R".
        assert dropped == 2
        # The lazy path is per-object: re-resolving q2 (whose R did not
        # change) starts a fresh entry at its unchanged epoch.
        fresh = cache.entry(q2, "ew")
        assert fresh.epoch == observed_versions((q2,))

    def test_stale_epoch_is_a_miss_and_drops_the_entry(self):
        query = build_chain()
        cache = SampleCache()
        entry = cache.entry(query, "ew")
        cache.publish(entry, make_block(4))
        query.relation("R").delete_rows([1])
        replacement = cache.entry(query, "ew")
        assert replacement is not entry
        assert not entry.alive
        assert cache.stats_dict()["stale_drops"] == 1
        assert replacement.epoch == observed_versions((query,))

    def test_read_returns_whole_blocks_from_cursor(self):
        query = build_chain()
        cache = SampleCache()
        entry = cache.entry(query, "ew")
        first, second = make_block(3), make_block(5)
        cache.publish(entry, first)
        blocks, cursor = cache.read(entry, 0)
        assert [len(b) for b in blocks] == [3] and cursor == 1
        cache.publish(entry, second)
        blocks, cursor = cache.read(entry, cursor)
        assert [len(b) for b in blocks] == [5] and cursor == 2
        assert cache.read(entry, cursor) == ([], 2)

    def test_publish_freezes_blocks(self):
        query = build_chain()
        cache = SampleCache()
        entry = cache.entry(query, "ew")
        block = make_block(4)
        cache.publish(entry, block)
        with pytest.raises(ValueError):
            block.positions["R"][0] = 7

    def test_lru_eviction_in_bytes(self):
        q_old, q_new = build_chain(name="old"), build_chain(name="new")
        block = make_block(64)
        cache = SampleCache(max_bytes=3 * block.nbytes)
        old_entry = cache.entry(q_old, "ew")
        cache.publish(old_entry, make_block(64))
        new_entry = cache.entry(q_new, "ew")
        cache.publish(new_entry, make_block(64))
        cache.publish(new_entry, make_block(64))
        # One more block busts the budget: the LRU entry (old) is evicted
        # wholesale, the hot entry survives.
        cache.publish(new_entry, make_block(64))
        assert not old_entry.alive
        assert new_entry.alive
        assert cache.bytes_used <= cache.max_bytes
        assert cache.stats_dict()["evictions"] == 1

    def test_dead_entry_swallows_reads_and_publishes(self):
        query = build_chain()
        cache = SampleCache()
        entry = cache.entry(query, "ew")
        cache.publish(entry, make_block(2))
        cache.drop_relation("R")
        assert cache.read(entry, 0) == ([], 0)
        cache.publish(entry, make_block(2))
        assert cache.stats_dict()["samples"] == 0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="max_bytes"):
            SampleCache(max_bytes=0)


# ----------------------------------------------------------------- aggregation
class TestCachedAggregation:
    def test_cold_run_bit_identical_to_uncached(self):
        """Invariant 2: an empty cache changes nothing about the report."""
        query = build_chain()
        spec = AggregateSpec("sum", attribute="c")
        reference = OnlineAggregator(
            query, spec, method="exact-weight", seed=17
        ).until(0.1)
        cached = OnlineAggregator(
            query, spec, method="exact-weight", seed=17, cache=SampleCache()
        )
        report = cached.until(0.1)
        assert report.to_dict() == reference.to_dict()
        assert cached.cached_samples == 0 and cached.fresh_samples > 0

    def test_followup_served_entirely_from_cache(self):
        query = build_chain()
        cache = SampleCache()
        prime = OnlineAggregator(
            query, AggregateSpec("sum", attribute="c"),
            method="exact-weight", seed=5, cache=cache,
        )
        prime.until(0.1)
        followup = OnlineAggregator(
            query, AggregateSpec("avg", attribute="c"),
            method="exact-weight", seed=6, cache=cache,
        )
        report = followup.until(0.1)
        assert followup.cached_samples >= prime.fresh_samples
        assert followup.fresh_samples == 0
        assert report.max_relative_half_width() <= 0.1

    def test_groupby_and_filter_share_one_stream(self):
        """Group-bys and filtered aggregates re-consume the same draws."""
        query = build_chain()
        cache = SampleCache()
        prime = OnlineAggregator(
            query, AggregateSpec("count"),
            method="exact-weight", seed=5, cache=cache,
        )
        prime.until(0.15)
        stats_before = cache.stats_dict()
        variations = [
            AggregateSpec("sum", attribute="c", group_by="a"),
            AggregateSpec("count", where=lambda row: row["c"] >= 100.0),
        ]
        for i, spec in enumerate(variations):
            aggregator = OnlineAggregator(
                query, spec, method="exact-weight", seed=20 + i, cache=cache,
            )
            aggregator.until(0.9, min_accepted=8)
            assert aggregator.cached_samples >= stats_before["samples"]

    def test_cached_estimate_agrees_with_exact_answer(self):
        query = build_chain()
        truth = sum_truth(query)
        cache = SampleCache()
        spec = AggregateSpec("sum", attribute="c")
        OnlineAggregator(
            query, spec, method="exact-weight", seed=3, cache=cache
        ).until(0.05)
        cached = OnlineAggregator(
            query, spec, method="exact-weight", seed=4, cache=cache
        )
        report = cached.until(0.05)
        assert cached.cached_samples > 0
        estimate = report.estimates[()]
        assert math.isclose(estimate.estimate, truth, rel_tol=0.25)

    def test_mutation_restarts_without_stale_blocks(self):
        query = build_chain()
        cache = SampleCache()
        spec = AggregateSpec("sum", attribute="c")
        OnlineAggregator(
            query, spec, method="exact-weight", seed=8, cache=cache
        ).until(0.1)
        query.relation("S").delete_rows([0, 1])
        # The cached entry is now stale: the follow-up must match the
        # cache-disabled reference bit for bit (nothing cached is served).
        reference = OnlineAggregator(
            query, spec, method="exact-weight", seed=9
        ).until(0.1)
        cached = OnlineAggregator(
            query, spec, method="exact-weight", seed=9, cache=cache
        )
        report = cached.until(0.1)
        assert cached.cached_samples == 0
        assert report.to_dict() == reference.to_dict()

    def test_cache_rejects_unsupported_shapes(self):
        query = build_chain()
        with pytest.raises(ValueError, match="parallelism"):
            OnlineAggregator(
                query, AggregateSpec("count"), method="exact-weight",
                parallelism=2, cache=SampleCache(),
            )
        with pytest.raises(ValueError, match="shared-weight"):
            OnlineAggregator(
                query, AggregateSpec("count"), method="wander-join",
                cache=SampleCache(),
            )

    def test_cache_hit_ci_coverage(self):
        """Invariant 1: cache-hit answers keep nominal CI coverage.

        Every trial uses its *own* cache primed by an independent cold run —
        sharing one cache across trials would correlate them and turn the
        coverage fraction into a coin flip over one shared stream.  The
        measured run is served from cached blocks (asserted), so this pins
        the honesty of cache-hit intervals, the tentpole's hard invariant.
        """
        query = build_chain()
        truth = sum_truth(query)
        spec = AggregateSpec("sum", attribute="c")

        def trial(seed):
            cache = SampleCache()
            prime = OnlineAggregator(
                query, AggregateSpec("count"),
                method="exact-weight", seed=2 * seed, cache=cache,
            )
            prime.step(384)
            measured = OnlineAggregator(
                query, spec, method="exact-weight", seed=2 * seed + 1,
                cache=cache,
            )
            report = measured.step(256)
            assert measured.cached_samples > 0
            return report.overall

        assert_ci_coverage(trial, truth, trials=TRIALS, min_coverage=MIN_COVERAGE)


# --------------------------------------------------- mutation interleavings
@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["mutate_r", "mutate_s", "aggregate"]),
        min_size=1, max_size=6,
    )
)
def test_no_interleaving_serves_a_stale_epoch(ops):
    """Property (satellite): no mutate/aggregate sequence serves stale blocks.

    After every aggregate the cached run is checked against a cache-disabled
    reference with the same seed: when the cache holds no fresh-epoch entry
    the two must be *bit-identical* (nothing cached may be served), and when
    it does, the served entry's epoch must equal the live relation versions
    and the estimate must agree with the exact answer within a generous
    multiple of its own CI.
    """
    query = build_chain(rows=21, name="hyp_chain")
    cache = SampleCache()
    spec = AggregateSpec("sum", attribute="c")
    for index, op in enumerate(ops):
        if op in ("mutate_r", "mutate_s"):
            relation = query.relation("R" if op == "mutate_r" else "S")
            if len(relation) > 2:
                relation.delete_rows([0])
            continue
        entry = cache.peek(query, "ew")
        had_fresh = entry is not None and entry.samples > 0
        seed = 1000 + index
        reference = OnlineAggregator(
            query, spec, method="exact-weight", seed=seed
        ).until(0.5, min_accepted=8)
        cached = OnlineAggregator(
            query, spec, method="exact-weight", seed=seed, cache=cache
        )
        report = cached.until(0.5, min_accepted=8)
        if not had_fresh:
            assert cached.cached_samples == 0
            assert report.to_dict() == reference.to_dict()
        else:
            assert cached.cached_samples > 0
            assert cached._cache_entry.epoch == observed_versions((query,))
            truth = sum_truth(query)
            estimate = report.estimates[()]
            slack = 5 * estimate.half_width + 0.5 * abs(truth) + 1e-9
            assert abs(estimate.estimate - truth) <= slack


def test_cached_stream_slots():
    """The entry is a bookkeeping struct: no dict, no accidental attributes."""
    entry = CachedStream(("k",), (("R", 0),), frozenset({"R"}))
    with pytest.raises(AttributeError):
        entry.surprise = 1
