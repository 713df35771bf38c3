"""Tests for repro.core.online_sampler (Algorithm 2: reuse + backtracking)."""

import pytest

from repro.aqp import AggregateSpec, OnlineAggregator, exact_aggregate
from repro.core.online_sampler import OnlineUnionSampler, _Record
from repro.estimation.random_walk import RandomWalkUnionEstimator
from repro.joins.executor import exact_join_size, join_result_set
from repro.parallel import parallel_aggregate
from repro.tpch.workloads import build_uq1, build_uq2

from tests.stat_helpers import assert_no_catastrophic_bias


def union_values(queries):
    union = set()
    for query in queries:
        union |= join_result_set(query)
    return sorted(union)


class TestConstruction:
    def test_invalid_options_rejected(self, union_pair):
        with pytest.raises(ValueError):
            OnlineUnionSampler(union_pair, warmup="magic")
        with pytest.raises(ValueError):
            OnlineUnionSampler(union_pair, phi=0)
        with pytest.raises(ValueError):
            OnlineUnionSampler(union_pair, gamma=0.0)

    def test_histogram_warmup_has_empty_pools(self, union_pair):
        sampler = OnlineUnionSampler(union_pair, warmup="histogram", seed=1)
        assert all(not pool for pool in sampler._pools.values())

    def test_random_walk_warmup_fills_pools(self, union_pair):
        sampler = OnlineUnionSampler(
            union_pair, warmup="random-walk", walks_per_join=100, seed=2
        )
        assert any(pool for pool in sampler._pools.values())

    def test_reuse_disabled_keeps_pools_empty(self, union_pair):
        sampler = OnlineUnionSampler(
            union_pair, warmup="random-walk", walks_per_join=100, seed=3, reuse=False
        )
        assert all(not pool for pool in sampler._pools.values())

    def test_prebuilt_warmup_estimator(self, union_pair):
        estimator = RandomWalkUnionEstimator(union_pair, walks_per_join=100, seed=4)
        sampler = OnlineUnionSampler(union_pair, warmup_estimator=estimator, seed=4)
        assert len(sampler.sample(20)) == 20


def union_sum(queries, spec):
    """The enumerated union's exact aggregate: the truth, not another run."""
    return exact_aggregate(union_values(queries), spec, queries[0].output_schema)[()]


class TestJoinSizesAreExact:
    """The histogram warm-up and ``refresh()`` take ``|J_j|`` from the exact-
    weight samplers the object already holds; refinement re-estimates
    overlaps *relative to* those sizes, so a loose bound here never heals."""

    def test_histogram_warmup_reads_sizes_off_the_samplers(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, warmup="histogram", seed=1)
        for query in union_triple:
            assert sampler.parameters.join_sizes[query.name] == exact_join_size(
                query, distinct=False
            )

    def test_olken_weights_keep_the_olken_bound(self, union_triple):
        sampler = OnlineUnionSampler(
            union_triple, warmup="histogram", join_weights="eo", seed=1
        )
        for query in union_triple:
            assert sampler.parameters.join_sizes[query.name] >= exact_join_size(
                query, distinct=False
            )

    def test_refresh_and_refinement_keep_them_exact(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=2, walks_per_join=100, phi=40)
        sampler.sample(50)
        relation = union_triple[0].relation(union_triple[0].relation_names[-1])
        relation.delete_rows([0])
        sampler.sample(300)
        assert sampler.stats.backtrack_rounds > 0
        assert sampler.parameters.method == "online-refined"
        for query in union_triple:
            assert sampler.parameters.join_sizes[query.name] == exact_join_size(
                query, distinct=False
            )

    def test_no_confidence_before_every_overlap_met_a_record(self, union_triple):
        """The histogram bound says J1 covers everything, so only J1 is drawn
        from at first and the J2/J3 overlap cannot be refined: the round must
        not declare the target confidence reached and stop refining."""
        sampler = OnlineUnionSampler(
            union_triple, warmup="histogram", seed=3, phi=20, gamma=0.5
        )
        sampler._records["J1"] = [_Record(v, 3.0) for v in [(1, 100), (2, 300)] * 30]
        sampler._refine_parameters(sampler.parameters)
        assert sampler.confidence_level == 0.0

    def test_pooled_union_sum_matches_the_enumerated_union(self):
        """Every pooled union shard warms up from histograms (ROADMAP 1(a):
        11.68x the truth with Olken-bound join sizes)."""
        queries = build_uq1(scale_factor=0.001, seed=7).queries
        spec = AggregateSpec("sum", "totalprice")
        report = parallel_aggregate(
            queries, spec, 4000, workers=2, execution="thread", seed=5
        )
        assert report.overall.estimate == pytest.approx(union_sum(queries, spec), rel=0.15)

    def test_union_sum_survives_a_one_row_mutation(self):
        """``refresh()`` re-estimates the parameters after *any* mutation
        (ROADMAP 1(a): 1.02x -> 3.18x the truth across one deleted row)."""
        queries = build_uq2(scale_factor=0.001, seed=7).queries
        spec = AggregateSpec("sum", "supplycost")
        aggregator = OnlineAggregator(queries, spec, seed=5)
        before = aggregator.until(0.03)
        assert before.overall.estimate == pytest.approx(union_sum(queries, spec), rel=0.15)
        partsupp = next(
            q.relation("partsupp") for q in queries if "partsupp" in q.relation_names
        )
        partsupp.delete_rows([0])
        aggregator.step()
        after = aggregator.until(0.03)
        assert aggregator.epochs_restarted == 1
        assert after.overall.estimate == pytest.approx(union_sum(queries, spec), rel=0.15)


class TestSampling:
    def test_samples_belong_to_the_union(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=5, walks_per_join=150)
        result = sampler.sample(200)
        universe = set(union_values(union_triple))
        assert len(result) == 200
        assert all(s.value in universe for s in result.samples)

    def test_reuse_counters_and_flags(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=6, walks_per_join=300)
        result = sampler.sample(150)
        assert result.stats.reused_accepted > 0
        assert any(s.reused for s in result.samples)
        assert result.algorithm.endswith("-reuse")

    def test_without_reuse_no_reused_samples(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=7, walks_per_join=150, reuse=False)
        result = sampler.sample(100)
        assert result.stats.reused_accepted == 0
        assert not any(s.reused for s in result.samples)

    def test_sampling_distribution_not_degenerate(self, union_triple):
        """The online sampler (approximate by design) must still cover the whole
        union and not over-sample any value catastrophically."""
        sampler = OnlineUnionSampler(union_triple, seed=8, walks_per_join=400, phi=100)
        result = sampler.sample(2500)
        values = [s.value for s in result.samples]
        universe = union_values(union_triple)
        # Loose sanity threshold: catastrophic bias (e.g. one value sampled 2x
        # as often as expected) fails the shared harness check.
        assert_no_catastrophic_bias(values, universe, factor=2.0)

    def test_backtracking_rounds_triggered(self, union_triple):
        sampler = OnlineUnionSampler(
            union_triple, seed=9, walks_per_join=100, phi=50, gamma=0.999
        )
        result = sampler.sample(400)
        assert result.stats.backtrack_rounds > 0
        assert sampler.confidence_level > 0.0

    def test_zero_samples(self, union_pair):
        sampler = OnlineUnionSampler(union_pair, seed=10, walks_per_join=50)
        assert len(sampler.sample(0)) == 0

    def test_negative_count_rejected(self, union_pair):
        sampler = OnlineUnionSampler(union_pair, seed=11, walks_per_join=50)
        with pytest.raises(ValueError):
            sampler.sample(-5)


class TestTimeAccounting:
    def test_reuse_phase_time_tracked(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=12, walks_per_join=300)
        result = sampler.sample(200)
        stats = result.stats
        assert stats.timer.get("warmup") > 0
        if stats.reused_accepted:
            assert stats.time_per_accepted("reuse") >= 0.0
        assert stats.time_per_accepted("regular") >= 0.0
        assert stats.time_per_accepted() > 0.0

    def test_estimation_update_time_recorded_when_backtracking(self, union_triple):
        sampler = OnlineUnionSampler(
            union_triple, seed=13, walks_per_join=100, phi=40, gamma=0.999
        )
        result = sampler.sample(300)
        if result.stats.backtrack_rounds:
            assert result.stats.timer.get("estimation_update") > 0
