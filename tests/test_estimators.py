"""Tests for the warm-up estimators: exact, histogram-based, and random-walk."""

import pytest

from repro.estimation.exact import FullJoinUnion, FullJoinUnionEstimator
from repro.estimation.histogram import HistogramUnionEstimator
from repro.estimation.random_walk import RandomWalkUnionEstimator
from repro.joins.executor import (
    exact_join_size,
    exact_overlap_size,
    exact_union_size,
)


class TestFullJoinUnionEstimator:
    def test_matches_executor_on_toy_union(self, union_triple):
        estimator = FullJoinUnionEstimator(union_triple)
        params = estimator.estimate()
        assert params.union_size == exact_union_size(union_triple)
        for query in union_triple:
            assert params.join_sizes[query.name] == exact_join_size(query)
        assert params.overlaps[frozenset(["J1", "J2"])] == exact_overlap_size(union_triple[:2])

    def test_theorem3_union_matches_direct_union(self, union_triple):
        params = FullJoinUnionEstimator(union_triple).estimate()
        assert params.metadata["union_size_theorem3"] == pytest.approx(params.union_size)

    def test_cover_sizes_sum_to_union(self, union_triple):
        params = FullJoinUnionEstimator(union_triple).estimate()
        assert sum(params.cover_sizes.values()) == pytest.approx(params.union_size)

    def test_alias_exists(self):
        assert FullJoinUnion is FullJoinUnionEstimator

    def test_result_set_access(self, union_pair):
        estimator = FullJoinUnionEstimator(union_pair)
        assert estimator.result_set("J1") == {(1, 100), (1, 200), (2, 300)}

    def test_works_on_tpch_workload(self, uq1_small):
        params = FullJoinUnionEstimator(uq1_small.queries).estimate()
        assert params.union_size == exact_union_size(uq1_small.queries)
        assert params.union_size <= params.disjoint_union_size()


class TestHistogramUnionEstimator:
    def test_join_size_methods(self, union_pair):
        ew = HistogramUnionEstimator(union_pair, join_size_method="ew")
        eo = HistogramUnionEstimator(union_pair, join_size_method="eo")
        for query in union_pair:
            assert ew.join_size(query) == exact_join_size(query, distinct=False)
            assert eo.join_size(query) >= ew.join_size(query)

    def test_exact_join_sizes_replace_the_bound_for_the_joins_named(self, union_pair):
        first, second = union_pair
        exact = float(exact_join_size(first, distinct=False))
        estimator = HistogramUnionEstimator(
            union_pair, join_size_method="eo", exact_join_sizes={first.name: exact}
        )
        plain = HistogramUnionEstimator(union_pair, join_size_method="eo")
        assert estimator.join_size(first) == exact
        assert estimator.join_size(second) == plain.join_size(second)
        assert estimator.estimate().join_sizes[first.name] == exact

    def test_invalid_options_rejected(self, union_pair):
        with pytest.raises(ValueError):
            HistogramUnionEstimator(union_pair, join_size_method="xx")
        with pytest.raises(ValueError):
            HistogramUnionEstimator(union_pair, refinement="median")
        with pytest.raises(ValueError):
            HistogramUnionEstimator(union_pair, mode="magic")

    def test_overlap_bound_dominates_exact_overlap_direct_mode(self, union_triple):
        estimator = HistogramUnionEstimator(union_triple, join_size_method="ew", mode="direct")
        for pair in ([0, 1], [0, 2], [1, 2], [0, 1, 2]):
            queries = [union_triple[i] for i in pair]
            assert estimator.overlap(queries) >= exact_overlap_size(queries)

    def test_overlap_bound_dominates_exact_overlap_on_uq1(self, uq1_small):
        estimator = HistogramUnionEstimator(uq1_small.queries, join_size_method="ew")
        queries = uq1_small.queries[:2]
        assert estimator.overlap(queries) >= exact_overlap_size(queries)

    def test_overlap_never_exceeds_smallest_join(self, union_triple):
        estimator = HistogramUnionEstimator(union_triple, join_size_method="ew")
        bound = estimator.overlap(union_triple)
        assert bound <= min(estimator.join_size(q) for q in union_triple)

    def test_average_refinement_not_larger_than_max(self, uq1_small):
        maximum = HistogramUnionEstimator(uq1_small.queries, refinement="max")
        average = HistogramUnionEstimator(uq1_small.queries, refinement="average")
        queries = uq1_small.queries[:2]
        assert average.overlap(queries) <= maximum.overlap(queries) + 1e-9

    def test_split_mode_used_for_heterogeneous_union(self, uq3_small):
        estimator = HistogramUnionEstimator(uq3_small.queries, join_size_method="ew")
        params = estimator.estimate()
        assert params.union_size > 0
        assert estimator.template is not None

    def test_estimate_produces_complete_parameters(self, union_triple):
        params = HistogramUnionEstimator(union_triple, join_size_method="ew").estimate()
        assert set(params.join_sizes) == {"J1", "J2", "J3"}
        assert set(params.cover_sizes) == {"J1", "J2", "J3"}
        assert params.union_size >= max(params.join_sizes.values())
        assert params.union_size <= sum(params.join_sizes.values())
        assert params.method == "histogram"


class TestRandomWalkUnionEstimator:
    def test_join_sizes_close_to_exact(self, union_triple):
        estimator = RandomWalkUnionEstimator(union_triple, walks_per_join=800, seed=3)
        for query in union_triple:
            assert estimator.join_size(query) == pytest.approx(
                exact_join_size(query, distinct=False), rel=0.3
            )

    def test_overlap_estimate_close_to_exact(self, union_triple):
        estimator = RandomWalkUnionEstimator(union_triple, walks_per_join=1500, seed=5)
        estimate = estimator.overlap_estimate(union_triple[:2])
        assert estimate.value == pytest.approx(exact_overlap_size(union_triple[:2]), abs=1.0)
        assert 0.0 <= estimate.ratio <= 1.0
        assert estimate.walks > 0

    def test_exact_join_sizes_can_be_injected(self, union_pair):
        sizes = {q.name: float(exact_join_size(q)) for q in union_pair}
        estimator = RandomWalkUnionEstimator(
            union_pair, walks_per_join=400, seed=7, exact_join_sizes=sizes
        )
        for query in union_pair:
            assert estimator.join_size(query) == sizes[query.name]

    def test_union_size_close_to_exact_on_uq1(self, uq1_small):
        estimator = RandomWalkUnionEstimator(uq1_small.queries, walks_per_join=600, seed=11)
        params = estimator.estimate()
        exact = exact_union_size(uq1_small.queries)
        assert params.union_size == pytest.approx(exact, rel=0.35)

    def test_collected_samples_available_for_reuse(self, union_pair):
        estimator = RandomWalkUnionEstimator(union_pair, walks_per_join=200, seed=13)
        estimator.prepare()
        samples = estimator.collected_samples("J1")
        assert samples
        assert all(s.query_name == "J1" and s.probability > 0 for s in samples)
        # all_collected_samples returns copies keyed by join name
        everything = estimator.all_collected_samples()
        assert set(everything) == {"J1", "J2"}

    def test_overlap_estimate_requires_two_joins(self, union_pair):
        estimator = RandomWalkUnionEstimator(union_pair, walks_per_join=100, seed=1)
        with pytest.raises(ValueError):
            estimator.overlap_estimate(union_pair[:1])

    def test_invalid_walk_budget(self, union_pair):
        with pytest.raises(ValueError):
            RandomWalkUnionEstimator(union_pair, walks_per_join=0)

    def test_size_estimate_exposes_confidence_interval(self, union_pair):
        estimator = RandomWalkUnionEstimator(union_pair, walks_per_join=300, seed=17)
        estimator.prepare()
        estimate = estimator.size_estimate("J1")
        assert estimate.walks > 0
        assert estimate.half_width >= 0.0
