"""Tests for the approximate-aggregation (AQP) layer.

The centerpiece is the **CI-coverage harness**: nominal 95% confidence
intervals must achieve at least 90% empirical coverage over many fixed-seed
trials, with ground truth computed by the exact executor
(``repro.joins.executor``).  Coverage is verified on all three workload
families — acyclic, cyclic, and union-of-joins — plus the bootstrap interval
variant, the stopping rule, epoch restarts, GROUP-BY, and the merge law.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aqp import (
    AggregateAccumulator,
    AggregateSpec,
    OnlineAggregator,
    exact_aggregate,
)
from repro.joins.executor import execute_join, join_result_set
from repro.tpch.workloads import build_uq1, build_uq2, build_uq3

from tests.join_oracle import ingest_rows
from tests.stat_helpers import assert_ci_coverage

CONFIDENCE = 0.95
MIN_COVERAGE = 0.90
TRIALS = 120


def union_values(queries):
    values = set()
    for query in queries:
        values |= join_result_set(query)
    return values


def union_truth(queries, spec):
    return exact_aggregate(
        sorted(union_values(queries)), spec, queries[0].output_schema
    )


# ------------------------------------------------------------------- coverage
class TestCoverageAcyclic:
    """Acyclic workloads: chain and star joins (bag semantics)."""

    def test_sum_exact_weight_coverage(self, chain_query):
        spec = AggregateSpec("sum", attribute="d")
        truth = exact_aggregate(execute_join(chain_query), spec, chain_query.output_schema)

        def trial(seed):
            agg = OnlineAggregator(
                chain_query, spec, method="exact-weight", seed=seed, batch_size=256
            )
            return agg.step().overall

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)

    def test_sum_olken_coverage(self, chain_query):
        """EO accept/reject: the attempt stream really contains rejections."""
        spec = AggregateSpec("sum", attribute="d")
        truth = exact_aggregate(execute_join(chain_query), spec, chain_query.output_schema)

        def trial(seed):
            agg = OnlineAggregator(
                chain_query, spec, method="olken", seed=seed, batch_size=512
            )
            return agg.step().overall

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)

    def test_avg_wander_join_coverage(self, acyclic_query):
        """Non-uniform wander-join samples through the Hájek ratio estimator."""
        spec = AggregateSpec("avg", attribute="k")
        truth = exact_aggregate(
            execute_join(acyclic_query), spec, acyclic_query.output_schema
        )

        def trial(seed):
            agg = OnlineAggregator(
                acyclic_query, spec, method="wander-join", seed=seed, batch_size=512
            )
            return agg.step().overall

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)

    def test_count_exact_weight_is_exact(self, acyclic_query):
        """EW COUNT over an acyclic join accepts every attempt: zero variance,
        and the point estimate equals the exact bag size."""
        spec = AggregateSpec("count")
        truth = exact_aggregate(
            execute_join(acyclic_query), spec, acyclic_query.output_schema
        )
        agg = OnlineAggregator(acyclic_query, spec, method="exact-weight", seed=1)
        estimate = agg.step(128).overall
        assert estimate.estimate == truth[()]
        assert estimate.half_width == 0.0


class TestCoverageCyclic:
    """Cyclic workloads: the residual-condition accept/reject path."""

    def test_count_coverage(self, cyclic_query):
        spec = AggregateSpec("count")
        truth = exact_aggregate(execute_join(cyclic_query), spec, cyclic_query.output_schema)

        def trial(seed):
            agg = OnlineAggregator(
                cyclic_query, spec, method="exact-weight", seed=seed, batch_size=512
            )
            return agg.step().overall

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)

    def test_sum_olken_coverage(self, cyclic_query):
        spec = AggregateSpec("sum", attribute="c")
        truth = exact_aggregate(execute_join(cyclic_query), spec, cyclic_query.output_schema)

        def trial(seed):
            agg = OnlineAggregator(
                cyclic_query, spec, method="olken", seed=seed, batch_size=512
            )
            return agg.step().overall

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)


#: per small UQ fixture: the SUM/AVG attribute, and the relation of its
#: first join the mutation case deletes from
UNION_FIXTURES = {
    "uq1_small": ("totalprice", "lineitem"),
    "uq2_small": ("retailprice", "partsupp"),
    "uq3_small": ("totalprice", "orders"),
}

#: private copies of the fixtures for the mutation case (the session ones
#: must keep their row order)
PRIVATE_WORKLOADS = {
    "uq1_small": lambda: build_uq1(scale_factor=0.0005, overlap_scale=0.3, n_joins=3, seed=42),
    "uq2_small": lambda: build_uq2(scale_factor=0.0005, seed=42),
    "uq3_small": lambda: build_uq3(scale_factor=0.0005, overlap_scale=0.3, seed=42),
}


def union_spec(fixture, kind):
    attribute, _ = UNION_FIXTURES[fixture]
    return AggregateSpec(kind, attribute=None if kind == "count" else attribute)


def doomed_rows(relation):
    """Positions of the rows whose first attribute is a multiple of 5: chosen
    by content, so every trial deletes the same rows, wherever the restores
    of earlier trials moved them."""
    first = relation.column_array(relation.attribute_names[0])
    return np.flatnonzero(first % 5 == 0).tolist()


class TestCoverageUnion:
    """Union workloads: set semantics over J_1 ∪ ... ∪ J_n, on the default
    backend (the cover source), against the enumerated union."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("kind", ["sum", "avg", "count"])
    @pytest.mark.parametrize("fixture", sorted(UNION_FIXTURES))
    def test_union_coverage(self, request, fixture, kind, parallelism):
        queries = list(request.getfixturevalue(fixture).queries)
        spec = union_spec(fixture, kind)
        truth = union_truth(queries, spec)

        def trial(seed):
            agg = OnlineAggregator(
                queries, spec, method="online-union", seed=seed, parallelism=parallelism
            )
            return agg.step(512).overall

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)

    @pytest.mark.parametrize("kind", ["sum", "avg", "count"])
    @pytest.mark.parametrize("fixture", sorted(UNION_FIXTURES))
    def test_union_coverage_after_mutation(self, fixture, kind):
        """A step, a ``delete_rows``, a step: the aggregator restarts, and
        the interval covers the union of the mutated database."""
        queries = list(PRIVATE_WORKLOADS[fixture]().queries)
        relation = queries[0].relation(UNION_FIXTURES[fixture][1])
        spec = union_spec(fixture, kind)

        def deleted():
            positions = doomed_rows(relation)
            rows = [relation.row(position) for position in positions]
            relation.delete_rows(positions)
            return rows

        restore = deleted()
        truth = union_truth(queries, spec)
        relation.extend(restore)

        def trial(seed):
            agg = OnlineAggregator(queries, spec, method="online-union", seed=seed)
            agg.step(256)
            restore = deleted()
            try:
                estimate = agg.step(512).overall
            finally:
                relation.extend(restore)
            assert agg.epochs_restarted == 1
            return estimate

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)

    def test_sum_toy_union_coverage(self, union_triple):
        spec = AggregateSpec("sum", attribute="c")
        truth = union_truth(union_triple, spec)

        def trial(seed):
            agg = OnlineAggregator(union_triple, spec, seed=seed, batch_size=256)
            return agg.step().overall

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)

    def test_filtered_count_toy_union_coverage(self, union_pair):
        spec = AggregateSpec("count", where=lambda row: row["a"] == 1)
        truth = union_truth(union_pair, spec)

        def trial(seed):
            agg = OnlineAggregator(union_pair, spec, seed=seed, batch_size=256)
            return agg.step().overall

        assert_ci_coverage(trial, truth[()], trials=TRIALS, min_coverage=MIN_COVERAGE)


class TestCoverageBootstrap:
    def test_bootstrap_sum_coverage(self, chain_query):
        spec = AggregateSpec("sum", attribute="d")
        truth = exact_aggregate(execute_join(chain_query), spec, chain_query.output_schema)

        def trial(seed):
            agg = OnlineAggregator(
                chain_query,
                spec,
                method="olken",
                seed=seed,
                batch_size=512,
                ci_method="bootstrap",
                bootstrap_replicates=300,
            )
            return agg.step().overall

        assert_ci_coverage(trial, truth[()], trials=60, min_coverage=MIN_COVERAGE)


# --------------------------------------------------------------- online loop
class TestStoppingRule:
    def test_until_reaches_target(self, chain_query):
        spec = AggregateSpec("sum", attribute="d")
        agg = OnlineAggregator(chain_query, spec, method="olken", seed=11, batch_size=256)
        report = agg.until(rel_error=0.02, confidence=CONFIDENCE)
        estimate = report.overall
        assert estimate.relative_half_width <= 0.02
        truth = exact_aggregate(
            execute_join(chain_query), spec, chain_query.output_schema
        )[()]
        # At 2% relative error the estimate must be in the right ballpark.
        assert abs(estimate.estimate - truth) <= 0.1 * truth

    def test_until_raises_on_budget(self, chain_query):
        spec = AggregateSpec("sum", attribute="d")
        agg = OnlineAggregator(chain_query, spec, method="olken", seed=11, batch_size=64)
        with pytest.raises(RuntimeError, match="did not reach"):
            agg.until(rel_error=1e-6, max_attempts=256)

    def test_until_rejects_bad_rel_error(self, chain_query):
        agg = OnlineAggregator(chain_query, AggregateSpec("count"), seed=1)
        with pytest.raises(ValueError):
            agg.until(rel_error=0.0)


class TestEpochRestart:
    def test_mutation_restarts_accumulator(self):
        from tests.conftest import make_chain_query

        query = make_chain_query(
            "J", r_rows=[(1, 10), (2, 20)], s_rows=[(10, 100), (20, 300)]
        )
        spec = AggregateSpec("count")
        agg = OnlineAggregator(query, spec, method="exact-weight", seed=7, batch_size=128)
        first = agg.step().overall
        assert first.estimate == 2.0  # exact on acyclic EW
        assert agg.epochs_restarted == 0

        query.relation("R").extend([(9, 10), (8, 20)])
        report = agg.step()
        assert agg.epochs_restarted == 1
        # The accumulator restarted: the estimate reflects only the new epoch.
        truth = len(execute_join(query))
        assert report.overall.estimate == float(truth)

    def test_noop_epoch_does_not_restart(self, chain_query):
        spec = AggregateSpec("count")
        agg = OnlineAggregator(chain_query, spec, method="exact-weight", seed=7)
        agg.step(64)
        attempts = agg.accumulator.attempts
        agg.step(64)
        assert agg.epochs_restarted == 0
        assert agg.accumulator.attempts > attempts


# ------------------------------------------------------------------ group-by
class TestGroupBy:
    def test_grouped_sum_matches_truth(self, chain_query):
        spec = AggregateSpec("sum", attribute="d", group_by="a")
        truth = exact_aggregate(execute_join(chain_query), spec, chain_query.output_schema)
        agg = OnlineAggregator(chain_query, spec, method="exact-weight", seed=13)
        report = agg.until(rel_error=0.05)
        assert set(report.groups()) == set(truth)
        # Per-group 95% intervals each miss ~5% of the time, so a hard
        # covers() assertion over several groups would flake by construction;
        # three half-widths (~99.95% per group) is the deterministic check.
        for group, estimate in report.estimates.items():
            assert abs(estimate.estimate - truth[group]) <= 3 * estimate.half_width, (
                group,
                estimate,
                truth[group],
            )

    def test_grouped_report_serializes(self, chain_query):
        spec = AggregateSpec("count", group_by="a")
        agg = OnlineAggregator(chain_query, spec, method="exact-weight", seed=13)
        payload = agg.step(256).to_dict()
        assert payload["aggregate"] == "COUNT(*) BY a"
        assert len(payload["groups"]) == 3
        assert all(g["attempts"] > 0 for g in payload["groups"])


# ---------------------------------------------------------------- accumulator
class TestAccumulator:
    def test_chunked_merge_is_exact(self, chain_query):
        spec = AggregateSpec("sum", attribute="d")
        schema = chain_query.output_schema
        values = [v for v in execute_join(chain_query)] * 7
        whole = AggregateAccumulator(spec, schema)
        ingest_rows(whole, values, attempts=len(values) + 10, weight=6.0)

        left = AggregateAccumulator(spec, schema)
        right = AggregateAccumulator(spec, schema)
        ingest_rows(left, values[:5], attempts=9, weight=6.0)
        ingest_rows(right, values[5:], attempts=len(values) - 5 + 6, weight=6.0)
        merged = right.merge(left)  # reversed merge order on purpose

        a, b = whole.estimate().overall, merged.estimate().overall
        assert a.estimate == b.estimate
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_observe_validates_accounting(self, chain_query):
        acc = AggregateAccumulator(AggregateSpec("count"), chain_query.output_schema)
        with pytest.raises(ValueError, match="attempts"):
            ingest_rows(acc, [(1, 100, 7)], attempts=0, weight=2.0)
        with pytest.raises(ValueError, match="exactly one"):
            ingest_rows(acc, [(1, 100, 7)], attempts=1)
        with pytest.raises(ValueError, match="align"):
            ingest_rows(acc, [(1, 100, 7)], attempts=1, weights=[1.0, 2.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="attribute"):
            AggregateSpec("sum")
        with pytest.raises(ValueError, match="kind"):
            AggregateSpec("median", attribute="d")
        with pytest.raises(ValueError, match="not in output schema"):
            AggregateAccumulator(AggregateSpec("sum", attribute="nope"), ("a", "b"))

    def test_a_where_attribute_must_be_in_the_schema(self):
        from repro.relational.predicates import And, Comparison

        where = Comparison("nope", ">", 1)
        with pytest.raises(ValueError, match="where attribute 'nope' not in output schema"):
            AggregateAccumulator(AggregateSpec("sum", attribute="a", where=where), ("a", "b"))
        with pytest.raises(ValueError, match="'nope'"):
            AggregateAccumulator(
                AggregateSpec("count", where=And([Comparison("b", "<", 2), where])), ("a", "b")
            )

    def test_exact_aggregate_reference(self):
        spec = AggregateSpec("avg", attribute="x", group_by="k")
        values = [(1, 2.0), (1, 4.0), (2, 10.0)]
        out = exact_aggregate(values, spec, ("k", "x"))
        assert out == {(1,): 3.0, (2,): 10.0}
