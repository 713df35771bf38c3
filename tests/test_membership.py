"""Tests for repro.joins.membership (the hash-probe membership check)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.online_sampler import OnlineUnionSampler
from repro.core.union_sampler import BernoulliUnionSampler, SetUnionSampler
from repro.estimation.histogram import HistogramUnionEstimator
from repro.estimation.random_walk import RandomWalkUnionEstimator
from repro.joins import membership
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.executor import execute_join, join_result_set
from repro.joins.membership import JoinMembershipProber, UnionMembershipIndex
from repro.joins.query import JoinQuery
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.sampling.join_sampler import JoinSampler

from tests.conftest import make_predicated_pair


class TestJoinMembershipProber:
    @pytest.mark.parametrize("fixture", ["chain_query", "acyclic_query", "cyclic_query"])
    def test_agrees_with_executor_on_all_join_types(self, fixture, request):
        query = request.getfixturevalue(fixture)
        prober = JoinMembershipProber(query)
        results = join_result_set(query)
        for value in results:
            assert prober.contains(value), f"{value} should be a member of {query.name}"

    def test_rejects_values_not_in_join(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        assert not prober.contains((1, 100, 999))
        assert not prober.contains((42, 100, 7))

    def test_rejects_value_with_wrong_width(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        with pytest.raises(ValueError, match="fields"):
            prober.contains((1, 100))

    def test_cyclic_join_residual_enforced(self, cyclic_query):
        prober = JoinMembershipProber(cyclic_query)
        # (1, 3, 5) is producible by the skeleton but violates the cycle-closing
        # condition (T row for c=5 has a=9, not 1).
        assert not prober.contains((1, 3, 5))
        assert prober.contains((1, 2, 4))

    def test_count_containing(self, union_pair):
        j1, j2 = union_pair
        prober = JoinMembershipProber(j2)
        values = list(join_result_set(j1))
        assert prober.count_containing(values) == 2

    def test_probe_counters_increase(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        prober.contains((1, 100, 7))
        prober.contains((1, 100, 7))
        assert prober.probe_count == 2
        assert prober.lookup_count >= 2


class TestUnionMembershipIndex:
    def test_owner_is_first_containing_join(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        # (1, 100) is in all three joins -> owner is the first.
        assert index.owner((1, 100)) == "J1"
        # (3, 400) only in J2.
        assert index.owner((3, 400)) == "J2"
        # (5, 500) only in J3.
        assert index.owner((5, 500)) == "J3"

    def test_owner_none_for_foreign_value(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        assert index.owner((123, 456)) is None

    def test_containing_joins(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        assert index.containing_joins((1, 100)) == ["J1", "J2", "J3"]
        assert index.containing_joins((2, 300)) == ["J1", "J3"]

    def test_contains_specific_join(self, union_pair):
        index = UnionMembershipIndex(union_pair)
        assert index.contains("J1", (2, 300))
        assert not index.contains("J2", (2, 300))


class TestExhaustiveAgreement:
    def test_prober_matches_executor_over_candidate_space(self, union_pair):
        """For every candidate value in the cross product of observed output
        values, the prober must agree exactly with set membership of the
        executed join."""
        for query in union_pair:
            results = join_result_set(query)
            prober = JoinMembershipProber(query)
            a_values = {v[0] for q in union_pair for v in join_result_set(q)}
            c_values = {v[1] for q in union_pair for v in join_result_set(q)}
            for a in a_values:
                for c in c_values:
                    assert prober.contains((a, c)) == ((a, c) in results)


# ----------------------------------------------------- batched kernel ≡ oracle
INT_KEYS = st.integers(0, 2)
STR_KEYS = st.sampled_from(["k0", "k1", "k2"])
#: mixed int/float payloads: 2 == 2.0 must mean the same to both probes
PAYLOADS = st.sampled_from([0, 1, 2, 2.0, 2.5, 7])
#: fields no relation holds, of a type its column may not have
FOREIGN = [99, 1.0, "zz", "k1", None]


@st.composite
def joins_with_values(draw):
    """A generated join (chain / composite-key chain / star / triangle, int or
    string keys, duplicate and dangling rows, possibly an empty relation, an
    optional pushed or non-pushed predicate, any non-empty choice of output
    attributes) and a block of candidate values for it."""
    keys = draw(st.sampled_from([INT_KEYS, STR_KEYS]))

    def relation(name, **columns):
        rows = draw(st.lists(st.tuples(*columns.values()), min_size=3, max_size=9))
        if draw(st.integers(0, 11)) == 0:
            rows = []
        return Relation(name, list(columns), rows)

    shape = draw(st.sampled_from(["chain", "composite", "star", "cyclic"]))
    if shape == "chain":
        relations = [
            relation("R", a=PAYLOADS, b=keys),
            relation("S", b=keys, c=keys),
            relation("T", c=keys, d=PAYLOADS),
        ]
        conditions = [JoinCondition("R", "b", "S", "b"), JoinCondition("S", "c", "T", "c")]
    elif shape == "composite":
        relations = [
            relation("R", a=PAYLOADS, b1=keys, b2=INT_KEYS),
            relation("S", b1=keys, b2=INT_KEYS, d=PAYLOADS),
        ]
        conditions = [JoinCondition("R", "b1", "S", "b1"), JoinCondition("R", "b2", "S", "b2")]
    elif shape == "star":
        relations = [
            relation("R", k=keys, x=keys),
            relation("S", k=keys, a=PAYLOADS),
            relation("T", x=keys, d=PAYLOADS),
        ]
        conditions = [JoinCondition("R", "k", "S", "k"), JoinCondition("R", "x", "T", "x")]
    else:
        relations = [
            relation("R", a=keys, b=keys),
            relation("S", b=keys, d=PAYLOADS),
            relation("T", d=PAYLOADS, a=keys),
        ]
        conditions = [
            JoinCondition("R", "b", "S", "b"),
            JoinCondition("S", "d", "T", "d"),
            JoinCondition("T", "a", "R", "a"),
        ]
    sources = [(r.name, a) for r in relations for a in r.attribute_names]
    chosen = draw(st.lists(st.sampled_from(sources), min_size=1, max_size=4, unique=True))
    outputs = [OutputAttribute(f"{rel}_{attr}", rel, attr) for rel, attr in chosen]
    predicates = None
    filtered = draw(st.sampled_from([None] + [s for s in sources if s[1] in ("a", "d")]))
    if filtered is not None and shape != "cyclic":
        predicates = {filtered[0]: Comparison(filtered[1], ">=", 2)}
    query = JoinQuery(
        "generated", relations, conditions, outputs,
        predicates=predicates, push_down_predicates=draw(st.booleans()),
    )
    domains = [
        sorted(set(query.relation(rel).column(attr)) | set(FOREIGN), key=repr)
        for rel, attr in chosen
    ]
    candidates = st.tuples(*(st.sampled_from(domain) for domain in domains))
    # Values of the join without its predicate and its cycle-closing condition:
    # the members, plus the near misses only those two checks tell apart.
    relaxed = JoinQuery("relaxed", relations, conditions[:2], outputs)
    near = sorted(join_result_set(relaxed), key=repr)
    if near:
        candidates = st.one_of(st.sampled_from(near), candidates)
    return query, draw(st.lists(candidates, max_size=12))


class TestContainsMany:
    @settings(max_examples=250, deadline=None)
    @given(joins_with_values(), st.sampled_from([1, 3, membership.ROW_BUDGET]))
    def test_kernel_agrees_with_oracle(self, generated, row_budget):
        """contains_many ≡ [contains ...] ≡ membership in the executed join,
        whatever the row budget makes of the block (one pass, halved blocks,
        or single values handed to the scalar search)."""
        query, values = generated
        prober = JoinMembershipProber(query)
        expected = [prober.contains(value) for value in values]
        with mock.patch.object(membership, "ROW_BUDGET", row_budget):
            answers = prober.contains_many(values)
        assert answers.dtype == bool and answers.shape == (len(values),)
        assert answers.tolist() == expected
        results = join_result_set(query)
        assert expected == [value in results for value in values]

    def test_empty_block(self, chain_query):
        answers = JoinMembershipProber(chain_query).contains_many([])
        assert answers.dtype == bool and answers.shape == (0,)

    def test_rejects_value_with_wrong_width(self, chain_query):
        with pytest.raises(ValueError, match="fields"):
            JoinMembershipProber(chain_query).contains_many([(1, 100, 7), (1, 100)])

    def test_counts_one_probe_per_value(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        prober.contains_many([(1, 100, 7), (2, 300, 9), (5, 5, 5)])
        assert prober.probe_count == 3
        assert prober.lookup_count >= 3

    @pytest.mark.parametrize("workload", ["uq1_small", "uq2_small", "uq3_small"])
    def test_block_is_split_by_the_row_budget(self, workload, request):
        """A block of drawn TPC-H values whose expansion exceeds the budget
        is answered in pieces, with the answers of one pass."""
        queries = request.getfixturevalue(workload).queries
        index = UnionMembershipIndex(queries)
        values = JoinSampler(queries[0], seed=5).sample_block(300).values(queries[0])
        values += [tuple("absent" for _ in values[0])]
        for query in queries:
            expected = [index.contains(query.name, value) for value in values]
            with mock.patch.object(membership, "ROW_BUDGET", 64):
                with mock.patch.object(
                    JoinMembershipProber, "_expand",
                    autospec=True, side_effect=JoinMembershipProber._expand,
                ) as expand:
                    split = index.contains_many(query.name, values).tolist()
            assert split == expected
            assert index.contains_many(query.name, values).tolist() == expected
            assert expand.call_count > 1
        assert any(expected), "no drawn value is in the last join: workload broken"

    def test_recall_many_probes_each_value_once(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        values = [(1, 100), (3, 400), (1, 100), (123, 456)]
        assert index.recall_many("J2", values).tolist() == [True, True, True, False]
        assert index.probers["J2"].probe_count == 3  # the repeat is one probe
        assert index.recall_many("J2", values + [(5, 500)]).tolist() == [
            True, True, True, False, False,
        ]
        assert index.probers["J2"].probe_count == 4
        assert index.memo["J2", (3, 400)] is True


# ------------------------------------------------------ non-pushed predicates
class TestNonPushedPredicates:
    @pytest.mark.parametrize("push_down", [True, False])
    def test_oracle_and_probes_apply_the_predicate(self, push_down):
        filtered, _ = make_predicated_pair(push_down)
        assert sorted(execute_join(filtered)) == [(10, 7), (20, 6)]
        prober = JoinMembershipProber(filtered)
        values = [(10, 5), (10, 7), (20, 6), (30, 2)]
        assert [prober.contains(v) for v in values] == [False, True, True, False]
        assert prober.contains_many(values).tolist() == [False, True, True, False]

    def test_executor_is_the_sampler_support(self):
        filtered, _ = make_predicated_pair(push_down=False)
        drawn = {d.value for d in JoinSampler(filtered, seed=3).sample_many(200)}
        assert drawn == set(execute_join(filtered))


# ---------------------------------------- consumers: batched ≡ scalar, bitwise
def _scalar_contains_many(self, values):
    """What contains_many computes, the way every consumer used to ask."""
    return np.fromiter((self.contains(v) for v in values), dtype=bool, count=len(values))


def _both_kernels(run):
    """``run()`` under the batched kernel and under the scalar loop."""
    batched = run()
    with mock.patch.object(JoinMembershipProber, "contains_many", _scalar_contains_many):
        scalar = run()
    return batched, scalar


def _parameters(parameters):
    return (
        parameters.join_order,
        parameters.join_sizes,
        parameters.cover_sizes,
        parameters.union_size,
        parameters.overlaps,
        parameters.method,
    )


def _counts(stats):
    return {name: count for name, count in vars(stats).items() if name != "timer"}


@pytest.mark.parametrize("workload", ["uq1_small", "uq2_small", "uq3_small"])
class TestConsumersAreBitIdentical:
    """Every consumer keeps its float arithmetic and its order, so swapping
    the kernel under it changes no bit of what it returns."""

    def test_random_walk_estimate(self, workload, request):
        queries = request.getfixturevalue(workload).queries

        def run():
            estimator = RandomWalkUnionEstimator(queries, walks_per_join=300, seed=9)
            estimate = estimator.overlap_estimate(queries[:2])
            return _parameters(estimator.estimate()), vars(estimate)

        batched, scalar = _both_kernels(run)
        assert batched == scalar

    def test_online_union_sampler(self, workload, request):
        queries = request.getfixturevalue(workload).queries

        def run():
            sampler = OnlineUnionSampler(queries, seed=21, phi=60, walks_per_join=200)
            result = sampler.sample(500)
            assert sampler.stats.backtrack_rounds > 0, "no refinement round ran"
            return (
                [(s.value, s.source_join, s.reused, s.iteration) for s in result.samples],
                _parameters(result.parameters),
                _counts(result.stats),
                sampler.confidence_level,
            )

        batched, scalar = _both_kernels(run)
        assert batched == scalar

    @pytest.mark.parametrize("policy", ["strict", "bernoulli"])
    def test_probing_union_samplers(self, workload, policy, request):
        queries = request.getfixturevalue(workload).queries

        def run():
            parameters = HistogramUnionEstimator(queries, join_size_method="eo")
            if policy == "strict":
                sampler = SetUnionSampler(queries, parameters, seed=33, mode="strict")
            else:
                sampler = BernoulliUnionSampler(queries, parameters, seed=33)
            result = sampler.sample(400)
            return (
                [(s.value, s.source_join, s.iteration) for s in result.samples],
                _counts(result.stats),
            )

        batched, scalar = _both_kernels(run)
        assert batched == scalar
        assert batched[1]["rejected_duplicate"] > 0 or workload == "uq1_small"


def test_estimator_and_sampler_share_probers_and_memo(uq2_small):
    sampler = OnlineUnionSampler(uq2_small.queries, seed=4)
    estimator = RandomWalkUnionEstimator(uq2_small.queries, walks_per_join=100, seed=4)
    adopted = OnlineUnionSampler(uq2_small.queries, seed=4, warmup_estimator=estimator)
    assert adopted.membership is estimator.membership
    # Nothing but the warm-up has probed yet: its answers are the sampler's.
    assert sampler.membership.memo, "the warm-up's answers are not in the sampler's memo"
    histogram = OnlineUnionSampler(uq2_small.queries, seed=4, warmup="histogram")
    assert histogram.membership.memo == {}
