"""Tests for repro.joins.membership (the hash-probe membership check)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.online_sampler import OnlineUnionSampler
from repro.core.union_sampler import BernoulliUnionSampler, SetUnionSampler
from repro.dynamic import DeleteEvent, InsertEvent, UpdateBatch, apply_batch
from repro.estimation.histogram import HistogramUnionEstimator
from repro.estimation.random_walk import RandomWalkUnionEstimator
from repro.joins import membership
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.executor import execute_join, join_result_set
from repro.joins.membership import JoinMembershipProber, UnionMembershipIndex
from repro.joins.query import JoinQuery
from repro.relational.predicates import Between, Comparison
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

    def test_counts_the_shared_values(self, union_pair):
        j1, j2 = union_pair
        prober = JoinMembershipProber(j2)
        values = sorted(join_result_set(j1))
        shared = join_result_set(j1) & join_result_set(j2)
        assert int(prober.contains_many(values).sum()) == len(shared) == 2

    def test_probe_counters_increase(self, chain_query):
        prober = JoinMembershipProber(chain_query)
        prober.contains((1, 100, 7))
        prober.contains((1, 100, 7))
        assert prober.probe_count == 2
        assert prober.lookup_count >= 2


def _owners(index, names, values):
    """Per value, the first of ``names`` whose join contains it (None: none),
    read from the cover test the union sources use."""
    fields = [np.array(column) for column in zip(*values)]
    owners = [None] * len(values)
    for position, name in enumerate(names):
        claimed = index.contained_in_any(names[:position], fields)
        for at in np.flatnonzero(index.contained_in_any([name], fields) & ~claimed):
            owners[at] = name
    return owners


class TestUnionMembershipIndex:
    def test_owner_is_first_containing_join(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        names = [query.name for query in union_triple]
        results = [join_result_set(query) for query in union_triple]
        values = sorted(set().union(*results)) + [(123, 456)]
        expected = [
            next((name for name, members in zip(names, results) if v in members), None)
            for v in values
        ]
        assert _owners(index, names, values) == expected
        # (1, 100) is in all three joins, (3, 400) only in J2, (5, 500) only
        # in J3, and (123, 456) in none.
        owners = dict(zip(values, expected))
        assert [owners[v] for v in [(1, 100), (3, 400), (5, 500), (123, 456)]] == [
            "J1", "J2", "J3", None,
        ]

    def test_containing_joins(self, union_triple):
        index = UnionMembershipIndex(union_triple)
        for value in [(1, 100), (2, 300), (3, 400), (123, 456)]:
            containing = [q.name for q in union_triple if index.contains(q.name, value)]
            assert containing == [
                q.name for q in union_triple if value in join_result_set(q)
            ]
        assert [q.name for q in union_triple if index.contains(q.name, (2, 300))] == [
            "J1", "J3",
        ]

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


# ------------------------------------------------- frontier engine ≡ the join
INT_KEYS = st.integers(0, 2)
STR_KEYS = st.sampled_from(["k0", "k1", "k2"])
#: mixed int/float payloads: 2 == 2.0 must mean the same to both probes
PAYLOADS = st.sampled_from([0, 1, 2, 2.0, 2.5, 7])
#: an int column past 2**53, where NumPy would round an int to meet a float
WIDE = st.sampled_from([0, 5, 2**53 + 1])
#: pairwise unequal values of mixed kinds, for a column whose values are unique
UNIQUE = [True, 2.0, 3, 2**53 + 1, float(2**53), "u", "u\x00", -1.5, 2**70]
#: fields no relation holds, of a type its column may not have, and fields
#: one ``==`` away from a held value of another kind (1 == 1.0 == True,
#: 2**53 == 2.0**53 != 2**53 + 1, "k1" != "k1\x00")
FOREIGN = [99, 1.0, "zz", "k1", None, 1, 2, 2**53, float(2**53 + 1), "k1\x00", "u", False]


@st.composite
def joins_with_values(draw):
    """A generated join (chain / composite-key chain / star / triangle, int or
    string keys, duplicate and dangling rows, possibly an empty relation, an
    optional pushed or non-pushed predicate, any non-empty choice of output
    attributes) and a block of candidate values for it.  In the *keyed*
    chain, ``S.u`` is unique and of mixed kinds while ``S.b`` takes at most
    three values, so a probe seeds ``S`` from ``u``'s index and checks the
    edge to its parent through the row -> slot map; ``S.w``/``T.w`` join on
    ints past 2**53."""
    keys = draw(st.sampled_from([INT_KEYS, STR_KEYS]))

    def relation(name, **columns):
        rows = draw(st.lists(st.tuples(*columns.values()), min_size=3, max_size=9))
        if draw(st.integers(0, 11)) == 0:
            rows = []
        return Relation(name, list(columns), rows)

    shape = draw(st.sampled_from(["chain", "composite", "star", "cyclic", "keyed"]))
    if shape == "keyed":
        rows = relation("S", b=keys, w=WIDE).rows
        unique = draw(st.permutations(UNIQUE))
        relations = [
            relation("R", a=PAYLOADS, b=keys),
            Relation("S", ["b", "u", "w"], [(b, u, w) for (b, w), u in zip(rows, unique)]),
            relation("T", w=WIDE, d=PAYLOADS),
        ]
        conditions = [JoinCondition("R", "b", "S", "b"), JoinCondition("S", "w", "T", "w")]
    elif shape == "chain":
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
    if shape == "keyed":  # u is S's first output attribute
        chosen = [("S", "u")] + [source for source in chosen if source != ("S", "u")]
    outputs = [OutputAttribute(f"{rel}_{attr}", rel, attr) for rel, attr in chosen]
    predicates = None
    filtered = draw(st.sampled_from([None] + [s for s in sources if s[1] in ("a", "d")]))
    if filtered is not None and shape != "cyclic":
        predicates = {filtered[0]: Comparison(filtered[1], ">=", 2)}
    query = JoinQuery(
        "generated", relations, conditions, outputs,
        predicates=predicates, push_down_predicates=draw(st.booleans()),
    )
    # Deduplicated by type and repr, not by ==, so that 1, 1.0 and True all stay.
    domains = [
        sorted(
            {(type(v), repr(v)): v for v in query.relation(rel).column(attr) + FOREIGN}.values(),
            key=repr,
        )
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
        whatever the row budget makes of the block (one pass, or levels
        expanded in windows, down to one entry at a time)."""
        query, values = generated
        prober = JoinMembershipProber(query)
        results = join_result_set(query)
        expected = [value in results for value in values]
        with mock.patch.object(membership, "ROW_BUDGET", row_budget):
            answers = prober.contains_many(values)
            one_by_one = [prober.contains(value) for value in values]
        assert answers.dtype == bool and answers.shape == (len(values),)
        assert answers.tolist() == expected
        assert one_by_one == expected

    def test_both_seeds_fire_over_generated_joins(self):
        """Over a run of generated joins, some bound-parent level seeds from
        its output attribute's index and some from the join-key CSR."""
        seeds = set()

        @settings(max_examples=120, deadline=None)
        @given(joins_with_values())
        def probe(generated):
            query, values = generated
            JoinMembershipProber(query).contains_many(values)
            seeds.update(
                "field" if level.seed_field >= 0 else "edge"
                for level in membership.probe_plan(query).levels
                if level.parent is not None
            )

        probe()
        assert seeds == {"field", "edge"}

    @settings(max_examples=150, deadline=None)
    @given(joins_with_values(), st.data())
    def test_answers_follow_a_refresh_batch(self, generated, data):
        """After an update batch on one relation the kernel answers for the
        new snapshot: a probe plan kept from the old one would not."""
        query, values = generated
        prober = JoinMembershipProber(query)
        prober.contains_many(values)  # this snapshot's plan
        name = data.draw(st.sampled_from(query.relation_order))
        relation = query.relation(name)
        events = []
        if len(relation):
            attr = data.draw(st.sampled_from(relation.attribute_names))
            events.append(DeleteEvent(name, attr, relation.value(0, attr)))
        pools = [
            sorted(
                {(type(v), repr(v)): v for r in query.relations.values()
                 if attr in r.schema for v in r.column(attr)}.values(),
                key=repr,
            )
            for attr in relation.attribute_names
        ]
        if all(pools):
            rows = data.draw(st.lists(st.tuples(*map(st.sampled_from, pools)), max_size=4))
            events.append(InsertEvent(name, tuple(rows)))
        apply_batch(query.relations, UpdateBatch(1, tuple(events)))
        results = join_result_set(query)
        expected = [value in results for value in values]
        assert prober.contains_many(values).tolist() == expected

    def test_an_int_past_2_53_is_not_its_rounded_float(self):
        """NumPy compares int64 with float64 in float64, where 2**53 + 1
        rounds to 2.0**53; the kernel must not report such a value."""
        r = Relation("R", ["k", "a"], [(1, 2**53 + 1), (2, 5)])
        s = Relation("S", ["k", "b"], [(1, 10), (2, 20)])
        query = JoinQuery(
            "big", [r, s], [JoinCondition("R", "k", "S", "k")],
            [OutputAttribute("k", "R", "k"), OutputAttribute("a", "R", "a"),
             OutputAttribute("b", "S", "b")],
        )
        value = (1, float(2**53), 10)
        prober = JoinMembershipProber(query)
        assert not prober.contains(value)
        assert value not in set(execute_join(query))
        assert prober.contains_many([value]).tolist() == [False]
        assert prober.contains_many([(1, 2**53 + 1, 10)]).tolist() == [True]

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
        is answered in windows, with the enumerated join's answers (that it
        makes the lookups of one pass is the count contract
        ``test_the_row_budget_changes_no_probe_work``)."""
        queries = request.getfixturevalue(workload).queries
        values = JoinSampler(queries[0], seed=5).sample_block(300).values(queries[0])
        values += [tuple("absent" for _ in values[0])]
        for query in queries:
            results = join_result_set(query)
            expected = [value in results for value in values]
            assert JoinMembershipProber(query).contains_many(values).tolist() == expected
            with mock.patch.object(membership, "ROW_BUDGET", 64):
                assert JoinMembershipProber(query).contains_many(values).tolist() == expected
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

    def test_unpushed_chain_stays_within_the_executed_join(self):
        """Three relations, predicates on the root and on the leaf, checked
        on bound rows: draws and column probes keep to ``execute_join``."""
        relations = [
            Relation("R", ["a", "b"], [(i, i % 4) for i in range(12)]),
            Relation("S", ["b", "c"], [(i % 4, i) for i in range(10)]),
            Relation("T", ["c", "d"], [(i % 10, float(i)) for i in range(20)]),
        ]
        conditions = [JoinCondition("R", "b", "S", "b"), JoinCondition("S", "c", "T", "c")]
        outputs = [
            OutputAttribute.direct("R", "a"),
            OutputAttribute.direct("S", "c"),
            OutputAttribute.direct("T", "d"),
        ]
        predicates = {
            "R": Comparison("a", "!=", 3) & Comparison("a", "<", 10),
            "T": Between("d", 2, 15.5),
        }

        def join(push_down):
            return JoinQuery("chain", relations, conditions, outputs, predicates, push_down)

        query = join(push_down=False)
        results = execute_join(query)
        assert sorted(results) == sorted(execute_join(join(push_down=True)))
        drawn = JoinSampler(query, seed=9).sample_block(500).values(query)
        assert set(drawn) == set(results)
        candidates = sorted(join_result_set(JoinQuery("all", relations, conditions, outputs)))
        fields = [np.array(column) for column in zip(*candidates)]
        answers = JoinMembershipProber(query).contains_columns(fields)
        assert answers.tolist() == [value in set(results) for value in candidates]
        assert 0 < answers.sum() < len(candidates)


# ------------------------------------- consumers: engine ≡ enumeration, bitwise
def _both_kernels(run):
    """``run()`` under the frontier engine and under membership in the
    enumerated join (every probe, tuple form included, goes through
    ``contains_columns``; a consumer that got around it would never reach
    the enumeration)."""
    batched = run()
    probed = []
    enumerated = {}

    def enumeration(self, fields):
        probed.append(len(fields[0]))
        query = self.query
        snapshot = (id(query), tuple(r.version for r in query.relations.values()))
        if snapshot not in enumerated:
            enumerated[snapshot] = join_result_set(query)
        results = enumerated[snapshot]
        values = zip(*(field.tolist() for field in fields))
        return np.fromiter((v in results for v in values), dtype=bool, count=len(fields[0]))

    with mock.patch.object(JoinMembershipProber, "contains_columns", enumeration):
        scalar = run()
    assert probed, "the consumer never reached the membership engine"
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
    the engine under it for the enumerated join changes no bit of what it
    returns."""

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
