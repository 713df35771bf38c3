"""Tests for repro.joins.query and repro.joins.conditions."""

import pytest

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery, JoinType, check_union_compatible
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation


class TestJoinCondition:
    def test_basic_accessors(self):
        cond = JoinCondition("R", "b", "S", "b2")
        assert cond.relations() == ("R", "S")
        assert cond.touches("R") and not cond.touches("T")
        assert cond.attribute_for("S") == "b2"
        assert cond.other("R") == ("S", "b2")

    def test_reversed(self):
        cond = JoinCondition("R", "x", "S", "y").reversed()
        assert cond.left_relation == "S" and cond.right_attribute == "x"

    def test_rejects_same_relation_both_sides(self):
        with pytest.raises(ValueError):
            JoinCondition("R", "a", "R", "b")

    def test_attribute_for_unknown_relation(self):
        with pytest.raises(KeyError):
            JoinCondition("R", "a", "S", "b").attribute_for("T")

    def test_output_attribute_direct(self):
        out = OutputAttribute.direct("R", "a")
        assert out.name == "a" and out.relation == "R" and out.attribute == "a"


class TestJoinQueryValidation:
    def r(self):
        return Relation("R", ["a", "b"], [(1, 10)])

    def s(self):
        return Relation("S", ["b", "c"], [(10, 100)])

    def test_requires_name_and_relations(self):
        with pytest.raises(ValueError):
            JoinQuery("", [self.r()], [], [OutputAttribute.direct("R", "a")])
        with pytest.raises(ValueError):
            JoinQuery("q", [], [], [])

    def test_rejects_duplicate_relation_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            JoinQuery("q", [self.r(), self.r()], [], [OutputAttribute.direct("R", "a")])

    def test_rejects_condition_with_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation"):
            JoinQuery(
                "q",
                [self.r(), self.s()],
                [JoinCondition("R", "b", "T", "b")],
                [OutputAttribute.direct("R", "a")],
            )

    def test_rejects_condition_with_unknown_attribute(self):
        with pytest.raises(ValueError, match="not in"):
            JoinQuery(
                "q",
                [self.r(), self.s()],
                [JoinCondition("R", "zzz", "S", "b")],
                [OutputAttribute.direct("R", "a")],
            )

    def test_rejects_missing_output_attributes(self):
        with pytest.raises(ValueError, match="no output attributes"):
            JoinQuery("q", [self.r()], [], [])

    def test_rejects_duplicate_output_names(self):
        with pytest.raises(ValueError, match="duplicate output"):
            JoinQuery(
                "q",
                [self.r()],
                [],
                [OutputAttribute.direct("R", "a"), OutputAttribute("a", "R", "b")],
            )

    def test_rejects_output_from_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation"):
            JoinQuery("q", [self.r()], [], [OutputAttribute.direct("X", "a")])

    def test_rejects_multi_relation_query_without_conditions(self):
        with pytest.raises(ValueError, match="no join conditions"):
            JoinQuery("q", [self.r(), self.s()], [], [OutputAttribute.direct("R", "a")])

    def test_rejects_disconnected_join_graph(self):
        t = Relation("T", ["c", "d"], [(1, 2)])
        u = Relation("U", ["d", "e"], [(2, 3)])
        query = JoinQuery(
            "q",
            [self.r(), self.s(), t, u],
            [JoinCondition("R", "b", "S", "b"), JoinCondition("T", "d", "U", "d")],
            [OutputAttribute.direct("R", "a")],
        )
        with pytest.raises(ValueError, match="disconnected"):
            _ = query.join_type


class TestClassification:
    def test_single_relation_is_chain(self):
        query = JoinQuery(
            "q",
            [Relation("R", ["a"], [(1,)])],
            [],
            [OutputAttribute.direct("R", "a")],
        )
        assert query.join_type is JoinType.CHAIN

    def test_chain(self, chain_query):
        assert chain_query.join_type is JoinType.CHAIN
        assert chain_query.is_chain and not chain_query.is_cyclic

    def test_acyclic(self, acyclic_query):
        assert acyclic_query.join_type is JoinType.ACYCLIC

    def test_cyclic(self, cyclic_query):
        assert cyclic_query.join_type is JoinType.CYCLIC
        assert cyclic_query.is_cyclic


class TestPredicatesAndProjection:
    def test_push_down_filters_relation(self):
        r = Relation("R", ["a", "b"], [(1, 10), (2, 20)])
        s = Relation("S", ["b", "c"], [(10, 100), (20, 200)])
        query = JoinQuery(
            "q",
            [r, s],
            [JoinCondition("R", "b", "S", "b")],
            [OutputAttribute.direct("R", "a"), OutputAttribute.direct("S", "c")],
            predicates={"R": Comparison("a", "==", 1)},
        )
        assert len(query.relation("R")) == 1
        # The original relation object is untouched.
        assert len(r) == 2

    def test_no_push_down_keeps_rows(self):
        r = Relation("R", ["a", "b"], [(1, 10), (2, 20)])
        s = Relation("S", ["b", "c"], [(10, 100), (20, 200)])
        query = JoinQuery(
            "q",
            [r, s],
            [JoinCondition("R", "b", "S", "b")],
            [OutputAttribute.direct("R", "a"), OutputAttribute.direct("S", "c")],
            predicates={"R": Comparison("a", "==", 1)},
            push_down_predicates=False,
        )
        assert len(query.relation("R")) == 2

    def test_project_assignment(self, chain_query):
        value = chain_query.project_assignment({"R": 0, "S": 0, "T": 0})
        assert value == (1, 100, 7)

    def test_output_schema_and_sources(self, chain_query):
        assert chain_query.output_schema == ("a", "c", "d")
        assert chain_query.output_sources()["c"] == ("S", "c")


class TestUnionCompatibility:
    def test_aligns_with(self, union_pair):
        assert union_pair[0].aligns_with(union_pair[1])

    def test_check_union_compatible_passes(self, union_triple):
        check_union_compatible(union_triple)

    def test_check_union_compatible_rejects_schema_mismatch(self, union_pair, chain_query):
        with pytest.raises(ValueError, match="not union-compatible"):
            check_union_compatible([union_pair[0], chain_query])

    def test_check_union_compatible_rejects_duplicate_names(self, union_pair):
        with pytest.raises(ValueError, match="duplicate"):
            check_union_compatible([union_pair[0], union_pair[0]])

    def test_check_union_compatible_rejects_empty(self):
        with pytest.raises(ValueError):
            check_union_compatible([])


# ------------------------------------------------------------- snapshot memo
@pytest.fixture
def tree_builds(monkeypatch):
    """Counts ``build_join_tree`` calls (the join-tree tenant's builder)."""
    from repro.joins import join_tree

    calls = []
    original = join_tree.build_join_tree

    def counting(query, *args, **kwargs):
        calls.append(query.name)
        return original(query, *args, **kwargs)

    monkeypatch.setattr(join_tree, "build_join_tree", counting)
    return calls


@pytest.fixture(scope="module")
def uq1():
    from repro.tpch.workloads import build_uq1

    return build_uq1(scale_factor=0.0005, seed=3)


class TestSnapshotMemo:
    def test_derived_builds_once_per_key_and_snapshot(self, chain_query):
        builds = []
        first = chain_query.derived("k", lambda: builds.append(1) or len(builds))
        again = chain_query.derived("k", lambda: builds.append(1) or len(builds))
        assert first == again == 1
        chain_query.relation("T").extend([(300, 11)])
        assert chain_query.derived("k", lambda: builds.append(1) or len(builds)) == 2

    def test_second_warm_request_builds_no_tree(self, tree_builds):
        from repro.server import SamplingService

        service = SamplingService(workload_name="UQ1", scale_factor=0.0005, seed=3)
        try:
            request = {"kind": "sample", "query": service.workload.query_names[0],
                       "count": 20, "seed": 1}
            assert service.handle(request)["ok"]
            tree_builds.clear()
            assert service.handle(request)["ok"]
            assert tree_builds == []
        finally:
            service.close()

    def test_second_auto_aggregate_builds_no_tree(self, uq1, tree_builds):
        from repro.aqp import AggregateSpec, aggregate

        query = uq1.queries[0]
        first = aggregate(query, AggregateSpec("count"), rel_error=0.2, seed=4)
        tree_builds.clear()
        second = aggregate(query, AggregateSpec("count"), rel_error=0.2, seed=4)
        assert tree_builds == []
        assert second.estimates == first.estimates

    def test_second_union_sampler_builds_no_tree(self, uq1, tree_builds):
        from repro.core.online_sampler import OnlineUnionSampler

        OnlineUnionSampler(uq1.queries, seed=5)
        tree_builds.clear()
        OnlineUnionSampler(uq1.queries, seed=5)
        assert tree_builds == []

    def test_mutation_rebuilds_each_query_over_the_relation_once(self, tree_builds):
        from repro.sampling.join_sampler import JoinSampler
        from repro.sampling.wander_join import WanderJoin

        r = Relation("R", ["a", "b"], [(1, 10), (2, 20), (3, 10)])
        s = Relation("S", ["b", "c"], [(10, 100), (20, 200)])
        t = Relation("T", ["c", "d"], [(100, 7), (200, 8)])
        u = Relation("U", ["d", "e"], [(7, 1), (8, 2)])
        rs = JoinQuery("RS", [r, s], [JoinCondition("R", "b", "S", "b")],
                       [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")])
        st = JoinQuery("ST", [s, t], [JoinCondition("S", "c", "T", "c")],
                       [OutputAttribute("b", "S", "b"), OutputAttribute("d", "T", "d")])
        tu = JoinQuery("TU", [t, u], [JoinCondition("T", "d", "U", "d")],
                       [OutputAttribute("c", "T", "c"), OutputAttribute("e", "U", "e")])
        queries = (rs, st, tu)
        for query in queries:
            query.join_tree()
        tree_builds.clear()
        s.delete_rows([0])
        for _ in range(2):
            for query in queries:
                query.join_tree()
                JoinSampler(query, seed=0)
                WanderJoin(query, seed=0)
        assert sorted(tree_builds) == ["RS", "ST"]

    def test_sampler_keeps_its_tree_and_a_new_one_sees_the_rebuild(self, acyclic_query):
        from repro.joins.executor import join_result_set
        from repro.joins.join_tree import build_join_tree
        from repro.sampling.join_sampler import JoinSampler

        def child_order(tree):
            return [child.relation for child in tree.root.children]

        before = JoinSampler(acyclic_query, seed=1)
        old_tree = before.tree
        assert child_order(old_tree) == ["D", "E"]
        # D's max degree on k rises from 2 to 3, past E's 2: E now goes first.
        acyclic_query.relation("D").extend([(2, "d4"), (2, "d5")])
        after = JoinSampler(acyclic_query, seed=1)
        rebuilt = build_join_tree(acyclic_query)
        assert child_order(after.tree) == child_order(rebuilt) == ["E", "D"]
        assert before.tree is old_tree
        results = join_result_set(acyclic_query)
        assert {draw.value for draw in before.sample_many(20)} <= results
        assert {draw.value for draw in after.sample_many(20)} <= results

    def test_pickled_query_samples_bit_identically(self, chain_query):
        import pickle

        from repro.sampling.join_sampler import JoinSampler

        chain_query.join_tree()
        copy = pickle.loads(pickle.dumps(chain_query))
        assert copy.join_tree() is not chain_query.join_tree()
        original = [d.value for d in JoinSampler(chain_query, seed=7).sample_many(50)]
        restored = [d.value for d in JoinSampler(copy, seed=7).sample_many(50)]
        assert restored == original
