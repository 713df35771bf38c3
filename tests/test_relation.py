"""Tests for repro.relational.relation."""

import numpy as np
import pytest

from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


@pytest.fixture
def people() -> Relation:
    return Relation(
        "people",
        [Attribute("id"), Attribute("age"), Attribute("city", "str")],
        [(1, 30, "rome"), (2, 25, "oslo"), (3, 30, "rome"), (4, 40, "lima")],
    )


class TestConstruction:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Relation("", ["a"], [])

    def test_rejects_row_width_mismatch(self):
        with pytest.raises(ValueError, match="fields"):
            Relation("r", ["a", "b"], [(1,)])

    def test_from_dicts(self):
        rel = Relation.from_dicts("r", ["a", "b"], [{"a": 1, "b": 2}, {"b": 4, "a": 3}])
        assert rel.rows == [(1, 2), (3, 4)]

    def test_from_columns(self):
        rel = Relation.from_columns("r", {"a": [1, 2], "b": [3, 4]})
        assert rel.rows == [(1, 3), (2, 4)]

    def test_from_columns_unequal_lengths(self):
        with pytest.raises(ValueError, match="unequal"):
            Relation.from_columns("r", {"a": [1], "b": [1, 2]})

    def test_from_columns_requires_columns(self):
        with pytest.raises(ValueError):
            Relation.from_columns("r", {})


class TestAccess:
    def test_len_iter_getitem(self, people):
        assert len(people) == 4
        assert people[0] == (1, 30, "rome")
        assert list(people)[-1] == (4, 40, "lima")

    def test_column_and_value(self, people):
        assert people.column("age") == [30, 25, 30, 40]
        assert people.value(2, "city") == "rome"

    def test_project_row(self, people):
        assert people.project_row(1, ["city", "id"]) == ("oslo", 2)

    def test_sample_row_uniform_support(self, people):
        rng = np.random.default_rng(0)
        seen = {people.sample_row(rng) for _ in range(200)}
        assert seen == set(people.rows)

    def test_sample_row_empty_raises(self):
        with pytest.raises(ValueError):
            Relation("r", ["a"], []).sample_row(np.random.default_rng(0))


class TestMutation:
    def test_append_and_extend(self):
        rel = Relation("r", ["a"], [(1,)])
        rel.append((2,))
        rel.extend([(3,), (4,)])
        assert len(rel) == 4

    def test_append_invalidates_indexes_and_statistics(self):
        rel = Relation("r", ["a"], [(1,)])
        assert rel.index_on("a").degree(1) == 1
        assert rel.max_degree("a") == 1
        rel.append((1,))
        assert rel.index_on("a").degree(1) == 2
        assert rel.max_degree("a") == 2

    def test_append_checks_width(self):
        rel = Relation("r", ["a"], [])
        with pytest.raises(ValueError):
            rel.append((1, 2))


class TestNoOpMutationsPreserveCaches:
    """Regression: no-op mutations must be provably cache-preserving — same
    index/statistics objects, same version — not merely 'decided by flag'."""

    @pytest.fixture
    def cached(self, people) -> dict:
        return {
            "index": people.index_on("age"),
            "csr": people.sorted_index_on_columns(["age"]),
            "stats": people.statistics_on("age").frequencies(),
            "columns": people.column_array("age"),
            "version": people.version,
        }

    def _assert_preserved(self, people, cached):
        assert people.version == cached["version"]
        assert people.index_on("age") is cached["index"]
        assert people.sorted_index_on_columns(["age"]) is cached["csr"]
        assert cached["csr"] is cached["index"]  # one index per key set
        assert people.statistics_on("age").frequencies() == cached["stats"]
        assert people.column_array("age") is cached["columns"]

    def test_empty_extend_is_noop(self, people, cached):
        people.extend([])
        people.extend(iter(()))
        self._assert_preserved(people, cached)

    def test_delete_matching_nothing_is_noop(self, people, cached):
        assert people.delete_where(lambda row, schema: False) == 0
        assert people.delete_rows([]) == 0
        self._assert_preserved(people, cached)

    def test_update_assigning_identical_values_is_noop(self, people, cached):
        assert people.update(lambda row, schema: True, {"age": lambda old: old}) == 0
        assert people.update_rows([0, 1], {"city": lambda old: old}) == 0
        self._assert_preserved(people, cached)

    def test_effective_mutation_bumps_version_once(self, people, cached):
        people.extend([(5, 50, "kyiv"), (6, 60, "lima")])
        assert people.version == cached["version"] + 1
        assert people.index_on("age").degree(50) == 1

    def test_empty_extend_does_not_invalidate_unbuilt_caches_later(self):
        rel = Relation("r", ["a"], [(1,), (1,)])
        rel.extend([])
        assert rel.version == 0
        assert rel.index_on("a").degree(1) == 2


class TestDeleteAndUpdate:
    def test_delete_rows_swap_remove_density(self, people):
        assert people.delete_rows([1]) == 1
        # the last row was swapped into the hole: storage stays dense
        assert len(people) == 3
        assert people[1] == (4, 40, "lima")
        assert people.index_on("age").positions(40).tolist() == [1]

    def test_delete_where_with_predicate_object(self, people):
        assert people.delete_where(Comparison("age", ">=", 30)) == 3
        assert people.rows == [(2, 25, "oslo")]

    def test_duplicate_delete_positions_counted_once(self, people):
        assert people.delete_rows([0, 0, 0]) == 1
        assert len(people) == 3

    def test_update_with_mapping_and_callable(self, people):
        people.index_on("city")  # built before: the update must maintain it
        people.statistics_on("city")
        changed = people.update(
            Comparison("city", "==", "rome"),
            {"age": lambda old: old + 1, "city": "florence"},
        )
        assert changed == 2
        assert people.column("city").count("florence") == 2
        assert people.index_on("city").positions("rome").tolist() == []
        assert people.statistics_on("city").degree("florence") == 2

    def test_update_out_of_range_raises(self, people):
        with pytest.raises(IndexError):
            people.update_rows([99], {"age": 1})


class TestIndexesAndStatistics:
    def test_index_on_caches_and_answers(self, people):
        idx = people.index_on("age")
        assert idx.positions(30).tolist() == [0, 2]
        assert people.index_on("age") is idx

    def test_index_on_columns_composite(self, people):
        idx = people.index_on_columns(["age", "city"])
        assert idx.positions((30, "rome")).tolist() == [0, 2]
        assert idx.positions((30, "oslo")).tolist() == []

    def test_index_on_columns_single_delegates(self, people):
        assert people.index_on_columns(["age"]) is people.index_on("age")

    def test_degree_and_max_degree(self, people):
        assert people.degree("city", "rome") == 2
        assert people.degree("city", "nowhere") == 0
        assert people.max_degree("city") == 2

    def test_statistics_on_columns(self, people):
        stats = people.statistics_on_columns(["age", "city"])
        assert stats.degree((30, "rome")) == 2
        assert stats.max_degree == 2


class TestDerivations:
    def test_project_keeps_duplicates(self, people):
        projected = people.project(["city"])
        assert len(projected) == 4
        assert projected.column("city").count("rome") == 2

    def test_select_with_predicate_object(self, people):
        young = people.select(Comparison("age", "<", 35))
        assert len(young) == 3

    def test_select_with_callable(self, people):
        rome = people.select(lambda row, schema: row[schema.position("city")] == "rome")
        assert len(rome) == 2

    def test_rename(self, people):
        renamed = people.rename({"id": "person_id"}, name="p2")
        assert renamed.name == "p2"
        assert "person_id" in renamed.schema
        assert renamed.rows == people.rows

    def test_distinct(self):
        rel = Relation("r", ["a"], [(1,), (2,), (1,)])
        assert rel.distinct().rows == [(1,), (2,)]

    def test_select_with_boolean_mask(self, people):
        thirty = people.select(people.column_array("age") == 30, name="thirty")
        assert thirty.rows == [(1, 30, "rome"), (3, 30, "rome")]
        with pytest.raises(ValueError, match="mask"):
            people.select(np.ones(3, dtype=bool))


class TestColumnStorage:
    """One array per attribute is the row storage: rows are views of it."""

    def test_rows_round_trip_value_and_type(self):
        rows = [(1, 2.5, "x", True, b"k", None, (1, 2), 2**70),
                (-3, 0.0, "", False, b"", 7, (), -(2**64))]
        rel = Relation("r", list("abcdefgh"), rows)
        for view in (rel.rows, list(rel), [rel.row(0), rel[1]]):
            assert view == rows
            assert [list(map(type, r)) for r in view] == [list(map(type, r)) for r in rows]
        assert rel.column_array("a").dtype == np.int16
        assert rel.column_array("h").dtype == object

    def test_nul_suffixed_strings_survive_the_column_path(self):
        from repro.joins.conditions import JoinCondition, OutputAttribute
        from repro.joins.executor import execute_join
        from repro.joins.query import JoinQuery
        from repro.sampling.join_sampler import JoinSampler

        r = Relation("R", ["k", "s"], [(1, "x\x00"), (2, "y")])
        s = Relation("S", ["k", "t"], [(1, 10), (2, 20)])
        query = JoinQuery("q", [r, s], [JoinCondition("R", "k", "S", "k")],
                          [OutputAttribute.direct("R", "s"), OutputAttribute.direct("S", "t")])
        assert r.column_array("s").tolist() == r.column("s") == ["x\x00", "y"]
        support = set(JoinSampler(query, weights="ew", seed=1).sample_block(50).values(query))
        assert support <= set(execute_join(query)) == {("x\x00", 10), ("y", 20)}
        raw = Relation("B", ["b"], [(b"x\x00",), (b"y",)])
        assert raw.column_array("b").tolist() == raw.column("b") == [b"x\x00", b"y"]

    def test_update_rebuilds_a_column_its_dtype_cannot_hold(self):
        rel = Relation("r", ["k", "s"], [(1, "ab"), (2, "cd")])
        rel.update_rows([0], {"s": "a much longer string", "k": 2**40})
        rel.update_rows([1], {"s": None})
        assert rel.rows == [(2**40, "a much longer string"), (2, None)]
        rel.update_rows([1], {"k": True})
        assert type(rel.value(1, "k")) is bool

    def test_mutations_replace_arrays_never_write_them(self, people):
        before = people.column_array("age")
        assert not before.flags.writeable
        people.update_rows([0], {"age": 99})
        people.delete_rows([1])
        people.append((5, 50, "kyiv"))
        assert before.tolist() == [30, 25, 30, 40]
        assert people.column("age") == [99, 40, 30, 50]

    def test_derivations_share_the_arrays(self, people):
        assert people.project(["age"]).column_array("age") is people.column_array("age")
        assert people.rename({}, name="p2").column_array("city") is people.column_array("city")
