"""Property-based tests (hypothesis) on core data structures and invariants.

These tests generate random relations, random overlapping set systems, and
random two-hop joins, and check the library's structural invariants against
brute-force computations:

* hash indexes and column statistics agree with naive counting;
* the k-overlap calculus (Theorem 3 + Eq. 1) reproduces exact union sizes for
  arbitrary set systems, and cover sizes always sum to the union size;
* Olken / exact-weight totals bound / equal brute-force join sizes;
* the membership prober agrees with the executed join on every candidate value.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.estimation.union_size import (
    compute_all_overlaps,
    compute_k_overlaps,
    cover_sizes_from_overlaps,
    union_size_from_k_overlaps,
)
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.executor import exact_join_size, join_result_set
from repro.joins.membership import JoinMembershipProber
from repro.joins.query import JoinQuery
from repro.relational.index import SortedIndex
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.relational.statistics import ColumnStatistics
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.olken import olken_upper_bound
from repro.sampling.weights import ExactWeightFunction, ExtendedOlkenWeightFunction


# --------------------------------------------------------------------- strategies
small_values = st.integers(min_value=0, max_value=6)
value_lists = st.lists(small_values, min_size=0, max_size=40)

set_systems = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), max_size=10),
    min_size=1,
    max_size=5,
)


def two_relation_queries():
    """Random R(a, b) ⋈ S(b, c) joins with small value domains."""
    rows_r = st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 4)), min_size=0, max_size=15
    )
    rows_s = st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 8)), min_size=0, max_size=15
    )
    return st.tuples(rows_r, rows_s).map(_build_two_relation_query)


def _build_two_relation_query(rows):
    rows_r, rows_s = rows
    r = Relation("R", ["a", "b"], rows_r)
    s = Relation("S", ["b", "c"], rows_s)
    return JoinQuery(
        "hyp",
        [r, s],
        [JoinCondition("R", "b", "S", "b")],
        [
            OutputAttribute.direct("R", "a"),
            OutputAttribute.direct("R", "b"),
            OutputAttribute.direct("S", "c"),
        ],
    )


# ------------------------------------------------------------------------- indexes
class TestIndexAndStatisticsProperties:
    @given(values=value_lists)
    @settings(max_examples=100, deadline=None)
    def test_index_matches_naive_counts(self, values):
        index = SortedIndex.build(values, "a")
        counter = Counter(values)
        for value, count in counter.items():
            assert index.degree(value) == count
            assert [values[p] for p in index.positions(value)] == [value] * count
        assert index.total_rows == len(values)
        assert index.max_degree == (max(counter.values()) if counter else 0)

    @given(values=value_lists)
    @settings(max_examples=100, deadline=None)
    def test_column_statistics_match_naive_counts(self, values):
        stats = ColumnStatistics.from_values("a", values)
        counter = Counter(values)
        assert stats.row_count == len(values)
        assert stats.distinct_count == len(counter)
        for value, count in counter.items():
            assert stats.degree(value) == count
        if counter:
            assert stats.max_degree == max(counter.values())
            assert stats.average_degree == pytest.approx(len(values) / len(counter))


# --------------------------------------------------------------------- set calculus
class TestUnionCalculusProperties:
    @given(sets=set_systems)
    @settings(max_examples=150, deadline=None)
    def test_theorem3_union_size_matches_brute_force(self, sets):
        names = [f"J{i}" for i in range(len(sets))]
        by_name = dict(zip(names, sets))

        def overlap_of(subset):
            members = [by_name[name] for name in subset]
            return float(len(frozenset.intersection(*members)))

        overlaps = compute_all_overlaps(names, overlap_of)
        areas = compute_k_overlaps(names, overlaps)
        union = union_size_from_k_overlaps(areas)
        expected = len(frozenset.union(*sets)) if sets else 0
        assert union == pytest.approx(expected)

    @given(sets=set_systems)
    @settings(max_examples=150, deadline=None)
    def test_k_overlaps_partition_each_set(self, sets):
        names = [f"J{i}" for i in range(len(sets))]
        by_name = dict(zip(names, sets))

        def overlap_of(subset):
            members = [by_name[name] for name in subset]
            return float(len(frozenset.intersection(*members)))

        overlaps = compute_all_overlaps(names, overlap_of)
        areas = compute_k_overlaps(names, overlaps)
        for name in names:
            assert sum(areas[name].values()) == pytest.approx(len(by_name[name]))
            assert all(v >= 0 for v in areas[name].values())

    @given(sets=set_systems)
    @settings(max_examples=150, deadline=None)
    def test_cover_sizes_sum_to_union_and_match_sequential_difference(self, sets):
        names = [f"J{i}" for i in range(len(sets))]
        by_name = dict(zip(names, sets))

        def overlap_of(subset):
            members = [by_name[name] for name in subset]
            return float(len(frozenset.intersection(*members)))

        overlaps = compute_all_overlaps(names, overlap_of)
        covers = cover_sizes_from_overlaps(names, overlaps)
        union = frozenset.union(*sets)
        assert sum(covers.values()) == pytest.approx(len(union))
        seen: set = set()
        for name in names:
            expected = len(set(by_name[name]) - seen)
            assert covers[name] == pytest.approx(expected)
            seen |= set(by_name[name])


# -------------------------------------------------------- incremental updates
#: values of the mixed column ``m``: big ints beyond int64, bools, None,
#: floats, NUL-suffixed and longer strings (an update widening a ``<U``
#: column) and tuples — whatever a typed column array cannot hold must land
#: in an object column unchanged
mixed_values = st.one_of(
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.text(max_size=3).map(lambda text: text + "\x00"),
    st.text(max_size=12),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)
#: one row (a, b, m); relations without the ``m`` column take ``(a, b)``
mixed_rows = st.tuples(st.integers(0, 8), st.integers(0, 4), mixed_values)

#: one mutation: ("append", row) | ("extend", rows) | ("delete", key value on
#: column a) | ("update", (row index hint, new a, new m))
mutation_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), mixed_rows),
        st.tuples(st.just("extend"), st.lists(mixed_rows, max_size=4)),
        st.tuples(st.just("delete"), st.integers(0, 8)),
        st.tuples(
            st.just("update"), st.tuples(st.integers(0, 40), st.integers(0, 8), mixed_values)
        ),
    ),
    min_size=1,
    max_size=25,
)


def _apply_ops(relation: Relation, ops, shadow: list, check: bool = True) -> None:
    """Apply ``ops`` to ``relation`` and replay them on ``shadow``, a plain
    list of row tuples; with ``check``, the relation's rows must equal the
    shadow — in value and in type, field by field — after every op."""
    names = relation.schema.names
    width = len(names)
    for kind, payload in ops:
        if kind == "append":
            relation.append(payload[:width])
            shadow.append(payload[:width])
        elif kind == "extend":
            relation.extend(row[:width] for row in payload)
            shadow.extend(row[:width] for row in payload)
        elif kind == "delete":
            relation.delete_where(Comparison("a", "==", payload))
            # swap-remove: the tail's survivors fill the holes, in order
            doomed = [p for p, row in enumerate(shadow) if row[0] == payload]
            size = len(shadow) - len(doomed)
            holes = [p for p in doomed if p < size]
            survivors = [p for p in range(size, len(shadow)) if p not in doomed]
            for old, new in zip(survivors, holes):
                shadow[new] = shadow[old]
            del shadow[size:]
        elif shadow:
            index_hint, new_a, new_m = payload
            position = index_hint % len(shadow)
            assignments = {"a": new_a, "m": new_m}
            assignments = {name: assignments[name] for name in names if name in assignments}
            relation.update_rows([position], assignments)
            new_row = tuple(assignments.get(name, value)
                            for name, value in zip(names, shadow[position]))
            if new_row != shadow[position]:  # an equal row is left as it is
                shadow[position] = new_row
        if check:
            _assert_rows(relation, shadow)


def _assert_rows(relation: Relation, shadow: list) -> None:
    rows = relation.rows
    assert rows == shadow
    assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row)) for row in shadow]
    for position, name in enumerate(relation.schema.names):
        assert relation.column_array(name).tolist() == [row[position] for row in shadow]


def _assert_matches_rebuild(relation: Relation, shadow: list) -> None:
    """The maintained index, its statistics view and scalar ``positions()``
    all equal those of a relation rebuilt from the shadow rows."""
    fresh = Relation("F", relation.schema, shadow)
    for attrs, domain in (
        (["a"], range(9)),
        (["a", "b"], [(a, b) for a in range(9) for b in range(5)]),
    ):
        index, rebuilt = relation.index_on_columns(attrs), fresh.index_on_columns(attrs)
        assert relation.sorted_index_on_columns(attrs) is index
        assert index.total_rows == rebuilt.total_rows == len(relation)
        assert index.max_degree == rebuilt.max_degree
        assert len(index) == len(rebuilt)
        stats, fresh_stats = (
            relation.statistics_on_columns(attrs),
            fresh.statistics_on_columns(attrs),
        )
        assert stats.frequencies() == fresh_stats.frequencies() == index.frequencies()
        assert stats.max_degree == fresh_stats.max_degree
        assert stats.average_degree == fresh_stats.average_degree
        assert stats.row_count == fresh_stats.row_count
        assert stats.distinct_count == fresh_stats.distinct_count
        for value in domain:  # present, never-seen and deleted-again values alike
            assert sorted(index.positions(value).tolist()) == rebuilt.positions(value).tolist()
            assert stats.degree(value) == fresh_stats.degree(value) == index.degree(value)
            assert (value in index) == (value in rebuilt)
    # the vectorized lookup (rebuilt lazily after key-set changes) == the dict
    single = relation.index_on("a")
    assert single.slots_for(np.arange(9)).tolist() == [single.slot(v) for v in range(9)]
    assert relation.column_array("a").tolist() == fresh.column_array("a").tolist()
    keys = relation.join_key_array(["a", "b"]).tolist()
    assert keys == fresh.join_key_array(["a", "b"]).tolist()


class TestIncrementalMaintenanceProperties:
    """Random interleavings of append/extend/delete/update agree with a
    from-scratch rebuild of the row set after every batch — for the key
    indexes, the statistics read through them, column arrays, and the
    sampling weights derived from them."""

    @given(rows=st.lists(mixed_rows, max_size=20), ops=mutation_ops)
    @settings(max_examples=60, deadline=None)
    def test_maintained_structures_match_rebuild(self, rows, ops):
        relation = Relation("R", ["a", "b", "m"], rows)
        shadow = list(rows)
        # Build every cache first so each op exercises the delta path.
        relation.index_on("a")
        relation.index_on_columns(["a", "b"])
        relation.join_key_array(["a", "b"])
        coalesced = Relation("C", ["a", "b", "m"], rows)  # reads nothing until the end:
        coalesced.index_on("a")  # consecutive appends reach it as one delta
        coalesced.index_on_columns(["a", "b"])
        for op in ops:
            _apply_ops(relation, [op], shadow)
            _assert_matches_rebuild(relation, shadow)
        coalesced_shadow = list(rows)
        _apply_ops(coalesced, ops, coalesced_shadow, check=False)
        _assert_rows(coalesced, coalesced_shadow)
        _assert_matches_rebuild(coalesced, coalesced_shadow)

    @given(rows_r=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                           min_size=1, max_size=12),
           rows_s=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)),
                           min_size=1, max_size=12),
           ops=mutation_ops)
    @settings(max_examples=40, deadline=None)
    def test_refreshed_weights_match_exact_size(self, rows_r, rows_s, ops):
        query = _build_two_relation_query((rows_r, rows_s))
        weights = ExactWeightFunction(query)
        _apply_ops(query.relation("R"), ops, list(rows_r))
        weights = weights.successor({"R"})
        assert weights.total_weight == pytest.approx(
            exact_join_size(query, distinct=False)
        )
        rebuilt = ExactWeightFunction(query)
        assert np.allclose(weights.root_weights(), rebuilt.root_weights())

    @given(rows_r=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                           min_size=1, max_size=12),
           rows_s=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)),
                           min_size=1, max_size=12),
           ops=mutation_ops)
    @settings(max_examples=25, deadline=None)
    def test_sample_support_matches_rebuilt_join(self, rows_r, rows_s, ops):
        """After churn, the maintained sampler's support equals the join of
        the rebuilt relations (sample-distribution equivalence at the support
        level; full chi-square equivalence is covered in test_dynamic)."""
        query = _build_two_relation_query((rows_r, rows_s))
        sampler = JoinSampler(query, weights="ew", seed=11)
        _apply_ops(query.relation("R"), ops, list(rows_r))
        population = join_result_set(query)
        if not population:
            with pytest.raises(RuntimeError):
                sampler.sample_many(1, max_attempts=64)
            return
        # Scale draws by the skeleton size: sampling is uniform over join
        # *results* (with multiplicity), so a distinct value backed by one
        # result out of n needs ~n draws to appear; 12n makes a miss ~e^-12.
        skeleton = int(exact_join_size(query, distinct=False))
        draws = sampler.sample_many(12 * skeleton)
        assert {d.value for d in draws} == population


# -------------------------------------------------------------------------- joins
class TestJoinProperties:
    @given(query=two_relation_queries())
    @settings(max_examples=60, deadline=None)
    def test_olken_bound_dominates_exact_size(self, query):
        assert olken_upper_bound(query) >= exact_join_size(query, distinct=False)

    @given(query=two_relation_queries())
    @settings(max_examples=60, deadline=None)
    def test_exact_weight_total_equals_brute_force_size(self, query):
        ew = ExactWeightFunction(query)
        assert ew.total_weight == exact_join_size(query, distinct=False)

    @given(query=two_relation_queries())
    @settings(max_examples=60, deadline=None)
    def test_eo_total_dominates_ew_total(self, query):
        eo = ExtendedOlkenWeightFunction(query)
        ew = ExactWeightFunction(query)
        assert eo.total_weight >= ew.total_weight

    @given(query=two_relation_queries())
    @settings(max_examples=40, deadline=None)
    def test_membership_prober_agrees_with_executor(self, query):
        results = join_result_set(query)
        prober = JoinMembershipProber(query)
        for value in results:
            assert prober.contains(value)
        # Values just outside the join (perturbed c) must be rejected.
        for value in list(results)[:10]:
            perturbed = (value[0], value[1], value[2] + 100)
            assert not prober.contains(perturbed)
