"""Tests for repro.relational.index."""

import numpy as np
import pytest

from repro.relational.index import SortedIndex


class TestSortedIndexLookups:
    def test_build_from_values(self):
        idx = SortedIndex.build([10, 20, 10, 30], "a")
        assert idx.positions(10).tolist() == [0, 2]
        assert idx.positions(20).tolist() == [1]
        assert idx.positions(99).tolist() == []

    def test_degree(self):
        idx = SortedIndex.build(["x", "y", "x", "x"], "a")
        assert idx.degree("x") == 3
        assert idx.degree("missing") == 0

    def test_contains_and_len(self):
        idx = SortedIndex.build([1, 1, 2], "a")
        assert 1 in idx and 3 not in idx
        assert len(idx) == 2  # distinct values

    def test_max_degree_and_total_rows(self):
        idx = SortedIndex.build([5, 5, 5, 6], "a")
        assert idx.max_degree == 3
        assert idx.total_rows == 4

    def test_empty_index(self):
        idx = SortedIndex.build([], "a")
        assert len(idx) == 0
        assert idx.max_degree == 0
        assert idx.total_rows == 0
        assert idx.positions(1).tolist() == []
        assert idx.frequencies() == {}

    def test_frequencies(self):
        idx = SortedIndex.build([1, 2, 1], "a")
        assert idx.frequencies() == {1: 2, 2: 1}

    def test_tuple_keys_supported(self):
        idx = SortedIndex.build([(1, "a"), (1, "b"), (1, "a")], "composite")
        assert idx.positions((1, "a")).tolist() == [0, 2]
        assert idx.max_degree == 2

    def test_mixed_type_keys_stay_distinct(self):
        idx = SortedIndex.build([1, "1", 1.5, (1,), "1"], "a")
        assert idx.positions(1).tolist() == [0]
        assert idx.positions("1").tolist() == [1, 4]
        assert idx.positions((1,)).tolist() == [3]
        assert idx.slots_for(np.asarray([1, "1"], dtype=object)).tolist() == [0, 1]

    def test_lookups_are_read_only_views(self):
        idx = SortedIndex.build([1, 1, 2], "a")
        with pytest.raises(ValueError):
            idx.positions(1)[0] = 7

    def test_emptied_slot_is_not_a_value(self):
        """A deletion may leave a zero-degree slot behind until the next
        compaction; every value-level read must treat it as absent."""
        idx = SortedIndex.build([1, 2, 2], "a")
        idx.apply_delta(removed=[(1, 0)], moved=[(2, 0)], added=[], old_row_count=3)
        assert idx.n_keys == 2  # the slot of key 1 survives, empty
        assert 1 not in idx and len(idx) == 1
        assert idx.degree(1) == 0 and idx.positions(1).size == 0
        assert idx.frequencies() == {2: 2}
        assert idx.max_degree == 2 and idx.total_rows == 2


def _reference_layout(values):
    """Dict of lists, flattened in first-occurrence key order."""
    buckets = {}
    for position, value in enumerate(values):
        buckets.setdefault(value, []).append(position)
    flat = [p for positions in buckets.values() for p in positions]
    offsets = np.cumsum([0] + [len(positions) for positions in buckets.values()])
    return list(buckets), flat, offsets.tolist()


class TestBuildLayout:
    """``build`` pins the CSR layout every sampler draws through: slots in
    first-occurrence key order, positions ascending inside a slot.  A
    different (equally valid) grouping would change every seeded sample."""

    @pytest.mark.parametrize(
        "values",
        [
            [i * 7 % 5 for i in range(400)],  # duplicate-heavy
            [(i % 3, "xyz"[i % 2]) for i in range(60)],  # composite keys
            [f"k{i * 13 % 17}" for i in range(120)],  # string keys
            [3, 1, 2],  # all distinct, unsorted
        ],
        ids=["duplicate-heavy", "composite", "string", "distinct"],
    )
    def test_layout_matches_reference(self, values):
        keys, flat, offsets = _reference_layout(values)
        idx = SortedIndex.build(values, "a")
        assert idx.row_positions.tolist() == flat
        assert idx.offsets.tolist() == offsets
        assert [idx.slot(key) for key in keys] == list(range(len(keys)))
        assert list(idx.frequencies()) == keys
