"""Tests for repro.relational.statistics."""

import pytest

from repro.relational.statistics import (
    ColumnStatistics,
    EquiWidthHistogram,
    HistogramBucket,
    merge_statistics,
)


class TestColumnStatistics:
    def test_from_values_degrees(self):
        stats = ColumnStatistics.from_values("a", [1, 1, 2, 3, 3, 3])
        assert stats.degree(3) == 3
        assert stats.degree(99) == 0
        assert stats.max_degree == 3
        assert stats.distinct_count == 3
        assert stats.row_count == 6

    def test_average_degree_and_skew(self):
        stats = ColumnStatistics.from_values("a", [1, 1, 2, 2])
        assert stats.average_degree == 2.0
        assert stats.skew() == 1.0
        skewed = ColumnStatistics.from_values("a", [1, 1, 1, 2])
        assert skewed.skew() > 1.0

    def test_empty_column(self):
        stats = ColumnStatistics.from_values("a", [])
        assert stats.max_degree == 0
        assert stats.average_degree == 0.0
        assert stats.skew() == 0.0

    def test_common_values_sorted_by_frequency(self):
        stats = ColumnStatistics.from_values("a", [1, 2, 2, 3, 3, 3])
        assert stats.common_values(2) == [(3, 3), (2, 2)]

    def test_frequencies_returns_copy(self):
        stats = ColumnStatistics.from_values("a", [1])
        freq = stats.frequencies()
        freq[1] = 100
        assert stats.degree(1) == 1


class TestEquiWidthHistogram:
    def test_single_value_column(self):
        hist = EquiWidthHistogram.from_values("a", [5, 5, 5])
        assert hist.row_count == 3
        assert hist.degree_upper_bound(5) == 3
        assert hist.degree_upper_bound(6) == 0

    def test_bucket_bounds_and_estimates(self):
        values = list(range(100))
        hist = EquiWidthHistogram.from_values("a", values, bucket_count=10)
        assert hist.row_count == 100
        bound = hist.degree_upper_bound(5)
        assert bound >= 1
        assert hist.degree_estimate(5) == pytest.approx(1.0)

    def test_upper_bound_dominates_true_degree(self):
        values = [1] * 30 + list(range(2, 20))
        hist = EquiWidthHistogram.from_values("a", values, bucket_count=4)
        assert hist.degree_upper_bound(1) >= 30
        assert hist.max_degree_upper_bound() >= 30

    def test_empty_values(self):
        hist = EquiWidthHistogram.from_values("a", [])
        assert hist.row_count == 0
        assert hist.degree_upper_bound(1.0) == 0

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            EquiWidthHistogram.from_values("a", [1.0], bucket_count=0)

    def test_rejects_unsorted_buckets(self):
        b1 = HistogramBucket(0, 10, 5, 5)
        b2 = HistogramBucket(5, 15, 5, 5)
        with pytest.raises(ValueError):
            EquiWidthHistogram("a", [b1, b2])


class TestMergeStatistics:
    def test_merges_fragment_histograms(self):
        left = ColumnStatistics.from_values("a", [1, 1, 2])
        right = ColumnStatistics.from_values("a", [2, 3])
        merged = merge_statistics([left, right])
        assert merged.degree(1) == 2
        assert merged.degree(2) == 2
        assert merged.degree(3) == 1
        assert merged.row_count == 5

    def test_merge_empty_list(self):
        merged = merge_statistics([], attribute="a")
        assert merged.row_count == 0
