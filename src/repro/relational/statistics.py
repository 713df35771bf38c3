"""Column statistics: histograms, degrees, and summary metadata.

The histogram-based overlap estimator (paper §5) is designed for the
*decentralized* setting where only limited metadata about relations is
available — value-frequency histograms on join attributes and maximum degrees.
:class:`ColumnStatistics` captures exactly those statistics for one column,
and :class:`EquiWidthHistogram` offers the bucketed variant a DBMS would keep
when the exact frequency map is too large to ship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.relational.index import SortedIndex


class ColumnStatistics:
    """Exact value-frequency statistics for one column.

    This models what the paper calls the histogram on a join attribute: the
    degree ``d_A(v, R)`` of every value, the maximum degree ``M_A(R)``, and
    the average degree.  It is a read-only view of the column's key index —
    the degrees *are* the index's segment lengths — so statistics handed out
    by a relation follow every mutation the relation maintains its index
    through, with no state of their own to patch.
    """

    __slots__ = ("_index",)

    def __init__(self, index: SortedIndex) -> None:
        self._index = index

    @classmethod
    def from_values(cls, attribute: str, values: Iterable[object]) -> "ColumnStatistics":
        return cls(SortedIndex.build(values, attribute))

    @property
    def attribute(self) -> str:
        return self._index.attribute

    @property
    def row_count(self) -> int:
        return self._index.total_rows

    # ----------------------------------------------------------------- degrees
    def degree(self, value: object) -> int:
        """``d_A(v, R)``: number of rows with this value (0 when absent)."""
        return self._index.degree(value)

    @property
    def max_degree(self) -> int:
        """``M_A(R)``: maximum value frequency (0 for an empty column)."""
        return self._index.max_degree

    @property
    def average_degree(self) -> float:
        """Mean frequency over distinct values (0.0 for an empty column)."""
        distinct = self.distinct_count
        if not distinct:
            return 0.0
        return self.row_count / distinct

    @property
    def distinct_count(self) -> int:
        return len(self._index)

    def values(self) -> Iterable[object]:
        """Distinct values present in the column."""
        return self.frequencies().keys()

    def frequencies(self) -> Dict[object, int]:
        """Snapshot of the value -> frequency map."""
        return self._index.frequencies()

    # -------------------------------------------------------------- summaries
    def common_values(self, limit: int = 10) -> List[Tuple[object, int]]:
        """The ``limit`` most frequent values, most frequent first."""
        return sorted(self.frequencies().items(), key=lambda kv: (-kv[1], str(kv[0])))[:limit]

    def skew(self) -> float:
        """Ratio of max degree to average degree (1.0 means uniform)."""
        avg = self.average_degree
        if avg == 0:
            return 0.0
        return self.max_degree / avg

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnStatistics({self.attribute!r}, rows={self.row_count}, "
            f"distinct={self.distinct_count}, max_degree={self.max_degree})"
        )


@dataclass(frozen=True)
class HistogramBucket:
    """One bucket of an equi-width histogram over an ordered domain."""

    lower: float
    upper: float
    row_count: int
    distinct_count: int

    @property
    def average_degree(self) -> float:
        if self.distinct_count == 0:
            return 0.0
        return self.row_count / self.distinct_count


class EquiWidthHistogram:
    """Bucketed histogram for numeric columns.

    Database systems keep bucketed (rather than exact) histograms; this class
    reproduces that shape so that the histogram-based estimator can also be
    instantiated with coarse statistics.  ``degree_upper_bound`` returns a per
    value bound derived from the containing bucket.
    """

    def __init__(self, attribute: str, buckets: Sequence[HistogramBucket]) -> None:
        self.attribute = attribute
        self.buckets = list(buckets)
        for earlier, later in zip(self.buckets, self.buckets[1:]):
            if later.lower < earlier.upper:
                raise ValueError("histogram buckets must be non-overlapping and sorted")

    @classmethod
    def from_values(
        cls,
        attribute: str,
        values: Sequence[float],
        bucket_count: int = 16,
    ) -> "EquiWidthHistogram":
        if bucket_count <= 0:
            raise ValueError("bucket_count must be positive")
        if len(values) == 0:
            return cls(attribute, [])
        lo, hi = float(min(values)), float(max(values))
        if lo == hi:
            stats = ColumnStatistics.from_values(attribute, values)
            bucket = HistogramBucket(lo, hi, len(values), stats.distinct_count)
            return cls(attribute, [bucket])
        width = (hi - lo) / bucket_count
        counts = [0] * bucket_count
        distinct: List[set[float]] = [set() for _ in range(bucket_count)]
        for v in values:
            idx = min(int((float(v) - lo) / width), bucket_count - 1)
            counts[idx] += 1
            distinct[idx].add(v)
        buckets = [
            HistogramBucket(lo + i * width, lo + (i + 1) * width, counts[i], len(distinct[i]))
            for i in range(bucket_count)
            if counts[i] > 0
        ]
        return cls(attribute, buckets)

    # ----------------------------------------------------------------- queries
    @property
    def row_count(self) -> int:
        return sum(b.row_count for b in self.buckets)

    def bucket_for(self, value: float) -> Optional[HistogramBucket]:
        """The bucket containing ``value`` (None when out of range)."""
        for bucket in self.buckets:
            if bucket.lower <= value <= bucket.upper:
                return bucket
        return None

    def degree_upper_bound(self, value: float) -> int:
        """Upper bound on the frequency of ``value`` (bucket row count)."""
        bucket = self.bucket_for(value)
        return bucket.row_count if bucket is not None else 0

    def degree_estimate(self, value: float) -> float:
        """Estimated frequency of ``value`` assuming uniformity within its bucket."""
        bucket = self.bucket_for(value)
        if bucket is None:
            return 0.0
        return bucket.average_degree

    def max_degree_upper_bound(self) -> int:
        """Upper bound on the maximum degree across the whole column."""
        return max((b.row_count for b in self.buckets), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EquiWidthHistogram({self.attribute!r}, buckets={len(self.buckets)})"


def merge_statistics(stats: Sequence[ColumnStatistics], attribute: str = "") -> ColumnStatistics:
    """Combine statistics of the same logical column from several fragments.

    Used when a relation is split horizontally (e.g. the UQ3 workload) and the
    estimator only has fragment-level statistics.
    """
    name = attribute or (stats[0].attribute if stats else "")
    return ColumnStatistics.from_values(
        name,
        (
            value
            for s in stats
            for value, count in s.frequencies().items()
            for _ in range(count)
        ),
    )


__all__ = [
    "ColumnStatistics",
    "EquiWidthHistogram",
    "HistogramBucket",
    "merge_statistics",
]
