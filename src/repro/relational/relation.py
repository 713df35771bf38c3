"""In-memory relations.

A :class:`Relation` is a named, schema-typed bag of rows stored as Python
tuples.  It provides column access and, per key set, one lazily built and
delta-maintained key index (see :mod:`repro.relational.index`) whose degrees
double as the column statistics (see :mod:`repro.relational.statistics`) —
the three capabilities every algorithm in the paper relies on:

* the join samplers walk the key indexes (`joinable tuples` lookups),
* the histogram-based overlap estimator reads degree statistics,
* the ground-truth executor scans rows.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.relational.columnar import ColumnStore
from repro.relational.delta import RelationDelta
from repro.relational.index import SortedIndex
from repro.relational.schema import Attribute, Schema
from repro.relational.statistics import ColumnStatistics

Row = Tuple

#: Delta maintenance pays O(Δ · bucket) Python work per cache; once a batch
#: touches more than this fraction of the relation a full rebuild-on-demand is
#: cheaper, so `_commit_delta` falls back to wholesale invalidation.
DELTA_REBUILD_FRACTION = 0.5
#: Small relations always take the delta path (rebuilds are cheap either way,
#: and tests exercise the incremental code on hand-sized data).
DELTA_REBUILD_MIN_ROWS = 64


class Relation:
    """A named in-memory relation.

    Parameters
    ----------
    name:
        Relation name (unique within a :class:`~repro.joins.query.JoinQuery`).
    schema:
        The relation's :class:`Schema`, or a sequence of attribute names.
    rows:
        Iterable of row tuples; each row must have ``len(schema)`` fields.
    """

    def __init__(
        self,
        name: str,
        schema: Schema | Sequence[Attribute | str],
        rows: Iterable[Sequence] = (),
    ) -> None:
        if not name:
            raise ValueError("relation name must be non-empty")
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._version = 0
        #: inserted rows whose cache maintenance is deferred: consecutive
        #: appends coalesce into ONE delta, applied on next cache access, so
        #: row-at-a-time ingest stays O(1) per append instead of paying one
        #: array copy per row (see _flush_pending)
        self._pending_inserts: list[Row] = []
        self._rows: list[Row] = []
        #: the one value -> positions structure per key set, keyed by the
        #: "\x00"-joined attribute names
        self._sorted_indexes: Dict[str, SortedIndex] = {}
        self._columns: Optional[ColumnStore] = None
        width = len(self.schema)
        for row in rows:
            tup = tuple(row)
            if len(tup) != width:
                raise ValueError(
                    f"row {tup!r} has {len(tup)} fields, schema expects {width}"
                )
            self._rows.append(tup)

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_dicts(
        cls,
        name: str,
        schema: Schema | Sequence[Attribute | str],
        records: Iterable[Mapping[str, object]],
    ) -> "Relation":
        """Build a relation from dict-shaped records."""
        schema_obj = schema if isinstance(schema, Schema) else Schema(schema)
        rows = [tuple(rec[a] for a in schema_obj.names) for rec in records]
        return cls(name, schema_obj, rows)

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, Sequence],
        dtypes: Optional[Mapping[str, str]] = None,
    ) -> "Relation":
        """Build a relation from a mapping of column name -> values."""
        names = list(columns)
        if not names:
            raise ValueError("at least one column is required")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
        dtypes = dtypes or {}
        schema = Schema([Attribute(n, dtypes.get(n, "int")) for n in names])
        rows = list(zip(*(columns[n] for n in names))) if lengths != {0} else []
        return cls(name, schema, rows)

    # ----------------------------------------------------------------- basics
    @property
    def rows(self) -> Sequence[Row]:
        return self._rows

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return self.schema.names

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name!r}, |R|={len(self)}, attrs={list(self.schema.names)})"

    def row(self, index: int) -> Row:
        """Row at position ``index``."""
        return self._rows[index]

    def column(self, name: str) -> list:
        """All values of attribute ``name`` (in row order, duplicates kept)."""
        pos = self.schema.position(name)
        return [r[pos] for r in self._rows]

    def value(self, index: int, attribute: str) -> object:
        """Value of ``attribute`` in the row at ``index``."""
        return self._rows[index][self.schema.position(attribute)]

    def project_row(self, index: int, attributes: Sequence[str]) -> Row:
        """Projection of one row onto ``attributes``."""
        positions = self.schema.positions(attributes)
        row = self._rows[index]
        return tuple(row[p] for p in positions)

    # ------------------------------------------------------------- mutations
    @property
    def version(self) -> int:
        """Monotone epoch counter, bumped once per effective mutation batch.

        Consumers holding state derived from the relation (weight functions,
        sampler plans, buffered draws) compare this counter against the value
        they captured at build time to detect staleness; see
        :meth:`~repro.sampling.join_sampler.JoinSampler.refresh` and
        ``docs/updates.md``.  No-op mutations (empty ``extend``, a delete
        matching nothing, an update assigning identical values) are provably
        cache-preserving and do **not** bump the version.
        """
        return self._version

    def _invalidate(self) -> None:
        """Drop all caches derived from the row storage."""
        # Queued insert patches die with the caches: rebuilds read full rows.
        self._pending_inserts.clear()
        self._sorted_indexes.clear()
        if self._columns is not None:
            self._columns.invalidate()

    def append(self, row: Sequence) -> None:
        """Append a row; cache maintenance is deferred and coalesced.

        The row lands in row storage (and bumps the version) immediately, but
        the O(Δ)-with-an-array-copy cache patch is queued: consecutive
        appends/extends merge into one delta applied on the next cache
        access, so 'for row in rows: rel.append(row)' costs one patch total.
        """
        tup = tuple(row)
        if len(tup) != len(self.schema):
            raise ValueError(
                f"row {tup!r} has {len(tup)} fields, schema expects {len(self.schema)}"
            )
        self._rows.append(tup)
        self._version += 1
        if self._has_caches():
            self._pending_inserts.append(tup)

    def extend(self, rows: Iterable[Sequence]) -> None:
        """Append many rows: validate them all, then queue one cache patch.

        An empty iterable is a true no-op: caches and the version counter are
        untouched, so downstream consumers provably see no staleness.
        """
        width = len(self.schema)
        new_rows = []
        for row in rows:
            tup = tuple(row)
            if len(tup) != width:
                raise ValueError(
                    f"row {tup!r} has {len(tup)} fields, schema expects {width}"
                )
            new_rows.append(tup)
        if not new_rows:
            return
        self._rows.extend(new_rows)
        self._version += 1
        if self._has_caches():
            self._pending_inserts.extend(new_rows)

    def _has_caches(self) -> bool:
        return bool(self._sorted_indexes or self._columns is not None)

    def _flush_pending(self) -> None:
        """Apply the coalesced insert delta queued by append/extend."""
        if not self._pending_inserts:
            return
        pending = self._pending_inserts
        self._pending_inserts = []
        start = len(self._rows) - len(pending)
        self._apply_cached_delta(
            RelationDelta(
                old_size=start,
                new_size=len(self._rows),
                inserted=tuple(range(start, len(self._rows))),
            ),
            tuple(pending),
        )

    def delete_rows(self, positions: Iterable[int]) -> int:
        """Delete the rows at the given positions; returns the count removed.

        Deletion uses *swap-remove*: surviving rows from the tail are moved
        into the holes so that row storage stays dense (positions in
        ``[0, len)`` always address live rows — no tombstones).  The relocations
        are reported to every cache through the resulting delta.
        """
        unique = sorted({int(p) for p in positions})
        if not unique:
            return 0
        self._flush_pending()  # positions refer to rows the caches must know
        size = len(self._rows)
        if unique[0] < 0 or unique[-1] >= size:
            raise IndexError(
                f"delete positions out of range for relation {self.name!r} "
                f"(|R|={size}): {unique[0]}..{unique[-1]}"
            )
        count = len(unique)
        new_size = size - count
        deleted = tuple((p, self._rows[p]) for p in unique)
        doomed = set(unique)
        holes = [p for p in unique if p < new_size]
        tail_survivors = [p for p in range(new_size, size) if p not in doomed]
        moved = tuple(zip(tail_survivors, holes))
        for old, new in moved:
            self._rows[new] = self._rows[old]
        del self._rows[new_size:]
        self._commit_delta(
            RelationDelta(
                old_size=size, new_size=new_size, deleted=deleted, moved=moved
            ),
            (),
        )
        return count

    def delete_where(self, predicate) -> int:
        """Delete every row satisfying ``predicate``; returns the count removed.

        ``predicate`` follows the :meth:`select` protocol: a callable taking
        ``(row, schema)`` or an object with an ``evaluate(row, schema)`` method.
        """
        evaluate = getattr(predicate, "evaluate", None) or predicate
        return self.delete_rows(
            p for p, row in enumerate(self._rows) if evaluate(row, self.schema)
        )

    def update_rows(
        self, positions: Iterable[int], assignments: Mapping[str, object]
    ) -> int:
        """Overwrite attributes of the rows at ``positions`` in place.

        ``assignments`` maps attribute name to either a new value or a callable
        ``old_value -> new_value``.  Rows whose values do not actually change
        are skipped, so a no-op update preserves caches and the version
        counter.  Returns the number of rows changed.
        """
        resolved = [
            (self.schema.position(attr), value) for attr, value in assignments.items()
        ]
        self._flush_pending()  # positions refer to rows the caches must know
        size = len(self._rows)
        changed: list[Tuple[int, Row, Row]] = []
        for position in sorted({int(p) for p in positions}):
            if position < 0 or position >= size:
                raise IndexError(
                    f"update position {position} out of range for relation "
                    f"{self.name!r} (|R|={size})"
                )
            old = self._rows[position]
            fields = list(old)
            for field_pos, value in resolved:
                fields[field_pos] = value(old[field_pos]) if callable(value) else value
            new = tuple(fields)
            if new != old:
                changed.append((position, old, new))
        if not changed:
            return 0
        for position, _, new in changed:
            self._rows[position] = new
        self._commit_delta(
            RelationDelta(old_size=size, new_size=size, replaced=tuple(changed)),
            (),
        )
        return len(changed)

    def update(self, predicate, assignments: Mapping[str, object]) -> int:
        """Update every row satisfying ``predicate`` (see :meth:`update_rows`)."""
        evaluate = getattr(predicate, "evaluate", None) or predicate
        return self.update_rows(
            (p for p, row in enumerate(self._rows) if evaluate(row, self.schema)),
            assignments,
        )

    # ------------------------------------------------------ delta maintenance
    def _commit_delta(self, delta: RelationDelta, inserted_rows: Tuple[Row, ...]) -> None:
        """Record one mutation batch and maintain the derived caches."""
        self._version += 1
        if self._has_caches():
            self._apply_cached_delta(delta, inserted_rows)

    def _apply_cached_delta(
        self, delta: RelationDelta, inserted_rows: Tuple[Row, ...]
    ) -> None:
        """Patch every already-built cache with one delta.

        Small batches patch in O(Δ); batches touching more than
        ``DELTA_REBUILD_FRACTION`` of the relation fall back to wholesale
        invalidation (rebuild-on-demand wins there — see docs/updates.md).
        Caches that were never built stay unbuilt.
        """
        threshold = max(
            DELTA_REBUILD_MIN_ROWS,
            int(DELTA_REBUILD_FRACTION * max(delta.old_size, 1)),
        )
        if delta.touched > threshold:
            self._invalidate()
            return
        self._maintain_indexes(delta, inserted_rows)
        if self._columns is not None:
            self._columns.apply_delta(delta, inserted_rows)

    def _key_of(self, attrs: Sequence[str]) -> Callable[[Row], object]:
        """Row -> index key over ``attrs``: the bare value of a single
        attribute, the tuple of values of a composite key."""
        return itemgetter(*self.schema.positions(attrs))

    def _maintain_indexes(
        self, delta: RelationDelta, inserted_rows: Tuple[Row, ...]
    ) -> None:
        """One ``apply_delta`` per key set (replacements whose key does not
        change are dropped)."""
        for cache_key, index in self._sorted_indexes.items():
            key_of = self._key_of(cache_key.split("\x00"))
            removed = [(key_of(row), pos) for pos, row in delta.deleted]
            added = [(key_of(row), pos) for pos, row in zip(delta.inserted, inserted_rows)]
            for pos, old_row, new_row in delta.replaced:
                old_key, new_key = key_of(old_row), key_of(new_row)
                if old_key != new_key:
                    removed.append((old_key, pos))
                    added.append((new_key, pos))
            index.apply_delta(removed, list(delta.moved), added, delta.old_size)

    # -------------------------------------------------- indexes & statistics
    def index_on(self, attribute: str) -> SortedIndex:
        """Key index on ``attribute``, built lazily, cached and maintained."""
        return self.index_on_columns((attribute,))

    def index_on_columns(self, attributes: Sequence[str]) -> SortedIndex:
        """Key index over the (possibly composite) attribute tuple.

        Single attributes are keyed by the bare value, composite keys by the
        tuple of values.  Built lazily and patched by every later mutation
        batch; scalar lookups (``positions``/``degree``) and the batched
        engine's whole-batch gathers read the same index.
        """
        self._flush_pending()
        attrs = tuple(attributes)
        cache_key = "\x00".join(attrs)
        if cache_key not in self._sorted_indexes:
            self._sorted_indexes[cache_key] = SortedIndex.build(
                map(self._key_of(attrs), self._rows), cache_key
            )
        return self._sorted_indexes[cache_key]

    sorted_index_on_columns = index_on_columns

    def statistics_on(self, attribute: str) -> ColumnStatistics:
        """Column statistics (histogram, max/avg degree) for ``attribute``."""
        return ColumnStatistics(self.index_on(attribute))

    def statistics_on_columns(self, attributes: Sequence[str]) -> ColumnStatistics:
        """Column statistics over the composite key formed by ``attributes``."""
        return ColumnStatistics(self.index_on_columns(attributes))

    # --------------------------------------------------------------- columnar
    @property
    def columns(self) -> ColumnStore:
        """Lazy per-attribute column arrays backing the batched engine."""
        self._flush_pending()
        if self._columns is None:
            self._columns = ColumnStore(self.schema, self._rows)
        return self._columns

    def column_array(self, attribute: str) -> np.ndarray:
        """Column values of ``attribute`` as a NumPy array (cached)."""
        return self.columns.array(attribute)

    def join_key_array(self, attributes: Sequence[str]) -> np.ndarray:
        """Per-row join-key array over ``attributes`` (cached).

        Single attributes yield the plain column array; composite keys yield
        an object array of tuples, matching :meth:`index_on_columns` keys.
        """
        return self.columns.key_array(attributes)

    def cache_nbytes(self) -> Dict[str, int]:
        """Resident bytes of the array-backed caches (dtype-audit accounting).

        Covers the columnar store and the CSR arrays of the key indexes —
        the structures the batched engine gathers through, and the ones the
        smallest-safe-dtype selection shrinks.  Row tuples and the indexes'
        key -> slot dicts are Python objects and are not meaningfully
        measured by array bytes.
        """
        return {
            "columns": self._columns.nbytes if self._columns is not None else 0,
            "csr_indexes": sum(csr.nbytes for csr in self._sorted_indexes.values()),
        }

    def max_degree(self, attribute: str) -> int:
        """Maximum value frequency in ``attribute`` (``M_A(R)`` in the paper)."""
        return self.statistics_on(attribute).max_degree

    def degree(self, attribute: str, value: object) -> int:
        """Frequency of ``value`` in ``attribute`` (``d_A(v, R)`` in the paper)."""
        return self.statistics_on(attribute).degree(value)

    # ------------------------------------------------------------ derivations
    def project(self, attributes: Sequence[str], name: Optional[str] = None) -> "Relation":
        """New relation projected onto ``attributes`` (duplicates preserved)."""
        positions = self.schema.positions(attributes)
        rows = [tuple(r[p] for p in positions) for r in self._rows]
        return Relation(name or f"{self.name}_proj", self.schema.project(attributes), rows)

    def select(self, predicate, name: Optional[str] = None) -> "Relation":
        """New relation containing rows satisfying ``predicate``.

        ``predicate`` is either a callable taking ``(row, schema)`` or an
        object with an ``evaluate(row, schema)`` method (see
        :mod:`repro.relational.predicates`).
        """
        evaluate = getattr(predicate, "evaluate", None)
        if evaluate is None:
            evaluate = predicate
        rows = [r for r in self._rows if evaluate(r, self.schema)]
        return Relation(name or f"{self.name}_sel", self.schema, rows)

    def rename(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Relation":
        """New relation with attributes renamed according to ``mapping``."""
        return Relation(name or self.name, self.schema.rename(dict(mapping)), self._rows)

    def sample_row(self, rng) -> Row:
        """A uniformly random row (the relation must be non-empty)."""
        if not self._rows:
            raise ValueError(f"relation {self.name!r} is empty")
        return self._rows[int(rng.integers(0, len(self._rows)))]

    def distinct(self, name: Optional[str] = None) -> "Relation":
        """New relation with duplicate rows removed (first occurrence kept)."""
        seen: set[Row] = set()
        rows = []
        for r in self._rows:
            if r not in seen:
                seen.add(r)
                rows.append(r)
        return Relation(name or f"{self.name}_distinct", self.schema, rows)


__all__ = ["Relation", "Row"]
