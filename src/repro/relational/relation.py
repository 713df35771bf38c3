"""In-memory relations.

A :class:`Relation` is a named, schema-typed bag of rows stored column by
column: one immutable NumPy array per attribute (see
:mod:`repro.relational.columnar`) is the only row storage, and row tuples are
views read from it.  Each mutation batch replaces the arrays it changes, so an
array already handed out stays consistent with the snapshot it was read from.
Over the columns the relation keeps, per key set, one lazily built and
delta-maintained key index (see :mod:`repro.relational.index`) whose degrees
double as the column statistics (see :mod:`repro.relational.statistics`) —
the three capabilities every algorithm in the paper relies on:

* the join samplers walk the key indexes (`joinable tuples` lookups) and
  gather output values from the columns,
* the histogram-based overlap estimator reads degree statistics,
* the ground-truth executor scans rows.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence
from typing import Tuple

import numpy as np
import numpy.typing as npt

from repro.relational.columnar import as_column_array, patched, tuple_key_array
from repro.relational.delta import RelationDelta
from repro.relational.index import SortedIndex
from repro.relational.predicates import Predicate
from repro.relational.schema import Attribute, Schema
from repro.relational.statistics import ColumnStatistics

Row = Tuple[Any, ...]
Column = npt.NDArray[Any]
#: the rows an operation applies to: a predicate, or one bool per row
Selection = Predicate | npt.NDArray[np.bool_]

#: Delta maintenance pays O(Δ · bucket) Python work per cache; once a batch
#: touches more than this fraction of the relation a full rebuild-on-demand is
#: cheaper, so `_apply` falls back to wholesale invalidation of the indexes.
DELTA_REBUILD_FRACTION = 0.5
#: Small relations always take the delta path (rebuilds are cheap either way,
#: and tests exercise the incremental code on hand-sized data).
DELTA_REBUILD_MIN_ROWS = 64


def _frozen(array: Column) -> Column:
    array.setflags(write=False)
    return array


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
        They are transposed into column arrays once.
    """

    def __init__(
        self,
        name: str,
        schema: Schema | Sequence[Attribute | str],
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        if not name:
            raise ValueError("relation name must be non-empty")
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._version = 0
        #: inserted rows not yet in the columns: consecutive appends coalesce
        #: into ONE delta, applied on the next read, so row-at-a-time ingest
        #: stays O(1) per append instead of paying one array copy per row
        #: (see _flush_pending)
        self._pending_inserts: List[Row] = []
        #: the one value -> positions structure per key set, keyed by the
        #: "\x00"-joined attribute names
        self._sorted_indexes: Dict[str, SortedIndex] = {}
        #: per-row key tuples of composite key sets (join_key_array)
        self._key_arrays: Dict[Tuple[str, ...], Column] = {}
        tuples = self._validated(rows)
        self._size = len(tuples)
        self._arrays = [
            _frozen(as_column_array(list(map(itemgetter(p), tuples))))
            for p in range(len(self.schema))
        ]
        #: per column, the buffer this relation allocated behind its array,
        #: whose room inserts append into (None: the array is exact or shared)
        self._buffers: List[Optional[Column]] = [None] * len(self._arrays)

    def _validated(self, rows: Iterable[Sequence[Any]]) -> List[Row]:
        width = len(self.schema)
        tuples: List[Row] = []
        for row in rows:
            tup = tuple(row)
            if len(tup) != width:
                raise ValueError(
                    f"row {tup!r} has {len(tup)} fields, schema expects {width}"
                )
            tuples.append(tup)
        return tuples

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
        columns: Mapping[str, Sequence[Any]],
        dtypes: Schema | Mapping[str, str] | None = None,
    ) -> "Relation":
        """Build a relation from a mapping of column name -> values.

        ``dtypes`` names each attribute's type (default ``"int"``), or is the
        whole :class:`Schema`, whose names must be the columns'.  A column
        may be a 1-D NumPy array; it is taken (and made read-only) without a
        copy when its dtype is already the column's (see
        :func:`as_column_array`).
        """
        names = list(columns)
        if not names:
            raise ValueError("at least one column is required")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
        if isinstance(dtypes, Schema):
            if list(dtypes.names) != names:
                raise ValueError(f"columns {names} do not match schema {list(dtypes.names)}")
            schema = dtypes
        else:
            types = dtypes or {}
            schema = Schema([Attribute(n, types.get(n, "int")) for n in names])
        arrays = [as_column_array(columns[n]) for n in names]
        return cls._adopt(name, schema, arrays, lengths.pop())

    @classmethod
    def _adopt(cls, name: str, schema: Schema, arrays: List[Column], size: int) -> "Relation":
        """A relation over existing column arrays (shared, never copied)."""
        relation = cls(name, schema)
        relation._arrays = [_frozen(array) for array in arrays]
        relation._size = size
        return relation

    # ----------------------------------------------------------------- basics
    def _snapshot(self) -> List[Column]:
        """The column arrays, with every pending insert applied."""
        if self._pending_inserts:
            self._flush_pending()
        return self._arrays

    def _rows_at(self, positions: Any) -> List[Row]:
        """Row tuples at ``positions`` (an index list, array or slice)."""
        columns: List[List[Any]] = [array[positions].tolist() for array in self._snapshot()]
        return list(zip(*columns))

    @property
    def rows(self) -> List[Row]:
        """All rows as tuples, read from the columns (a fresh list)."""
        return self._rows_at(slice(None))

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return self.schema.names

    def __len__(self) -> int:
        return self._size + len(self._pending_inserts)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Row:
        return self.row(index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name!r}, |R|={len(self)}, attrs={list(self.schema.names)})"

    def row(self, index: int) -> Row:
        """Row at position ``index``."""
        return tuple([array.item(index) for array in self._snapshot()])

    def column(self, name: str) -> List[Any]:
        """All values of attribute ``name`` (in row order, duplicates kept)."""
        values: List[Any] = self.column_array(name).tolist()
        return values

    def value(self, index: int, attribute: str) -> object:
        """Value of ``attribute`` in the row at ``index``."""
        return self.column_array(attribute).item(index)

    def project_row(self, index: int, attributes: Sequence[str]) -> Row:
        """Projection of one row onto ``attributes``."""
        arrays = self._snapshot()
        return tuple([arrays[p].item(index) for p in self.schema.positions(attributes)])

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
        """Drop the caches derived from the columns (indexes, key tuples)."""
        self._sorted_indexes.clear()
        self._key_arrays.clear()

    def append(self, row: Sequence[Any]) -> None:
        """Append a row; the column arrays take it on the next read.

        The row counts (and bumps the version) immediately, but the write
        into every column is queued: consecutive appends/extends merge into
        one append per column on the next read, so
        'for row in rows: rel.append(row)' costs one patch total.
        """
        self.extend([row])

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows: validate them all, then queue one patch.

        An empty iterable is a true no-op: caches and the version counter are
        untouched, so downstream consumers provably see no staleness.
        """
        new_rows = self._validated(rows)
        if not new_rows:
            return
        self._pending_inserts.extend(new_rows)
        self._version += 1

    def flush(self) -> None:
        """Apply the queued inserts now instead of on the next read."""
        self._snapshot()

    def _flush_pending(self) -> None:
        """Apply the coalesced insert delta queued by append/extend."""
        pending, self._pending_inserts = self._pending_inserts, []
        start = self._size
        end = start + len(pending)
        self._apply(
            RelationDelta(old_size=start, new_size=end, inserted=tuple(range(start, end))),
            pending,
        )

    def delete_rows(self, positions: Iterable[int]) -> int:
        """Delete the rows at the given positions; returns the count removed.

        Deletion uses *swap-remove*: surviving rows from the tail are moved
        into the holes so that the columns stay dense (positions in
        ``[0, len)`` always address live rows — no tombstones).  The
        relocations are reported to every cache through the resulting delta.
        """
        unique = sorted({int(p) for p in positions})
        if not unique:
            return 0
        size = len(self)
        if unique[0] < 0 or unique[-1] >= size:
            raise IndexError(
                f"delete positions out of range for relation {self.name!r} "
                f"(|R|={size}): {unique[0]}..{unique[-1]}"
            )
        new_size = size - len(unique)
        doomed = set(unique)
        holes = [p for p in unique if p < new_size]
        tail_survivors = [p for p in range(new_size, size) if p not in doomed]
        deleted = tuple(zip(unique, self._rows_at(unique)))
        self._version += 1
        self._apply(
            RelationDelta(
                old_size=size,
                new_size=new_size,
                deleted=deleted,
                moved=tuple(zip(tail_survivors, holes)),
            )
        )
        return len(unique)

    def mask(self, selection: Selection) -> npt.NDArray[np.bool_]:
        """Per-row truth of ``selection``: a :class:`Predicate`, masked over
        the columns, or a boolean array with one entry per row, checked and
        returned as it is."""
        if isinstance(selection, np.ndarray):
            if selection.dtype != bool or selection.shape != (len(self),):
                raise ValueError(
                    f"a selection mask must be a boolean array of length {len(self)}"
                )
            return selection
        return selection.mask(dict(zip(self.schema.names, self._snapshot())), len(self))

    def delete_where(self, selection: Selection) -> int:
        """Delete every row satisfying ``selection`` (see :meth:`mask`);
        returns the count removed."""
        return self.delete_rows(np.flatnonzero(self.mask(selection)).tolist())

    def update_rows(self, positions: Iterable[int], assignments: Mapping[str, object]) -> int:
        """Overwrite attributes of the rows at ``positions``.

        ``assignments`` maps attribute name to either a new value or a callable
        ``old_value -> new_value``.  Rows whose values do not actually change
        are skipped, so a no-op update preserves caches and the version
        counter.  Returns the number of rows changed.
        """
        resolved = [(self.schema.position(attr), value) for attr, value in assignments.items()]
        size = len(self)
        targets = sorted({int(p) for p in positions})
        for position in targets:
            if position < 0 or position >= size:
                raise IndexError(
                    f"update position {position} out of range for relation "
                    f"{self.name!r} (|R|={size})"
                )
        changed: List[Tuple[int, Row, Row]] = []
        for position, old in zip(targets, self._rows_at(targets)):
            fields = list(old)
            for field_pos, value in resolved:
                fields[field_pos] = value(old[field_pos]) if callable(value) else value
            new = tuple(fields)
            if new != old:
                changed.append((position, old, new))
        if not changed:
            return 0
        self._version += 1
        self._apply(RelationDelta(old_size=size, new_size=size, replaced=tuple(changed)))
        return len(changed)

    def update(self, selection: Selection, assignments: Mapping[str, object]) -> int:
        """Update every row satisfying ``selection`` (see :meth:`mask` and
        :meth:`update_rows`)."""
        return self.update_rows(np.flatnonzero(self.mask(selection)).tolist(), assignments)

    # ------------------------------------------------------ delta maintenance
    def _apply(self, delta: RelationDelta, inserted_rows: Sequence[Row] = ()) -> None:
        """Move the columns, and every cache built on them, to the next snapshot.

        Each column is replaced by its next snapshot.  Small batches patch the
        indexes in O(Δ); batches touching more than ``DELTA_REBUILD_FRACTION``
        of the relation drop them instead (rebuild-on-demand wins there — see
        docs/updates.md).  Caches that were never built stay unbuilt.
        """
        columns = [
            patched(array, buffer, delta, itemgetter(p), inserted_rows)
            for p, (array, buffer) in enumerate(zip(self._arrays, self._buffers))
        ]
        self._arrays = [_frozen(array) for array, _ in columns]
        self._buffers = [buffer for _, buffer in columns]
        self._size = delta.new_size
        threshold = max(
            DELTA_REBUILD_MIN_ROWS,
            int(DELTA_REBUILD_FRACTION * max(delta.old_size, 1)),
        )
        if delta.touched > threshold:
            self._invalidate()
            return
        self._maintain_indexes(delta, inserted_rows)
        self._key_arrays = {
            attrs: _frozen(patched(keys, None, delta, self._key_of(attrs), inserted_rows)[0])
            for attrs, keys in self._key_arrays.items()
        }

    def _key_of(self, attrs: Sequence[str]) -> Callable[[Row], object]:
        """Row -> index key over ``attrs``: the bare value of a single
        attribute, the tuple of values of a composite key."""
        return itemgetter(*self.schema.positions(attrs))

    def _keys(self, attrs: Sequence[str]) -> List[Any]:
        """Every row's index key over ``attrs``, read from the columns."""
        arrays = self._snapshot()
        columns: List[List[Any]] = [arrays[p].tolist() for p in self.schema.positions(attrs)]
        return columns[0] if len(columns) == 1 else list(zip(*columns))

    def _maintain_indexes(self, delta: RelationDelta, inserted_rows: Sequence[Row]) -> None:
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
        self._snapshot()  # pending inserts reach the built indexes first
        cache_key = "\x00".join(attributes)
        if cache_key not in self._sorted_indexes:
            self._sorted_indexes[cache_key] = SortedIndex.build(self._keys(attributes), cache_key)
        return self._sorted_indexes[cache_key]

    sorted_index_on_columns = index_on_columns

    def statistics_on(self, attribute: str) -> ColumnStatistics:
        """Column statistics (histogram, max/avg degree) for ``attribute``."""
        return ColumnStatistics(self.index_on(attribute))

    def statistics_on_columns(self, attributes: Sequence[str]) -> ColumnStatistics:
        """Column statistics over the composite key formed by ``attributes``."""
        return ColumnStatistics(self.index_on_columns(attributes))

    # --------------------------------------------------------------- columnar
    def column_array(self, attribute: str) -> Column:
        """The (read-only) column array of ``attribute``."""
        return self._snapshot()[self.schema.position(attribute)]

    def join_key_array(self, attributes: Sequence[str]) -> Column:
        """Per-row join-key array over ``attributes`` (cached).

        Single attributes yield the plain column array; composite keys yield
        an object array of tuples, matching :meth:`index_on_columns` keys.
        """
        attrs = tuple(attributes)
        if len(attrs) == 1:
            return self.column_array(attrs[0])
        arrays = self._snapshot()
        if attrs not in self._key_arrays:
            self._key_arrays[attrs] = _frozen(
                tuple_key_array([arrays[p] for p in self.schema.positions(attrs)])
            )
        return self._key_arrays[attrs]

    def cache_nbytes(self) -> Dict[str, int]:
        """Resident bytes of the arrays (dtype-audit accounting).

        ``columns`` covers the column arrays — the relation's data itself —
        plus the composite key tuples; ``csr_indexes`` the CSR arrays of the
        key indexes: the structures the batched engine gathers through, and
        the ones the smallest-safe-dtype selection shrinks.  Object arrays
        count their pointers only, and the indexes' key -> slot dicts are
        Python objects not measured by array bytes.
        """
        return {
            "columns": sum(a.nbytes for a in self._snapshot())
            + sum(k.nbytes for k in self._key_arrays.values()),
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
        arrays = self._snapshot()
        return Relation._adopt(
            name or f"{self.name}_proj",
            self.schema.project(attributes),
            [arrays[p] for p in self.schema.positions(attributes)],
            self._size,
        )

    def select(self, selection: Selection, name: Optional[str] = None) -> "Relation":
        """New relation containing the rows satisfying ``selection`` (a
        :class:`Predicate` or a boolean mask, see :meth:`mask`)."""
        return self._taken(name or f"{self.name}_sel", self.mask(selection))

    def _taken(self, name: str, positions: Any) -> "Relation":
        """New relation over the rows at ``positions`` (a mask or index list)."""
        arrays = [array[positions] for array in self._snapshot()]
        return Relation._adopt(name, self.schema, arrays, len(arrays[0]) if arrays else 0)

    def rename(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Relation":
        """New relation with attributes renamed according to ``mapping``."""
        return Relation._adopt(
            name or self.name, self.schema.rename(dict(mapping)), self._snapshot(), self._size
        )

    def sample_row(self, rng: Any) -> Row:
        """A uniformly random row (the relation must be non-empty)."""
        if not len(self):
            raise ValueError(f"relation {self.name!r} is empty")
        return self.row(int(rng.integers(0, len(self))))

    def distinct(self, name: Optional[str] = None) -> "Relation":
        """New relation with duplicate rows removed (first occurrence kept)."""
        first: Dict[Row, int] = {}
        for position, row in enumerate(self.rows):
            first.setdefault(row, position)
        return self._taken(name or f"{self.name}_distinct", list(first.values()))


__all__ = ["Relation", "Row"]
