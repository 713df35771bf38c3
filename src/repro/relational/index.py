"""The key index of a relation: value -> row positions in CSR layout.

The paper replaces the B-tree indexes assumed by Zhao et al. with hash tables
that record, for every join-attribute value, the positions of the rows holding
that value ("we use hash tables for relations to maintain tuples' joinability
information", §3.2).  :class:`SortedIndex` is that structure, and the only
value -> positions structure a relation keeps per key set: a hash table from
key value to slot id, plus one contiguous positions array and a CSR offsets
array.  It backs

* scalar joinability lookups (``positions``/``degree``) of the reference
  walkers, the ground-truth executor and the membership probes,
* the batched engines, through one whole-column ``slots_for`` per join edge
  and snapshot (:meth:`~repro.joins.query.JoinQuery.edge_slots`): "joinable
  rows for a batch of parent rows" is then a handful of NumPy gathers,
* the degree statistics (`d_A(v, R)`, `M_A(R)`) read through
  :class:`~repro.relational.statistics.ColumnStatistics`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, cast

import numpy as np
import numpy.typing as npt

from repro.relational.columnar import as_column_array

IntArray = npt.NDArray[np.signedinteger[Any]]


def smallest_index_dtype(max_value: int) -> "np.dtype[np.signedinteger[Any]]":
    """Smallest signed integer dtype that can hold row indices up to ``max_value``.

    Index arrays (CSR row positions and offsets) default to int64 under
    NumPy, which doubles-to-quadruples resident bytes for the relations this
    engine actually holds in memory.  Signed dtypes are required throughout
    (lookups use -1 sentinels); int8 is skipped — the savings on sub-128-row
    relations are noise while the cast churn is not.
    """
    if max_value <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    if max_value <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.intp)


#: integer keys spanning at most this many times as many values as there are
#: keys resolve batches through a direct table instead of ``searchsorted``
DENSE_SPAN = 4
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def segment_entries(
    offsets: npt.NDArray[Any], slots: npt.NDArray[Any]
) -> Tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """The CSR entries of the segments of ``slots`` laid end to end, and
    where each segment starts among them: segment ``slots[i]`` holds
    ``entries[firsts[i]:firsts[i + 1]]`` (the last one runs to the end).
    O(the segments' rows), whatever the CSR's size."""
    starts = np.asarray(offsets[slots], dtype=np.intp)
    degrees = np.asarray(offsets[slots + 1], dtype=np.intp) - starts
    firsts = np.cumsum(degrees) - degrees
    entries = np.arange(int(degrees.sum()), dtype=np.intp) + np.repeat(starts - firsts, degrees)
    return entries, firsts


def distinct(*arrays: npt.NDArray[Any]) -> npt.NDArray[Any]:
    """The sorted distinct values of integer arrays, as ``np.unique`` of
    their concatenation gives them, by one sort: NumPy 2's hash-based
    ``np.unique`` takes ten times as long on the delta-sized arrays here."""
    values = np.sort(np.concatenate(arrays))
    if values.size < 2:
        return values
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _running_counts(slots: npt.NDArray[np.intp], n_keys: int) -> npt.NDArray[np.intp]:
    """Entry ``j`` counts the ``slots`` at or below ``j`` (``j < n_keys``):
    how far ``offsets[1:]`` moves when every listed slot gains or loses one
    row.  One ``repeat`` of the running counts over the runs between the
    distinct slots, instead of a cumulative sum over every key."""
    distinct, counts = np.unique(slots, return_counts=True)
    return np.repeat(
        np.concatenate(([0], np.cumsum(counts))),
        np.diff(np.concatenate(([0], distinct, [n_keys]))),
    )


class _BatchLookup(NamedTuple):
    """How :meth:`SortedIndex.slots_for` resolves a typed array of keys.

    ``kind`` is the keys' dtype kind; only arrays of that kind take this path.
    Integer keys whose span is at most :data:`DENSE_SPAN` times their count
    keep a *direct table* (``slots`` is None): ``keys[k - low]`` is the slot
    of key ``k``, and the first and last entries (one below and one above
    every key) hold -1, so a key clipped into the table's range resolves.
    Other keys are kept sorted in ``keys``, with their slots in ``slots``,
    for ``searchsorted``.
    """

    kind: str
    keys: npt.NDArray[Any]
    slots: Optional[npt.NDArray[np.intp]]
    low: int = 0


class SortedIndex:
    """Value -> row-position index over one key set, in CSR layout.

    Attributes
    ----------
    row_positions:
        One contiguous int array holding the row positions of every key,
        grouped key-by-key.
    offsets:
        CSR offsets of length ``n_keys + 1``: the positions of key slot ``i``
        are ``row_positions[offsets[i]:offsets[i + 1]]``.  Every slot is
        non-empty at build time (a key only exists if some row holds it);
        deletions may leave zero-degree slots behind until the next lazy
        compaction, and every consumer treats those as "no joinable rows".

    A key value maps to its slot through a plain dict; whole batches resolve
    through a direct table (dense integer keys) or a vectorized
    ``searchsorted`` over a sorted key array instead when the keys form a
    typed column (see :class:`_BatchLookup`).
    The batched engines call ``slots_for`` once per join edge and snapshot,
    over the parent's whole key column, and gather from the resulting map
    (:meth:`~repro.joins.query.JoinQuery.edge_slots`).  Slots are numbered
    in first-occurrence order of their key.  Positions inside a slot ascend
    when the index is built; :meth:`apply_delta` appends and relocates
    without reordering them, so afterwards they hold no order (no consumer
    relies on one).
    """

    __slots__ = (
        "attribute",
        "row_positions",
        "offsets",
        "_slot_of",
        "_sorted_lookup",
        "compactions",
    )

    def __init__(
        self,
        attribute: str,
        slot_of: Dict[object, int],
        row_positions: IntArray,
        offsets: IntArray,
    ) -> None:
        self.attribute = attribute
        self._adopt_arrays(row_positions, offsets)
        # Invariant: dict insertion order equals slot order (maintained by
        # apply_delta when keys are added or slots are compacted away).
        self._slot_of = slot_of
        # The vectorized key -> slot lookup, () when the keys cannot form one
        # typed array, None until the first batch lookup after the key set
        # changed in a way a direct table does not absorb (a compaction, a
        # new key outside its rules): an index that only serves scalar
        # lookups never pays the O(n_keys log n_keys) pass.
        self._sorted_lookup: _BatchLookup | Tuple[()] | None = None
        #: compactions run so far: slot ids survive every delta in between
        #: (new keys only append slots), so structures laid out by slot can
        #: follow the index by comparing this counter
        self.compactions = 0

    def _adopt_arrays(
        self, row_positions: IntArray, offsets: IntArray, bound: Optional[int] = None
    ) -> None:
        """Store the CSR arrays in the smallest safe index dtype, read-only.

        The dtype audit runs on every (re)build and delta: row positions are
        bounded by the relation size, offsets by the total indexed rows, so
        both shrink to int16/int32 whenever they fit — halving (or better)
        the resident bytes the batched engine gathers through.  ``bound``
        (one past the largest position and offset) is scanned for when not
        given.  Lookups hand out views of these arrays; keeping them
        read-only means callers cannot corrupt the index by mutating a
        result.
        """
        if bound is None:
            bound = int(offsets[-1]) if len(offsets) else 0
            if row_positions.size:
                bound = max(bound, int(row_positions.max()) + 1)
        dtype = smallest_index_dtype(bound)
        self.row_positions = np.asarray(row_positions, dtype=dtype)
        self.offsets = np.asarray(offsets, dtype=dtype)
        self.row_positions.setflags(write=False)
        self.offsets.setflags(write=False)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the CSR arrays (the dtype-audit accounting)."""
        return int(self.row_positions.nbytes + self.offsets.nbytes)

    def _build_sorted_lookup(self) -> _BatchLookup | Tuple[()]:
        """The vectorized key -> slot lookup (see :class:`_BatchLookup`).

        The keys go through :func:`as_column_array`, which keeps a typed
        array only where every key round-trips: mixed types, tuples and
        NUL-suffixed strings (which a ``<U`` array would strip into another
        key) come back as ``object`` and stay on the dict path.
        """
        if not self._slot_of:
            return ()
        key_array = as_column_array(list(self._slot_of))
        if key_array.dtype == object:
            return ()
        if key_array.dtype.kind == "i":
            low, high = int(key_array.min()), int(key_array.max())
            span = high - low + 1
            if span <= DENSE_SPAN * len(key_array) and _INT64_MIN < low and high < _INT64_MAX:
                table = np.full(span + 2, -1, dtype=smallest_index_dtype(len(key_array)))
                table[key_array.astype(np.intp) - (low - 1)] = np.arange(len(key_array))
                return _BatchLookup("i", table, None, low - 1)
        order = np.argsort(key_array, kind="stable")
        return _BatchLookup(key_array.dtype.kind, key_array[order], order.astype(np.intp))

    def _extended_lookup(self, new_keys: List[object]) -> Optional[_BatchLookup]:
        """The direct table widened to ``new_keys``, the keys of the slots a
        delta just appended (in slot order); None when a rebuild is due.

        Only a direct table is extended, and only where
        :meth:`_build_sorted_lookup` would build one over the grown key set:
        every new key an ``int``, the span at most :data:`DENSE_SPAN` times
        the key count, both bounds inside int64.  The result equals that
        rebuild at O(span) copying and O(Δ) Python work; the old table is
        not written.
        """
        lookup = self._sorted_lookup
        if not isinstance(lookup, _BatchLookup) or lookup.slots is not None:
            return None
        if any(type(key) is not int for key in new_keys):
            return None
        ints = cast(List[int], new_keys)
        old_low = lookup.low + 1
        low = min(old_low, min(ints))
        high = max(lookup.low + len(lookup.keys) - 2, max(ints))
        n_keys = len(self._slot_of)
        if high - low + 1 > DENSE_SPAN * n_keys or not (_INT64_MIN < low and high < _INT64_MAX):
            return None
        table = np.full(high - low + 3, -1, dtype=smallest_index_dtype(n_keys))
        table[old_low - low : old_low - low + len(lookup.keys)] = lookup.keys
        table[np.asarray(ints, dtype=np.intp) - (low - 1)] = np.arange(
            n_keys - len(ints), n_keys
        )
        return _BatchLookup("i", table, None, low - 1)

    @classmethod
    def build(cls, values: Iterable[object], attribute: str = "") -> "SortedIndex":
        """Build the index from the key column's values in row order.

        One dict pass assigns slot ids in first-occurrence order; a stable
        argsort of the per-row slot ids then groups the positions slot by
        slot, ascending inside each slot.
        """
        slot_of: Dict[object, int] = {}
        row_slots = np.asarray(
            [slot_of.setdefault(value, len(slot_of)) for value in values],
            dtype=np.intp,
        )
        offsets = np.zeros(len(slot_of) + 1, dtype=np.intp)
        np.cumsum(np.bincount(row_slots, minlength=len(slot_of)), out=offsets[1:])
        return cls(attribute, slot_of, np.argsort(row_slots, kind="stable"), offsets)

    # ------------------------------------------------------------------- slots
    @property
    def n_keys(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_rows(self) -> int:
        return int(self.offsets[-1]) if len(self.offsets) else 0

    def slot(self, value: object) -> int:
        """Slot id of ``value`` (-1 when absent)."""
        return self._slot_of.get(value, -1)

    def slots_for(self, values: Sequence[object] | npt.NDArray[Any]) -> npt.NDArray[np.intp]:
        """An edge's slot map: :meth:`key_slots` of the parent's whole key
        column.  Its own entry point, so that a slot-map build counts apart
        from a weight refresh's O(Δ) key lookups (``make profile`` times it,
        the performance smoke tests count it)."""
        return self.key_slots(values)

    def key_slots(self, values: Sequence[object] | npt.NDArray[Any]) -> npt.NDArray[np.intp]:
        """Slot ids for a batch of key values (-1 where absent).

        A typed array resolves through one vectorized ``searchsorted`` when
        the index keys form a typed column of the same dtype kind; anything
        else (lists, object arrays, tuple/mixed/NUL-suffixed keys, an int
        array against float keys) goes through dict lookups in a single
        ``fromiter`` pass, so that ``1 == 1.0 == True`` and ``2**53 + 1 !=
        2.0**53`` keep Python's meaning.  Both paths return the same slots.
        """
        if isinstance(values, np.ndarray) and values.dtype != object and values.ndim == 1:
            if self._sorted_lookup is None:
                self._sorted_lookup = self._build_sorted_lookup()
            lookup = self._sorted_lookup
            if isinstance(lookup, _BatchLookup) and lookup.kind == values.dtype.kind:
                if lookup.slots is None:
                    high = lookup.low + len(lookup.keys) - 1
                    idx = np.clip(values.astype(np.intp, copy=False), lookup.low, high)
                    return np.asarray(lookup.keys[idx - lookup.low], dtype=np.intp)
                idx = np.minimum(np.searchsorted(lookup.keys, values), len(lookup.keys) - 1)
                found = lookup.keys[idx] == values
                return np.asarray(np.where(found, lookup.slots[idx], -1), dtype=np.intp)
            values = values.tolist()
        get = self._slot_of.get
        return np.fromiter(
            (get(v, -1) for v in values), dtype=np.intp, count=len(values)
        )

    # ----------------------------------------------------------------- lookups
    def positions(self, value: object) -> IntArray:
        """Row positions for one key value (empty array when absent)."""
        slot = self.slot(value)
        if slot < 0:
            return self.row_positions[:0]
        return self.row_positions[self.offsets[slot] : self.offsets[slot + 1]]

    def degree(self, value: object) -> int:
        """Number of rows whose key equals ``value`` (``d_A(v, R)``)."""
        slot = self.slot(value)
        if slot < 0:
            return 0
        return int(self.offsets[slot + 1] - self.offsets[slot])

    def degrees(self) -> IntArray:
        """Per-slot degrees (length ``n_keys``)."""
        return np.diff(self.offsets)

    @property
    def max_degree(self) -> int:
        """Maximum number of rows sharing one key value (``M_A(R)``)."""
        return int(self.degrees().max()) if self.n_keys else 0

    def frequencies(self) -> Dict[object, int]:
        """Key value -> degree, for the values some row holds.

        Zero-degree slots left behind by deletions are not values.
        """
        return {
            key: degree
            for key, degree in zip(self._slot_of, self.degrees().tolist())
            if degree
        }

    def __contains__(self, value: object) -> bool:
        return self.degree(value) > 0

    def __len__(self) -> int:
        """Number of distinct values some row holds."""
        return int(np.count_nonzero(self.degrees()))

    # ------------------------------------------------------------- maintenance
    def apply_delta(
        self,
        removed: Sequence[Tuple[object, int]],
        moved: Sequence[Tuple[int, int]],
        added: Sequence[Tuple[object, int]],
        old_row_count: int,
    ) -> None:
        """Apply one mutation batch to the CSR layout.

        ``removed``/``added`` carry ``(key value, row position)`` pairs
        (pre-state positions for removals, post-state for additions);
        ``moved`` carries ``(old position, new position)`` remaps from the
        swap-remove deletion scheme.  The index holds every row of its
        relation exactly once, so its positions are always a permutation of
        ``range(total_rows)``: the post-state bounds every position and
        offset without a scan.

        The surgery runs in the adopted dtype, widened only when
        ``old_row_count + len(added)`` outgrows it.  Python-level work is
        O(Δ); array work is one pass over the segments the removals touch,
        one comparison that finds the moved tail rows (swap-remove relocates
        only rows at or past the smallest moved position, so an
        O(#deleted)-long table remaps them) and the ``np.delete``/
        ``np.insert`` copies.  Slots whose segment empties survive as
        zero-degree slots until enough of them accumulate to be worth one
        O(n_keys) compaction pass; until then slot ids survive, and new keys
        only append slots (a direct-table lookup is widened to them,
        :meth:`_extended_lookup`).  Fresh arrays are produced rather than
        mutated, so previously handed-out views stay internally consistent.
        """
        dtype = np.promote_types(
            self.row_positions.dtype,
            smallest_index_dtype(max(old_row_count, self.total_rows) + len(added)),
        )
        row_positions = self.row_positions.astype(dtype, copy=False)
        offsets = self.offsets.astype(dtype)  # a fresh, writable copy
        n_keys = len(offsets) - 1
        slot_of = self._slot_of

        if removed:
            slots = np.fromiter(
                (slot_of.get(key, -1) for key, _ in removed), dtype=np.intp, count=len(removed)
            )
            if not bool((slots >= 0).all()):
                key = removed[int(np.argmin(slots))][0]
                raise KeyError(
                    f"delta removes key {key!r} absent from CSR index {self.attribute!r}"
                )
            positions = np.fromiter((p for _, p in removed), dtype=np.intp, count=len(removed))
            # The affected segments' entries laid end to end, each coded as
            # (slot, position) in one integer: a removal is found where its
            # key's segment holds its position.
            affected = distinct(slots)
            entries, firsts = segment_entries(offsets, affected)
            entry_slots = np.repeat(affected, np.diff(firsts, append=entries.size))
            width = max(old_row_count, 1)
            hit = np.isin(entry_slots * width + row_positions[entries], slots * width + positions)
            in_range = bool(((positions >= 0) & (positions < width)).all())
            if not in_range or int(hit.sum()) != len(removed):
                raise KeyError(
                    f"delta removes (key, position) pairs not all indexed in CSR "
                    f"index {self.attribute!r}: {list(removed)!r}"
                )
            row_positions = np.delete(row_positions, entries[hit])
            offsets[1:] -= _running_counts(entry_slots[hit], n_keys)

        if moved and row_positions.size:
            olds = np.fromiter((old for old, _ in moved), dtype=np.intp, count=len(moved))
            news = np.fromiter((new for _, new in moved), dtype=np.intp, count=len(moved))
            low = int(olds.min())
            remap = np.arange(low, old_row_count, dtype=dtype)
            remap[olds - low] = news
            if not row_positions.flags.writeable:  # still the published array
                row_positions = row_positions.copy()
            tail = np.flatnonzero(row_positions >= low)
            row_positions[tail] = remap[row_positions[tail] - low]

        new_keys: List[object] = []
        if added:
            slots = np.fromiter(
                (slot_of.get(key, -1) for key, _ in added), dtype=np.intp, count=len(added)
            )
            positions = np.fromiter((p for _, p in added), dtype=np.intp, count=len(added))
            known = np.flatnonzero(slots >= 0)
            if known.size:
                # Distinct slots can share one insertion index when empty
                # slots sit between them; ordering by (index, slot), stably,
                # keeps each value inside its own slot's segment.
                at = offsets[slots[known] + 1]
                order = np.lexsort((slots[known], at))
                row_positions = np.insert(row_positions, at[order], positions[known][order])
                offsets[1:] += _running_counts(slots[known], n_keys)
            if known.size < len(added):
                pending_new: Dict[object, List[int]] = {}
                for i in np.flatnonzero(slots < 0).tolist():
                    key, position = added[i]
                    pending_new.setdefault(key, []).append(position)
                new_keys = list(pending_new)
                for key in new_keys:
                    slot_of[key] = len(slot_of)
                chunks = list(pending_new.values())
                tail = np.asarray([p for chunk in chunks for p in chunk], dtype=dtype)
                ends = offsets[-1] + np.cumsum([len(chunk) for chunk in chunks])
                row_positions = np.concatenate([row_positions, tail])
                offsets = np.concatenate([offsets, ends.astype(dtype)])

        # Lazy compaction: emptied slots are tolerated (every consumer treats
        # a zero-degree slot as "no joinable rows") and reclaimed wholesale
        # only once they pile up — compaction costs O(n_keys) for the slot
        # dict, so paying it per emptied key would thrash under delete-heavy
        # streams of unique keys.
        degrees = np.diff(offsets)
        empty_slots = int((degrees == 0).sum())
        compacted = empty_slots > max(16, len(degrees) // 4)
        if compacted:
            keep = degrees > 0
            offsets = np.concatenate(
                [np.zeros(1, dtype=np.intp), np.cumsum(degrees[keep])]
            )
            # row_positions is already correct: empty segments hold no entries.
            self._slot_of = {
                key: i
                for i, key in enumerate(
                    key for key, alive in zip(self._slot_of, keep) if alive
                )
            }

        # Positions are a permutation of range(total rows): the total bounds both.
        self._adopt_arrays(row_positions, offsets, bound=int(offsets[-1]))
        if compacted:
            self.compactions += 1
            self._sorted_lookup = None
        elif new_keys:
            self._sorted_lookup = self._extended_lookup(new_keys)

    def restricted(self, slots: npt.NDArray[Any]) -> "SortedIndex":
        """The segments of ``slots`` alone, renumbered ``0 .. len(slots) - 1``
        in the given order, at O(their rows): what :meth:`segment_sums`
        reads, for the few slots a delta touched.  It holds no keys, so it
        answers no key lookup."""
        entries, firsts = segment_entries(self.offsets, np.asarray(slots, dtype=np.intp))
        return SortedIndex(
            self.attribute, {}, self.row_positions[entries], np.append(firsts, entries.size)
        )

    # ------------------------------------------------------------ aggregation
    def segment_sums(self, row_values: npt.NDArray[Any]) -> npt.NDArray[np.float64]:
        """Per-key sums of ``row_values`` (indexed by row position).

        Equivalent to ``[row_values[positions].sum() for each key]`` but
        computed with one gather and one ``np.add.reduceat``.  Slots emptied
        by deletions (and not yet compacted) sum to exactly 0.
        """
        if self.n_keys == 0:
            return np.zeros(0, dtype=float)
        gathered = np.asarray(row_values, dtype=float)[self.row_positions]
        starts = self.offsets[:-1]
        nonempty = self.offsets[1:] > starts
        if bool(nonempty.all()):
            full: npt.NDArray[np.float64] = np.add.reduceat(gathered, starts)
            return full
        # reduceat misreads zero-length segments, so run it over the
        # non-empty starts only (their segments stay contiguous: empty slots
        # contribute no elements) and scatter back around zero-filled slots.
        sums = np.zeros(self.n_keys, dtype=float)
        if bool(nonempty.any()):
            sums[nonempty] = np.add.reduceat(gathered, starts[nonempty])
        return sums

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SortedIndex(attribute={self.attribute!r}, keys={self.n_keys}, "
            f"rows={self.total_rows})"
        )


__all__ = ["SortedIndex", "distinct", "segment_entries"]
