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
* whole-batch lookups of the batched sampling engine, where "joinable rows
  for a batch of parent keys" is a handful of NumPy gathers,
* the degree statistics (`d_A(v, R)`, `M_A(R)`) read through
  :class:`~repro.relational.statistics.ColumnStatistics`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

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

    A key value maps to its slot through a plain dict; whole batches of
    homogeneous numeric/string keys resolve through a vectorized
    ``searchsorted`` over a sorted key array instead.  Slots are numbered in
    first-occurrence order of their key, and positions inside a slot ascend.
    """

    __slots__ = (
        "attribute",
        "row_positions",
        "offsets",
        "_slot_of",
        "_sorted_lookup",
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
        # (sorted keys, their slots) for vectorized lookups, () when the keys
        # cannot be sorted as one array, None until the first batch lookup
        # after the key set changed: an index that only serves scalar
        # lookups never pays the O(n_keys log n_keys) pass.
        self._sorted_lookup: Tuple[npt.NDArray[Any], ...] | None = None

    def _adopt_arrays(self, row_positions: IntArray, offsets: IntArray) -> None:
        """Store the CSR arrays in the smallest safe index dtype, read-only.

        The dtype audit runs on every (re)build and delta: row positions are
        bounded by the relation size, offsets by the total indexed rows, so
        both shrink to int16/int32 whenever they fit — halving (or better)
        the resident bytes the batched engine gathers through.  Lookups hand
        out views of these arrays; keeping them read-only means callers
        cannot corrupt the index by mutating a result.
        """
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

    def _build_sorted_lookup(self) -> Tuple[npt.NDArray[Any], ...]:
        """The vectorized key -> slot lookup arrays (see ``_sorted_lookup``)."""
        keys = list(self._slot_of)
        if keys and len({type(k) for k in keys}) == 1:
            # Mixed-type keys must stay on the dict path: np.asarray would
            # silently stringify them and corrupt the searchsorted lookup.
            try:
                key_array = np.asarray(keys)
            except (ValueError, TypeError):  # pragma: no cover - exotic keys
                key_array = np.empty(0, dtype=object)
            if key_array.ndim == 1 and key_array.dtype != object:
                order = np.argsort(key_array, kind="stable")
                return key_array[order], np.asarray(order, dtype=np.intp)
        return ()

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
        """Slot ids for a batch of key values (-1 where absent).

        Homogeneous non-object key columns resolve through one vectorized
        ``searchsorted``; tuple/mixed keys fall back to dict lookups in a
        single ``fromiter`` pass.
        """
        if isinstance(values, np.ndarray) and values.dtype != object and values.ndim == 1:
            if self._sorted_lookup is None:
                self._sorted_lookup = self._build_sorted_lookup()
            if self._sorted_lookup:
                sorted_keys, sorted_slots = self._sorted_lookup
                idx = np.minimum(np.searchsorted(sorted_keys, values), len(sorted_keys) - 1)
                found = sorted_keys[idx] == values
                return np.asarray(np.where(found, sorted_slots[idx], -1), dtype=np.intp)
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
        swap-remove deletion scheme.  Python-level work is O(Δ + affected
        segment sizes); array surgery is a handful of vectorized
        ``np.delete``/``np.insert``/gather calls.  Slots whose segment empties
        survive as zero-degree slots until enough of them accumulate to be
        worth one O(n_keys) compaction pass.  Fresh arrays are produced rather
        than mutated, so previously handed-out views stay internally
        consistent.
        """
        # Writable scratch copies, widened to intp for the surgery (inserted
        # positions may exceed the current shrunk dtype's range); the final
        # _adopt_arrays picks the smallest dtype that fits the new state.
        row_positions = np.array(self.row_positions, dtype=np.intp)
        offsets = np.array(self.offsets, dtype=np.intp)
        n_keys = len(offsets) - 1

        if removed:
            by_slot: Dict[int, List[int]] = {}
            for key, position in removed:
                slot = self._slot_of.get(key, -1)
                if slot < 0:
                    raise KeyError(
                        f"delta removes key {key!r} absent from CSR index "
                        f"{self.attribute!r}"
                    )
                by_slot.setdefault(slot, []).append(position)
            del_counts = np.zeros(n_keys, dtype=np.intp)
            entry_chunks: List[npt.NDArray[np.intp]] = []
            for slot, positions in by_slot.items():
                start, end = int(offsets[slot]), int(offsets[slot + 1])
                segment = row_positions[start:end]
                if len(positions) == 1:
                    hits = np.nonzero(segment == positions[0])[0]
                else:
                    hits = np.nonzero(np.isin(segment, positions))[0]
                if hits.size != len(positions):
                    raise KeyError(
                        f"delta removes positions {positions!r} not all "
                        f"indexed under slot {slot} of CSR index "
                        f"{self.attribute!r}"
                    )
                entry_chunks.append(start + hits)
                del_counts[slot] = hits.size
            row_positions = np.delete(row_positions, np.concatenate(entry_chunks))
            offsets[1:] -= np.cumsum(del_counts)

        if moved and row_positions.size:
            remap = np.arange(old_row_count, dtype=np.intp)
            remap[[old for old, _ in moved]] = [new for _, new in moved]
            row_positions = remap[row_positions]

        new_key_added = False
        if added:
            ins_counts = np.zeros(n_keys, dtype=np.intp)
            ins_ops: List[Tuple[int, int, int]] = []
            pending_new: Dict[object, List[int]] = {}
            for key, position in added:
                slot = self._slot_of.get(key, -1)
                if slot >= 0:
                    ins_ops.append((int(offsets[slot + 1]), slot, position))
                    ins_counts[slot] += 1
                else:
                    pending_new.setdefault(key, []).append(position)
            if ins_ops:
                # Distinct slots can share one insertion index when empty
                # slots sit between them; ordering by (index, slot) keeps each
                # value inside its own slot's segment.
                ins_ops.sort(key=lambda op: (op[0], op[1]))
                row_positions = np.insert(
                    row_positions,
                    [op[0] for op in ins_ops],
                    [op[2] for op in ins_ops],
                )
                offsets[1:] += np.cumsum(ins_counts)
            if pending_new:
                new_key_added = True
                chunks: List[int] = []
                tail_offsets: List[int] = []
                total = int(offsets[-1])
                for key, positions in pending_new.items():
                    self._slot_of[key] = n_keys + len(tail_offsets)
                    total += len(positions)
                    tail_offsets.append(total)
                    chunks.extend(positions)
                row_positions = np.concatenate(
                    [row_positions, np.asarray(chunks, dtype=np.intp)]
                )
                offsets = np.concatenate(
                    [offsets, np.asarray(tail_offsets, dtype=np.intp)]
                )

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

        self._adopt_arrays(row_positions, offsets)
        if compacted or new_key_added:
            self._sorted_lookup = None

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


__all__ = ["SortedIndex"]
