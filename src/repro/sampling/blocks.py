"""Struct-of-arrays sample blocks: the zero-object sampler output format.

A :class:`SampleBlock` holds a batch of accepted samples as per-relation row
**index arrays** plus the Horvitz–Thompson bookkeeping the AQP layer needs
(attempt counts; one shared inverse inclusion weight, or a per-sample weight
array for wander join).  Nothing is boxed: no ``SampleDraw`` objects, no
per-row dicts, no Python value tuples — consumers either keep working on the
arrays (``aqp.estimators.AggregateAccumulator.ingest_sample_block``, the parallel
shard merge) or box lazily via :meth:`to_draws` for the scalar-era APIs.

Blocks are cheap to pickle (a dict of small integer arrays), which is what
lets the parallel service ship sampler output across process boundaries
without serializing draw-object graphs.  Row indices refer to the relations
of the query the block was drawn from; the epoch guard of the parallel
coordinator ensures those relations have not mutated in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, NamedTuple, Optional, Sequence
from typing import Tuple

import numpy as np
import numpy.typing as npt

from repro.joins.query import JoinQuery

if TYPE_CHECKING:
    from repro.sampling.join_sampler import SampleDraw

PositionArray = npt.NDArray[np.intp]
WeightArray = npt.NDArray[np.float64]
CodeArray = npt.NDArray[np.unsignedinteger[Any]]

#: column kinds (str, bytes, int, uint, bool) whose equal values are
#: identical values: a code may stand for the value it numbers, NaN, -0.0
#: and Python objects excluded
CODED_KINDS = frozenset("USiub")


class ColumnCodes(NamedTuple):
    """One base column of a snapshot numbered by its sorted distinct values."""

    #: the column the codes number (the snapshot's own read-only array)
    column: npt.NDArray[Any]
    #: sorted distinct values; after a patch, values no row holds any more
    #: may stay (at most as many values as the column has rows)
    values: npt.NDArray[Any]
    #: per row, the index of its value in ``values``
    codes: CodeArray


def _coded(column: npt.NDArray[Any], values: npt.NDArray[Any], codes: Any) -> ColumnCodes:
    codes = codes.astype(np.min_scalar_type(max(len(values) - 1, 0)), copy=False)
    values.setflags(write=False)
    codes.setflags(write=False)
    return ColumnCodes(column, values, codes)


def column_codes(query: JoinQuery, relation: str, attribute: str) -> ColumnCodes:
    """One base column of ``query`` numbered by its sorted distinct values,
    kept per snapshot (:meth:`JoinQuery.derived`).

    The codes follow sorted value order, so ``np.unique`` over any subset of
    the codes numbers its values as ``np.unique`` over those values does.
    They are read-only, in the smallest unsigned dtype, and survive a
    mutation of any other relation by reference.  The first snapshot pays
    one ``np.unique`` over the column.  A later snapshot of the relation
    patches the last codes instead of sorting again: one comparison with the
    last snapshot's column finds the rows whose value moved (an insert, an
    update, a swap-remove move), and only those are looked up in the values.
    Values the patch has not seen are merged in, which remaps the old codes
    by one gather; a new dtype, or more values than rows, rebuilds.
    """

    def build() -> ColumnCodes:
        column = query.relation(relation).column_array(attribute)
        values, inverse = np.unique(column, return_inverse=True)
        return _coded(column, values, inverse)

    def patch(last: ColumnCodes, changed: FrozenSet[str]) -> ColumnCodes:
        if relation not in changed:
            return last
        column = query.relation(relation).column_array(attribute)
        if column.dtype != last.column.dtype:
            return build()
        kept = min(len(column), len(last.column))
        stale = np.flatnonzero(column[:kept] != last.column[:kept])
        stale = np.concatenate([stale, np.arange(kept, len(column))])
        fresh = column[stale]
        values, codes = last.values, last.codes[:kept]
        slots = np.searchsorted(values, fresh)
        known = slots < len(values)
        known[known] = values[slots[known]] == fresh[known]
        if not known.all():
            values = np.union1d(values, fresh[~known])
            if len(values) > len(column):
                return build()
            codes = np.searchsorted(values, last.values)[codes]
            slots = np.searchsorted(values, fresh)
        out = np.empty(len(column), dtype=np.min_scalar_type(max(len(values) - 1, 0)))
        out[:kept] = codes
        out[stale] = slots
        return _coded(column, values, out)

    return query.derived(("codes", relation, attribute), build, patch)


@dataclass
class SampleBlock:
    """A batch of accepted samples in struct-of-arrays layout.

    Attributes
    ----------
    relation_order:
        Relation names in the sampler's descent order (root first).
    positions:
        Relation name -> row-position array; all arrays share one length,
        the number of accepted samples in the block.
    attempts:
        Draw attempts consumed producing this block (failed walks included);
        the denominator of attempt-level Horvitz–Thompson estimation.
    weight:
        Shared inverse inclusion weight of every sample (the weight
        function's total weight ``W`` for accept/reject backends).
    weights:
        Optional per-sample inverse inclusion weights (wander join:
        ``1/p(t)``); when present it overrides ``weight``.
    """

    relation_order: Tuple[str, ...]
    positions: Dict[str, PositionArray] = field(default_factory=dict)
    attempts: int = 0
    weight: float = 0.0
    weights: Optional[WeightArray] = None

    def __len__(self) -> int:
        if not self.relation_order:
            return 0
        return int(len(self.positions[self.relation_order[0]]))

    # ------------------------------------------------------------ construction
    @classmethod
    def empty(cls, relation_order: Sequence[str], weight: float = 0.0) -> "SampleBlock":
        order = tuple(relation_order)
        return cls(
            relation_order=order,
            positions={name: np.empty(0, dtype=np.intp) for name in order},
            attempts=0,
            weight=weight,
        )

    @classmethod
    def concat(cls, blocks: Sequence["SampleBlock"]) -> "SampleBlock":
        """Concatenate blocks over the same relations; attempts accumulate."""
        if not blocks:
            raise ValueError("need at least one block to concatenate")
        if len(blocks) == 1:
            return blocks[0]
        first = blocks[0]
        positions = {
            name: np.concatenate([b.positions[name] for b in blocks])
            for name in first.relation_order
        }
        weights: Optional[WeightArray] = None
        if any(b.weights is not None for b in blocks):
            weights = np.concatenate(
                [
                    b.weights
                    if b.weights is not None
                    else np.full(len(b), b.weight, dtype=float)
                    for b in blocks
                ]
            )
        return cls(
            relation_order=first.relation_order,
            positions=positions,
            attempts=sum(b.attempts for b in blocks),
            weight=first.weight,
            weights=weights,
        )

    def split(self, count: int) -> Tuple["SampleBlock", "SampleBlock"]:
        """``(head, tail)`` with ``len(head) == count``.

        The attempt count stays with the head: a surplus tail parked in the
        sampler's buffer must not double-count attempts the caller already
        accounted for.
        """
        return (
            self.slice(0, count, attempts=self.attempts),
            self.slice(count, len(self), attempts=0),
        )

    # ------------------------------------------------------------------- views
    def slice(self, start: int, stop: int, *, attempts: int = 0) -> "SampleBlock":
        """Zero-copy view of samples ``[start:stop)``.

        Position (and per-sample weight) arrays are numpy basic slices of the
        parent's — no data moves.  ``attempts`` defaults to 0 because a
        partial view has no attempt accounting of its own: Horvitz–Thompson
        attempt counts belong to whole draw batches, and callers that consume
        a full block must say so explicitly (see :meth:`split`).
        """
        return SampleBlock(
            relation_order=self.relation_order,
            positions={n: p[start:stop] for n, p in self.positions.items()},
            attempts=attempts,
            weight=self.weight,
            weights=self.weights[start:stop] if self.weights is not None else None,
        )

    def reweighted(self, weight: float) -> "SampleBlock":
        """View of this block carrying ``weight`` as its shared HT weight.

        Used by the sample-cache tier: a cached block is re-served with the
        *consumer's* current weight-function total, so cached contributions
        enter the accumulator with exactly the value a fresh draw under the
        same snapshot would use (no publisher/consumer rounding drift).  Only
        shared-weight (accept/reject) blocks can be reweighted this way —
        per-sample weight arrays (wander join) encode path probabilities that
        a scalar cannot replace.
        """
        if self.weights is not None:
            raise ValueError(
                "cannot reweight a block with per-sample weights; the "
                "per-path 1/p(t) values are not a shared scalar"
            )
        return SampleBlock(
            relation_order=self.relation_order,
            positions=self.positions,
            attempts=self.attempts,
            weight=float(weight),
        )

    def freeze(self) -> "SampleBlock":
        """Mark every array read-only and return ``self``.

        Cache-resident blocks are shared by every consumer of the stream;
        freezing turns an accidental in-place edit (which would silently
        corrupt other requests' answers) into an immediate ``ValueError``.
        """
        for array in self.positions.values():
            array.flags.writeable = False
        if self.weights is not None:
            self.weights.flags.writeable = False
        return self

    @property
    def nbytes(self) -> int:
        """Resident bytes of the position/weight arrays (eviction accounting)."""
        total = sum(int(p.nbytes) for p in self.positions.values())
        if self.weights is not None:
            total += int(self.weights.nbytes)
        return total

    # ------------------------------------------------------------- consumption
    def value_column(self, query: JoinQuery, index: int) -> npt.NDArray[Any]:
        """The values of output attribute ``index``: one fancy gather by row id."""
        out = query.output_attributes[index]
        column = query.relation(out.relation).column_array(out.attribute)
        return column[self.positions[out.relation]]

    def value_columns(self, query: JoinQuery) -> List[npt.NDArray[Any]]:
        """Per-output-attribute value arrays (in output-schema order).

        One fancy gather per output attribute — the zero-object projection
        that replaces row-by-row value tuple assembly.
        """
        return [self.value_column(query, i) for i in range(len(query.output_attributes))]

    def value_codes(
        self, query: JoinQuery, index: int
    ) -> Optional[Tuple[npt.NDArray[Any], CodeArray]]:
        """``(values, codes)``: the sorted distinct values of output attribute
        ``index``'s base column and each sample's code into them, so
        ``values[codes]`` is :meth:`value_column`.  None when the column's
        kind is not in :data:`CODED_KINDS`."""
        out = query.output_attributes[index]
        if query.relation(out.relation).column_array(out.attribute).dtype.kind not in CODED_KINDS:
            return None
        coded = column_codes(query, out.relation, out.attribute)
        return coded.values, coded.codes[self.positions[out.relation]]

    def values(self, query: JoinQuery) -> List[Tuple[Any, ...]]:
        """Boxed output value tuples (Python-typed, scalar-era format)."""
        columns = [c.tolist() for c in self.value_columns(query)]
        return list(zip(*columns)) if columns else [() for _ in range(len(self))]

    def to_draws(self, query: JoinQuery) -> List["SampleDraw"]:
        """Box into ``SampleDraw`` objects (the backward-compatible view)."""
        from repro.sampling.join_sampler import SampleDraw

        values = self.values(query)
        assignment_columns = {
            name: positions.tolist() for name, positions in self.positions.items()
        }
        names = self.relation_order
        return [
            SampleDraw(
                value=value,
                assignment={name: assignment_columns[name][i] for name in names},
                attempts=1,
            )
            for i, value in enumerate(values)
        ]


__all__ = ["CODED_KINDS", "ColumnCodes", "SampleBlock", "column_codes"]
