"""Struct-of-arrays sample blocks: the zero-object sampler output format.

A :class:`SampleBlock` holds a batch of accepted samples as per-relation row
**index arrays** plus the Horvitz–Thompson bookkeeping the AQP layer needs
(attempt counts; one shared inverse inclusion weight, or a per-sample weight
array for wander join).  Nothing is boxed: no ``SampleDraw`` objects, no
per-row dicts, no Python value tuples — consumers either keep working on the
arrays (``aqp.estimators.AggregateAccumulator.ingest_block``, the parallel
shard merge) or box lazily via :meth:`to_draws` for the scalar-era APIs.

Blocks are cheap to pickle (a dict of small integer arrays), which is what
lets the parallel service ship sampler output across process boundaries
without serializing draw-object graphs.  Row indices refer to the relations
of the query the block was drawn from; the epoch guard of the parallel
coordinator ensures those relations have not mutated in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.joins.query import JoinQuery

if TYPE_CHECKING:
    from repro.sampling.join_sampler import SampleDraw

PositionArray = npt.NDArray[np.intp]
WeightArray = npt.NDArray[np.float64]


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
    def value_columns(self, query: JoinQuery) -> List[npt.NDArray[Any]]:
        """Per-output-attribute value arrays (in output-schema order).

        One fancy gather per output attribute — the zero-object projection
        that replaces row-by-row value tuple assembly.
        """
        columns: List[npt.NDArray[Any]] = []
        for out in query.output_attributes:
            relation = query.relation(out.relation)
            columns.append(
                relation.column_array(out.attribute)[self.positions[out.relation]]
            )
        return columns

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


__all__ = ["SampleBlock"]
