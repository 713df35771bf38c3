"""Delta records for incremental relation maintenance.

A :class:`RelationDelta` describes one mutation batch of a
:class:`~repro.relational.relation.Relation` precisely enough for its column
arrays and every derived structure (the CSR key index of every indexed key
set, whose degrees are also the column statistics) to move to the next
snapshot without rebuilding from scratch:

* ``inserted`` — post-state positions of rows appended by the batch;
* ``deleted`` — ``(pre-state position, row)`` pairs removed by the batch;
* ``moved`` — ``(old position, new position)`` pairs for surviving rows that
  the *swap-remove* deletion scheme relocated to keep the columns dense
  (no tombstones: every position in ``[0, new_size)`` always holds a live
  row, so position-based samplers keep working unchanged);
* ``replaced`` — ``(position, old row, new row)`` for in-place updates.

Deletion never produces move chains: the surviving rows of the tail segment
``[new_size, old_size)`` are mapped directly onto the holes left in
``[0, new_size)``, so each ``moved`` pair is independent, every moved row
sits at or past the smallest moved position, and a structure indexed by
position remaps just those entries through a table as long as the deleted
tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

Row = Tuple


@dataclass(frozen=True)
class RelationDelta:
    """One mutation batch applied to a relation (see module docstring)."""

    old_size: int
    new_size: int
    inserted: Tuple[int, ...] = ()
    deleted: Tuple[Tuple[int, Row], ...] = ()
    moved: Tuple[Tuple[int, int], ...] = ()
    replaced: Tuple[Tuple[int, Row, Row], ...] = ()

    @property
    def touched(self) -> int:
        """Number of rows the batch changes (moves excluded: they only
        relocate surviving tail rows, remapped by one comparison and a table
        as long as the deleted tail)."""
        return len(self.inserted) + len(self.deleted) + len(self.replaced)

    @property
    def is_noop(self) -> bool:
        return self.touched == 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RelationDelta({self.old_size}->{self.new_size}, "
            f"+{len(self.inserted)}, -{len(self.deleted)}, "
            f"~{len(self.replaced)}, moved={len(self.moved)})"
        )


__all__ = ["RelationDelta"]
