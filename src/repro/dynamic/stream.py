"""Streaming insert/delete workloads over the TPC-H tables.

Models the TPC-H *refresh functions*: RF1 inserts a batch of new orders with
their lineitems, RF2 deletes a batch of existing orders cascading to their
lineitems.  :class:`TPCHRefreshStream` emits batches mixing both, seeded and
fully deterministic, so dynamic experiments are reproducible.

Events are applied through :func:`apply_event`, which routes deletions through
the relation's *maintained key index* (one lookup + ``delete_rows``) instead
of a predicate scan — the whole point of the incremental update engine is that
an update batch costs O(Δ), not O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from repro.relational.relation import Relation
from repro.tpch.schema import ORDER_PRIORITIES, ORDER_STATUSES
from repro.utils.rng import RandomState, ensure_rng

Row = Tuple


@dataclass(frozen=True)
class InsertEvent:
    """Insert ``rows`` into ``relation``."""

    relation: str
    rows: Tuple[Row, ...]


@dataclass(frozen=True)
class DeleteEvent:
    """Delete every row of ``relation`` whose ``attribute`` equals ``value``."""

    relation: str
    attribute: str
    value: object


UpdateEvent = Union[InsertEvent, DeleteEvent]


@dataclass(frozen=True)
class UpdateBatch:
    """One refresh batch: an ordered sequence of insert/delete events."""

    sequence: int
    events: Tuple[UpdateEvent, ...]


def apply_event(tables: Dict[str, Relation], event: UpdateEvent) -> int:
    """Apply one event; returns the number of rows inserted or deleted.

    Deletions resolve the doomed positions through the relation's key index
    (maintained in O(Δ) per batch), so a delete costs the size of its
    segment, never a relation scan.
    """
    relation = tables[event.relation]
    if isinstance(event, InsertEvent):
        relation.extend(event.rows)
        return len(event.rows)
    positions = relation.index_on(event.attribute).positions(event.value)
    return relation.delete_rows(positions)


def apply_batch(tables: Dict[str, Relation], batch: UpdateBatch) -> Dict[str, int]:
    """Apply a whole batch; returns ``{"inserted": ..., "deleted": ...}``.

    Consecutive deletions are grouped into one ``delete_rows`` call per
    relation, so each derived structure pays one delta per relation per batch
    rather than one per event — the difference between touching a large index
    bucket once and touching it once per deleted key.  Event order is still
    honoured: a group is flushed before any insert into the same tables.
    The batch's trailing inserts are applied before returning, so the batch,
    not the relation's next reader, pays for their maintenance.
    """
    inserted = deleted = 0
    doomed: Dict[str, set] = {}

    def flush() -> None:
        nonlocal deleted
        for name, positions in doomed.items():
            deleted += tables[name].delete_rows(positions)
        doomed.clear()

    for event in batch.events:
        if isinstance(event, InsertEvent):
            flush()
            tables[event.relation].extend(event.rows)
            inserted += len(event.rows)
        else:
            relation = tables[event.relation]
            positions = relation.index_on(event.attribute).positions(event.value)
            doomed.setdefault(event.relation, set()).update(positions.tolist())
    flush()
    for name in {event.relation for event in batch.events if isinstance(event, InsertEvent)}:
        tables[name].flush()
    return {"inserted": inserted, "deleted": deleted}


class TPCHRefreshStream:
    """Deterministic RF1/RF2-style refresh stream over orders + lineitem.

    Parameters
    ----------
    tables:
        The TPC-H tables (``orders`` and ``lineitem`` are required; customer,
        part and supplier key ranges are read from the existing data so
        inserted rows join exactly like generated ones).
    seed:
        Seed or generator for the event mix.
    orders_per_batch:
        Number of order-level operations per batch.
    insert_fraction:
        Probability that an order-level operation is an insert (RF1) rather
        than a delete (RF2).
    lines_per_order:
        Upper bound on lineitems per inserted order (uniform in ``[1, max]``).
    """

    def __init__(
        self,
        tables: Dict[str, Relation],
        seed: RandomState = 0,
        orders_per_batch: int = 32,
        insert_fraction: float = 0.5,
        lines_per_order: int = 4,
    ) -> None:
        if "orders" not in tables or "lineitem" not in tables:
            raise ValueError("refresh stream needs 'orders' and 'lineitem' tables")
        if not 0.0 <= insert_fraction <= 1.0:
            raise ValueError("insert_fraction must be in [0, 1]")
        if orders_per_batch <= 0:
            raise ValueError("orders_per_batch must be positive")
        self.rng = ensure_rng(seed)
        self.orders_per_batch = orders_per_batch
        self.insert_fraction = insert_fraction
        self.lines_per_order = max(int(lines_per_order), 1)
        orders = tables["orders"]
        lineitem = tables["lineitem"]
        self._live_orderkeys: List[int] = list(orders.column("orderkey"))
        self._next_orderkey = max(self._live_orderkeys, default=0) + 1
        self._custkeys = sorted(set(orders.column("custkey")))
        self._max_partkey = max(lineitem.column("partkey"), default=1)
        self._max_suppkey = max(lineitem.column("suppkey"), default=1)
        self._sequence = 0

    # ------------------------------------------------------------------ events
    def _new_order(self) -> Tuple[Row, Tuple[Row, ...]]:
        rng = self.rng
        orderkey = self._next_orderkey
        self._next_orderkey += 1
        custkey = self._custkeys[int(rng.integers(0, len(self._custkeys)))]
        orderdate = int(rng.integers(8_035, 10_591))
        order_row = (
            orderkey,
            custkey,
            ORDER_STATUSES[int(rng.integers(0, len(ORDER_STATUSES)))],
            round(float(rng.uniform(850.0, 500_000.0)), 2),
            orderdate,
            ORDER_PRIORITIES[int(rng.integers(0, len(ORDER_PRIORITIES)))],
        )
        lines = []
        for linenumber in range(1, int(rng.integers(1, self.lines_per_order + 1)) + 1):
            quantity = int(rng.integers(1, 51))
            lines.append(
                (
                    orderkey,
                    int(rng.integers(1, self._max_partkey + 1)),
                    int(rng.integers(1, self._max_suppkey + 1)),
                    linenumber,
                    quantity,
                    round(quantity * float(rng.uniform(900.0, 2000.0)), 2),
                    round(float(rng.uniform(0.0, 0.1)), 2),
                    orderdate + int(rng.integers(1, 122)),
                )
            )
        return order_row, tuple(lines)

    def batch(self) -> UpdateBatch:
        """Produce the next refresh batch (without applying it)."""
        events: List[UpdateEvent] = []
        order_rows: List[Row] = []
        line_rows: List[Row] = []
        for _ in range(self.orders_per_batch):
            insert = self.rng.random() < self.insert_fraction
            if insert or not self._live_orderkeys:
                order_row, lines = self._new_order()
                order_rows.append(order_row)
                line_rows.extend(lines)
                # joined the live pool only after the batch: a batch never
                # deletes an order it also inserts (events list inserts last)
            else:
                victim = int(self.rng.integers(0, len(self._live_orderkeys)))
                # swap-pop keeps the live pool O(1) per delete
                orderkey = self._live_orderkeys[victim]
                self._live_orderkeys[victim] = self._live_orderkeys[-1]
                self._live_orderkeys.pop()
                events.append(DeleteEvent("lineitem", "orderkey", orderkey))
                events.append(DeleteEvent("orders", "orderkey", orderkey))
        if order_rows:
            events.append(InsertEvent("orders", tuple(order_rows)))
            self._live_orderkeys.extend(row[0] for row in order_rows)
        if line_rows:
            events.append(InsertEvent("lineitem", tuple(line_rows)))
        self._sequence += 1
        return UpdateBatch(sequence=self._sequence, events=tuple(events))

    def batches(self, count: int) -> Iterator[UpdateBatch]:
        """Yield ``count`` consecutive refresh batches."""
        for _ in range(count):
            yield self.batch()

    def __iter__(self) -> Iterator[UpdateBatch]:
        """The stream is an infinite iterator of refresh batches."""
        return self

    def __next__(self) -> UpdateBatch:
        return self.batch()


__all__ = [
    "InsertEvent",
    "DeleteEvent",
    "UpdateEvent",
    "UpdateBatch",
    "TPCHRefreshStream",
    "apply_event",
    "apply_batch",
]
