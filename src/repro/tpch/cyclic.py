"""A cyclic-join union workload (the paper's Fig. 1 ``J_W`` shape).

The paper's running example unions a *cyclic* join (the west-region query,
where ``orders`` is self-joined to pair line items of the same order) with
acyclic queries.  Its evaluation skips cyclic workloads because the cyclic
machinery is inherited from Zhao et al.; this module provides the workload
anyway so that the cyclic code path (skeleton/residual decomposition, residual
rejection during sampling and membership probing) is exercised end to end.

``build_cyclic_bundle_workload`` creates two joins over the same output schema
("pairs of line items bought together by a customer"):

* ``CY_W`` — a **cyclic** join: customer ⋈ orders ⋈ lineitem1 ⋈ lineitem2 where
  both lineitem aliases join the *same* order, so the join graph contains the
  cycle orders–lineitem1–lineitem2–orders (every ordered pair of line items of
  one order, including the diagonal, is produced exactly once);
* ``CY_E`` — an **acyclic** join producing the same pairs from a denormalized
  ``order_pairs`` view (the pre-joined pair of line numbers per order),
  restricted to a different but overlapping customer group.

Both joins produce the standardized schema
``(custkey, orderkey, linenumber_a, linenumber_b, quantity_a, quantity_b)``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery
from repro.relational.relation import Relation
from repro.tpch.generator import generate_tpch
from repro.tpch.workloads import UnionWorkload, customer_group_rows
from repro.utils.rng import RandomState, ensure_rng


def build_cyclic_bundle_workload(
    scale_factor: float = 0.001,
    overlap_scale: float = 0.3,
    seed: RandomState = 0,
    tables: Optional[Dict[str, Relation]] = None,
) -> UnionWorkload:
    """Union of a cyclic join and an acyclic join over "bundle purchase" pairs."""
    if not 0.0 <= overlap_scale <= 1.0:
        raise ValueError("overlap_scale must be in [0, 1]")
    rng = ensure_rng(seed)
    tables = tables or generate_tpch(scale_factor, seed=rng)
    customer = tables["customer"]
    orders = tables["orders"]
    lineitem = tables["lineitem"]

    # Partition customers into a shared group (0) and two exclusive groups.
    groups: Dict[int, int] = {}
    for key in customer.column("custkey"):
        groups[key] = 0 if rng.random() < overlap_scale else int(rng.integers(1, 3))

    output = lambda source_a, source_b: [  # noqa: E731 - small local helper
        OutputAttribute("custkey", "customer", "custkey"),
        OutputAttribute("orderkey", "orders", "orderkey"),
        OutputAttribute("linenumber_a", source_a, "linenumber"),
        OutputAttribute("linenumber_b", source_b, "linenumber"),
        OutputAttribute("quantity_a", source_a, "quantity"),
        OutputAttribute("quantity_b", source_b, "quantity"),
    ]

    # ---- CY_W: cyclic join with two lineitem aliases sharing the order ------
    lineitem_a = lineitem.rename({}, name="lineitem_a")
    lineitem_b = lineitem.rename({}, name="lineitem_b")
    query_w = JoinQuery(
        name="CY_W",
        relations=[customer_group_rows(customer, groups, 1),
                   customer_group_rows(orders, groups, 1), lineitem_a, lineitem_b],
        conditions=[
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem_a", "orderkey"),
            JoinCondition("lineitem_a", "orderkey", "lineitem_b", "orderkey"),
            # Closing the cycle: the second alias must reference the same order
            # the orders relation contributed, making the join graph cyclic.
            JoinCondition("lineitem_b", "orderkey", "orders", "orderkey"),
        ],
        output_attributes=output("lineitem_a", "lineitem_b"),
    )

    # ---- CY_E: acyclic join over a denormalized pair view -------------------
    order_pairs = _order_pairs_view(lineitem)
    query_e = JoinQuery(
        name="CY_E",
        relations=[customer_group_rows(customer, groups, 2),
                   customer_group_rows(orders, groups, 2), order_pairs],
        conditions=[
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "order_pairs", "orderkey"),
        ],
        output_attributes=[
            OutputAttribute("custkey", "customer", "custkey"),
            OutputAttribute("orderkey", "orders", "orderkey"),
            OutputAttribute("linenumber_a", "order_pairs", "linenumber_a"),
            OutputAttribute("linenumber_b", "order_pairs", "linenumber_b"),
            OutputAttribute("quantity_a", "order_pairs", "quantity_a"),
            OutputAttribute("quantity_b", "order_pairs", "quantity_b"),
        ],
    )

    return UnionWorkload(
        name="CY",
        queries=[query_w, query_e],
        description="Union of a cyclic self-join query and an acyclic denormalized "
        "query over bundle-purchase pairs (Fig. 1 of the paper).",
        metadata={
            "scale_factor": scale_factor,
            "overlap_scale": overlap_scale,
            "customer_groups": groups,
        },
    )


def _order_pairs_view(lineitem: Relation) -> Relation:
    """Denormalized view: one row per ordered pair of line items of one order."""
    by_order: Dict[object, list] = {}
    for orderkey, line, qty in zip(
        *(lineitem.column(a) for a in ("orderkey", "linenumber", "quantity"))
    ):
        by_order.setdefault(orderkey, []).append((line, qty))
    rows = []
    for orderkey, items in by_order.items():
        for line_a, qty_a in items:
            for line_b, qty_b in items:
                rows.append((orderkey, line_a, line_b, qty_a, qty_b))
    return Relation(
        "order_pairs",
        ["orderkey", "linenumber_a", "linenumber_b", "quantity_a", "quantity_b"],
        rows,
    )


__all__ = ["build_cyclic_bundle_workload"]
