"""The paper's evaluation workloads: UQ1, UQ2, and UQ3 (§9, Datasets).

* **UQ1** — five chain joins, each over ``nation ⋈ supplier ⋈ customer ⋈
  orders ⋈ lineitem``.  The five joins model five regional databases: an
  *overlap scale* ``P`` controls what fraction of the data is shared by all of
  them (rows are partitioned by nation into one shared group plus one
  exclusive group per join, so the overlap ratio of the join results is
  proportional to ``P``).
* **UQ2** — three chain joins over ``region ⋈ nation ⋈ supplier ⋈ partsupp ⋈
  part`` on the *same* data but with different selection predicates (following
  ``Q2^N ∪ Q2^P ∪ Q2^S``), which yields heavily overlapping joins.
* **UQ3** — one acyclic join and two chain joins derived from ``supplier``,
  ``customer`` and ``orders`` split vertically and horizontally, so the joins
  have different lengths and schemas and the histogram estimator must apply
  the splitting method.

Each builder returns a :class:`UnionWorkload` whose queries share a
standardized output schema, ready to be passed to the estimators and union
samplers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery, check_union_compatible
from repro.relational.operators import hash_join
from repro.relational.predicates import Comparison, InSet
from repro.relational.relation import Relation
from repro.tpch.generator import generate_tpch
from repro.tpch.schema import NATION_NAMES
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class UnionWorkload:
    """A named set of union-compatible join queries plus provenance metadata."""

    name: str
    queries: List[JoinQuery]
    description: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_union_compatible(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def query_names(self) -> List[str]:
        return [q.name for q in self.queries]

    def query(self, name: str) -> JoinQuery:
        for query in self.queries:
            if query.name == name:
                return query
        raise KeyError(f"workload {self.name!r} has no query {name!r}")


# --------------------------------------------------------------------------- UQ1
def build_uq1(
    scale_factor: float = 0.002,
    overlap_scale: float = 0.2,
    n_joins: int = 5,
    seed: RandomState = 0,
    tables: Optional[Dict[str, Relation]] = None,
) -> UnionWorkload:
    """Five chain joins over nation/supplier/customer/orders/lineitem.

    ``overlap_scale`` is the fraction of nations (and hence of join results)
    shared by every join; the remaining nations are assigned exclusively to one
    of the ``n_joins`` joins.
    """
    if not 0.0 <= overlap_scale <= 1.0:
        raise ValueError("overlap_scale must be in [0, 1]")
    if n_joins < 1:
        raise ValueError("n_joins must be at least 1")
    rng = ensure_rng(seed)
    tables = tables or generate_tpch(scale_factor, seed=rng)

    nation = tables["nation"]
    supplier = tables["supplier"]
    customer = tables["customer"]
    orders = tables["orders"]
    lineitem = tables["lineitem"]

    # Partition nations: group 0 is shared by every join, groups 1..n are
    # exclusive to one join.  Rows of downstream relations inherit the group of
    # their nation, so complete join results stay within one group.
    nation_groups: Dict[int, int] = {}
    for key in nation.column("nationkey"):
        if rng.random() < overlap_scale:
            nation_groups[key] = 0
        else:
            nation_groups[key] = int(rng.integers(1, n_joins + 1))

    cust_group = dict(zip(customer.column("custkey"),
                          map(nation_groups.__getitem__, customer.column("nationkey"))))
    order_group = dict(zip(orders.column("orderkey"),
                           map(cust_group.__getitem__, orders.column("custkey"))))

    queries: List[JoinQuery] = []
    for variant in range(1, n_joins + 1):
        allowed = {0, variant}
        nations = _keys_in(nation_groups, allowed)
        nation_v = nation.select(_isin(nation, "nationkey", nations), name="nation")
        supplier_v = supplier.select(_isin(supplier, "nationkey", nations), name="supplier")
        customer_v = customer.select(_isin(customer, "nationkey", nations), name="customer")
        orders_v = orders.select(
            _isin(orders, "custkey", _keys_in(cust_group, allowed)), name="orders"
        )
        lineitem_v = lineitem.select(
            _isin(lineitem, "orderkey", _keys_in(order_group, allowed)), name="lineitem"
        )

        conditions = [
            JoinCondition("nation", "nationkey", "supplier", "nationkey"),
            JoinCondition("supplier", "nationkey", "customer", "nationkey"),
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ]
        output = [
            OutputAttribute.direct("nation", "n_name"),
            OutputAttribute.direct("supplier", "suppkey"),
            OutputAttribute.direct("supplier", "s_acctbal"),
            OutputAttribute.direct("customer", "custkey"),
            OutputAttribute.direct("customer", "mktsegment"),
            OutputAttribute.direct("customer", "c_acctbal"),
            OutputAttribute.direct("orders", "orderkey"),
            OutputAttribute.direct("orders", "totalprice"),
            OutputAttribute.direct("lineitem", "linenumber"),
            OutputAttribute.direct("lineitem", "partkey"),
            OutputAttribute.direct("lineitem", "quantity"),
        ]
        queries.append(
            JoinQuery(
                name=f"UQ1_J{variant}",
                relations=[nation_v, supplier_v, customer_v, orders_v, lineitem_v],
                conditions=conditions,
                output_attributes=output,
            )
        )

    return UnionWorkload(
        name="UQ1",
        queries=queries,
        description="Five chain joins over nation/supplier/customer/orders/lineitem "
        "with a configurable overlap scale.",
        metadata={
            "scale_factor": scale_factor,
            "overlap_scale": overlap_scale,
            "n_joins": n_joins,
            "nation_groups": nation_groups,
        },
    )


# --------------------------------------------------------------------------- UQ2
def build_uq2(
    scale_factor: float = 0.002,
    seed: RandomState = 0,
    tables: Optional[Dict[str, Relation]] = None,
    nation_fraction: float = 0.7,
    size_fraction: float = 0.7,
    balance_fraction: float = 0.7,
) -> UnionWorkload:
    """Three chain joins over region/nation/supplier/partsupp/part with predicates.

    All three joins run on the same base data; they differ only in their
    selection predicate (on nation name, part size, and supplier balance
    respectively), which produces heavily overlapping join results — the
    ``Q2^N ∪ Q2^P ∪ Q2^S`` shape from the paper.
    """
    rng = ensure_rng(seed)
    tables = tables or generate_tpch(scale_factor, seed=rng)
    region = tables["region"]
    nation = tables["nation"]
    supplier = tables["supplier"]
    partsupp = tables["partsupp"]
    part = tables["part"]

    nation_names = sorted(set(nation.column("n_name")))
    kept_nations = nation_names[: max(int(len(nation_names) * nation_fraction), 1)]
    sizes = sorted(part.column("p_size"))
    size_threshold = sizes[min(int(len(sizes) * size_fraction), len(sizes) - 1)]
    balances = sorted(supplier.column("s_acctbal"))
    balance_threshold = balances[
        min(int(len(balances) * (1.0 - balance_fraction)), len(balances) - 1)
    ]

    predicates = {
        "UQ2_N": {"nation": InSet("n_name", kept_nations)},
        "UQ2_P": {"part": Comparison("p_size", "<=", size_threshold)},
        "UQ2_S": {"supplier": Comparison("s_acctbal", ">=", balance_threshold)},
    }

    conditions = [
        JoinCondition("region", "regionkey", "nation", "regionkey"),
        JoinCondition("nation", "nationkey", "supplier", "nationkey"),
        JoinCondition("supplier", "suppkey", "partsupp", "suppkey"),
        JoinCondition("partsupp", "partkey", "part", "partkey"),
    ]
    output = [
        OutputAttribute.direct("region", "r_name"),
        OutputAttribute.direct("nation", "n_name"),
        OutputAttribute.direct("supplier", "suppkey"),
        OutputAttribute.direct("supplier", "s_acctbal"),
        OutputAttribute.direct("partsupp", "availqty"),
        OutputAttribute.direct("partsupp", "supplycost"),
        OutputAttribute.direct("part", "partkey"),
        OutputAttribute.direct("part", "p_size"),
        OutputAttribute.direct("part", "retailprice"),
    ]

    queries = [
        JoinQuery(
            name=name,
            relations=[region, nation, supplier, partsupp, part],
            conditions=conditions,
            output_attributes=output,
            predicates=query_predicates,
        )
        for name, query_predicates in predicates.items()
    ]

    return UnionWorkload(
        name="UQ2",
        queries=queries,
        description="Three chain joins over region/nation/supplier/partsupp/part with "
        "different selection predicates (heavily overlapping).",
        metadata={
            "scale_factor": scale_factor,
            "kept_nations": kept_nations,
            "size_threshold": size_threshold,
            "balance_threshold": balance_threshold,
        },
    )


# --------------------------------------------------------------------------- UQ3
def build_uq3(
    scale_factor: float = 0.002,
    overlap_scale: float = 0.2,
    seed: RandomState = 0,
    tables: Optional[Dict[str, Relation]] = None,
) -> UnionWorkload:
    """One acyclic join and two chain joins over supplier/customer/orders.

    The base relations are split vertically (customer into two fragments) and
    horizontally (each join sees the shared customer group plus one exclusive
    group), and one join runs on a denormalized ``custsupp`` view — so the
    three joins have different lengths and relation schemas while producing the
    same output schema.
    """
    if not 0.0 <= overlap_scale <= 1.0:
        raise ValueError("overlap_scale must be in [0, 1]")
    rng = ensure_rng(seed)
    tables = tables or generate_tpch(scale_factor, seed=rng)
    supplier = tables["supplier"]
    customer = tables["customer"]
    orders = tables["orders"]

    customer_groups: Dict[int, int] = {}
    for key in customer.column("custkey"):
        if rng.random() < overlap_scale:
            customer_groups[key] = 0
        else:
            customer_groups[key] = int(rng.integers(1, 4))

    output_names = [
        "custkey",
        "nationkey",
        "mktsegment",
        "c_acctbal",
        "orderkey",
        "totalprice",
        "suppkey",
        "s_acctbal",
    ]

    # --- J_A: acyclic (star) join around customer ------------------------------
    # customer joins orders (custkey), supplier (nationkey) and nation
    # (nationkey): three edges out of one node, so the join graph is a genuine
    # non-chain tree.  nation is a key-preserving extension, so the output
    # result set is unchanged but the estimator has to handle the tree shape.
    customer_a = customer_group_rows(customer, customer_groups, 1)
    orders_a = customer_group_rows(orders, customer_groups, 1)
    nation_a = tables["nation"]
    query_a = JoinQuery(
        name="UQ3_JA",
        relations=[customer_a, orders_a, supplier, nation_a],
        conditions=[
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("customer", "nationkey", "supplier", "nationkey"),
            JoinCondition("customer", "nationkey", "nation", "nationkey"),
        ],
        output_attributes=[
            OutputAttribute("custkey", "customer", "custkey"),
            OutputAttribute("nationkey", "customer", "nationkey"),
            OutputAttribute("mktsegment", "customer", "mktsegment"),
            OutputAttribute("c_acctbal", "customer", "c_acctbal"),
            OutputAttribute("orderkey", "orders", "orderkey"),
            OutputAttribute("totalprice", "orders", "totalprice"),
            OutputAttribute("suppkey", "supplier", "suppkey"),
            OutputAttribute("s_acctbal", "supplier", "s_acctbal"),
        ],
    )

    # --- J_B: chain over vertically split customer ----------------------------
    customer_b = customer_group_rows(customer, customer_groups, 2)
    orders_b = customer_group_rows(orders, customer_groups, 2)
    cust_part1 = customer_b.project(["custkey", "nationkey", "mktsegment"], name="cust_part1")
    cust_part2 = customer_b.project(["custkey", "c_acctbal"], name="cust_part2")
    query_b = JoinQuery(
        name="UQ3_JB",
        relations=[supplier, cust_part1, cust_part2, orders_b],
        conditions=[
            JoinCondition("supplier", "nationkey", "cust_part1", "nationkey"),
            JoinCondition("cust_part1", "custkey", "cust_part2", "custkey"),
            JoinCondition("cust_part2", "custkey", "orders", "custkey"),
        ],
        output_attributes=[
            OutputAttribute("custkey", "cust_part1", "custkey"),
            OutputAttribute("nationkey", "cust_part1", "nationkey"),
            OutputAttribute("mktsegment", "cust_part1", "mktsegment"),
            OutputAttribute("c_acctbal", "cust_part2", "c_acctbal"),
            OutputAttribute("orderkey", "orders", "orderkey"),
            OutputAttribute("totalprice", "orders", "totalprice"),
            OutputAttribute("suppkey", "supplier", "suppkey"),
            OutputAttribute("s_acctbal", "supplier", "s_acctbal"),
        ],
    )

    # --- J_C: chain over a denormalized customer-supplier view ----------------
    customer_c = customer_group_rows(customer, customer_groups, 3)
    orders_c = customer_group_rows(orders, customer_groups, 3)
    custsupp = hash_join(customer_c, supplier, "nationkey", "nationkey", name="custsupp")
    custsupp = custsupp.project(
        ["custkey", "nationkey", "mktsegment", "c_acctbal", "suppkey", "s_acctbal"],
        name="custsupp",
    )
    query_c = JoinQuery(
        name="UQ3_JC",
        relations=[custsupp, orders_c],
        conditions=[JoinCondition("custsupp", "custkey", "orders", "custkey")],
        output_attributes=[
            OutputAttribute("custkey", "custsupp", "custkey"),
            OutputAttribute("nationkey", "custsupp", "nationkey"),
            OutputAttribute("mktsegment", "custsupp", "mktsegment"),
            OutputAttribute("c_acctbal", "custsupp", "c_acctbal"),
            OutputAttribute("orderkey", "orders", "orderkey"),
            OutputAttribute("totalprice", "orders", "totalprice"),
            OutputAttribute("suppkey", "custsupp", "suppkey"),
            OutputAttribute("s_acctbal", "custsupp", "s_acctbal"),
        ],
    )

    workload = UnionWorkload(
        name="UQ3",
        queries=[query_a, query_b, query_c],
        description="One acyclic join and two chain joins over supplier/customer/orders "
        "with vertical and horizontal splits and a denormalized view.",
        metadata={
            "scale_factor": scale_factor,
            "overlap_scale": overlap_scale,
            "customer_groups": customer_groups,
            "output_names": output_names,
        },
    )
    return workload


def _keys_in(groups: Dict[int, int], allowed: Set[int]) -> List[int]:
    """The keys whose group is ``allowed``."""
    return [key for key, group in groups.items() if group in allowed]


def _isin(relation: Relation, attribute: str, keys: Sequence[int]) -> np.ndarray:
    """Selection mask of the rows whose ``attribute`` is one of ``keys``."""
    return np.isin(relation.column_array(attribute), np.asarray(keys, dtype=np.int64))


def customer_group_rows(relation: Relation, groups: Dict[int, int], variant: int) -> Relation:
    """The rows of ``relation`` whose ``custkey`` is in the shared group 0 or
    in group ``variant``, under the relation's own name."""
    keys = _keys_in(groups, {0, variant})
    return relation.select(_isin(relation, "custkey", keys), name=relation.name)


def build_workload(
    name: str,
    scale_factor: float = 0.002,
    overlap_scale: float = 0.2,
    seed: RandomState = 0,
) -> UnionWorkload:
    """Build a workload by name (``"UQ1"``, ``"UQ2"``, ``"UQ3"``)."""
    key = name.upper()
    if key == "UQ1":
        return build_uq1(scale_factor, overlap_scale, seed=seed)
    if key == "UQ2":
        return build_uq2(scale_factor, seed=seed)
    if key == "UQ3":
        return build_uq3(scale_factor, overlap_scale, seed=seed)
    raise ValueError(f"unknown workload {name!r}; expected UQ1, UQ2 or UQ3")


__all__ = ["UnionWorkload", "build_uq1", "build_uq2", "build_uq3", "build_workload"]
