"""The database fixture: one copy of the TPC-H tables, the workload's queries
over them, and the update scenario on the same tables.

``build_fixture`` reproduces ``build_workload(family, scale, overlap, seed)``
bit for bit (the server child builds its own copy that way) while keeping the
base tables, so the update stage mutates ``orders``/``lineitem`` of the very
data the queries were derived from.  UQ1's queries hold selected copies and
UQ2's do not touch ``orders``/``lineitem``, so the update stage never changes
what the other stages sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

import paths  # noqa: F401 - puts src on sys.path
from profiles import Profile

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery
from repro.relational.relation import Relation
from repro.tpch import UnionWorkload, build_uq1, build_uq2, generate_tpch
from repro.utils.rng import ensure_rng, keyed_rng


def derive(seed: int, *key: int) -> int:
    """A well-mixed non-negative int seed for ``(seed, key...)``."""
    return int(keyed_rng(seed, *key).integers(0, 2**31 - 1))


@dataclass
class Fixture:
    profile: Profile
    tables: Dict[str, Relation]
    workload: UnionWorkload
    update_query: JoinQuery
    generate_s: float
    build_queries_s: float

    @property
    def queries(self):
        return self.workload.queries

    @property
    def first(self) -> JoinQuery:
        return self.workload.queries[0]


def build_workload_on(profile: Profile, scale_factor: float):
    """``(tables, workload, generate seconds, build seconds)`` at ``scale_factor``."""
    rng = ensure_rng(profile.data_seed)
    started = time.perf_counter()
    tables = generate_tpch(scale_factor, seed=rng)
    generated = time.perf_counter()
    if profile.family == "UQ1":
        workload = build_uq1(
            scale_factor, profile.overlap_scale, seed=rng, tables=tables
        )
    else:
        workload = build_uq2(scale_factor, seed=rng, tables=tables)
    built = time.perf_counter()
    return tables, workload, generated - started, built - generated


def order_chain_query(tables: Dict[str, Relation]) -> JoinQuery:
    """``customer JOIN orders JOIN lineitem``: the chain the refresh functions churn."""
    return JoinQuery(
        "dynamic_orders",
        [tables["customer"], tables["orders"], tables["lineitem"]],
        [
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ],
        [
            OutputAttribute.direct("customer", "custkey"),
            OutputAttribute.direct("orders", "orderkey"),
            OutputAttribute.direct("lineitem", "linenumber"),
            OutputAttribute.direct("lineitem", "quantity"),
        ],
    )


def build_fixture(profile: Profile) -> Fixture:
    tables, workload, generate_s, build_s = build_workload_on(
        profile, profile.scale_factor
    )
    return Fixture(
        profile=profile,
        tables=tables,
        workload=workload,
        update_query=order_chain_query(tables),
        generate_s=generate_s,
        build_queries_s=build_s,
    )


__all__ = ["Fixture", "build_fixture", "build_workload_on", "derive", "order_chain_query"]
