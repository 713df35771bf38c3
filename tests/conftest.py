"""Shared fixtures: tiny hand-checkable joins, overlapping unions, and small
TPC-H workloads.

The hand-built fixtures are small enough that expected join results, overlaps
and union sizes can be verified by eye; the TPC-H fixtures are session-scoped
so that integration tests reuse one generated dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.tpch.workloads import build_uq1, build_uq2, build_uq3

from tests.stat_helpers import STAT_SEED


# ------------------------------------------------------------------ statistics
@pytest.fixture
def stat_rng() -> np.random.Generator:
    """Fixed-seed generator for statistical tests (see tests/stat_helpers.py)."""
    return np.random.default_rng(STAT_SEED)


# --------------------------------------------------------------------- relations
@pytest.fixture
def relation_r() -> Relation:
    """R(a, b) = {(1,10), (2,20), (3,10)}."""
    return Relation("R", ["a", "b"], [(1, 10), (2, 20), (3, 10)])


@pytest.fixture
def relation_s() -> Relation:
    """S(b, c) = {(10,100), (10,200), (20,300)}."""
    return Relation("S", ["b", "c"], [(10, 100), (10, 200), (20, 300)])


@pytest.fixture
def relation_t() -> Relation:
    """T(c, d) = {(100,7), (200,8), (300,9), (300,10)}."""
    return Relation("T", ["c", "d"], [(100, 7), (200, 8), (300, 9), (300, 10)])


# ----------------------------------------------------------------------- queries
def make_chain_query(
    name: str,
    r_rows,
    s_rows,
    t_rows=None,
    output=("a", "c"),
) -> JoinQuery:
    """Helper: chain join R(a,b) ⋈ S(b,c) [⋈ T(c,d)] with configurable rows."""
    relations = [
        Relation("R", ["a", "b"], r_rows),
        Relation("S", ["b", "c"], s_rows),
    ]
    conditions = [JoinCondition("R", "b", "S", "b")]
    sources = {"a": ("R", "a"), "b": ("R", "b"), "c": ("S", "c")}
    if t_rows is not None:
        relations.append(Relation("T", ["c", "d"], t_rows))
        conditions.append(JoinCondition("S", "c", "T", "c"))
        sources["d"] = ("T", "d")
    outputs = [OutputAttribute(o, *sources[o]) for o in output]
    return JoinQuery(name, relations, conditions, outputs)


def make_predicated_pair(push_down: bool) -> list[JoinQuery]:
    """J1 = A(k,x) ⋈ B(k,y) with the predicate ``B.y >= 6``, pushed down or
    checked while sampling (§8.3); J2 = the same join without it.

    J1 output values: (10,7), (20,6); J2 adds (10,5), (30,2): the union is J2.
    """
    def join(name, predicates):
        return JoinQuery(
            name,
            [
                Relation("A", ["k", "x"], [(1, 10), (2, 20), (3, 30)]),
                Relation("B", ["k", "y"], [(1, 5), (1, 7), (2, 6), (3, 2)]),
            ],
            [JoinCondition("A", "k", "B", "k")],
            [OutputAttribute("x", "A", "x"), OutputAttribute("y", "B", "y")],
            predicates=predicates,
            push_down_predicates=push_down,
        )

    return [join("J1", {"B": Comparison("y", ">=", 6)}), join("J2", None)]


@pytest.fixture
def chain_query(relation_r, relation_s, relation_t) -> JoinQuery:
    """R ⋈ S ⋈ T, output (a, c, d).

    Expected results: R rows with b=10 join S rows (10,100),(10,200) and then T:
      (1,100,7), (1,200,8), (3,100,7), (3,200,8),
      (2,300,9), (2,300,10)            -> 6 results, all distinct.
    """
    return JoinQuery(
        "chain3",
        [relation_r, relation_s, relation_t],
        [JoinCondition("R", "b", "S", "b"), JoinCondition("S", "c", "T", "c")],
        [
            OutputAttribute("a", "R", "a"),
            OutputAttribute("c", "S", "c"),
            OutputAttribute("d", "T", "d"),
        ],
    )


@pytest.fixture
def acyclic_query() -> JoinQuery:
    """Star join: center C(k, x) with children D(k, y) and E(x, z).

    C = {(1,5), (2,6)}, D = {(1,'d1'), (1,'d2'), (2,'d3')}, E = {(5,'e1'), (6,'e2'), (6,'e3')}
    Results (k, y, z):
      (1,d1,e1), (1,d2,e1), (2,d3,e2), (2,d3,e3)   -> 4 results.
    """
    center = Relation("C", ["k", "x"], [(1, 5), (2, 6)])
    d = Relation("D", ["k", "y"], [(1, "d1"), (1, "d2"), (2, "d3")])
    e = Relation("E", ["x", "z"], [(5, "e1"), (6, "e2"), (6, "e3")])
    return JoinQuery(
        "star",
        [center, d, e],
        [JoinCondition("C", "k", "D", "k"), JoinCondition("C", "x", "E", "x")],
        [
            OutputAttribute("k", "C", "k"),
            OutputAttribute("y", "D", "y"),
            OutputAttribute("z", "E", "z"),
        ],
    )


@pytest.fixture
def cyclic_query() -> JoinQuery:
    """Triangle join R(a,b) ⋈ S(b,c) ⋈ T(c,a) closing the cycle on ``a``.

    R = {(1,2), (1,3), (7,2)}, S = {(2,4), (3,5)}, T = {(4,1), (5,9), (4,7)}
    Candidate skeleton results (R ⋈ S ⋈ T on b then c):
      (1,2,4) with T rows a=1 and a=7 -> residual a must equal R.a=1 -> keeps (4,1)
      (1,3,5) with T row a=9          -> residual fails
      (7,2,4) with T rows a=1, a=7    -> keeps (4,7)
    Final results (a, b, c): (1,2,4), (7,2,4)  -> 2 results.
    """
    r = Relation("R", ["a", "b"], [(1, 2), (1, 3), (7, 2)])
    s = Relation("S", ["b", "c"], [(2, 4), (3, 5)])
    t = Relation("T", ["c", "a"], [(4, 1), (5, 9), (4, 7)])
    return JoinQuery(
        "triangle",
        [r, s, t],
        [
            JoinCondition("R", "b", "S", "b"),
            JoinCondition("S", "c", "T", "c"),
            JoinCondition("T", "a", "R", "a"),
        ],
        [
            OutputAttribute("a", "R", "a"),
            OutputAttribute("b", "R", "b"),
            OutputAttribute("c", "S", "c"),
        ],
    )


# ------------------------------------------------------------------- toy unions
@pytest.fixture
def union_pair() -> list[JoinQuery]:
    """Two overlapping 2-relation chain joins with hand-checkable sizes.

    J1 output values: (1,100), (1,200), (2,300)            |J1| = 3
    J2 output values: (1,100), (1,200), (3,400)            |J2| = 3
    Overlap = {(1,100), (1,200)} = 2, union = 4.
    """
    j1 = make_chain_query(
        "J1",
        r_rows=[(1, 10), (2, 20)],
        s_rows=[(10, 100), (10, 200), (20, 300)],
    )
    j2 = make_chain_query(
        "J2",
        r_rows=[(1, 10), (3, 30)],
        s_rows=[(10, 100), (10, 200), (30, 400)],
    )
    return [j1, j2]


@pytest.fixture
def union_triple() -> list[JoinQuery]:
    """Three overlapping 2-relation chain joins.

    J1: (1,100), (1,200), (2,300)
    J2: (1,100), (1,200), (3,400)
    J3: (1,100), (2,300), (5,500)
    Union = {(1,100),(1,200),(2,300),(3,400),(5,500)}   |U| = 5
    """
    j1 = make_chain_query(
        "J1", r_rows=[(1, 10), (2, 20)], s_rows=[(10, 100), (10, 200), (20, 300)]
    )
    j2 = make_chain_query(
        "J2", r_rows=[(1, 10), (3, 30)], s_rows=[(10, 100), (10, 200), (30, 400)]
    )
    j3 = make_chain_query(
        "J3", r_rows=[(1, 10), (2, 20), (5, 50)],
        s_rows=[(10, 100), (20, 300), (50, 500)],
    )
    return [j1, j2, j3]


# --------------------------------------------------------------- TPC-H workloads
@pytest.fixture(scope="session")
def uq1_small():
    """UQ1 at a very small scale (shared across the whole test session)."""
    return build_uq1(scale_factor=0.0005, overlap_scale=0.3, n_joins=3, seed=42)


@pytest.fixture(scope="session")
def uq2_small():
    return build_uq2(scale_factor=0.0005, seed=42)


@pytest.fixture(scope="session")
def uq3_small():
    return build_uq3(scale_factor=0.0005, overlap_scale=0.3, seed=42)
