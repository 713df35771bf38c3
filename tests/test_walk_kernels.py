"""The walk kernels: their random streams pinned by digest, and their answers
across a mutation held to the enumerated join.

``JoinSampler._attempt_block`` (EW and EO) and ``WanderJoin._descend`` run
every walk of a block level by level.  The digests below fix what a seed
draws through them — positions, weights, walk results and the reject
counters — on joins where every kind of failure happens: absent keys and
zero-degree slots, the EO bound, rows the (not pushed down) predicates
reject, and residuals of a cycle.  A kernel change that keeps them keeps
every answer and golden downstream; one that moves which rows a seed draws,
the order or size of an RNG call, or the positions' dtype moves them.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.joins.query import JoinQuery
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import WanderJoin
from repro.tpch import build_uq1, build_uq2, generate_tpch
from repro.tpch.cyclic import build_cyclic_bundle_workload

from tests.join_oracle import enumerated_assignments, walk_probability


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


def _positions(block):
    for name in block.relation_order:
        assert block.positions[name].dtype == np.intp
    return [block.positions[name] for name in block.relation_order]


def _attempt_parts(query, weights, seed):
    """Positions of four ``_attempt_block`` calls, then the sampler's stats."""
    sampler = JoinSampler(query, weights=weights, seed=seed)
    parts = []
    for size in (1, 37, 500, 4000):
        block = sampler._attempt_block(size)
        parts += [*_positions(block), block.attempts]
    return parts + [dataclasses.astuple(sampler.stats)], sampler.stats


def _walk_parts(query, seed):
    """``walk_block`` positions and weights, then ``walk_batch_with_values``."""
    walker = WanderJoin(query, seed=seed)
    parts = []
    for size in (1, 300, 3000):
        block = walker.walk_block(size)
        parts += [*_positions(block), block.weights, block.attempts]
    results, columns = walker.walk_batch_with_values(2000)
    parts.append([
        (r.success, r.value, sorted((r.assignment or {}).items()), r.probability)
        for r in results
    ])
    return parts + columns + [(walker.walk_count, walker.success_count)], walker


@pytest.fixture(scope="module")
def uq2_rows():
    """UQ2's three joins with their predicates checked on bound rows."""
    tables = generate_tpch(0.0005, seed=42)
    return [
        JoinQuery(q.name, [tables[name] for name in q.relation_order], q.conditions,
                  q.output_attributes, predicates=q.predicates, push_down_predicates=False)
        for q in build_uq2(tables=tables, seed=42).queries
    ]


@pytest.fixture(scope="module")
def bundle_join():
    return build_cyclic_bundle_workload(0.0005, overlap_scale=0.4, seed=13).query("CY_W")


@pytest.fixture
def cyclic_joins(bundle_join, cyclic_query):
    return [bundle_join, cyclic_query]


@pytest.fixture(scope="module")
def uq1_joins():
    return build_uq1(scale_factor=0.0005, overlap_scale=0.3, n_joins=3, seed=42).queries


EXPECTED = {
    ("uq2_rows", "ew"):
        "6e00bc3bd1430879c04ccbd4e7615767b6ee607c35ffe150dbfa1453e1c78ee3",
    ("uq2_rows", "eo"):
        "de782d31073fece52febf8cc53d4beef0ccb6ba413045aaa37e65c3e37450522",
    ("cyclic", "ew"):
        "1566b797acf0f075264e8ab0a74f3632bdbe5b57e7e8a23347848bc982ef939d",
    ("cyclic", "eo"):
        "780c0fce51172b4b201bc6293503350d4f746d3fa7f25c5ced5deeed50142b33",
    "uq1_walks":
        "bc6f5b1e73336b3659c8edd57dfae1f94ba69160d2205a2801d051f2623d0d50",
    "cyclic_walks":
        "c9753da2d9d4ca1fe2790655b6c73e4b529c3da2946924cae9a71a2b0e70530b",
}


@pytest.mark.parametrize("weights", ["ew", "eo"])
def test_attempt_block_stream_with_row_masks(uq2_rows, weights):
    parts, rejected = [], 0
    for query in uq2_rows:
        query_parts, stats = _attempt_parts(query, weights, seed=71)
        parts += query_parts
        rejected += stats.rejected_predicate
    assert rejected > 0
    assert _digest(parts) == EXPECTED["uq2_rows", weights]


@pytest.mark.parametrize("weights", ["ew", "eo"])
def test_attempt_block_stream_with_residuals(cyclic_joins, weights):
    parts, rejected = [], 0
    for query in cyclic_joins:
        query_parts, stats = _attempt_parts(query, weights, seed=73)
        parts += query_parts
        rejected += stats.rejected_residual
    assert rejected > 0
    assert _digest(parts) == EXPECTED["cyclic", weights]


def test_walk_streams(uq1_joins):
    parts, failed = [], 0
    for query in uq1_joins:
        query_parts, walker = _walk_parts(query, seed=79)
        parts += query_parts
        failed += walker.walk_count - walker.success_count
    assert failed > 0
    assert _digest(parts) == EXPECTED["uq1_walks"]


def test_walk_streams_with_residuals(cyclic_joins):
    parts = []
    for query in cyclic_joins:
        parts += _walk_parts(query, seed=83)[0]
    assert _digest(parts) == EXPECTED["cyclic_walks"]


# ------------------------------------------- across a mutation, to the oracle
@pytest.fixture
def order_chain():
    """customer ⋈ orders ⋈ lineitem at SF 0.0001, after every lineitem of
    four orders was deleted: those orders' slots in the lineitem key index
    sit at degree 0 pending compaction, and a third of the customers (TPC-H
    leaves every custkey divisible by 3 without orders) join no order."""
    from repro.joins.conditions import JoinCondition, OutputAttribute

    tables = generate_tpch(0.0001, seed=3)
    query = JoinQuery(
        "order_chain",
        [tables["customer"], tables["orders"], tables["lineitem"]],
        [
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ],
        [
            OutputAttribute("custkey", "customer", "custkey"),
            OutputAttribute("orderkey", "orders", "orderkey"),
            OutputAttribute("linenumber", "lineitem", "linenumber"),
        ],
    )
    walker, sampler = WanderJoin(query, seed=5), JoinSampler(query, weights="ew", seed=7)
    walker.walk_block(500)  # the snapshot before holds hop tables and plans
    sampler.sample_block(500)
    lineitem = tables["lineitem"]
    emptied = tables["orders"].column_array("orderkey")[[3, 40, 77, 150]]
    lineitem.delete_rows(np.flatnonzero(np.isin(lineitem.column_array("orderkey"), emptied)))
    return tables, query, walker, sampler


def _assignments(block):
    """The block's walks as sorted ``(relation, row)`` tuples, in order."""
    columns = [[(name, row) for row in block.positions[name].tolist()]
               for name in block.relation_order]
    return [tuple(sorted(walk)) for walk in zip(*columns)]


def _hop_spy(monkeypatch):
    """Every hop table ``JoinQuery.edge_hops`` hands out from here on."""
    read = []
    edge_hops = JoinQuery.edge_hops

    def spy(query, parent, node):
        read.append(edge_hops(query, parent, node))
        return read[-1]

    monkeypatch.setattr(JoinQuery, "edge_hops", spy)
    return read


def _check_walks(query, walker, walks=20_000):
    """Successful walks are join results with ``p`` = the oracle's; the
    success count is within 4 sigma of ``walks · Σ p(t)``."""
    exact = {
        assignment: walk_probability(query, dict(assignment))
        for assignment in enumerated_assignments(query)
    }
    results, _ = walker.walk_batch_with_values(walks)
    successes = [r for r in results if r.success]
    for r in successes:
        assert r.probability == pytest.approx(exact[tuple(sorted(r.assignment.items()))],
                                              rel=1e-12)
    rate = sum(exact.values())
    assert abs(len(successes) - walks * rate) <= 4 * (walks * rate * (1 - rate)) ** 0.5
    block = walker.walk_block(walks)
    for assignment, weight in zip(_assignments(block), block.weights):
        assert weight == pytest.approx(1.0 / exact[assignment], rel=1e-12)


def _check_support(query, sampler, draws=20_000):
    """EW attempts accept every walk and reach every join result."""
    sampler.refresh()  # what every public draw does first
    block = sampler._attempt_block(draws)
    assert len(block) == draws
    assert set(_assignments(block)) == set(enumerated_assignments(query))


def test_hop_tables_match_a_scan_of_the_child(order_chain):
    """Per parent row, the hop table's segment holds exactly the child rows
    with its key: degree 0 for an absent key and for an emptied slot."""
    tables, query = order_chain[:2]
    for node, parent in query.join_tree().descent():
        if parent is None:
            continue
        (parent_attribute,), (child_attribute,) = node.parent_attributes, node.child_attributes
        child = tables[node.relation]
        child_keys = child.column_array(child_attribute).tolist()
        rows = child.index_on_columns([child_attribute]).row_positions
        starts, degrees = query.edge_hops(parent.relation, node)
        parent_keys = tables[parent.relation].column_array(parent_attribute).tolist()
        for key, start, degree in zip(parent_keys, starts.tolist(), degrees.tolist()):
            joining = sorted(row for row, k in enumerate(child_keys) if k == key)
            assert degree == len(joining)
            assert sorted(rows[start:start + degree].tolist()) == joining
        assert (degrees == 0).any()


def test_walks_over_zero_degree_slots_and_absent_keys(order_chain):
    tables, query, walker, sampler = order_chain
    edge = query.join_tree().node_for("lineitem")
    slots = query.edge_slots("orders", edge)
    degrees = np.diff(tables["lineitem"].index_on_columns(["orderkey"]).offsets)
    assert (degrees[slots] == 0).sum() == 4  # four live orders reach an emptied slot
    assert (query.edge_slots("customer", query.join_tree().node_for("orders")) < 0).any()
    _check_walks(query, walker)
    _check_support(query, sampler)


def test_walks_after_a_refresh_batch_read_only_its_hop_tables(order_chain, monkeypatch):
    from repro.dynamic import TPCHRefreshStream, apply_batch

    tables, query, walker, sampler = order_chain
    walker.walk_block(500)
    last = [query.edge_hops(parent.relation, node)
            for node, parent in query.join_tree().descent() if parent is not None]
    apply_batch(tables, TPCHRefreshStream(tables, seed=5, orders_per_batch=8).batch())
    read = _hop_spy(monkeypatch)
    _check_walks(query, walker)
    assert read and not any(hops is stale for hops in read for stale in last)
    _check_support(query, sampler)


def test_walks_fail_on_rows_a_predicate_rejects(uq2_rows):
    """Where predicates are checked on bound rows, a walk onto a rejected
    row fails: successes and their ``p`` match the filtered enumeration."""
    for query in uq2_rows:
        _check_walks(query, WanderJoin(query, seed=89), walks=5000)
