"""Performance smoke gate for the batched sampling engine.

A tiny-scale throughput check wired into tier-1: the batched path must
deliver at least the scalar reference path's throughput, so a regression
that silently disables the vectorized engine fails the test suite rather
than only the (optional) benchmark run.  Thresholds are deliberately loose
— end-to-end and per-layer timings live in the measurement spine
(``benchmarks/spine``) — to keep the test robust on noisy CI machines.
"""

import copy
import gc
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from repro.joins.membership import UnionMembershipIndex
from repro.relational.relation import Relation
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler, draw_and_drain
from repro.tpch.workloads import build_uq2

SMOKE_SCALE = 0.0005
SMOKE_SEED = 7


@pytest.fixture(scope="module")
def smoke_query():
    return build_uq2(scale_factor=SMOKE_SCALE, seed=SMOKE_SEED).queries[0]


def _scalar_rate(sampler: JoinSampler, attempts: int) -> float:
    accepted = 0
    started = time.perf_counter()
    for _ in range(attempts):
        if sampler.try_sample() is not None:
            accepted += 1
    elapsed = time.perf_counter() - started
    assert accepted > 0, "scalar path accepted nothing; smoke workload broken"
    return accepted / elapsed


def _batch_rate(sampler: JoinSampler, count: int) -> float:
    started = time.perf_counter()
    draws = sampler.sample_many(count)
    elapsed = time.perf_counter() - started
    assert len(draws) == count
    return count / elapsed


@pytest.mark.parametrize("weights", ["ew", "eo"])
def test_batch_path_at_least_scalar_throughput(smoke_query, weights):
    scalar = JoinSampler(smoke_query, weights=weights, seed=11)
    batched = JoinSampler(smoke_query, weights=weights, seed=13)
    # Warm both paths so index/plan construction stays outside the timing.
    for _ in range(50):
        scalar.try_sample()
    batched.sample_many(50)

    scalar_rate = _scalar_rate(scalar, attempts=400)
    batch_rate = _batch_rate(batched, count=2000)
    assert batch_rate >= scalar_rate, (
        f"batched sampling ({batch_rate:.0f}/s) slower than scalar "
        f"({scalar_rate:.0f}/s) — vectorized engine regressed"
    )


def test_batch_and_scalar_agree_on_acceptance(smoke_query):
    """Cross-check riding along with the smoke gate: both paths must see the
    same acceptance behaviour on the smoke workload (EW never rejects)."""
    sampler = JoinSampler(smoke_query, weights="ew", seed=17)
    sampler.sample_many(500)
    assert sampler.stats.acceptance_rate == pytest.approx(1.0)


def test_block_pipeline_at_least_boxed_throughput(smoke_query):
    """The zero-object aggregate pipeline must not regress below the boxed
    path it replaced: sample_block -> ingest_block vs boxed draws ->
    observe, same draws, same estimator state (the real margin is >= 2x on
    the TPC-H workloads; the gate here is deliberately loose for noisy CI
    machines)."""
    from repro.aqp import AggregateAccumulator, AggregateSpec

    spec = AggregateSpec("sum", attribute="retailprice")

    def boxed_rate(count):
        sampler = JoinSampler(smoke_query, weights="ew", seed=19)
        accumulator = AggregateAccumulator(spec, smoke_query.output_schema)
        weight = sampler.weight_function.total_weight
        draw_and_drain(sampler, 50)
        started = time.perf_counter()
        before = sampler.stats.attempts
        draws = SampleBlock.concat(draw_and_drain(sampler, count)).to_draws(smoke_query)
        accumulator.observe(
            [d.value for d in draws],
            attempts=sampler.stats.attempts - before,
            weight=weight,
        )
        return len(draws) / (time.perf_counter() - started)

    def block_rate(count):
        sampler = JoinSampler(smoke_query, weights="ew", seed=19)
        accumulator = AggregateAccumulator(spec, smoke_query.output_schema)
        weight = sampler.weight_function.total_weight
        sampler.sample_block(50)
        sampler.pop_buffered_blocks()
        started = time.perf_counter()
        before = sampler.stats.attempts
        blocks = [sampler.sample_block(count)]
        blocks.extend(sampler.pop_buffered_blocks())
        block = SampleBlock.concat(blocks)
        accumulator.ingest_block(
            block.value_columns(smoke_query),
            attempts=sampler.stats.attempts - before,
            weight=weight,
        )
        return len(block) / (time.perf_counter() - started)

    boxed = boxed_rate(4000)
    block = block_rate(4000)
    assert block >= boxed, (
        f"block pipeline ({block:.0f}/s) slower than boxed path "
        f"({boxed:.0f}/s) — zero-object pipeline regressed"
    )


def test_batched_membership_probes_beat_the_scalar_loop():
    """The union warm-up and refinement probe whole value lists; the frontier
    kernel must stay well ahead of asking the scalar search once per value:
    500 drawn values x every other join, floor 3x (measured: ~25x here,
    where the relations are tiny and the kernel's fixed cost shows; 45-80x
    at SF 0.05, see docs/performance.md)."""
    queries = build_uq2(scale_factor=SMOKE_SCALE, seed=SMOKE_SEED).queries
    index = UnionMembershipIndex(queries)
    values = JoinSampler(queries[0], seed=23).sample_block(500).values(queries[0])
    others = [query.name for query in queries[1:]]

    def scalar():
        return [[index.contains(name, value) for value in values] for name in others]

    def batched():
        return [index.contains_many(name, values).tolist() for name in others]

    assert scalar() == batched()  # also builds whatever either path builds lazily

    def best_of(run, repeats=5):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        return min(times)

    scalar_s, batched_s = best_of(scalar), best_of(batched)
    assert batched_s * 3 <= scalar_s, (
        f"contains_many ({batched_s * 1e3:.1f} ms) is not 3x ahead of the scalar "
        f"loop ({scalar_s * 1e3:.1f} ms) — batched membership kernel regressed"
    )


def test_sum_estimate_cost_does_not_grow_with_the_sample():
    """A COUNT/SUM ``estimate()`` rounds running exact totals, so its cost is
    per group, not per contribution: the median at 200k contributions stays
    under 3x the median at 10k.  A pass over every contribution at estimate
    time puts the ratio near 20x."""
    from repro.aqp import AggregateAccumulator, AggregateSpec

    rng = np.random.default_rng(41)

    def median_estimate_s(contributions):
        accumulator = AggregateAccumulator(AggregateSpec("sum", attribute="x"), ("x",))
        for _ in range(contributions // 2000):
            accumulator.ingest_block(
                [rng.uniform(900, 5e5, 2000)], attempts=2100, weight=3.5e5
            )
        times = []
        for _ in range(31):
            started = time.perf_counter()
            accumulator.estimate()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    small, large = median_estimate_s(10_000), median_estimate_s(200_000)
    assert large < 3 * small, (
        f"estimate() at 200k contributions ({large * 1e6:.0f} us) is not within 3x "
        f"of 10k ({small * 1e6:.0f} us) — estimates re-sum the contributions again"
    )


# ------------------------------------------------- counted, not timed, gates
def test_union_rounds_refill_once_per_round_and_join(monkeypatch):
    """The steady state of ``OnlineUnionSampler.sample``: a round fetches
    each selected join's draws as one block, so 5 000 samples cost at most
    rounds x joins descents (one ``draw_and_drain`` per refill; refilling a
    value at a time makes ~150)."""
    from repro.core import OnlineUnionSampler, union_sampler

    queries = build_uq2(scale_factor=SMOKE_SCALE, seed=SMOKE_SEED).queries
    sampler = OnlineUnionSampler(queries, seed=29)
    sampler.sample(1000)
    calls, rounds = [], []
    drain, run_round = union_sampler.draw_and_drain, sampler._round
    monkeypatch.setattr(
        union_sampler, "draw_and_drain",
        lambda *args, **kwargs: (calls.append(args[1]), drain(*args, **kwargs))[1],
    )
    monkeypatch.setattr(sampler, "_round", lambda n: (rounds.append(n), run_round(n))[1])
    assert len(sampler.sample(6000)) == 6000
    assert 0 < len(calls) <= len(rounds) * len(queries)
    assert len(rounds) <= 5 + sampler.stats.backtrack_rounds
    assert sum(calls) <= sum(rounds)  # sized by the round's demand, no more


def test_scalar_union_refills_are_sized_by_the_remaining_demand(monkeypatch):
    """The per-sample union samplers (the oracles of the spine's gate) refill
    a join's queue with what the call still expects to ask of it."""
    from repro.core import SetUnionSampler, union_sampler
    from repro.estimation import FullJoinUnionEstimator

    queries = build_uq2(scale_factor=SMOKE_SCALE, seed=SMOKE_SEED).queries
    calls = []
    drain = union_sampler.draw_and_drain
    monkeypatch.setattr(
        union_sampler, "draw_and_drain",
        lambda *args, **kwargs: (calls.append(args[1]), drain(*args, **kwargs))[1],
    )
    for mode in ("record", "strict"):
        calls.clear()
        sampler = SetUnionSampler(queries, FullJoinUnionEstimator(queries), seed=31, mode=mode)
        assert len(sampler.sample(2000)) == 2000
        assert len(calls) <= 12 * len(queries)  # a geometric tail, not ~2000 / 32
        assert max(calls) > 100


def _spy_slots_for(monkeypatch):
    """The CSR of every ``SortedIndex.slots_for`` call from here on."""
    from repro.relational.index import SortedIndex

    calls = []
    slots_for = SortedIndex.slots_for

    def spy(csr, values):
        calls.append(csr)
        return slots_for(csr, values)

    monkeypatch.setattr(SortedIndex, "slots_for", spy)
    return calls


def _edge_of_csr(query):
    """``id(child join-key CSR) -> (parent, child)`` for every join-tree edge."""
    return {
        id(query.relation(node.relation).index_on_columns(node.child_attributes)): (
            parent.relation,
            node.relation,
        )
        for node, parent in query.join_tree().descent()
        if parent is not None
    }


def test_draws_resolve_no_join_key_after_the_first_block(smoke_query, monkeypatch):
    """A hop gathers its slots from the edge's per-snapshot map: once the
    first block built the maps, ``sample_block`` (EW and EO), ``walk_block``
    and the bound-parent levels of ``contains_many`` look no join key up
    (membership levels seeded by an output attribute look the field up in
    that attribute's index)."""
    from repro.joins.membership import JoinMembershipProber
    from repro.sampling.wander_join import WanderJoin

    query = copy.copy(smoke_query)
    ew = JoinSampler(query, weights="ew", seed=41)
    eo = JoinSampler(query, weights="eo", seed=43)
    walker = WanderJoin(query, seed=47)
    prober = JoinMembershipProber(query)
    values = ew.sample_block(300).values(query)
    eo.sample_block(300)
    walker.walk_block(300)
    prober.contains_many(values)

    calls = _spy_slots_for(monkeypatch)
    ew.sample_block(5000)
    eo.sample_block(5000)
    walker.walk_block(5000)
    assert calls == []
    assert prober.contains_many(values).all()
    edges = _edge_of_csr(query)
    assert [edges[id(csr)] for csr in calls if id(csr) in edges] == []


def test_one_full_column_pass_per_edge_and_snapshot(smoke_query, monkeypatch):
    """Three samplers, the weight passes, a wander walk and the pricing
    ratio of one snapshot resolve each edge's parent column exactly once."""
    from repro.analysis.cost import walk_success_ratio
    from repro.sampling.wander_join import WanderJoin

    query = copy.copy(smoke_query)  # an empty snapshot memo
    edges = _edge_of_csr(query)
    calls = _spy_slots_for(monkeypatch)
    for weights, seed in (("ew", 51), ("eo", 53), ("ew", 55)):
        JoinSampler(query, weights=weights, seed=seed).sample_block(500)
    WanderJoin(query, seed=57).walk_block(500)
    walk_success_ratio(query)
    assert sorted(edges[id(csr)] for csr in calls) == sorted(edges.values())


def test_a_refresh_batch_rebuilds_only_the_edges_it_touches(monkeypatch):
    """An RF batch inserts into and deletes from ``orders``/``lineitem``
    only: the next snapshot rebuilds the maps of the two edges incident to
    them, once each, and keeps ``nation -> customer``'s map by reference."""
    from repro.analysis.cost import walk_success_ratio
    from repro.dynamic import TPCHRefreshStream, apply_batch
    from repro.joins.conditions import JoinCondition, OutputAttribute
    from repro.joins.query import JoinQuery
    from repro.sampling.wander_join import WanderJoin
    from repro.tpch import generate_tpch

    tables = generate_tpch(0.001, seed=3)
    query = JoinQuery(
        "rf",
        [tables[name] for name in ("nation", "customer", "orders", "lineitem")],
        [
            JoinCondition("nation", "nationkey", "customer", "nationkey"),
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ],
        [OutputAttribute("linenumber", "lineitem", "linenumber")],
    )
    samplers = [JoinSampler(query, weights=w, seed=61) for w in ("ew", "eo")]
    walker = WanderJoin(query, seed=63)

    def use_every_consumer():
        for sampler in samplers:
            sampler.sample_block(500)
        walker.walk_block(500)
        walk_success_ratio(query)

    use_every_consumer()
    nation_edge = query.join_tree().node_for("customer")
    kept = query.edge_slots("nation", nation_edge)
    apply_batch(tables, TPCHRefreshStream(tables, seed=5, orders_per_batch=8).batch())
    calls = _spy_slots_for(monkeypatch)
    use_every_consumer()
    edges = _edge_of_csr(query)
    assert sorted(edges[id(csr)] for csr in calls) == [
        ("customer", "orders"),
        ("orders", "lineitem"),
    ]
    assert query.edge_slots("nation", nation_edge) is kept


def test_a_refresh_batch_rebuilds_no_key_lookup_and_no_level_tables(monkeypatch):
    """An RF batch on the order chain appends dense orderkeys and moves a
    few dozen segments: each refresh widens the lineitem key lookup instead
    of rebuilding it (no ``_build_sorted_lookup``) and reshapes the
    ``orders``/``lineitem`` levels' tables (no ``SegmentTables`` built from
    scratch), for EW and EO samplers alike, batch after batch."""
    from repro.dynamic import apply_batch, build_order_stream_scenario
    from repro.relational.index import SortedIndex
    from repro.sampling.alias import SegmentTables

    tables, query, stream = build_order_stream_scenario(0.001, seed=3, orders_per_batch=16)
    samplers = [JoinSampler(query, weights=w, seed=61) for w in ("ew", "eo")]
    for sampler in samplers:
        sampler.sample_block(500)
    built = []
    for owner, name in ((SortedIndex, "_build_sorted_lookup"), (SegmentTables, "__init__")):
        original = getattr(owner, name)

        def spy(obj, *args, _original=original, _name=name):
            built.append(_name)
            return _original(obj, *args)

        monkeypatch.setattr(owner, name, spy)
    for _ in range(3):
        apply_batch(tables, stream.batch())
        for sampler in samplers:
            assert sampler.refresh()
            sampler.sample_block(500)
    assert built == []


def test_small_segments_are_built_by_build_all_only(smoke_query, monkeypatch):
    """A draw's first touch never builds a small segment's alias table: it is
    served cold, and tables appear only when ``build_all`` runs (``warm()``,
    or a view promoting itself)."""
    from repro.sampling import alias

    building_all = []
    first_touch = []
    build_all = alias.SegmentTables.build_all
    build_segment = alias.SegmentTables._build_segment

    def spy_build_all(tables):
        building_all.append(tables)
        try:
            build_all(tables)
        finally:
            building_all.pop()

    def spy_build_segment(tables, slot):
        degree = int(tables.offsets[slot + 1] - tables.offsets[slot])
        if degree <= alias._SMALL_SEGMENT and not building_all:
            first_touch.append((slot, degree))
        build_segment(tables, slot)

    monkeypatch.setattr(alias.SegmentTables, "build_all", spy_build_all)
    monkeypatch.setattr(alias.SegmentTables, "_build_segment", spy_build_segment)
    # A copy starts with an empty snapshot memo: no other test's sampler has
    # built any of its tables.
    query = copy.copy(smoke_query)
    sampler = JoinSampler(query, weights="ew", seed=37)
    views = sampler._level_views()
    assert any(not view._all_built for view in views)
    sampler.sample_block(64)
    assert any(view._cold_draws for view in views)
    sampler.sample_block(20_000)  # far past every table's rows: all promoted
    assert all(view._all_built for view in views)
    sampler.warm().sample_block(500)
    assert first_touch == []


def test_a_relation_retains_its_column_arrays_and_little_else():
    """Columns are the only row storage: once built, a relation retains
    about its arrays' bytes, not one tuple (~120 B) per row beside them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        relation = Relation(
            "R", ["k", "x", "s"], [(i, i * 0.25, f"s{i % 997}") for i in range(200_000)]
        )
        for attribute in relation.attribute_names:  # the arrays, wherever they live
            relation.column_array(attribute)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.25 * relation.cache_nbytes()["columns"]


def _spy_membership_engine(monkeypatch):
    """``(join name, value tuples)`` of every call of the frontier engine
    (``contains_columns``, which the tuple form calls too) from here on."""
    from repro.joins.membership import JoinMembershipProber

    calls = []
    engine = JoinMembershipProber.contains_columns

    def spy(prober, fields):
        calls.append((prober.query.name, list(zip(*(field.tolist() for field in fields)))))
        return engine(prober, fields)

    monkeypatch.setattr(JoinMembershipProber, "contains_columns", spy)
    return calls


def test_a_union_snapshot_probes_each_value_once_per_join(monkeypatch):
    """A new ``OnlineUnionSampler`` and its first samples, one snapshot: no
    ``(join, value)`` reaches the membership engine twice (the memo holds
    the warm-up's answers), the warm-up and every refinement round make at
    most one engine call per join (the new values of every pivot that asks
    a join go in one block), and the rounds ask the memo about each record
    at most once per join that reads it (a round asks only about the
    records added since the last one; asking about all of them every round
    costs rounds x records)."""
    from repro.core import OnlineUnionSampler
    from repro.joins.membership import UnionMembershipIndex

    queries = build_uq2(scale_factor=SMOKE_SCALE, seed=SMOKE_SEED).queries
    calls = _spy_membership_engine(monkeypatch)
    sampler = OnlineUnionSampler(queries, seed=21, phi=60, walks_per_join=200)
    phases = [[name for name, _ in calls]]
    refine, recall = sampler._refine_parameters, UnionMembershipIndex.recall_many
    asks = []

    def spy_refine(old):
        start = len(calls)
        try:
            return refine(old)
        finally:
            phases.append([name for name, _ in calls[start:]])

    def spy_recall(index, name, values, fields=None):
        asks.append(len(values))
        return recall(index, name, values, fields)

    monkeypatch.setattr(sampler, "_refine_parameters", spy_refine)
    monkeypatch.setattr(UnionMembershipIndex, "recall_many", spy_recall)
    sampler.sample(1500)
    assert len(phases) >= 4, "fewer than three refinement rounds ran"
    assert phases[0] and any(phases[1:]), "nothing was probed"
    for names in phases:
        assert len(names) == len(set(names)), f"two engine calls for one join: {names}"
    asked = [(name, value) for name, values in calls for value in values]
    assert len(asked) == len(set(asked))
    # one ask per (pivot, other join) pair and record of the pivot
    assert 0 < sum(asks) <= sum(len(answers) for answers in sampler._inside.values())


def test_each_query_builds_its_probe_plan_once_per_snapshot(monkeypatch):
    """Every prober of a query shares its per-snapshot probe plan: it is
    built once, rebuilt once after a batch mutates one of its relations
    (keeping the levels the batch did not touch, by reference), and kept
    when only another query's relations change."""
    from repro.dynamic import TPCHRefreshStream, apply_batch
    from repro.joins import membership
    from repro.joins.conditions import JoinCondition, OutputAttribute
    from repro.joins.membership import JoinMembershipProber
    from repro.joins.query import JoinQuery
    from repro.tpch import generate_tpch

    tables = generate_tpch(0.001, seed=3)
    orders = JoinQuery(
        "orders",
        [tables[name] for name in ("nation", "customer", "orders", "lineitem")],
        [
            JoinCondition("nation", "nationkey", "customer", "nationkey"),
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ],
        [
            OutputAttribute("custkey", "customer", "custkey"),
            OutputAttribute("orderkey", "orders", "orderkey"),
            OutputAttribute("linenumber", "lineitem", "linenumber"),
        ],
    )
    parts = JoinQuery(
        "parts",
        [tables["partsupp"], tables["part"]],
        [JoinCondition("partsupp", "partkey", "part", "partkey")],
        [OutputAttribute("partkey", "part", "partkey"), OutputAttribute("size", "part", "p_size")],
    )
    builds = []
    build = membership._build_plan
    monkeypatch.setattr(
        membership, "_build_plan",
        lambda query, last=None: (builds.append(query.name), build(query, last))[1],
    )
    probers = [JoinMembershipProber(query) for query in (orders, orders, parts, parts)]
    blocks = {
        query.name: JoinSampler(query, seed=5).sample_block(200).values(query)
        for query in (orders, parts)
    }

    def probe_all():
        for prober in probers:
            values = blocks[prober.query.name]
            assert prober.contains_many(values).tolist() == [
                prober.contains(value) for value in values
            ]

    probe_all()
    probe_all()
    assert sorted(builds) == ["orders", "parts"]
    seeds = {level.node.relation: level.seed_field >= 0 for level in membership.probe_plan(orders).levels}
    assert seeds == {"nation": False, "customer": True, "orders": True, "lineitem": False}
    kept = membership.probe_plan(orders).levels
    apply_batch(tables, TPCHRefreshStream(tables, seed=5, orders_per_batch=8).batch())
    probe_all()
    assert sorted(builds) == ["orders", "orders", "parts"]
    levels = membership.probe_plan(orders).levels
    assert [new is old for new, old in zip(levels, kept)] == [True, True, False, False]


def test_an_unpushed_predicate_is_masked_once_per_snapshot(monkeypatch):
    """With ``push_down_predicates=False``, ``sample_block``, membership
    probes and ``execute_join`` of one snapshot evaluate each predicate
    once between them (the query's per-snapshot row mask); later draws
    evaluate it zero times; a mutation of its relation costs exactly one
    more evaluation, and a mutation of another relation none."""
    from repro.joins.conditions import JoinCondition, OutputAttribute
    from repro.joins.executor import execute_join
    from repro.joins.membership import JoinMembershipProber
    from repro.joins.query import JoinQuery
    from repro.relational.predicates import Comparison
    from repro.tpch import generate_tpch

    tables = generate_tpch(SMOKE_SCALE, seed=SMOKE_SEED)
    names = ("nation", "supplier", "partsupp", "part")
    query = JoinQuery(
        "unpushed",
        [tables[name] for name in names],
        [
            JoinCondition("nation", "nationkey", "supplier", "nationkey"),
            JoinCondition("supplier", "suppkey", "partsupp", "suppkey"),
            JoinCondition("partsupp", "partkey", "part", "partkey"),
        ],
        [
            OutputAttribute("suppkey", "supplier", "suppkey"),
            OutputAttribute("partkey", "part", "partkey"),
            OutputAttribute("size", "part", "p_size"),
        ],
        predicates={
            "supplier": Comparison("s_acctbal", ">=", 0.0),
            "part": Comparison("p_size", "<=", 30),
        },
        push_down_predicates=False,
    )
    masked = []
    mask = Comparison.mask
    monkeypatch.setattr(
        Comparison, "mask", lambda p, columns: (masked.append(p.attribute), mask(p, columns))[1]
    )
    sampler = JoinSampler(query, seed=61)
    prober = JoinMembershipProber(query)

    def snapshot():
        values = sampler.sample_block(300).values(query)
        assert prober.contains_many(values).all()
        assert set(values) <= set(execute_join(query))

    snapshot()
    assert sorted(masked) == ["p_size", "s_acctbal"]
    sampler.sample_block(3000)
    snapshot()
    assert sorted(masked) == ["p_size", "s_acctbal"]
    tables["part"].delete_rows([0, 1])
    snapshot()
    assert sorted(masked) == ["p_size", "p_size", "s_acctbal"]
    tables["partsupp"].delete_rows([0])
    snapshot()
    assert sorted(masked) == ["p_size", "p_size", "s_acctbal"]


def test_a_histogram_ew_union_runs_one_weight_pass_per_join_and_snapshot(monkeypatch):
    """``SetUnionSampler`` with ``HistogramUnionEstimator(join_size_method=
    "ew")`` (the CLI's ``sample --warmup histogram --weights ew``): the
    estimator reads each join's size from the snapshot's shared EW descent
    that the union's samplers draw from, so one snapshot runs one full EW
    pass per join, and the next snapshot patches them (no full pass)."""
    from repro.core import SetUnionSampler
    from repro.estimation import HistogramUnionEstimator
    from repro.sampling import weights

    queries = build_uq2(scale_factor=SMOKE_SCALE, seed=SMOKE_SEED).queries
    passes = []
    compute = weights.ExactWeightFunction._compute

    def spy(function, dirty):
        if dirty is None:
            passes.append(function.query.name)
        return compute(function, dirty)

    monkeypatch.setattr(weights.ExactWeightFunction, "_compute", spy)

    def union_sample():
        estimator = HistogramUnionEstimator(queries, join_size_method="ew")
        assert len(SetUnionSampler(queries, estimator, seed=3).sample(300)) == 300

    union_sample()
    assert sorted(passes) == sorted(query.name for query in queries)
    queries[0].relation("region").delete_rows([0])  # every join reads region
    union_sample()
    assert len(passes) == len(queries)
