"""Performance smoke gate for the block engines.

Tiny-scale throughput floors and count contracts wired into tier-1: the block
pipeline must beat boxing the same blocks, batched membership probes must
beat asking one value at a time, and the counted work (key lookups, index
builds, masks, weight passes) must not grow, so a regression that silently
disables a vectorized engine fails the test suite rather than only the
(optional) benchmark run.  Thresholds are deliberately loose — end-to-end and
per-layer timings live in the measurement spine (``benchmarks/spine``) — to
keep the test robust on noisy CI machines.
"""

import copy
import gc
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from repro.joins import membership
from repro.joins.executor import execute_join
from repro.joins.membership import UnionMembershipIndex
from repro.relational.relation import Relation
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler, draw_and_drain
from repro.tpch.generator import generate_tpch
from repro.tpch.workloads import build_uq2

from tests.join_oracle import ingest_rows
from tests.tpch_oracle import generate_tpch_rows

SMOKE_SCALE = 0.0005
SMOKE_SEED = 7


@pytest.fixture(scope="module")
def smoke_query():
    return build_uq2(scale_factor=SMOKE_SCALE, seed=SMOKE_SEED).queries[0]


@pytest.mark.parametrize("weights", ["ew", "eo"])
def test_batch_and_scalar_agree_on_acceptance(smoke_query, weights):
    """Cross-check riding along with the smoke gate: the acceptance rate is
    the enumerated join's size over the total weight (EW never rejects)."""
    sampler = JoinSampler(smoke_query, weights=weights, seed=17)
    sampler.sample_many(2000)
    expected = len(execute_join(smoke_query)) / sampler.size_bound
    assert sampler.stats.acceptance_rate == pytest.approx(expected, abs=0.05)
    if weights == "ew":
        assert sampler.stats.acceptance_rate == expected == 1.0


def test_block_pipeline_at_least_boxed_throughput(smoke_query):
    """The zero-object aggregate pipeline must not regress below boxing:
    sample_block -> ingest_block vs boxed draws (to_draws) transposed back
    into columns -> ingest_block, same draws, same estimator state (the gate
    is deliberately loose for noisy CI machines)."""
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
        ingest_rows(
            accumulator,
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
    engine must stay well ahead of asking it once per value (``contains``, a
    block of one): 500 drawn values x every other join, floor 3x."""
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


@pytest.mark.parametrize("workload", ["uq1_small", "uq2_small", "uq3_small"])
def test_the_row_budget_changes_no_probe_work(workload, request):
    """Count contract: a probe's key lookups are the same under a row budget
    of 64 as under the default — a level too large for the budget is
    expanded in windows, and no level above it runs again — and so are its
    answers (the drawn blocks of ``test_block_is_split_by_the_row_budget``)."""
    queries = request.getfixturevalue(workload).queries
    values = JoinSampler(queries[0], seed=5).sample_block(300).values(queries[0])
    values += [tuple("absent" for _ in values[0])]
    for query in queries:
        whole = membership.JoinMembershipProber(query)
        windowed = membership.JoinMembershipProber(query)
        answers = whole.contains_many(values).tolist()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(membership, "ROW_BUDGET", 64)
            assert windowed.contains_many(values).tolist() == answers
        assert windowed.lookup_count == whole.lookup_count > len(values)


def test_column_generator_beats_the_row_oracle():
    """TPC-H generation replays the row-at-a-time definition a column at a
    time: at SF 0.01 it must stay 5x ahead of that definition (best of 3;
    measured ~18x here, and ~30x at SF 0.05 — docs/performance.md)."""

    def best_of(run, repeats=3):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            run(0.01, seed=2023)
            times.append(time.perf_counter() - started)
        return min(times)

    columns_s, rows_s = best_of(generate_tpch), best_of(generate_tpch_rows)
    assert columns_s * 5 <= rows_s, (
        f"column generation ({columns_s * 1e3:.0f} ms) is not 5x ahead of the row "
        f"oracle ({rows_s * 1e3:.0f} ms) — the replay regressed"
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


def _spy_hop_builds(monkeypatch):
    """``(parent, child)`` of every hop table ``JoinQuery.edge_hops`` builds
    from here on, a snapshot patch that rebuilds one included."""
    from repro.joins.query import JoinQuery

    built = []
    derived = JoinQuery.derived

    def spy(query, key, build, patch=None):
        if not (isinstance(key, tuple) and key[0] == "edge_hops"):
            return derived(query, key, build, patch)

        def counted_build():
            built.append(key[1:3])
            return build()

        def counted_patch(last, changed):
            hops = patch(last, changed)
            if hops is not last:
                built.append(key[1:3])
            return hops

        return derived(query, key, counted_build, counted_patch)

    monkeypatch.setattr(JoinQuery, "derived", spy)
    return built


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


def test_one_hop_table_per_edge_and_snapshot(smoke_query, monkeypatch):
    """Two walkers over one snapshot build each edge's hop table once, on
    their first walk, and later walks build none."""
    from repro.sampling.wander_join import WanderJoin

    query = copy.copy(smoke_query)  # an empty snapshot memo
    built = _spy_hop_builds(monkeypatch)
    first, second = WanderJoin(query, seed=57), WanderJoin(query, seed=59)
    first.walk_block(300)
    assert sorted(built) == sorted(_edge_of_csr(query).values())
    built.clear()
    first.walk_block(3000)
    second.walk_batch_with_values(300)
    assert built == []


def test_a_refresh_batch_rebuilds_only_the_edges_it_touches(monkeypatch):
    """An RF batch inserts into and deletes from ``orders``/``lineitem``
    only: the next snapshot rebuilds the slot maps and hop tables of the two
    edges incident to them, once each, and keeps ``nation -> customer``'s by
    reference."""
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
    kept_hops = query.edge_hops("nation", nation_edge)
    apply_batch(tables, TPCHRefreshStream(tables, seed=5, orders_per_batch=8).batch())
    calls = _spy_slots_for(monkeypatch)
    built = _spy_hop_builds(monkeypatch)
    use_every_consumer()
    edges = _edge_of_csr(query)
    touched = [("customer", "orders"), ("orders", "lineitem")]
    assert sorted(edges[id(csr)] for csr in calls) == touched
    assert sorted(built) == touched
    assert query.edge_slots("nation", nation_edge) is kept
    assert query.edge_hops("nation", nation_edge) is kept_hops


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


def test_a_refresh_batch_sums_no_leaf_and_gathers_no_constant_level(monkeypatch):
    """An RF batch on the order chain costs O(Δ + keys) where the weights
    are constant: EW sums the ``orders -> lineitem`` leaf edge from its CSR
    degrees (no ``segment_sums``), and neither EW's ``lineitem`` level nor
    any EO level gathers its row weights (no ``weights_for``) — their
    tables come from the CSR offsets."""
    from repro.dynamic import apply_batch, build_order_stream_scenario
    from repro.relational.index import SortedIndex
    from repro.sampling.weights import ExactWeightFunction, ExtendedOlkenWeightFunction

    tables, query, stream = build_order_stream_scenario(0.001, seed=3, orders_per_batch=16)
    samplers = [JoinSampler(query, weights=w, seed=61) for w in ("ew", "eo")]
    for sampler in samplers:
        sampler.sample_block(500)
    summed, gathered = [], []
    segment_sums = SortedIndex.segment_sums

    def spy_sums(index, values):
        summed.append(index)
        return segment_sums(index, values)

    monkeypatch.setattr(SortedIndex, "segment_sums", spy_sums)
    for owner in (ExactWeightFunction, ExtendedOlkenWeightFunction):
        weights_for = owner.weights_for

        def spy_gather(weights, node, positions, _original=weights_for):
            gathered.append((weights.name, node.relation))
            return _original(weights, node, positions)

        monkeypatch.setattr(owner, "weights_for", spy_gather)
    for _ in range(3):
        apply_batch(tables, stream.batch())
        for sampler in samplers:
            assert sampler.refresh()
            sampler.sample_block(500)
    leaf = tables["lineitem"].index_on("orderkey")
    assert summed and all(index is not leaf for index in summed)
    assert set(gathered) == {("ew", "orders")}


def test_a_refresh_batch_reduces_and_gathers_o_k_entries_on_customer_orders(monkeypatch):
    """An RF batch of ``k`` order operations costs O(k) sums and gathers on
    ``customer -> orders``, not O(|orders|).  It moves at most ``3k`` orders
    positions' keys (a deleted row's hole, the tail row swapped into it, an
    appended row), so the EW refresh sums at most ``3k`` custkey slots of at
    most ``M`` orders each (``M`` the largest count of orders a customer
    holds), the level tables reduce the same slots, and a factor gather
    reads at most ``3k`` rows (each custkey joins one customer; each
    orderkey one order)."""
    from repro.dynamic import apply_batch, build_order_stream_scenario
    from repro.relational.index import SortedIndex
    from repro.sampling import alias, weights

    k = 8
    tables, query, stream = build_order_stream_scenario(0.005, seed=3, orders_per_batch=k)
    sampler = JoinSampler(query, weights="ew", seed=61)
    sampler.sample_block(500)
    summed, reduced, gathered = [], [], []
    segment_sums = SortedIndex.segment_sums
    reduce_segments = alias._reduce_segments
    factor = weights._factor

    def spy_sums(index, values):
        summed.append(index.total_rows)
        return segment_sums(index, values)

    def spy_reduce(values, starts):
        reduced.append(values.size)
        return reduce_segments(values, starts)

    def spy_factor(key_sums, slots):
        gathered.append(len(slots))
        return factor(key_sums, slots)

    monkeypatch.setattr(SortedIndex, "segment_sums", spy_sums)
    monkeypatch.setattr(alias, "_reduce_segments", spy_reduce)
    monkeypatch.setattr(weights, "_factor", spy_factor)
    orders = tables["orders"]
    for _ in range(3):
        apply_batch(tables, stream.batch())
        assert sampler.refresh()
        sampler.sample_block(500)
        most = orders.statistics_on("custkey").max_degree
        assert summed and max(summed) <= 3 * k * most < len(orders) // 4
        assert reduced and max(reduced) <= 3 * k * most
        assert gathered and max(gathered) <= 3 * k
        summed.clear(), reduced.clear(), gathered.clear()


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
        Comparison, "mask",
        lambda p, columns, rows: (masked.append(p.attribute), mask(p, columns, rows))[1],
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


def _order_chain(scale: float = 0.001):
    """customer -> orders -> lineitem over fresh TPC-H tables."""
    from repro.joins.conditions import JoinCondition, OutputAttribute
    from repro.joins.query import JoinQuery
    from repro.tpch import generate_tpch

    tables = generate_tpch(scale, seed=3)
    query = JoinQuery(
        "order_chain",
        [tables[name] for name in ("customer", "orders", "lineitem")],
        [
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ],
        [
            OutputAttribute("custkey", "customer", "custkey"),
            OutputAttribute("mktsegment", "customer", "mktsegment"),
            OutputAttribute("totalprice", "orders", "totalprice"),
            OutputAttribute("linenumber", "lineitem", "linenumber"),
            OutputAttribute("orderpriority", "orders", "orderpriority"),
        ],
    )
    return tables, query


def test_a_grouped_answer_codes_its_column_once(monkeypatch):
    """GROUP BY a string column groups sampled blocks by the column's
    per-snapshot codes: one base-column ``np.unique`` per (query, attribute)
    on first use, none per block on strings; a mutation of another relation
    keeps the codes by reference, and one of the column's own relation (an
    update, an RF1/RF2 batch) patches them without sorting the column again."""
    from repro.aqp import AggregateAccumulator, AggregateSpec, OnlineAggregator
    from repro.dynamic import TPCHRefreshStream, apply_batch
    from repro.sampling.blocks import column_codes

    tables, query = _order_chain()
    stream = TPCHRefreshStream(tables, seed=5, orders_per_batch=8)
    uniques = []
    unique = np.unique

    def spy(array, *args, **kwargs):
        uniques.append((np.asarray(array).dtype.kind, len(array)))
        return unique(array, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    ingested = []
    ingest = AggregateAccumulator.ingest_sample_block
    monkeypatch.setattr(
        AggregateAccumulator, "ingest_sample_block",
        lambda self, block, q: (ingested.append(len(block)), ingest(self, block, q))[1],
    )
    by_segment = AggregateSpec("sum", attribute="totalprice", group_by="mktsegment")

    def answer(seed: int, spec: AggregateSpec = by_segment) -> None:
        aggregator = OnlineAggregator(query, spec, method="exact-weight", seed=seed)
        for _ in range(5):
            aggregator.step(256)

    def string_uniques():
        return [size for kind, size in uniques if kind == "U"]

    answer(1)
    answer(2)
    assert len(ingested) >= 10
    assert string_uniques() == [len(tables["customer"])]
    codes = column_codes(query, "customer", "mktsegment")
    apply_batch(tables, stream.batch())
    answer(3)
    assert string_uniques() == [len(tables["customer"])]
    assert column_codes(query, "customer", "mktsegment") is codes
    tables["customer"].update_rows([0], {"mktsegment": "MACHINERY"})
    answer(4)
    assert string_uniques() == [len(tables["customer"])]
    assert column_codes(query, "customer", "mktsegment") is not codes

    by_priority = AggregateSpec("count", group_by="orderpriority")
    answer(5, by_priority)
    sorted_once = [len(tables["orders"])]
    assert string_uniques()[1:] == sorted_once
    for seed in range(6, 9):
        apply_batch(tables, stream.batch())  # RF1/RF2 churn orders
        answer(seed, by_priority)
    assert string_uniques()[1:] == sorted_once
    assert len(tables["orders"]) != sorted_once[0]


def test_a_sampled_block_gathers_only_the_columns_the_aggregate_reads(monkeypatch):
    """A SUM gathers its one output column per sampled block, COUNT(*)
    none — also under a predicate naming no attribute — and nothing gathers
    every column (``value_columns``)."""
    from repro.aqp import AggregateAccumulator, AggregateSpec, OnlineAggregator
    from repro.relational.predicates import TruePredicate

    _, query = _order_chain()
    blocks = []  # per ingested block, the output positions it gathered
    gather = SampleBlock.value_column
    monkeypatch.setattr(
        SampleBlock, "value_column",
        lambda block, q, index: (blocks[-1].append(index), gather(block, q, index))[1],
    )
    monkeypatch.setattr(SampleBlock, "value_columns", None)  # any call fails
    ingest = AggregateAccumulator.ingest_sample_block
    monkeypatch.setattr(
        AggregateAccumulator, "ingest_sample_block",
        lambda self, block, q: (blocks.append([]), ingest(self, block, q))[1],
    )
    for spec, read in ((AggregateSpec("sum", attribute="totalprice"), [2]),
                       (AggregateSpec("count"), []),
                       (AggregateSpec("count", where=TruePredicate()), [])):
        for method in ("exact-weight", "wander-join"):
            blocks.clear()
            aggregator = OnlineAggregator(query, spec, method=method, seed=5)
            for _ in range(5):
                aggregator.step(256)
            assert aggregator.accumulator.accepted > 0
            assert len(blocks) >= 5
            assert blocks == [read] * len(blocks)
