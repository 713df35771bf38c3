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
    500 drawn values x every other join, floor 3x (measured: ~9x here, where
    the relations are tiny and the kernel's fixed cost shows; 20-35x at
    SF 0.05, see docs/performance.md)."""
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
