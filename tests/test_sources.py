"""The block-source contract (repro.aqp.sources) and its two consumers.

``OnlineAggregator.step`` and ``run_shard`` both turn a backend's draws into
Horvitz–Thompson contributions through ``build_sources`` + ``draw_into``.
The references below are the hand-written per-backend recipes the sources
replaced (draw, drain, count attempts off the sampler's stats), so a source
that drifts from them — in stream, attempt accounting, or ingest order —
fails here before it reaches a golden.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aqp import AggregateAccumulator, AggregateSpec, OnlineAggregator
from repro.aqp.planner import BACKEND_WEIGHTS
from repro.aqp.sources import build_sources, split_evenly
from repro.joins.executor import join_result_set
from repro.parallel import ShardTask, run_shard
from repro.resilience import NO_FAULTS
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import WanderJoin
from repro.utils.rng import ensure_rng, spawn_rngs

from tests.conftest import make_chain_query
from tests.join_oracle import ingest_rows
from tests.test_parallel import make_chain, make_union, report_key

SPEC = AggregateSpec("sum", attribute="c")
BACKENDS = ("exact-weight", "olken", "wander-join", "online-union")


def state(accumulator):
    """Everything an accumulator stores, contribution order included."""
    return (
        accumulator.attempts,
        accumulator.accepted,
        {
            key: (data.weights.tolist(), data.values.tolist())
            for key, data in accumulator._groups.items()
        },
    )


def queries_for(backend):
    return tuple(make_union()) if backend == "online-union" else (make_chain(),)


def reference_ingest(accumulator, backend, queries, rng, count, max_attempts=1_000_000):
    """The pre-source recipe of each backend, written out by hand."""
    query = queries[0]
    if backend in BACKEND_WEIGHTS:
        sampler = JoinSampler(query, weights=BACKEND_WEIGHTS[backend], seed=rng)
        total_weight = sampler.weight_function.total_weight
        if total_weight <= 0:
            ingest_rows(accumulator, [], attempts=count, weight=1.0)
            return
        blocks = [sampler.sample_block(count, max_attempts=max_attempts)]
        blocks.extend(sampler.pop_buffered_blocks())
        block = SampleBlock.concat(blocks)
        accumulator.ingest_block(
            block.value_columns(query), attempts=sampler.stats.attempts, weight=total_weight
        )
    elif backend == "wander-join":
        block = WanderJoin(query, seed=rng).walk_block(count)
        accumulator.ingest_block(
            block.value_columns(query), attempts=block.attempts, weights=block.weights
        )
    else:
        # The cover rule, with the enumerated joins as the membership oracle:
        # a multinomial split of the attempts by total weight, each join's
        # share of walks, and a value kept only when no earlier join holds it.
        select, *streams = spawn_rngs(rng, len(queries) + 1)
        samplers = [JoinSampler(q, weights="ew", seed=s) for q, s in zip(queries, streams)]
        weights = np.array([s.weight_function.total_weight for s in samplers])
        shares = select.multinomial(count, weights / weights.sum())
        members = [join_result_set(q) for q in queries]
        kept = []
        for position, (sampler, share) in enumerate(zip(samplers, shares)):
            if not share:
                continue
            for value in sampler.attempt_block(int(share)).values(sampler.query):
                if not any(value in joined for joined in members[:position]):
                    kept.append(value)
        ingest_rows(accumulator, kept, attempts=count, weight=float(weights.sum()))


# ---------------------------------------------------- run_shard == the source
class TestShardAndSourceAgree:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("count", [0, 1, 150])
    def test_shard_accumulator_equals_reference_and_direct_source(self, backend, count):
        queries = queries_for(backend)
        seed = np.random.SeedSequence(41)
        task = ShardTask(0, queries, backend, count, seed, spec=SPEC, max_attempts=5000)
        result = run_shard(task, fault_plan=NO_FAULTS)

        schema = queries[0].output_schema
        reference = AggregateAccumulator(SPEC, schema)
        if count:
            reference_ingest(reference, backend, queries, ensure_rng(seed), count, 5000)
        assert state(result.accumulator) == state(reference)
        assert (result.attempts, result.accepted) == (reference.attempts, reference.accepted)

        direct = AggregateAccumulator(SPEC, schema)
        if count:
            (source,) = build_sources(queries, backend, ensure_rng(seed), max_attempts=5000)
            source.ingest(direct, [source.draw(count)])
        assert state(direct) == state(reference)

    @pytest.mark.parametrize("backend", ["exact-weight", "olken"])
    def test_empty_join_accounts_failed_attempts_without_walking(self, backend):
        query = make_chain_query("empty", r_rows=[(1, 99)], s_rows=[(10, 100)])
        task = ShardTask(0, (query,), backend, 40, np.random.SeedSequence(3), spec=SPEC)
        result = run_shard(task, fault_plan=NO_FAULTS)
        assert state(result.accumulator) == (40, 0, {})
        assert (result.attempts, result.accepted) == (40, 0)

        aggregator = OnlineAggregator(query, SPEC, method=backend, seed=3, parallelism=3)
        aggregator.step(40)
        assert state(aggregator.accumulator) == (40, 0, {})


# ------------------------------------------------------------------- fan-out
def hand_split_run(query, seed, steps, ci_method, interleave=False):
    """OnlineAggregator(method="olken", parallelism=3), written as a loop.

    ``interleave`` ingests shard by shard (main, surplus, main, surplus, ...)
    instead of all mains then all surpluses — the order that must NOT be used.
    """
    sampler_rng, ci_rng = spawn_rngs(ensure_rng(seed), 2)
    shards = JoinSampler(
        query, weights="eo", seed=sampler_rng, max_batch_size=1024
    ).split(3)
    accumulator = AggregateAccumulator(SPEC, query.output_schema)
    reports = []
    for size in steps:
        before = sum(shard.stats.attempts for shard in shards)
        mains = [
            shard.sample_block(quota)
            for shard, quota in zip(shards, split_evenly(size, len(shards)))
        ]
        surplus = [shard.pop_buffered_blocks() for shard in shards]
        if interleave:
            ordered = [b for main, rest in zip(mains, surplus) for b in [main, *rest]]
        else:
            ordered = mains + [b for rest in surplus for b in rest]
        accumulator.ingest_block(
            SampleBlock.concat(ordered).value_columns(query),
            attempts=sum(shard.stats.attempts for shard in shards) - before,
            weight=shards[0].weight_function.total_weight,
        )
        reports.append(
            accumulator.estimate(
                confidence=0.95, ci_method=ci_method, bootstrap_replicates=200, seed=ci_rng
            )
        )
    return accumulator, reports


class TestFanOut:
    STEPS = (96, 192, 384)

    @pytest.mark.parametrize(
        "method,parallelism",
        [("olken", 3), ("wander-join", 2), ("online-union", 2)],
    )
    def test_fixed_seed_and_parallelism_is_deterministic(self, method, parallelism):
        def run():
            queries = queries_for(method)
            aggregator = OnlineAggregator(
                list(queries), SPEC, method=method, seed=23, parallelism=parallelism
            )
            reports = [aggregator.step(size) for size in (30, 50)]
            return [report_key(r) for r in reports], state(aggregator.accumulator)

        assert run() == run()

    @pytest.mark.parametrize("ci_method", ["clt", "bootstrap"])
    def test_parallelism_three_equals_a_hand_written_split_loop(self, ci_method):
        aggregator = OnlineAggregator(
            make_chain(), SPEC, method="olken", seed=29, parallelism=3,
            ci_method=ci_method, batch_size=1024,
        )
        reports = [aggregator.step(size) for size in self.STEPS]
        accumulator, expected = hand_split_run(make_chain(), 29, self.STEPS, ci_method)
        assert state(aggregator.accumulator) == state(accumulator)
        assert [report_key(r) for r in reports] == [report_key(r) for r in expected]

    def test_bootstrap_bounds_depend_on_main_then_surplus_order(self):
        """The pin above has teeth: shard-by-shard ingestion keeps the point
        estimate (exact totals are order-free) but moves the bootstrap bounds."""
        _, in_order = hand_split_run(make_chain(), 29, self.STEPS, "bootstrap")
        _, interleaved = hand_split_run(
            make_chain(), 29, self.STEPS, "bootstrap", interleave=True
        )
        assert in_order[-1].overall.estimate == interleaved[-1].overall.estimate
        assert report_key(in_order[-1]) != report_key(interleaved[-1])


# --------------------------------------------------------------------- epoch
class TestEpochRestart:
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("method", ["exact-weight", "wander-join", "online-union"])
    def test_mutation_between_steps_restarts_through_refresh(self, method, parallelism):
        def run(mutate):
            queries = list(queries_for(method))
            aggregator = OnlineAggregator(
                queries, SPEC, method=method, seed=31, parallelism=parallelism
            )
            aggregator.step(40)
            if mutate:
                queries[0].relation("R").extend([(999, 0)])
            aggregator.step(40)
            return aggregator

        control, restarted = run(mutate=False), run(mutate=True)
        assert control.epochs_restarted == 0
        assert restarted.epochs_restarted == 1
        # the first step's contributions are gone, not topped up
        assert restarted.accumulator.attempts < control.accumulator.attempts
