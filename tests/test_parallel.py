"""Tests for the parallel sampling service (repro.parallel).

The load-bearing invariant: a parallel run is a *pure function of the shard
plan* — same queries, same seed, same shard count ⇒ bit-identical merged
answers for ANY worker count and for thread vs process execution, because the
coordinator merges fixed-seed shard results in shard order through the
exactly-rounded accumulator merge law.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.uniformity import chi_square_uniformity
from repro.aqp import AggregateSpec
from repro.joins.executor import join_result_set
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery
from repro.parallel import (
    DEFAULT_SHARDS,
    ParallelSamplerPool,
    ShardTask,
    parallel_aggregate,
    parallel_sample,
    run_shard,
    sequential_reference,
)
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.resilience import NO_FAULTS


def make_chain(name="chain", rows_r=None, rows_s=None) -> JoinQuery:
    rows_r = rows_r if rows_r is not None else [(i, i % 4) for i in range(24)]
    rows_s = rows_s if rows_s is not None else [(b, 10 * b + j) for b in range(4) for j in range(3)]
    return JoinQuery(
        name,
        [Relation("R", ["a", "b"], rows_r), Relation("S", ["b", "c"], rows_s)],
        [JoinCondition("R", "b", "S", "b")],
        [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
    )


def make_union(count=2):
    return [
        make_chain(f"J{i}", rows_r=[(10 * i + k, k % 3) for k in range(12)],
                   rows_s=[(b, 100 + b) for b in range(3)])
        for i in range(count)
    ]


SPEC_SUM = AggregateSpec("sum", attribute="c")
SPEC_COUNT = AggregateSpec("count")


def report_key(report):
    e = report.overall
    return (e.estimate, e.ci_low, e.ci_high, report.attempts, report.accepted)


def accumulator_state(accumulator):
    """Everything an accumulator's estimates read, as comparable bytes."""
    return (
        accumulator.attempts,
        accumulator.accepted,
        [
            (key, data.count, data.first.total, data.second.total,
             data.weights.tobytes(), data.values.tobytes())
            for key, data in accumulator._groups.items()
        ],
    )


class TestShardPlanning:
    def test_plan_is_independent_of_workers(self):
        query = make_chain()
        plans = [
            ParallelSamplerPool(workers=w).plan_tasks(query, 100, seed=5)
            for w in (1, 4)
        ]
        for a, b in zip(*plans):
            assert a.count == b.count
            assert a.seed.entropy == b.seed.entropy
            assert a.seed.spawn_key == b.seed.spawn_key

    def test_count_split_is_even_and_exact(self):
        tasks = ParallelSamplerPool().plan_tasks(make_chain(), 13, seed=0, shards=5)
        assert [t.count for t in tasks] == [3, 3, 3, 2, 2]

    def test_default_shard_count_is_fixed(self):
        tasks = ParallelSamplerPool(workers=3).plan_tasks(make_chain(), 40, seed=0)
        assert len(tasks) == DEFAULT_SHARDS

    def test_zero_count_job(self):
        report = parallel_sample(make_chain(), 0, seed=1, workers=2, execution="thread")
        assert report.values == []
        assert report.attempts == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ParallelSamplerPool(workers=0)
        with pytest.raises(ValueError):
            ParallelSamplerPool(execution="fibers")
        with pytest.raises(ValueError):
            ParallelSamplerPool().plan_tasks(make_chain(), -1, seed=0)
        with pytest.raises(ValueError):
            ParallelSamplerPool().plan_tasks(make_chain(), 10, seed=0, shards=0)

    def test_wander_join_rejected_for_plain_sampling(self):
        with pytest.raises(ValueError, match="wander-join"):
            ParallelSamplerPool().plan_tasks(make_chain(), 10, seed=0, method="wander-join")

    def test_unsupported_backend_rejected(self):
        with pytest.raises(ValueError, match="cannot sample"):
            ParallelSamplerPool().plan_tasks(make_union(), 10, seed=0, method="olken")

    def test_union_count_is_planned(self):
        """COUNT(*) over a union is an ordinary attempt-level HT aggregate."""
        tasks = ParallelSamplerPool().plan_tasks(make_union(), 10, seed=0, spec=SPEC_COUNT)
        assert {task.backend for task in tasks} == {"online-union"}


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_sample_identical_across_worker_counts(self, workers):
        reference = parallel_sample(make_chain(), 40, seed=17, workers=1, execution="thread")
        run = parallel_sample(make_chain(), 40, seed=17, workers=workers, execution="thread")
        assert run.values == reference.values
        assert run.sources == reference.sources
        assert run.attempts == reference.attempts

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_aggregate_identical_across_worker_counts(self, workers):
        reference = parallel_aggregate(
            make_chain(), SPEC_SUM, 60, seed=23, workers=1, execution="thread"
        )
        run = parallel_aggregate(
            make_chain(), SPEC_SUM, 60, seed=23, workers=workers, execution="thread"
        )
        assert report_key(run) == report_key(reference)

    def test_matches_sequential_reference(self):
        pool = ParallelSamplerPool(workers=3, execution="thread")
        tasks = pool.plan_tasks(make_chain(), 30, seed=9, spec=SPEC_SUM, shards=4)
        merged = pool.aggregate(make_chain(), SPEC_SUM, 30, seed=9, shards=4).accumulator
        reference = None
        for result in sequential_reference(tasks):
            if reference is None:
                reference = result.accumulator
            else:
                reference.merge(result.accumulator)
        assert report_key(merged.estimate()) == report_key(reference.estimate())

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("spec", [SPEC_SUM, SPEC_COUNT], ids=["sum", "count"])
    def test_union_aggregate_identical_across_worker_counts(self, spec, workers):
        """Union cover shards merge like join shards: the worker count (and,
        under the fault harness, every retry) leaves the answer unchanged."""
        reference = parallel_aggregate(
            make_union(3), spec, 90, seed=29, workers=1, execution="thread"
        )
        run = parallel_aggregate(
            make_union(3), spec, 90, seed=29, workers=workers, execution="thread"
        )
        assert report_key(run) == report_key(reference)

    def test_union_sampling_identical_across_worker_counts(self):
        queries = make_union()
        reference = parallel_sample(queries, 20, seed=31, workers=1, execution="thread")
        run = parallel_sample(queries, 20, seed=31, workers=5, execution="thread")
        assert run.backend == "online-union"
        assert run.values == reference.values

    def test_explicit_olken_backend(self):
        reference = parallel_sample(
            make_chain(), 25, seed=3, workers=1, method="olken", execution="thread"
        )
        run = parallel_sample(
            make_chain(), 25, seed=3, workers=4, method="olken", execution="thread"
        )
        assert run.backend == "olken"
        assert run.values == reference.values


class TestUnionExactness:
    def test_pooled_union_samples_are_uniform_over_the_exact_union(self, uq2_small):
        """Pooled union samples against the enumerated union of UQ2: every
        value a member, each tagged with its cover owner, and chi-square
        compatible with uniform (60 jobs of 8 shards, 400 values each)."""
        queries = list(uq2_small.queries)
        results = {query.name: join_result_set(query) for query in queries}
        population = set().union(*results.values())
        values, sources = [], []
        for job in range(60):
            run = parallel_sample(queries, 400, seed=job, workers=2, execution="thread")
            values.extend(run.values)
            sources.extend(run.sources)
        assert len(values) == 60 * 400
        assert set(values) <= population
        for value, source in set(zip(values, sources)):
            assert source == next(q.name for q in queries if value in results[q.name])
        result = chi_square_uniformity(values, sorted(population))
        assert result.p_value >= 0.01, result


class TestProcessBackend:
    """Spawn-based workers; kept small (interpreter start-up per worker)."""

    def test_process_smoke_matches_thread_run(self):
        query = make_chain()
        thread_run = ParallelSamplerPool(workers=1, execution="thread").aggregate(
            query, SPEC_SUM, 24, seed=41, shards=2
        )
        process_run = ParallelSamplerPool(
            workers=2, execution="process", job_timeout=240
        ).aggregate(query, SPEC_SUM, 24, seed=41, shards=2)
        assert report_key(process_run.accumulator.estimate()) == report_key(
            thread_run.accumulator.estimate()
        )

    def test_union_process_run_matches_thread_run(self):
        """Union cover shards pickle, run in spawned workers, and merge to
        the thread rung's answer bit for bit."""
        queries = make_union(3)
        thread_run = ParallelSamplerPool(workers=1, execution="thread").aggregate(
            queries, SPEC_COUNT, 48, seed=43, shards=2
        )
        process_run = ParallelSamplerPool(
            workers=2, execution="process", job_timeout=240
        ).aggregate(queries, SPEC_COUNT, 48, seed=43, shards=2)
        assert process_run.backend == "online-union"
        assert report_key(process_run.accumulator.estimate()) == report_key(
            thread_run.accumulator.estimate()
        )


    def test_predicate_where_runs_on_the_process_rung(self):
        """A ``where`` given as a Predicate pickles: its spec crosses to the
        spawned workers without a degradation to threads, and the merged
        accumulator is the thread rung's, bit for bit."""
        query = make_chain()
        spec = AggregateSpec("sum", attribute="c", where=Comparison("c", ">=", 20))
        thread_run = ParallelSamplerPool(workers=1, execution="thread").aggregate(
            query, spec, 24, seed=47, shards=2
        )
        process_run = ParallelSamplerPool(
            workers=2, execution="process", job_timeout=240
        ).aggregate(query, spec, 24, seed=47, shards=2)
        assert process_run.execution == "process"
        assert process_run.degradations == 0
        assert accumulator_state(process_run.accumulator) == accumulator_state(
            thread_run.accumulator
        )
        assert report_key(process_run.accumulator.estimate()) == report_key(
            thread_run.accumulator.estimate()
        )


class TestEpochCancellation:
    def test_mid_flight_mutation_discards_and_restarts(self, monkeypatch):
        query = make_chain()
        pool = ParallelSamplerPool(workers=2, execution="thread")
        relation = query.relation("R")
        original_run = ParallelSamplerPool.run
        mutated = {"done": False}

        def run_and_mutate(self, tasks):
            results = original_run(self, tasks)
            if not mutated["done"]:
                mutated["done"] = True
                relation.extend([(99, 0)])  # epoch bump lands "mid-flight"
            return results

        monkeypatch.setattr(ParallelSamplerPool, "run", run_and_mutate)
        report = pool.aggregate(query, SPEC_SUM, 20, seed=7, shards=2)
        assert pool.epochs_restarted == 1
        assert report.epochs_restarted == 1
        # The merged answer reflects the post-mutation snapshot only: it is
        # identical to a fresh run against the mutated database.
        fresh = ParallelSamplerPool(workers=2, execution="thread").aggregate(
            query, SPEC_SUM, 20, seed=7, shards=2
        )
        assert report_key(report.accumulator.estimate()) == report_key(
            fresh.accumulator.estimate()
        )

    def test_report_counts_the_jobs_own_restarts(self, monkeypatch):
        query = make_chain()
        pool = ParallelSamplerPool(workers=2, execution="thread")
        relation = query.relation("R")
        original_run = ParallelSamplerPool.run
        mutated = {"done": False}

        def run_and_mutate(self, tasks):
            results = original_run(self, tasks)
            if not mutated["done"]:
                mutated["done"] = True
                relation.extend([(99, 0)])
            return results

        monkeypatch.setattr(ParallelSamplerPool, "run", run_and_mutate)
        restarted = pool.sample(query, 40, seed=1, shards=2)
        again = pool.sample(query, 40, seed=1, shards=2)
        assert restarted.epochs_restarted == 1
        assert again.epochs_restarted == 0
        assert again.values == restarted.values
        assert pool.epochs_restarted == 1

    def test_endless_mutation_gives_up(self, monkeypatch):
        query = make_chain()
        pool = ParallelSamplerPool(workers=1, execution="thread", max_epoch_restarts=2)
        relation = query.relation("R")
        original_run = ParallelSamplerPool.run

        def always_mutate(self, tasks):
            results = original_run(self, tasks)
            relation.extend([(123, 1)])
            return results

        monkeypatch.setattr(ParallelSamplerPool, "run", always_mutate)
        with pytest.raises(RuntimeError, match="restarted"):
            pool.aggregate(query, SPEC_SUM, 10, seed=7, shards=2)


class TestShardWorker:
    def test_run_shard_zero_count_aggregate(self):
        task = ParallelSamplerPool().plan_tasks(
            make_chain(), 0, seed=0, spec=SPEC_SUM, shards=1
        )[0]
        # Unit test of the worker entry point: no supervisor above it to
        # retry, so opt out of the REPRO_FAULT_RATE chaos harness explicitly.
        result = run_shard(task, fault_plan=NO_FAULTS)
        assert result.accumulator is not None
        assert result.accumulator.attempts == 0

    def test_empty_join_aggregate_accounts_attempts(self):
        empty = JoinQuery(
            "empty",
            [Relation("R", ["a", "b"], [(1, 1)]), Relation("S", ["b", "c"], [(2, 5)])],
            [JoinCondition("R", "b", "S", "b")],
            [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
        )
        report = parallel_aggregate(
            empty, AggregateSpec("count"), 12, seed=0, workers=2,
            execution="thread", shards=3, method="exact-weight",
        )
        assert report.overall.estimate == 0.0
        assert report.attempts == 12
        # The run report's fleet totals must agree with the accumulator.
        run = ParallelSamplerPool(workers=2, execution="thread").aggregate(
            empty, AggregateSpec("count"), 12, seed=0, shards=3,
            method="exact-weight",
        )
        assert run.attempts == run.accumulator.attempts == 12

    def test_shard_seeds_are_pairwise_independent(self):
        tasks = ParallelSamplerPool().plan_tasks(make_chain(), 64, seed=5, shards=4)
        streams = [np.random.default_rng(t.seed).integers(0, 2**60, size=8) for t in tasks]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert list(streams[i]) != list(streams[j])

    def test_invalid_shard_task(self):
        seq = np.random.SeedSequence(0)
        with pytest.raises(ValueError):
            ShardTask(0, (make_chain(),), "warp-drive", 1, seq)
        with pytest.raises(ValueError):
            ShardTask(0, (make_chain(),), "exact-weight", -1, seq)
        with pytest.raises(ValueError, match="aggregate-only"):
            ShardTask(0, (make_chain(),), "wander-join", 1, seq, spec=None)


class TestOnlineAggregatorParallelism:
    """OnlineAggregator(parallelism=N): per-step fan-out over sampler shards."""

    def test_join_backend_deterministic_for_fixed_parallelism(self):
        from repro.aqp import OnlineAggregator

        query = make_chain()
        runs = [
            OnlineAggregator(
                query, SPEC_SUM, method="exact-weight", seed=19, parallelism=3
            ).until(0.2)
            for _ in range(2)
        ]
        assert report_key(runs[0]) == report_key(runs[1])

    def test_wander_backend_parallel_step(self):
        from repro.aqp import OnlineAggregator

        aggregator = OnlineAggregator(
            make_chain(), SPEC_SUM, method="wander-join", seed=19, parallelism=2
        )
        report = aggregator.step(100)
        assert report.attempts == 100

    def test_union_backend_parallel_step(self):
        from repro.aqp import OnlineAggregator

        aggregator = OnlineAggregator(
            make_union(), SPEC_SUM, method="online-union", seed=19, parallelism=2
        )
        report = aggregator.step(30)
        # a union step is 30 attempts, split over the joins and the shards
        assert report.attempts == 30
        assert 0 < report.accepted <= 30

    def test_union_epoch_restart_resets_fleet(self):
        from repro.aqp import OnlineAggregator

        queries = make_union()
        aggregator = OnlineAggregator(
            queries, SPEC_SUM, method="online-union", seed=19, parallelism=2
        )
        aggregator.step(20)
        queries[0].relation("R").extend([(999, 0)])
        aggregator.step(20)
        assert aggregator.epochs_restarted == 1

    def test_invalid_parallelism_rejected(self):
        from repro.aqp import OnlineAggregator

        with pytest.raises(ValueError, match="parallelism"):
            OnlineAggregator(make_chain(), SPEC_SUM, seed=1, parallelism=0)


class TestPoolLifecycle:
    """Regression: the pool owns its spawned resources and reaps them.

    The old behaviour built a fresh ThreadPoolExecutor inside every run and
    leaked it to GC — harmless for one-shot CLI jobs, a thread leak under a
    long-lived server.  The pool now keeps ONE executor, reuses it across
    runs, and close() / the context manager drains it deterministically.
    """

    @staticmethod
    def _pool_threads():
        import threading

        return [t for t in threading.enumerate()
                if t.name.startswith("repro-pool") and t.is_alive()]

    def test_executor_reused_across_runs(self):
        query = make_chain()
        pool = ParallelSamplerPool(workers=2, execution="thread")
        try:
            pool.sample(query, 32, seed=5)
            first = pool._thread_executor
            assert first is not None
            pool.sample(query, 32, seed=6)
            assert pool._thread_executor is first
        finally:
            pool.close()

    def test_close_reaps_spawned_threads_and_is_idempotent(self):
        query = make_chain()
        pool = ParallelSamplerPool(workers=2, execution="thread")
        pool.sample(query, 32, seed=5)
        assert self._pool_threads(), "expected live pool worker threads"
        pool.close()
        pool.close()  # idempotent
        assert pool.closed
        assert not self._pool_threads(), "close() must reap every worker thread"

    def test_closed_pool_rejects_new_jobs(self):
        query = make_chain()
        pool = ParallelSamplerPool(workers=2, execution="thread")
        tasks = pool.plan_tasks(query, 16, seed=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(tasks)
        with pytest.raises(RuntimeError, match="closed"):
            pool.sample(query, 16, seed=1)

    def test_context_manager_closes(self):
        query = make_chain()
        with ParallelSamplerPool(workers=2, execution="thread") as pool:
            report = pool.sample(query, 24, seed=7)
            assert len(report.values) == 24
        assert pool.closed
        assert not self._pool_threads()

    def test_answers_unchanged_by_executor_reuse(self):
        query = make_chain()
        with ParallelSamplerPool(workers=2, execution="thread") as pool:
            first = pool.sample(query, 40, seed=9)
            second = pool.sample(query, 40, seed=9)
        assert first.values == second.values
        one_shot = parallel_sample(query, 40, workers=2, execution="thread", seed=9)
        assert one_shot.values == first.values
