"""Tests for the parallel aggregation service (repro.parallel) and the
parallel union sample of ``repro sample --workers``.

The pool's load-bearing invariant: a parallel aggregate is a *pure function
of the shard plan* — same queries, same seed, same shard count ⇒
bit-identical merged answers for ANY worker count and for thread vs process
execution, because the coordinator merges fixed-seed shard results in shard
order through the exactly-rounded accumulator merge law.  A parallel union
sample runs the served chunk loop instead: a pure function of the seed and
the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.uniformity import chi_square_uniformity
from repro.aqp import AggregateSpec
from repro.aqp.sources import CoverDraw
from repro.cli import main, union_sample
from repro.joins.executor import join_result_set
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery
from repro.parallel import (
    DEFAULT_SHARDS,
    ParallelSamplerPool,
    ShardTask,
    parallel_aggregate,
    run_shard,
    sequential_reference,
)
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.resilience import NO_FAULTS, JobDeadlineExceeded
from repro.server import SamplingService


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
            ParallelSamplerPool(workers=w).plan_tasks(query, 100, spec=SPEC_SUM, seed=5)
            for w in (1, 4)
        ]
        for a, b in zip(*plans):
            assert a.count == b.count
            assert a.seed.entropy == b.seed.entropy
            assert a.seed.spawn_key == b.seed.spawn_key

    def test_count_split_is_even_and_exact(self):
        tasks = ParallelSamplerPool().plan_tasks(
            make_chain(), 13, spec=SPEC_SUM, seed=0, shards=5
        )
        assert [t.count for t in tasks] == [3, 3, 3, 2, 2]

    def test_default_shard_count_is_fixed(self):
        tasks = ParallelSamplerPool(workers=3).plan_tasks(make_chain(), 40, spec=SPEC_SUM, seed=0)
        assert len(tasks) == DEFAULT_SHARDS

    def test_zero_count_job(self):
        run = union_sample(make_union(), 0, seed=1, workers=2)
        assert run.parts == [] and run.drawn == 0 and not run.degraded

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ParallelSamplerPool(workers=0)
        with pytest.raises(ValueError):
            ParallelSamplerPool(execution="fibers")
        with pytest.raises(ValueError):
            ParallelSamplerPool().plan_tasks(make_chain(), -1, spec=SPEC_SUM, seed=0)
        with pytest.raises(ValueError):
            ParallelSamplerPool().plan_tasks(make_chain(), 10, spec=SPEC_SUM, seed=0, shards=0)
        with pytest.raises(ValueError):
            union_sample(make_union(), -1, seed=0, workers=2)
        with pytest.raises(ValueError):
            union_sample(make_union(), 10, seed=0, workers=2, deadline=-1.0)

    def test_unsupported_backend_rejected(self):
        with pytest.raises(ValueError, match="cannot sample"):
            ParallelSamplerPool().plan_tasks(
                make_union(), 10, spec=SPEC_SUM, seed=0, method="olken"
            )

    def test_union_count_is_planned(self):
        """COUNT(*) over a union is an ordinary attempt-level HT aggregate."""
        tasks = ParallelSamplerPool().plan_tasks(make_union(), 10, seed=0, spec=SPEC_COUNT)
        assert {task.backend for task in tasks} == {"online-union"}


class TestDeterminism:
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

def union_values(run):
    """A union sample's values as tuples, and each one's owning join."""
    union = CoverDraw.concat(run.parts)
    return union.rows(), union.owners.tolist()


class TestUnionSampleRoute:
    """``repro sample --workers``: the served chunk loop over cover sources."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_deterministic_per_seed_and_workers(self, workers):
        runs = [union_sample(make_union(3), 40, seed=17, workers=workers) for _ in range(2)]
        assert union_values(runs[0]) == union_values(runs[1])
        assert runs[0].drawn == 40 and len(union_values(runs[0])[0]) == 40
        other = union_sample(make_union(3), 40, seed=18, workers=workers)
        assert union_values(other) != union_values(runs[0])

    def test_concurrent_equals_sequential(self):
        queries = make_union(3)
        jobs = [(seed, workers) for seed in range(4) for workers in (1, 2)]
        sequential = [union_values(union_sample(queries, 60, s, w)) for s, w in jobs]
        with ThreadPoolExecutor(max_workers=4) as executor:
            concurrent = list(executor.map(
                lambda job: union_values(union_sample(queries, 60, *job)), jobs
            ))
        assert concurrent == sequential

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_the_served_union_sample(self, uq1_small, workers):
        """The CLI route and a served union ``sample`` are one loop."""
        queries = list(uq1_small.queries)
        values, owners = union_values(union_sample(queries, 1500, seed=9, workers=workers))
        with SamplingService(uq1_small, warm_on_start=False) as service:
            served = service.handle({"kind": "sample", "query": "union", "count": 1500,
                                     "seed": 9, "workers": workers})["result"]
        assert [list(value) for value in values] == served["values"]
        assert [queries[owner].name for owner in owners] == served["sources"]

    def test_zero_deadline(self):
        with pytest.raises(JobDeadlineExceeded, match="0 of 30"):
            union_sample(make_union(), 30, seed=1, workers=2, deadline=0.0)
        run = union_sample(make_union(), 30, seed=1, workers=2, deadline=0.0,
                           allow_partial=True)
        assert run.degraded and run.drawn == 0

    def test_cli_zero_deadline_exits_with_code_3(self, capsys):
        args = ["sample", "--workload", "UQ1", "--samples", "12", "--workers", "2",
                "--deadline", "0", "--scale-factor", "0.0005", "--seed", "3"]
        assert main(args) == 3
        assert "deadline" in capsys.readouterr().err


class TestUnionExactness:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fixture, jobs, count", [("uq1_small", 8, 10_000),
                                                      ("uq2_small", 6, 4_000)])
    def test_cli_union_samples_are_uniform_over_the_exact_union(
        self, request, fixture, jobs, count, workers
    ):
        """CLI union samples against the enumerated union: every value a
        member, each tagged with its cover owner, and chi-square compatible
        with uniform."""
        queries = list(request.getfixturevalue(fixture).queries)
        results = {query.name: join_result_set(query) for query in queries}
        population = set().union(*results.values())
        values, sources = [], []
        for job in range(jobs):
            drawn, owners = union_values(union_sample(queries, count, seed=job, workers=workers))
            values.extend(drawn)
            sources.extend(queries[owner].name for owner in owners)
        assert len(values) == jobs * count
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
        restarted = pool.aggregate(query, SPEC_SUM, 40, seed=1, shards=2)
        again = pool.aggregate(query, SPEC_SUM, 40, seed=1, shards=2)
        assert restarted.epochs_restarted == 1
        assert again.epochs_restarted == 0
        assert accumulator_state(again.accumulator) == accumulator_state(restarted.accumulator)
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
        tasks = ParallelSamplerPool().plan_tasks(make_chain(), 64, spec=SPEC_SUM, seed=5, shards=4)
        streams = [np.random.default_rng(t.seed).integers(0, 2**60, size=8) for t in tasks]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert list(streams[i]) != list(streams[j])

    def test_invalid_shard_task(self):
        seq = np.random.SeedSequence(0)
        with pytest.raises(ValueError):
            ShardTask(0, (make_chain(),), "warp-drive", 1, seq, SPEC_SUM)
        with pytest.raises(ValueError):
            ShardTask(0, (make_chain(),), "exact-weight", -1, seq, SPEC_SUM)


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
            pool.aggregate(query, SPEC_SUM, 32, seed=5)
            first = pool._thread_executor
            assert first is not None
            pool.aggregate(query, SPEC_SUM, 32, seed=6)
            assert pool._thread_executor is first
        finally:
            pool.close()

    def test_close_reaps_spawned_threads_and_is_idempotent(self):
        query = make_chain()
        pool = ParallelSamplerPool(workers=2, execution="thread")
        pool.aggregate(query, SPEC_SUM, 32, seed=5)
        assert self._pool_threads(), "expected live pool worker threads"
        pool.close()
        pool.close()  # idempotent
        assert pool.closed
        assert not self._pool_threads(), "close() must reap every worker thread"

    def test_closed_pool_rejects_new_jobs(self):
        query = make_chain()
        pool = ParallelSamplerPool(workers=2, execution="thread")
        tasks = pool.plan_tasks(query, 16, spec=SPEC_SUM, seed=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(tasks)
        with pytest.raises(RuntimeError, match="closed"):
            pool.aggregate(query, SPEC_SUM, 16, seed=1)

    def test_context_manager_closes(self):
        query = make_chain()
        with ParallelSamplerPool(workers=2, execution="thread") as pool:
            report = pool.aggregate(query, SPEC_SUM, 24, seed=7)
            assert report.completed_shards == report.planned_shards == DEFAULT_SHARDS
        assert pool.closed
        assert not self._pool_threads()

    def test_answers_unchanged_by_executor_reuse(self):
        query = make_chain()
        with ParallelSamplerPool(workers=2, execution="thread") as pool:
            first = pool.aggregate(query, SPEC_SUM, 40, seed=9)
            second = pool.aggregate(query, SPEC_SUM, 40, seed=9)
        assert accumulator_state(first.accumulator) == accumulator_state(second.accumulator)
        one_shot = parallel_aggregate(query, SPEC_SUM, 40, workers=2, execution="thread", seed=9)
        assert report_key(one_shot) == report_key(first.accumulator.estimate())
