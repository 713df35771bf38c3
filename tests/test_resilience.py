"""Tests for the fault-tolerant sampling service (repro.resilience).

The load-bearing invariant: **faults never change the answer**.  A shard's
payload is a pure function of (task, seed) — the attempt number feeds only
the fault-injection draws and bookkeeping — so a job that survived injected
crashes, timeouts, kills, or corrupted results merges to a result
bit-identical to the fault-free sequential reference.
"""

from __future__ import annotations

import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aqp import AggregateSpec, OnlineAggregator
from repro.parallel import (
    ParallelSamplerPool,
    parallel_aggregate,
    run_shard,
    sequential_reference,
)
from repro.parallel.shards import verify_shard_result
from repro.resilience import (
    KILL_EXIT_CODE,
    NO_FAULTS,
    CorruptShardResult,
    EmptyResultError,
    FaultAction,
    FaultPlan,
    InjectedFault,
    JobDeadlineExceeded,
    PoisonShardError,
    RetryPolicy,
    ShardCrash,
    ShardError,
    ShardTimeout,
    SupervisionStats,
    fault_plan_from_env,
)
from repro.resilience.supervisor import CooperativeDeadline
from tests.test_parallel import SPEC_SUM, make_chain, make_union, report_key

#: Fast backoff so retry-heavy tests do not sleep their way through CI.
FAST = RetryPolicy(backoff_base=0.001, backoff_cap=0.01)


def merged_reference(tasks):
    results = sequential_reference(tasks)
    merged = results[0].accumulator
    for result in results[1:]:
        merged.merge(result.accumulator)
    return merged


def plan_and_reference(count=60, shards=4, seed=9):
    pool = ParallelSamplerPool(workers=1, execution="thread", fault_plan=NO_FAULTS)
    tasks = pool.plan_tasks(make_chain(), count, seed=seed, spec=SPEC_SUM, shards=shards)
    return tasks, report_key(merged_reference(tasks).estimate())


def run_with_faults(tasks, fault_plan, **pool_kwargs):
    pool_kwargs.setdefault("workers", 3)
    pool_kwargs.setdefault("execution", "thread")
    pool_kwargs.setdefault("retry_policy", FAST)
    pool = ParallelSamplerPool(fault_plan=fault_plan, **pool_kwargs)
    report = pool.aggregate(make_chain(), SPEC_SUM, sum(t.count for t in tasks),
                            seed=9, shards=len(tasks))
    return pool, report_key(report.accumulator.estimate())


class TestFaultPlans:
    def test_action_for_is_deterministic(self):
        plan = FaultPlan(seed=7, rate=0.5, kinds=("raise", "sleep"))
        draws = [plan.action_for(s, a) for s in range(6) for a in range(3)]
        again = [plan.action_for(s, a) for s in range(6) for a in range(3)]
        assert draws == again
        assert any(draws), "a 50% plan should fault somewhere in 18 draws"

    def test_scripted_wins_over_rate(self):
        action = FaultAction("corrupt")
        plan = FaultPlan(seed=7, rate=0.0, scripted={(2, 1): action})
        assert plan.action_for(2, 1) is action
        assert plan.action_for(2, 0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultAction("explode")
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(kinds=("raise", "nope"))
        with pytest.raises(ValueError):
            FaultPlan(scripted={(-1, 0): FaultAction("raise")})

    def test_env_harness_parsing(self):
        assert fault_plan_from_env({}) is None
        assert fault_plan_from_env({"REPRO_FAULT_RATE": "0"}) is None
        plan = fault_plan_from_env({"REPRO_FAULT_RATE": "0.25"})
        assert plan.rate == 0.25 and plan.seed == 2023 and plan.kinds == ("raise",)
        plan = fault_plan_from_env({
            "REPRO_FAULT_RATE": "0.1",
            "REPRO_FAULT_SEED": "5",
            "REPRO_FAULT_KINDS": "raise, sleep",
        })
        assert plan.seed == 5 and plan.kinds == ("raise", "sleep")

    def test_no_faults_sentinel_is_noop(self):
        assert NO_FAULTS.is_noop()
        assert NO_FAULTS.action_for(0, 0) is None


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_cap=0.5, jitter=0.5, jitter_seed=3)
        series = [policy.backoff_for(4, r) for r in range(1, 6)]
        assert series == [policy.backoff_for(4, r) for r in range(1, 6)]
        for retry, delay in enumerate(series, start=1):
            raw = min(0.1 * 2.0 ** (retry - 1), 0.5)
            assert 0.5 * raw <= delay <= 1.5 * raw

    def test_jitter_desynchronizes_shards(self):
        policy = RetryPolicy(jitter=0.5, jitter_seed=0)
        delays = {policy.backoff_for(s, 1) for s in range(8)}
        assert len(delays) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


class TestPayloadInvariance:
    def test_run_shard_payload_ignores_attempt_number(self):
        tasks, _ = plan_and_reference()
        first = run_shard(tasks[1], attempt=0, fault_plan=NO_FAULTS)
        retry = run_shard(tasks[1], attempt=5, fault_plan=NO_FAULTS)
        assert first.worker_attempt == 0 and retry.worker_attempt == 5
        assert first.fingerprint() == retry.fingerprint()

    def test_integrity_check_catches_shard_id_swap(self):
        tasks, _ = plan_and_reference()
        result = run_shard(tasks[0], fault_plan=NO_FAULTS)
        assert verify_shard_result(tasks[0], result) is None
        assert "echo" in verify_shard_result(tasks[1], result)

    def test_integrity_check_catches_payload_mutation(self):
        tasks, _ = plan_and_reference()
        result = run_shard(tasks[0], fault_plan=NO_FAULTS, seal=True)
        result.accumulator.accepted += 1  # bit-flip after the checksum was sealed
        assert "checksum" in verify_shard_result(tasks[0], result)

    def test_in_process_results_skip_the_checksum(self):
        # No serialization boundary, no fault action: sealing would only tax
        # the fast path, so the auto mode leaves the checksum unset.
        tasks, _ = plan_and_reference()
        result = run_shard(tasks[0], fault_plan=NO_FAULTS)
        assert result.checksum is None
        assert verify_shard_result(tasks[0], result) is None


class TestRetriesPreserveAnswers:
    def test_injected_raise_is_retried_bit_identically(self):
        tasks, reference = plan_and_reference()
        plan = FaultPlan(scripted={(1, 0): FaultAction("raise")})
        pool, key = run_with_faults(tasks, plan)
        assert key == reference
        assert pool.stats.retries == 1 and pool.stats.shard_exceptions == 1

    def test_timed_out_shard_is_retried_bit_identically(self):
        tasks, reference = plan_and_reference()
        plan = FaultPlan(scripted={(2, 0): FaultAction("sleep", duration=5.0)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pool, key = run_with_faults(tasks, plan, shard_timeout=0.25)
        assert key == reference
        assert pool.stats.shard_timeouts == 1
        assert pool.stats.abandoned_threads == 1
        assert any("forcibly cancelled" in str(w.message) for w in caught), (
            "abandoning an uncancellable thread must warn"
        )

    def test_corrupted_result_is_rejected_and_retried(self):
        tasks, reference = plan_and_reference()
        plan = FaultPlan(scripted={(0, 0): FaultAction("corrupt")})
        pool, key = run_with_faults(tasks, plan)
        assert key == reference
        assert pool.stats.corrupt_results == 1

    def test_ten_percent_chaos_rate_is_bit_identical(self):
        """The acceptance gate: 10% injected faults, answer unchanged."""
        tasks, reference = plan_and_reference(count=120, shards=8)
        plan = FaultPlan(seed=2023, rate=0.1, kinds=("raise",))
        pool, key = run_with_faults(tasks, plan)
        assert key == reference
        assert pool.stats.retries >= 1, "seed 2023 at 10% must inject something"

    def test_parallel_aggregate_survives_faults_too(self):
        plan = FaultPlan(scripted={(0, 0): FaultAction("raise")})
        clean = parallel_aggregate(make_chain(), SPEC_SUM, 40, seed=17, workers=2,
                                   execution="thread", fault_plan=NO_FAULTS)
        faulty = parallel_aggregate(make_chain(), SPEC_SUM, 40, seed=17, workers=2,
                                    execution="thread", fault_plan=plan)
        assert report_key(faulty) == report_key(clean)
        assert not faulty.degraded
        assert faulty.completed_shards == faulty.planned_shards
        # The pool's run report carries the retry the one-shot report hides.
        with ParallelSamplerPool(workers=2, execution="thread", fault_plan=plan,
                                 retry_policy=FAST) as pool:
            run = pool.aggregate(make_chain(), SPEC_SUM, 40, seed=17)
        assert report_key(run.accumulator.estimate()) == report_key(clean)
        assert run.retries == 1 and not run.degraded

    def test_union_backend_survives_faults(self):
        queries = make_union()
        clean = parallel_aggregate(queries, SPEC_SUM, 20, seed=31, workers=2,
                                   execution="thread", fault_plan=NO_FAULTS)
        plan = FaultPlan(scripted={(3, 0): FaultAction("raise")})
        faulty = parallel_aggregate(queries, SPEC_SUM, 20, seed=31, workers=2,
                                    execution="thread", fault_plan=plan)
        assert report_key(faulty) == report_key(clean)


class TestFailureClassification:
    def test_exhausted_retries_reraise_with_attribution(self):
        tasks, _ = plan_and_reference()
        plan = FaultPlan(scripted={
            (1, a): FaultAction("raise", message=f"flaky {a}") for a in range(5)
        })
        pool = ParallelSamplerPool(workers=2, execution="thread",
                                   fault_plan=plan, retry_policy=FAST)
        with pytest.raises(ShardCrash) as excinfo:
            pool.aggregate(make_chain(), SPEC_SUM, 60, seed=9, shards=4)
        message = str(excinfo.value)
        assert "shard 1" in message
        assert "attempt=3" in message
        assert "seed=SeedSequence" in message
        assert "rung=thread" in message
        assert isinstance(excinfo.value.__cause__, InjectedFault), (
            "the original exception must stay chained (traceback attribution)"
        )

    def test_poison_shard_fails_fast(self):
        tasks, _ = plan_and_reference()
        plan = FaultPlan(scripted={
            (2, a): FaultAction("raise", message="deterministic bug") for a in range(5)
        })
        pool = ParallelSamplerPool(workers=2, execution="thread",
                                   fault_plan=plan, retry_policy=FAST)
        with pytest.raises(PoisonShardError) as excinfo:
            pool.aggregate(make_chain(), SPEC_SUM, 60, seed=9, shards=4)
        assert excinfo.value.failure_signature == ("InjectedFault", "deterministic bug")
        # Fail-fast: two identical failures, no third attempt.
        assert pool.stats.poison_shards == 1
        assert pool.stats.attempts <= 2 + (len(tasks) - 1)

    def test_transient_faults_are_not_poison(self):
        """Default injected messages embed the attempt: never misclassified."""
        tasks, reference = plan_and_reference()
        plan = FaultPlan(scripted={(1, 0): FaultAction("raise"),
                                   (1, 1): FaultAction("raise")})
        pool, key = run_with_faults(tasks, plan)
        assert key == reference
        assert pool.stats.poison_shards == 0 and pool.stats.retries == 2

    def test_allow_partial_records_failed_shard(self):
        tasks, reference = plan_and_reference()
        plan = FaultPlan(scripted={
            (3, a): FaultAction("raise", message="dead") for a in range(5)
        })
        pool = ParallelSamplerPool(workers=2, execution="thread", fault_plan=plan,
                                   retry_policy=FAST, allow_partial=True)
        report = pool.aggregate(make_chain(), SPEC_SUM, 60, seed=9, shards=4)
        assert report.degraded
        assert report.failed_shards == [3]
        assert report.completed_shards == 3 and report.planned_shards == 4
        # The partial merge covers fewer attempts: the interval must widen.
        partial = report.accumulator.estimate()
        assert partial.attempts < reference[3]
        assert partial.overall.relative_half_width > 0

    def test_shard_error_taxonomy_is_runtime_error(self):
        for cls in (ShardError, ShardCrash, ShardTimeout, CorruptShardResult,
                    PoisonShardError):
            assert issubclass(cls, RuntimeError)
        assert issubclass(JobDeadlineExceeded, RuntimeError)
        crash = ShardCrash("died", exitcode=KILL_EXIT_CODE, shard_id=4,
                           backend="olken", attempt=1, rung="process")
        assert "exit code 117" in str(crash)
        assert crash.signature()[0] == "ShardCrash"


class TestDeadlines:
    def test_zero_deadline_raises_with_incomplete_shards(self):
        pool = ParallelSamplerPool(workers=2, execution="thread",
                                   job_timeout=0.0, fault_plan=NO_FAULTS)
        with pytest.raises(JobDeadlineExceeded) as excinfo:
            pool.aggregate(make_chain(), SPEC_SUM, 40, seed=9, shards=4)
        assert excinfo.value.completed == 0
        assert excinfo.value.planned == 4
        assert excinfo.value.incomplete_shards == (0, 1, 2, 3)

    def test_zero_deadline_allow_partial_degrades(self):
        pool = ParallelSamplerPool(workers=2, execution="thread", job_timeout=0.0,
                                   allow_partial=True, fault_plan=NO_FAULTS)
        report = pool.aggregate(make_chain(), SPEC_SUM, 40, seed=9, shards=4)
        assert report.degraded and report.deadline_hit
        assert report.completed_shards == 0
        assert report.accumulator.attempts == 0

    def test_thread_path_enforces_job_timeout(self):
        """Pre-resilience, job_timeout was silently ignored off the process
        path; now every execution mode honors it."""
        plan = FaultPlan(scripted={(0, a): FaultAction("sleep", duration=3.0)
                                   for a in range(5)})
        pool = ParallelSamplerPool(workers=2, execution="thread",
                                   job_timeout=0.4, fault_plan=plan,
                                   retry_policy=FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(JobDeadlineExceeded):
                pool.aggregate(make_chain(), SPEC_SUM, 40, seed=9, shards=2)

    def test_cooperative_deadline_raises_shard_timeout(self):
        deadline = CooperativeDeadline(0.0, shard_id=1, backend="olken",
                                       seed=None, attempt=0, rung="thread",
                                       timeout=0.5)
        with pytest.raises(ShardTimeout, match="stage"):
            deadline.check("unit test")

    def test_online_aggregator_deadline(self):
        aggregator = OnlineAggregator(make_chain(), SPEC_SUM, seed=5)
        with pytest.raises(JobDeadlineExceeded, match="deadline"):
            aggregator.until(0.05, deadline=0.0)

    def test_online_aggregator_deadline_partial(self):
        # With samples already accepted, a deadline expiry under
        # allow_partial degrades honestly ...
        aggregator = OnlineAggregator(make_chain(), SPEC_SUM, seed=5)
        aggregator.step(64)
        report = aggregator.until(1e-9, deadline=0.0, allow_partial=True)
        assert report.degraded
        assert report.to_dict()["degraded"] is True
        assert aggregator.accumulator.accepted > 0

    def test_online_aggregator_empty_partial_refused(self):
        # ... but a budget that expires before a single accepted sample has
        # no honest partial answer: zero samples would mean a zero-width CI
        # around 0.0 and a 0/0 achieved error.  Explicit error instead.
        aggregator = OnlineAggregator(make_chain(), SPEC_SUM, seed=5)
        with pytest.raises(EmptyResultError, match="no partial estimate"):
            aggregator.until(0.05, deadline=0.0, allow_partial=True)
        assert aggregator.accumulator.accepted == 0


class TestProcessRungResilience:
    """Spawn-based workers; kept small (interpreter start-up per attempt)."""

    def test_killed_worker_degrades_and_answer_is_unchanged(self):
        tasks, reference = plan_and_reference(count=24, shards=2, seed=41)
        plan = FaultPlan(scripted={(0, 0): FaultAction("kill"),
                                   (0, 1): FaultAction("kill")})
        pool = ParallelSamplerPool(workers=2, execution="process",
                                   fault_plan=plan, retry_policy=FAST)
        report = pool.aggregate(make_chain(), SPEC_SUM, 24, seed=41, shards=2)
        assert report_key(report.accumulator.estimate()) == reference
        assert pool.stats.shard_crashes == 2
        assert pool.stats.degradations == 1, "two kills walk down the ladder"
        assert pool.stats.rungs.get("thread", 0) >= 1

    def test_waiting_for_a_worker_does_not_spin_the_coordinator(self):
        # Four shards on two workers: half the attempts queue behind the
        # others, and the coordinator must block, not poll, while they do.
        _, reference = plan_and_reference(count=24, shards=4, seed=41)
        pool = ParallelSamplerPool(workers=2, execution="process", fault_plan=NO_FAULTS)
        wall, cpu = time.perf_counter(), time.process_time()
        report = pool.aggregate(make_chain(), SPEC_SUM, 24, seed=41, shards=4)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        pool.close()
        assert report_key(report.accumulator.estimate()) == reference
        assert cpu < 0.15 * wall, f"coordinator burned {cpu:.2f}s CPU in {wall:.2f}s"

    def test_unpicklable_task_degrades_to_threads_at_launch(self):
        spec = AggregateSpec("sum", attribute="c", where=lambda row: row["c"] % 2 == 0)
        thread_run = ParallelSamplerPool(workers=2, execution="thread").aggregate(
            make_chain(), spec, 24, seed=41, shards=2)
        pool = ParallelSamplerPool(workers=2, execution="process",
                                   fault_plan=NO_FAULTS, retry_policy=FAST)
        report = pool.aggregate(make_chain(), spec, 24, seed=41, shards=2)
        pool.close()
        assert (report_key(report.accumulator.estimate())
                == report_key(thread_run.accumulator.estimate()))
        assert pool.stats.shard_crashes == pool.stats.degradations == 2
        assert pool.stats.rungs == {"process": 2, "thread": 2}

    def test_timed_out_worker_is_terminated_and_retried(self):
        _, reference = plan_and_reference(count=24, shards=2, seed=41)
        plan = FaultPlan(scripted={(0, 0): FaultAction("sleep", duration=60.0)})
        pool = ParallelSamplerPool(workers=2, execution="process", fault_plan=plan,
                                   retry_policy=FAST, shard_timeout=5.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = time.monotonic()
            report = pool.aggregate(make_chain(), SPEC_SUM, 24, seed=41, shards=2)
            elapsed = time.monotonic() - started
        pool.close()
        assert report_key(report.accumulator.estimate()) == reference
        assert pool.stats.shard_timeouts == 1
        assert pool.stats.abandoned_threads == 0, "a worker process is killed, not abandoned"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert elapsed < 60.0, "the sleeping worker must be terminated, not waited on"

    def test_kill_fault_degrades_to_raise_in_threads(self):
        # In a thread rung os._exit would kill the coordinator; the harness
        # must degrade the kill to a raise instead of taking down the test.
        tasks, reference = plan_and_reference()
        plan = FaultPlan(scripted={(1, 0): FaultAction("kill")})
        pool, key = run_with_faults(tasks, plan)
        assert key == reference
        assert pool.stats.shard_exceptions == 1


class TestReportCounters:
    def test_fault_free_run_reports_clean_counters(self):
        pool = ParallelSamplerPool(workers=2, execution="thread", fault_plan=NO_FAULTS)
        report = pool.aggregate(make_chain(), SPEC_SUM, 40, seed=17)
        assert report.retries == 0 and report.shard_crashes == 0
        assert not report.degraded
        assert report.completed_shards == report.planned_shards == report.shards

    def test_aggregate_report_carries_degraded_fields(self):
        report = parallel_aggregate(make_chain(), SPEC_SUM, 40, seed=9,
                                    workers=2, execution="thread",
                                    fault_plan=NO_FAULTS)
        assert report.degraded is False
        assert report.completed_shards == report.planned_shards
        payload = report.to_dict()
        assert payload["degraded"] is False
        assert payload["achieved_rel_error"] is not None

    def test_supervision_stats_merge(self):
        a = SupervisionStats(attempts=3, retries=1, completed=2, rungs={"thread": 3})
        b = SupervisionStats(attempts=2, shard_crashes=1, completed=4,
                             rungs={"thread": 1, "process": 1})
        a.merge(b)
        assert a.attempts == 5 and a.retries == 1 and a.shard_crashes == 1
        assert a.completed == 4, "completed reflects the latest run"
        assert a.rungs == {"thread": 4, "process": 1}


class TestSequentialReferenceUnderChaos:
    def test_reference_retries_injected_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.1")
        monkeypatch.setenv("REPRO_FAULT_SEED", "2023")
        pool = ParallelSamplerPool(workers=1, execution="thread", fault_plan=NO_FAULTS)
        tasks = pool.plan_tasks(make_chain(), 120, seed=9, spec=SPEC_SUM, shards=8)
        chaos = sequential_reference(tasks)  # run_shard falls back to the env plan
        clean = [run_shard(t, fault_plan=NO_FAULTS) for t in tasks]
        assert [r.fingerprint() for r in chaos] == [r.fingerprint() for r in clean]


@st.composite
def fault_plans(draw):
    """Eventually-successful scripted plans: attempts >= 2 are never faulted
    (so the default retry budget of 2 always reaches a clean attempt), and
    poison signatures are impossible (default messages embed the attempt)."""
    scripted = {}
    for shard in range(4):
        for attempt in range(2):
            kind = draw(st.sampled_from(["none", "raise", "corrupt", "kill"]))
            if kind != "none":
                scripted[(shard, attempt)] = FaultAction(kind)
    return FaultPlan(scripted=scripted)


class TestFaultProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans(), workers=st.integers(min_value=1, max_value=4))
    def test_any_recoverable_fault_plan_preserves_the_answer(self, plan, workers):
        tasks, reference = plan_and_reference()
        pool = ParallelSamplerPool(workers=workers, execution="thread",
                                   fault_plan=plan, retry_policy=FAST)
        report = pool.aggregate(make_chain(), SPEC_SUM, 60, seed=9, shards=4)
        assert report_key(report.accumulator.estimate()) == reference
        assert not report.degraded
