"""The multi-core parallel sampling service: plan shards, fan out, merge.

:class:`ParallelSamplerPool` executes a fixed list of
:class:`~repro.parallel.shards.ShardTask` across N workers and merges the
results deterministically.  Four properties define the service:

**Determinism across worker counts.**  The shard plan — shard count, per-shard
sample quotas, per-shard seeds — depends only on the job (queries, total
count, root seed, ``shards``), never on ``workers`` or the execution backend.
Workers race over *which* shard they execute next, but every shard's output is
a pure function of its task, and the coordinator merges results in shard-id
order; so any worker count, thread or process, produces bit-identical merged
answers (pinned by ``tests/test_parallel.py`` and the Hypothesis property in
``tests/test_aqp_properties.py``).

**Shard-merge via the accumulator merge law.**  Aggregate shards return
partial :class:`~repro.aqp.estimators.AggregateAccumulator` objects; the
coordinator folds them with :meth:`AggregateAccumulator.merge`, whose
exactly-rounded estimates (exact integer totals, rounded once) are
chunk-order-invariant — the
algebraic property that makes fan-out/merge safe (PR 3).

**Epoch-aware cancellation.**  The coordinator snapshots every base
relation's version counter when it plans the shards and re-checks it when the
results arrive.  If a mutation epoch bump is observed (``refresh()``
semantics of the update engine), the in-flight shard results are *discarded*
— they describe a mix of snapshots — and the whole job re-runs against the
new snapshot, matching the restart semantics of
:class:`~repro.aqp.online.OnlineAggregator`.

**Fault tolerance via shard supervision.**  Every shard is dispatched
individually by a :class:`~repro.resilience.supervisor.ShardSupervisor`
as one future per attempt on the pool's executor: per-shard timeouts,
bounded retries with deterministic backoff, poison-shard detection, a
``process -> thread`` degradation step, pre-merge result-integrity checks,
and job-level deadlines with principled partial results
(``allow_partial``).  Because shard payloads are
pure functions of (task, seed) — never of the attempt number or the rung —
retries and degradations are invisible in the merged answer: a job that
survived crashes is bit-identical to a fault-free run
(``tests/test_resilience.py``).  Failures that exhaust the retry budget
re-raise with full shard attribution (shard id, seed, backend, attempt
count, rung) and the original traceback chained, instead of the old blanket
``pool.terminate()``.

Processes vs threads: process workers (``multiprocessing`` with the
``spawn`` start method) sidestep the GIL but pay per-worker interpreter
start-up plus pickling of the relations; thread workers share memory and
start instantly but only overlap during GIL-releasing numpy sections.
Threads are the default: measured, process transport plus interpreter
start-up dominates a pooled job at the sizes this service runs; see
``docs/parallel.md`` and ``docs/resilience.md``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.aqp.estimators import AggregateAccumulator, AggregateReport, AggregateSpec
from repro.aqp.planner import supported_backends
from repro.aqp.sources import split_evenly
from repro.joins.query import JoinQuery, observed_versions
from repro.parallel.shards import SHARD_BACKENDS, ShardResult, ShardTask, run_shard
from repro.resilience.errors import EmptyResultError
from repro.resilience.faults import FaultPlan, InjectedFault, fault_plan_from_env
from repro.resilience.supervisor import (
    RetryPolicy,
    ShardSupervisor,
    SupervisedOutcome,
    SupervisionStats,
)
from repro.utils.rng import RandomState, shard_seed_sequences

#: Default number of shards.  Fixed (not derived from the worker count!) so
#: that the same seed gives the same answer no matter how many workers run.
DEFAULT_SHARDS = 8

EXECUTION_MODES = ("thread", "process")


@dataclass
class ParallelRunReport:
    """Merged outcome of one parallel job plus fleet-level accounting.

    The resilience counters (``retries`` through ``degraded``) describe the
    final epoch's supervised run: how many shard attempts failed transiently
    and were retried, how many worker processes died, how many results were
    rejected by the pre-merge integrity check, and whether the report is a
    *partial* answer (``degraded=True``: some shards never completed before
    the deadline or exhausted their retries under ``allow_partial``).
    """

    backend: str
    execution: str
    workers: int
    shards: int
    attempts: int
    accepted: int
    epochs_restarted: int
    #: sampling mode: merged values/sources in shard order
    values: List[Tuple] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)
    #: aggregate mode: merged accumulator (shard-id merge order)
    accumulator: Optional[AggregateAccumulator] = None
    per_shard: List[Dict[str, int]] = field(default_factory=list)
    #: resilience accounting (see SupervisionStats)
    retries: int = 0
    shard_timeouts: int = 0
    shard_crashes: int = 0
    corrupt_results: int = 0
    poison_shards: int = 0
    degradations: int = 0
    planned_shards: int = 0
    completed_shards: int = 0
    failed_shards: List[int] = field(default_factory=list)
    degraded: bool = False
    deadline_hit: bool = False

    def source_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for name in self.sources:
            counts[name] = counts.get(name, 0) + 1
        return counts


class ParallelSamplerPool:
    """Fan sampling / online-aggregation shards out across CPU cores.

    Parameters
    ----------
    workers:
        Worker count; defaults to ``os.cpu_count()``.  Does **not** influence
        the answer — only how many shards run concurrently.
    execution:
        ``"thread"`` (the default) or ``"process"`` (``spawn``-started
        worker processes: the one start method that is both fork-safe and
        identical across platforms).
    job_timeout:
        Job-level deadline in wall-clock seconds, enforced on **every**
        execution mode: process shards are terminated at the deadline;
        thread shards check a cooperative deadline at stage boundaries and
        are abandoned (with a ``RuntimeWarning``) if they blow past it.
        Without ``allow_partial`` the job raises
        :class:`~repro.resilience.errors.JobDeadlineExceeded`.
    shard_timeout:
        Per-shard-attempt wall-clock budget; a shard that exceeds it is
        killed (process) or abandoned (thread) and retried.
    max_retries:
        Re-executions allowed per shard before the job fails (default 2).
        Ignored when ``retry_policy`` is given.
    retry_policy:
        Full :class:`~repro.resilience.supervisor.RetryPolicy` (backoff
        base/factor/cap, deterministic jitter) when the default shape is
        not right.
    allow_partial:
        On deadline expiry or a shard exhausting its retries, return the
        shards that *did* complete (``report.degraded=True``) instead of
        raising.  The merged partial answer is still an unbiased HT
        estimate — just wider.
    fault_plan:
        Deterministic :class:`~repro.resilience.faults.FaultPlan` threaded
        into every shard execution (tests/chaos runs); ``None`` defers to
        the ``REPRO_FAULT_RATE`` environment harness.
    max_epoch_restarts:
        How many times a job may be discarded and re-run because a mutation
        epoch bump was observed mid-flight.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        execution: str = "thread",
        job_timeout: Optional[float] = None,
        max_epoch_restarts: int = 3,
        shard_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        allow_partial: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if execution not in EXECUTION_MODES:
            raise ValueError(f"execution must be one of {EXECUTION_MODES}, got {execution!r}")
        if job_timeout is not None and job_timeout < 0:
            raise ValueError(f"job_timeout must be non-negative, got {job_timeout}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be positive, got {shard_timeout}")
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        self.execution = execution
        self.job_timeout = job_timeout
        self.max_epoch_restarts = max_epoch_restarts
        self.shard_timeout = shard_timeout
        if retry_policy is not None:
            self.retry_policy = retry_policy
        elif max_retries is not None:
            self.retry_policy = RetryPolicy(max_retries=int(max_retries))
        else:
            self.retry_policy = RetryPolicy()
        self.allow_partial = allow_partial
        self.fault_plan = fault_plan
        self.epochs_restarted = 0
        #: lifetime supervision counters of this pool (all runs, all epochs)
        self.stats = SupervisionStats()
        self._last_outcome: Optional[SupervisedOutcome] = None
        #: long-lived executor of thread and process attempts, created
        #: lazily on the first non-inline run and reused across jobs until
        #: close() (supervisors borrow it).
        self._thread_executor: Optional[ThreadPoolExecutor] = None
        #: guards the executor lifecycle, the shared counters, and the
        #: last-run bookkeeping against concurrent run() callers.
        self._lock = threading.Lock()
        self._closed = False
        #: per-thread outcome of the most recent run() on that thread
        self._tls = threading.local()

    # -------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Shut down the pool's long-lived resources; idempotent.

        After close, submitting new jobs raises ``RuntimeError``.  The thread
        executor is drained (``wait=True``) so every spawned thread is
        actually reaped — the regression for the old behaviour of building a
        fresh executor per run and leaking it to GC under a long-lived
        caller.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._thread_executor = self._thread_executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ParallelSamplerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _borrowed_executor(self) -> ThreadPoolExecutor:
        """The shared executor, created on first use: its ``max_workers``
        caps the thread and process attempts alike."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ParallelSamplerPool is closed")
            if self._thread_executor is None:
                self._thread_executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-pool"
                )
            return self._thread_executor

    # ------------------------------------------------------------------- plan
    def plan_tasks(
        self,
        queries: Union[JoinQuery, Sequence[JoinQuery]],
        count: int,
        *,
        seed: RandomState = None,
        method: str = "auto",
        spec: Optional[AggregateSpec] = None,
        shards: Optional[int] = None,
        max_attempts: int = 1_000_000,
    ) -> List[ShardTask]:
        """Resolve the backend and split the job into a fixed shard list.

        The split assigns ``count // shards`` samples to every shard and one
        extra to the first ``count % shards`` — a pure function of ``count``
        and ``shards``, so the plan (and hence the answer) is independent of
        the worker count.
        """
        if isinstance(queries, JoinQuery):
            queries = (queries,)
        queries = tuple(queries)
        if not queries:
            raise ValueError("need at least one query")
        if count < 0:
            raise ValueError("count must be non-negative")
        shard_count = int(shards) if shards is not None else DEFAULT_SHARDS
        if shard_count < 1:
            raise ValueError(f"shards must be >= 1, got {shard_count}")
        backend = self._resolve_backend(queries, method, spec, count)
        seeds = shard_seed_sequences(seed, shard_count)
        return [
            ShardTask(
                shard_id=i,
                queries=queries,
                backend=backend,
                count=quota,
                seed=seeds[i],
                spec=spec,
                max_attempts=max_attempts,
            )
            for i, quota in enumerate(split_evenly(count, shard_count))
        ]

    # -------------------------------------------------------------------- run
    def run(self, tasks: Sequence[ShardTask]) -> List[ShardResult]:
        """Execute the shard tasks under supervision, in shard-id order.

        Each shard is dispatched individually with per-shard timeouts,
        bounded retries, and the degradation ladder; see
        :class:`~repro.resilience.supervisor.ShardSupervisor`.  Failures
        that survive the retry budget re-raise with shard attribution
        (unless ``allow_partial``, in which case the completed shards come
        back and the missing ones are recorded on the run report).
        """
        results, outcome = self._run_supervised(tasks)
        # Per-caller outcome rides a thread-local (concurrent run() callers
        # must not read each other's supervision outcome); _last_outcome is
        # best-effort shared bookkeeping for external introspection.
        self._tls.outcome = outcome
        with self._lock:
            self._last_outcome = outcome
        return results

    def _run_supervised(
        self, tasks: Sequence[ShardTask]
    ) -> Tuple[List[ShardResult], Optional[SupervisedOutcome]]:
        """Thread-safe core of :meth:`run`: no shared last-run bookkeeping.

        Concurrent callers each get their own supervisor and outcome; only
        the lifetime counters and the borrowed executor are shared, both
        under the pool lock.
        """
        if not tasks:
            return [], None
        with self._lock:
            if self._closed:
                raise RuntimeError("ParallelSamplerPool is closed")
        rung = self.execution
        if rung == "thread" and (self.workers == 1 or len(tasks) == 1):
            # Single-worker thread jobs gain nothing from the executor: run
            # inline, the same fast path the pre-resilience pool had.
            rung = "inline"
        executor = None if rung == "inline" else self._borrowed_executor()
        supervisor = ShardSupervisor(
            tasks,
            execution=rung,
            workers=self.workers,
            policy=self.retry_policy,
            shard_timeout=self.shard_timeout,
            deadline=self.job_timeout,
            allow_partial=self.allow_partial,
            fault_plan=self.fault_plan,
            executor=executor,
        )
        try:
            outcome = supervisor.run()
        finally:
            # Supervision counters survive a raising run — a PoisonShardError
            # still leaves its attempts/retries on ``self.stats``.
            with self._lock:
                self.stats.merge(supervisor.stats)
        return outcome.results, outcome

    def sample(
        self,
        queries: Union[JoinQuery, Sequence[JoinQuery]],
        count: int,
        *,
        seed: RandomState = None,
        method: str = "auto",
        shards: Optional[int] = None,
        max_attempts: int = 1_000_000,
    ) -> ParallelRunReport:
        """``count`` uniform samples, fanned out and merged in shard order."""
        tasks = self.plan_tasks(
            queries, count, seed=seed, method=method, shards=shards, max_attempts=max_attempts
        )
        results, outcome, restarts = self._run_with_epoch_guard(tasks)
        report = self._base_report(tasks, results, outcome, restarts)
        query = tasks[0].queries[0]
        for result in results:
            if result.block is not None:
                # Join-backend shards ship struct-of-arrays blocks (cheap
                # numpy pickling); values are projected once, here, against
                # the coordinator's relations — which the epoch guard just
                # verified are the snapshot the shard sampled.
                report.values.extend(result.block.values(query))
                report.sources.extend([query.name] * len(result.block))
            else:
                report.values.extend(result.values)
                report.sources.extend(result.sources)
        return report

    def aggregate(
        self,
        queries: Union[JoinQuery, Sequence[JoinQuery]],
        spec: AggregateSpec,
        count: int,
        *,
        seed: RandomState = None,
        method: str = "auto",
        shards: Optional[int] = None,
        max_attempts: int = 1_000_000,
    ) -> ParallelRunReport:
        """Merged :class:`AggregateAccumulator` over ``count`` samples.

        ``count`` is the fleet-wide accepted-sample target (wander-join and
        online-union: attempts), split across shards.  Call ``report.accumulator.estimate()``
        (or :func:`parallel_aggregate`) for confidence intervals.
        """
        tasks = self.plan_tasks(
            queries,
            count,
            seed=seed,
            method=method,
            spec=spec,
            shards=shards,
            max_attempts=max_attempts,
        )
        results, outcome, restarts = self._run_with_epoch_guard(tasks)
        report = self._base_report(tasks, results, outcome, restarts)
        merged: Optional[AggregateAccumulator] = None
        for result in results:
            if result.accumulator is None:
                continue
            if merged is None:
                merged = result.accumulator
            else:
                merged.merge(result.accumulator)
        if merged is None:
            merged = AggregateAccumulator(spec, tasks[0].queries[0].output_schema)
        report.accumulator = merged
        return report

    # -------------------------------------------------------------- internals
    def _resolve_backend(
        self,
        queries: Tuple[JoinQuery, ...],
        method: str,
        spec: Optional[AggregateSpec],
        count: int = 1024,
    ) -> str:
        supported = supported_backends(list(queries) if len(queries) > 1 else queries[0])
        if method == "auto":
            if len(queries) > 1:
                return "online-union"
            from repro.aqp.planner import SamplerPlanner

            # Price the plan at the job's actual fleet-wide sample budget:
            # setup-heavy backends amortize over large jobs (every shard pays
            # its own setup, but the ranking scales the same way).
            backend = SamplerPlanner(queries[0], target_samples=max(count, 1)).plan().backend
            if spec is None and backend == "wander-join":
                # Wander walks are HT-weighted, not uniform: never hand them
                # out for plain sampling.
                backend = "exact-weight"
            return backend
        if method not in SHARD_BACKENDS:
            raise ValueError(f"method must be 'auto' or one of {SHARD_BACKENDS}, got {method!r}")
        if method not in supported:
            raise ValueError(
                f"backend {method!r} cannot sample this query shape; supported: {supported}"
            )
        if method == "wander-join" and spec is None:
            raise ValueError("wander-join produces HT-weighted walks, not uniform samples; "
                             "use it with aggregate() or pick exact-weight/olken")
        return method

    def _run_with_epoch_guard(
        self, tasks: Sequence[ShardTask]
    ) -> Tuple[List[ShardResult], Optional[SupervisedOutcome], int]:
        """Run the job, discarding and restarting on mutation epoch bumps.

        Returns the results, the supervision outcome and the job's own
        restart count (``epochs_restarted`` keeps the pool's lifetime sum).
        """
        queries = tasks[0].queries
        restarts = 0
        while True:
            before = observed_versions(queries)
            # Through the public run() so subclass/monkeypatch hooks apply;
            # the supervision outcome comes back on this thread's slot.
            results = self.run(tasks)
            outcome = getattr(self._tls, "outcome", None)
            if observed_versions(queries) == before:
                return results, outcome, restarts
            # A refresh() epoch bump landed while shards were in flight: the
            # results mix database snapshots, so they are discarded wholesale
            # (the PR 2/PR 3 restart semantics) and the job re-runs against
            # the new snapshot.
            restarts += 1
            with self._lock:
                self.epochs_restarted += 1
            if restarts > self.max_epoch_restarts:
                raise RuntimeError(
                    f"parallel job restarted {restarts} times on mutation epochs "
                    "without completing; pause the update stream or raise "
                    "max_epoch_restarts"
                )

    def _base_report(
        self,
        tasks: Sequence[ShardTask],
        results: Sequence[ShardResult],
        outcome: Optional[SupervisedOutcome] = None,
        restarts: int = 0,
    ) -> ParallelRunReport:
        report = ParallelRunReport(
            backend=tasks[0].backend,
            execution=self.execution,
            workers=self.workers,
            shards=len(tasks),
            attempts=sum(r.attempts for r in results),
            accepted=sum(r.accepted for r in results),
            epochs_restarted=restarts,
            per_shard=[
                {"shard": r.shard_id, "attempts": r.attempts, "accepted": r.accepted}
                for r in results
            ],
        )
        if outcome is None:
            with self._lock:
                outcome = self._last_outcome
        if outcome is not None:
            stats = outcome.stats
            report.retries = stats.retries
            report.shard_timeouts = stats.shard_timeouts
            report.shard_crashes = stats.shard_crashes
            report.corrupt_results = stats.corrupt_results
            report.poison_shards = stats.poison_shards
            report.degradations = stats.degradations
            report.planned_shards = outcome.planned
            report.completed_shards = len(outcome.results)
            report.failed_shards = sorted(f.shard_id for f in outcome.failures)
            report.degraded = outcome.degraded
            report.deadline_hit = outcome.deadline_hit
        else:
            report.planned_shards = len(tasks)
            report.completed_shards = len(results)
        return report


# ----------------------------------------------------------------- convenience
def parallel_sample(
    queries: Union[JoinQuery, Sequence[JoinQuery]],
    count: int,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    seed: RandomState = None,
    method: str = "auto",
    execution: str = "thread",
    job_timeout: Optional[float] = None,
    shard_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    allow_partial: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 1_000_000,
) -> ParallelRunReport:
    """One-shot parallel sampling: plan shards, fan out, merge in shard order."""
    with ParallelSamplerPool(
        workers=workers,
        execution=execution,
        job_timeout=job_timeout,
        shard_timeout=shard_timeout,
        max_retries=max_retries,
        allow_partial=allow_partial,
        fault_plan=fault_plan,
    ) as pool:
        return pool.sample(
            queries, count, seed=seed, method=method, shards=shards, max_attempts=max_attempts
        )


def parallel_aggregate(
    queries: Union[JoinQuery, Sequence[JoinQuery]],
    spec: AggregateSpec,
    count: int,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    seed: RandomState = None,
    method: str = "auto",
    execution: str = "thread",
    job_timeout: Optional[float] = None,
    shard_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    allow_partial: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 1_000_000,
    confidence: float = 0.95,
    ci_method: str = "clt",
) -> AggregateReport:
    """One-shot parallel aggregation with confidence intervals.

    Bit-identical to running the same shard plan sequentially: the partial
    accumulators merge through the exactly-rounded merge law, so the report
    does not depend on worker count, execution backend, arrival order — or
    on how many times shards were retried or degraded along the way.

    Under ``allow_partial``, a deadline-hit or failed-shard job returns the
    merge of the completed shards with ``degraded=True`` on the report: an
    unbiased estimate over fewer samples, hence a wider interval.
    """
    with ParallelSamplerPool(
        workers=workers,
        execution=execution,
        job_timeout=job_timeout,
        shard_timeout=shard_timeout,
        max_retries=max_retries,
        allow_partial=allow_partial,
        fault_plan=fault_plan,
    ) as pool:
        run = pool.aggregate(
            queries,
            spec,
            count,
            seed=seed,
            method=method,
            shards=shards,
            max_attempts=max_attempts,
        )
    assert run.accumulator is not None
    if run.degraded and count > 0 and run.accumulator.accepted == 0:
        # A "partial" answer with zero accepted samples is no answer at all:
        # its CI would be a zero-width lie around 0.0 (see EmptyResultError).
        raise EmptyResultError(
            "parallel aggregation deadline expired before any shard completed; "
            "no partial estimate exists — retry with a larger deadline",
            deadline=job_timeout,
            attempts=run.attempts,
        )
    report = run.accumulator.estimate(confidence=confidence, ci_method=ci_method)
    report.degraded = run.degraded
    report.completed_shards = run.completed_shards
    report.planned_shards = run.planned_shards
    return report


#: Retry bound of ``sequential_reference``: the oracle must survive the
#: ``REPRO_FAULT_RATE`` chaos harness too (transient injected faults get
#: retried; anything else propagates).
_REFERENCE_MAX_ATTEMPTS = 16


def sequential_reference(tasks: Sequence[ShardTask]) -> List[ShardResult]:
    """Run a shard plan in a plain in-process loop (the determinism oracle).

    Benchmarks and tests compare the parallel service's merged answers
    against this reference to prove bit-identical fan-out/merge.  Under the
    environment fault harness the reference retries transiently injected
    faults (payloads are attempt-invariant, so retrying cannot change the
    oracle's answer); real exceptions propagate untouched.
    """
    results = []
    for task in tasks:
        for attempt in range(_REFERENCE_MAX_ATTEMPTS):
            try:
                results.append(run_shard(task, attempt))
                break
            except InjectedFault:
                if attempt == _REFERENCE_MAX_ATTEMPTS - 1:
                    raise
    return results


__all__ = [
    "DEFAULT_SHARDS",
    "EXECUTION_MODES",
    "ParallelRunReport",
    "ParallelSamplerPool",
    "parallel_sample",
    "parallel_aggregate",
    "sequential_reference",
]
