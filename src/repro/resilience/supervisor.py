"""Shard supervision: per-shard dispatch, retries, timeouts, degradation.

:class:`ShardSupervisor` is the fault-tolerance engine underneath
:class:`repro.parallel.pool.ParallelSamplerPool`.  Where the pre-resilience
pool handed the whole shard list to one ``starmap`` batch — so any single
failure tore down every shard — the supervisor dispatches **each shard
individually** and walks a small state machine per shard:

``PENDING --launch--> RUNNING --ok--> DONE``
``                       |--fail--> classify --> retry (backoff) / degrade /``
``                                              poison / give up``

Every attempt has one shape, whatever its rung: a
:class:`concurrent.futures.Future` that resolves to the shard's result or
raises its failure.  A thread attempt runs ``run_shard`` on the executor; a
process attempt is an executor job that spawns one worker process and
blocks on its pipe; an inline attempt runs in the coordinator and yields a
future that is already done.  The executor's ``max_workers`` is the one
concurrency cap, and the coordinator's loop is launch, one
``concurrent.futures.wait``, collect.

The pieces:

* **Per-shard timeouts** — a timed-out attempt is abandoned and the shard
  retried.  Abandoning terminates a worker process; a thread cannot be
  forcibly cancelled, so the supervisor emits a ``RuntimeWarning`` and
  discards the late result.  Thread and inline attempts additionally carry
  a cooperative deadline that :func:`repro.parallel.shards.run_shard` polls
  at stage boundaries.
* **Bounded retries with exponential backoff + deterministic jitter** —
  :class:`RetryPolicy`; the jitter is derived from
  :func:`repro.utils.rng.keyed_rng` ``(seed, shard, attempt)``, so a retried
  run sleeps the same schedule every time.  Retries are *answer-preserving*
  by construction: a shard's sample stream depends only on its task and
  seed, never on the attempt number, so the retry reproduces the payload the
  failed attempt would have produced.
* **Failure classification** — in-shard exceptions (poison-eligible),
  worker-process deaths (*crashes*), timeouts, and pre-merge integrity
  rejections are tracked separately; a shard that fails with an **identical
  exception signature twice in a row** is declared a
  :class:`~repro.resilience.errors.PoisonShardError` and not retried
  further (determinism means the third attempt would fail identically too).
* **Graceful degradation** — ``process -> thread``.  Two consecutive
  worker-process deaths on one shard, or a worker that cannot even launch,
  move that shard onto an in-process thread: same seed, same answer, less
  isolation.  Only a process attempt can crash, so this is the only step.
* **Job deadlines with principled partial results** — when the job-level
  deadline expires, running attempts are abandoned and, under
  ``allow_partial``, the shards that *did* complete are returned with
  ``degraded=True``; because every shard is an independent fixed-seed HT
  estimate, the merged partial answer is still unbiased for the snapshot —
  just wider (fewer attempts in the denominator).  Without
  ``allow_partial`` the supervisor raises
  :class:`~repro.resilience.errors.JobDeadlineExceeded` naming the
  incomplete shards.
* **Result integrity before merge** —
  :func:`repro.parallel.shards.verify_shard_result` (shard-id echo, epoch
  echo, payload checksum); rejected results count as transient failures and
  the shard re-runs.

Fault-free overhead is kept near zero: the coordinator blocks in one
``concurrent.futures.wait`` on its live attempts (no polling), and the
single-worker thread case collapses to inline attempts, exactly like the
pre-resilience fast path.
"""

from __future__ import annotations

import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # the runtime import is deferred: repro.parallel.pool
    from repro.parallel.shards import ShardResult, ShardTask  # pragma: no cover
    # imports this module, so a top-level import back into repro.parallel
    # would be circular.

from repro.joins.query import observed_versions
from repro.resilience.errors import (
    CorruptShardResult,
    JobDeadlineExceeded,
    PoisonShardError,
    ShardCrash,
    ShardError,
    ShardTimeout,
)
from repro.resilience.faults import FaultPlan
from repro.utils.rng import keyed_rng

#: The execution rungs, most isolated first.  A shard starts on the rung
#: matching the pool's resolved execution mode; the only step down is
#: ``process -> thread``.
LADDER = ("process", "thread", "inline")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_retries`` counts *re*-executions per shard (``2`` means up to three
    attempts).  The backoff before retry ``r`` (1-based) is
    ``min(base * factor**(r-1), cap)`` scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` drawn from ``keyed_rng(jitter_seed, shard,
    r)`` — deterministic per (seed, shard, retry), so replays sleep the same
    schedule and concurrent retries still de-synchronize.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.5
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_for(self, shard_id: int, retry: int) -> float:
        """Backoff seconds before the ``retry``-th re-execution (1-based)."""
        if retry < 1:
            return 0.0
        raw = min(self.backoff_base * self.backoff_factor ** (retry - 1), self.backoff_cap)
        if raw <= 0.0 or self.jitter == 0.0:
            return raw
        u = keyed_rng(self.jitter_seed, shard_id, retry).random()
        return raw * (1.0 + self.jitter * (2.0 * u - 1.0))


@dataclass
class SupervisionStats:
    """Fleet-level counters of one supervised run."""

    attempts: int = 0
    retries: int = 0
    shard_exceptions: int = 0
    shard_crashes: int = 0
    shard_timeouts: int = 0
    corrupt_results: int = 0
    poison_shards: int = 0
    degradations: int = 0
    abandoned_threads: int = 0
    completed: int = 0
    failed: int = 0
    rungs: Dict[str, int] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    def merge(self, other: "SupervisionStats") -> "SupervisionStats":
        """Fold counters of another run in (epoch restarts re-run the job)."""
        for name in (
            "attempts", "retries", "shard_exceptions", "shard_crashes",
            "shard_timeouts", "corrupt_results", "poison_shards",
            "degradations", "abandoned_threads",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        # completed/failed describe the *latest* run's shard plan.
        self.completed = other.completed
        self.failed = other.failed
        for rung, count in other.rungs.items():
            self.rungs[rung] = self.rungs.get(rung, 0) + count
        self.warnings.extend(other.warnings)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "shard_exceptions": self.shard_exceptions,
            "shard_crashes": self.shard_crashes,
            "shard_timeouts": self.shard_timeouts,
            "corrupt_results": self.corrupt_results,
            "poison_shards": self.poison_shards,
            "degradations": self.degradations,
            "abandoned_threads": self.abandoned_threads,
            "completed": self.completed,
            "failed": self.failed,
            "rungs": dict(self.rungs),
        }


@dataclass
class ShardFailure:
    """Terminal failure record of one shard (``allow_partial`` runs)."""

    shard_id: int
    attempts: int
    error: ShardError
    history: List[str] = field(default_factory=list)


@dataclass
class SupervisedOutcome:
    """Everything one supervised run hands back to the pool."""

    results: List[ShardResult]
    stats: SupervisionStats
    failures: List[ShardFailure]
    planned: int
    degraded: bool = False
    deadline_hit: bool = False
    incomplete_shards: Tuple[int, ...] = ()


class CooperativeDeadline:
    """In-process deadline polled by ``run_shard`` at stage boundaries.

    Threads cannot be forcibly cancelled, so thread/inline shard attempts
    carry one of these and check it between stages; blowing the budget
    raises :class:`ShardTimeout` from *inside* the worker, which the
    supervisor classifies exactly like an external timeout.
    """

    def __init__(self, expires_at: float, *, shard_id: int, backend: str,
                 seed: object, attempt: int, rung: str, timeout: Optional[float]) -> None:
        self.expires_at = expires_at
        self._attribution = dict(
            shard_id=shard_id, backend=backend, seed=seed, attempt=attempt, rung=rung
        )
        self._timeout = timeout

    def check(self, stage: str = "") -> None:
        if time.monotonic() >= self.expires_at:
            raise ShardTimeout(
                f"cooperative deadline expired at stage {stage!r}",
                timeout=self._timeout,
                **self._attribution,
            )


class _ShardState:
    """Supervisor-side bookkeeping for one shard of the plan."""

    __slots__ = (
        "task", "attempt", "rung", "not_before", "last_signature",
        "crash_streak", "history", "done", "failure",
    )

    def __init__(self, task: ShardTask, rung: str) -> None:
        self.task = task
        self.attempt = 0          # next attempt number to launch
        self.rung = rung
        self.not_before = 0.0     # monotonic launch gate (backoff)
        self.last_signature: Optional[Tuple[str, str]] = None
        self.crash_streak = 0
        self.history: List[str] = []
        self.done = False
        self.failure: Optional[ShardFailure] = None


class _Handle:
    """One shard attempt: its future and, on the process rung, its worker."""

    __slots__ = ("state", "attempt", "rung", "future", "process", "started_at", "abandoned")

    def __init__(self, state: _ShardState, attempt: int, rung: str) -> None:
        self.state = state
        self.attempt = attempt
        self.rung = rung
        self.future: Optional[Future] = None
        self.process = None
        self.started_at: Optional[float] = None
        self.abandoned = False

    @property
    def attribution(self) -> Dict[str, object]:
        """The shard-attribution keywords every :class:`ShardError` takes."""
        task = self.state.task
        return dict(shard_id=task.shard_id, backend=task.backend, seed=task.seed,
                    attempt=self.attempt, rung=self.rung)


def _process_shard_entry(conn, task: "ShardTask", attempt: int,
                         fault_plan: Optional[FaultPlan]) -> None:
    """Worker-process entry point (module-level: ``spawn`` imports by name)."""
    try:
        from repro.parallel.shards import run_shard

        result = run_shard(task, attempt, fault_plan)
        conn.send(("ok", result))
    except BaseException as error:  # noqa: BLE001 - full fidelity back to parent
        try:
            conn.send(("error", type(error).__name__, str(error),
                       traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class _RemoteShardException(RuntimeError):
    """An exception re-materialized from a worker process."""

    def __init__(self, type_name: str, message: str, formatted: str) -> None:
        self.type_name = type_name
        self.remote_message = message
        self.formatted = formatted
        super().__init__(f"{type_name}: {message}")


class _LaunchFailure(Exception):
    """The worker process never started (unpicklable task, spawn failure)."""


class ShardSupervisor:
    """Dispatch a shard plan with retries, timeouts, and degradation.

    Parameters
    ----------
    tasks:
        The fixed shard plan (see ``ParallelSamplerPool.plan_tasks``).
    execution:
        Starting rung: ``"process"``, ``"thread"``, or ``"inline"``.
    workers:
        Concurrency cap: ``max_workers`` of the executor created when none
        is given.
    policy:
        Retry/backoff policy.
    shard_timeout:
        Per-shard-attempt wall-clock budget (``None``: unbounded).
    deadline:
        Job-level wall-clock budget measured from ``run()`` entry.
    allow_partial:
        On deadline expiry or exhausted shards, return completed shards
        (``degraded=True``) instead of raising.
    fault_plan:
        Deterministic fault plan threaded into every ``run_shard`` call
        (``None``: workers fall back to the ``REPRO_FAULT_RATE`` env
        harness).
    executor:
        Optional pre-built ``ThreadPoolExecutor`` for thread and process
        attempts (a process attempt holds one executor thread while its
        worker runs).  Borrowed, not owned: reused across supervisor runs
        (the long-lived pool hands its executor to every run) and never
        shut down here.
    """

    def __init__(
        self,
        tasks: Sequence[ShardTask],
        *,
        execution: str = "thread",
        workers: int = 1,
        policy: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        allow_partial: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        executor: Optional[object] = None,
    ) -> None:
        if execution not in LADDER:
            raise ValueError(f"execution must be one of {LADDER}, got {execution!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative")
        self.tasks = list(tasks)
        self.execution = execution
        self.workers = int(workers)
        self.policy = policy or RetryPolicy()
        self.shard_timeout = shard_timeout
        self.deadline = deadline
        self.allow_partial = allow_partial
        self.fault_plan = fault_plan
        self.stats = SupervisionStats()
        if self.tasks:
            self._expected_versions: Optional[Tuple[int, ...]] = observed_versions(
                self.tasks[0].queries
            )
        else:
            self._expected_versions = None
        self._results: Dict[int, ShardResult] = {}
        self._states: List[_ShardState] = []
        self._running: List[_Handle] = []
        self._deadline_at: Optional[float] = None
        #: executor of thread and process attempts.  A caller-provided
        #: executor (the pool's long-lived one) is borrowed — reused across
        #: supervisors and never shut down here; a lazily-created one is
        #: owned and reaped in ``_cleanup``.
        self._executor = executor
        self._owns_executor = executor is None
        self._warned_thread_cancel = False

    # ------------------------------------------------------------------ public
    def run(self) -> SupervisedOutcome:
        """Execute the plan; returns completed results in shard-id order."""
        self._states = [_ShardState(task, self.execution) for task in self.tasks]
        started = time.monotonic()
        self._deadline_at = None if self.deadline is None else started + self.deadline
        try:
            return self._loop()
        finally:
            self._cleanup()

    def close(self) -> None:
        """Release any still-live workers and the owned executor; idempotent.

        :meth:`run` already cleans up on every exit path, so this only
        matters for a supervisor abandoned before (or killed during) a run —
        but having the lifecycle method makes ownership of the lazily
        created thread executor explicit.
        """
        self._cleanup()

    # -------------------------------------------------------------------- loop
    def _loop(self) -> SupervisedOutcome:
        # Loop on shard *states*, not in-flight handles: an abandoned thread
        # future may outlive every shard's resolution and must not keep the
        # supervisor spinning.
        while any(s for s in self._states if not s.done and s.failure is None):
            now = time.monotonic()
            if self._deadline_at is not None and now >= self._deadline_at:
                return self._finish_deadline()
            self._launch_ready(now)
            if not any(s for s in self._states if not s.done and s.failure is None):
                break  # inline launches may have resolved everything
            self._wait()
            for handle in list(self._running):
                if handle.future.done():
                    self._collect(handle)
            self._expire_timeouts()
        return self._finish()

    def _is_running(self, state: _ShardState) -> bool:
        return any(h.state is state and not h.abandoned for h in self._running)

    def _launch_ready(self, now: float) -> None:
        for state in self._states:
            if state.done or state.failure is not None or self._is_running(state):
                continue
            if state.not_before <= now:
                self._launch(state)

    def _launch(self, state: _ShardState) -> None:
        rung = state.rung
        self.stats.attempts += 1
        self.stats.rungs[rung] = self.stats.rungs.get(rung, 0) + 1
        if state.attempt > 0:
            self.stats.retries += 1
        handle = _Handle(state, state.attempt, rung)
        self._running.append(handle)
        if rung != "inline":
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-shard"
                )
                self._owns_executor = True
            handle.future = self._executor.submit(self._attempt, handle)
            return
        # Inline: a future already done when created, collected before the
        # next shard launches — the sequential fast path and its fail-fast
        # order.
        handle.future = Future()
        try:
            handle.future.set_result(self._attempt(handle))
        except Exception as error:  # noqa: BLE001 - classified in _collect
            handle.future.set_exception(error)
        self._collect(handle)

    def _attempt(self, handle: _Handle) -> "ShardResult":
        """Run one attempt to its result, or raise its failure.

        A process attempt spawns one worker and blocks on its pipe: it
        raises ``_LaunchFailure`` if the worker never started,
        :class:`ShardCrash` with the exit code if it died without a message,
        and ``_RemoteShardException`` for an error it sent back.
        """
        from repro.parallel.shards import run_shard

        handle.started_at = time.monotonic()
        task = handle.state.task
        if handle.rung != "process":
            deadline = self._coop_deadline(handle)
            return run_shard(task, handle.attempt, self.fault_plan, deadline)
        import multiprocessing as mp
        from multiprocessing import connection

        try:
            context = mp.get_context("spawn")
            conn, child_conn = context.Pipe(duplex=False)
            with child_conn:
                process = context.Process(
                    target=_process_shard_entry,
                    args=(child_conn, task, handle.attempt, self.fault_plan),
                    daemon=True,
                )
                process.start()
        except Exception as error:
            raise _LaunchFailure(error) from error
        handle.process = process
        # Abandoned while the worker was spawning: ``_abandon`` sets the flag
        # before it reads ``handle.process``, so one side always terminates.
        if handle.abandoned:
            process.terminate()
        message = None
        try:
            connection.wait([conn, process.sentinel])
            if conn.poll():
                message = conn.recv()
        except EOFError:
            pass  # the pipe died mid-send
        finally:
            conn.close()
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        if message is None:  # died without a message: os._exit, OOM kill, ...
            raise ShardCrash("worker process died before returning a result",
                             exitcode=process.exitcode, **handle.attribution)
        if message[0] == "error":
            raise _RemoteShardException(*message[1:])
        return message[1]

    def _coop_deadline(self, handle: _Handle) -> Optional[CooperativeDeadline]:
        expires = []
        if self.shard_timeout is not None:
            expires.append(handle.started_at + self.shard_timeout)
        if self._deadline_at is not None:
            expires.append(self._deadline_at)
        if not expires:
            return None
        return CooperativeDeadline(min(expires), timeout=self.shard_timeout,
                                   **handle.attribution)

    # ------------------------------------------------------------------ waiting
    def _next_event_delay(self) -> Optional[float]:
        now = time.monotonic()
        candidates: List[float] = []
        if self._deadline_at is not None:
            candidates.append(self._deadline_at)
        for handle in self._running:
            if self.shard_timeout is not None and not handle.abandoned:
                # An attempt still queued on the executor expires no sooner
                # than one timeout from now.
                started = now if handle.started_at is None else handle.started_at
                candidates.append(started + self.shard_timeout)
        for state in self._states:
            if not state.done and state.failure is None and not self._is_running(state):
                candidates.append(state.not_before)
        if not candidates:
            return None
        return max(0.0, min(candidates) - now)

    def _wait(self) -> None:
        """Block until an attempt finishes or the next timeout, deadline or
        backoff gate is due."""
        live = [h.future for h in self._running if not h.abandoned]
        delay = self._next_event_delay()
        if live:
            wait(live, timeout=delay, return_when=FIRST_COMPLETED)
        elif delay:
            # Everything launchable is backing off: sleep to the gate.
            time.sleep(min(delay, self.policy.backoff_cap or 0.05))

    # --------------------------------------------------------------- collection
    def _collect(self, handle: _Handle) -> None:
        self._running.remove(handle)
        if handle.abandoned:
            return  # late outcome of a timed-out or deadline-hit attempt: discarded
        error = handle.future.exception()
        if error is None:
            self._accept_result(handle, handle.future.result())
        elif isinstance(error, _LaunchFailure):
            # The process rung itself is broken for this shard: step straight
            # down the ladder and retry there.
            state = handle.state
            self._note(state, f"attempt {handle.attempt + 1}: process launch failed: {error}")
            self._degrade(state, reason=f"process launch failed: {error}")
            self.stats.shard_crashes += 1
            self._schedule_retry(state)
        elif isinstance(error, ShardTimeout):
            self._handle_failure(handle, error, "timeout", original=error)
        elif handle.rung == "process" and isinstance(error, ShardCrash):
            self._handle_failure(handle, error, "crash")
        else:
            self._handle_failure(handle, error, "exception", original=error)

    def _abandon(self, handle: _Handle) -> None:
        """Give up on a live attempt; its outcome, if one comes, is discarded.

        A worker process is terminated (if the executor has not started the
        attempt yet, it never will); a running thread cannot be, so it is
        counted as abandoned.
        """
        handle.abandoned = True
        handle.future.cancel()
        if handle.rung != "process":
            self.stats.abandoned_threads += 1
        elif handle.process is not None:
            handle.process.terminate()

    def _expire_timeouts(self) -> None:
        if self.shard_timeout is None:
            return
        now = time.monotonic()
        for handle in list(self._running):
            if handle.abandoned or handle.started_at is None:
                continue
            if now - handle.started_at < self.shard_timeout:
                continue
            self._abandon(handle)
            if handle.rung != "process" and not self._warned_thread_cancel:
                self._warned_thread_cancel = True
                message = (
                    f"shard {handle.state.task.shard_id} exceeded its "
                    f"{self.shard_timeout:g}s timeout on the thread rung; thread "
                    "workers cannot be forcibly cancelled — the attempt is "
                    "abandoned (cooperative deadline checks run at stage "
                    "boundaries only) and the shard is retried"
                )
                self.stats.warnings.append(message)
                warnings.warn(message, RuntimeWarning, stacklevel=2)
            error = ShardTimeout("shard attempt exceeded its per-shard timeout",
                                 timeout=self.shard_timeout, **handle.attribution)
            self._handle_failure(handle, error, "timeout")

    # ----------------------------------------------------------- classification
    def _accept_result(self, handle: _Handle, result: "ShardResult") -> None:
        from repro.parallel.shards import verify_shard_result

        state = handle.state
        problem = verify_shard_result(state.task, result, self._expected_versions)
        if problem is not None:
            self._handle_failure(handle, CorruptShardResult(problem, **handle.attribution),
                                 "corrupt")
            return
        state.done = True
        state.crash_streak = 0
        self._results[state.task.shard_id] = result
        self.stats.completed += 1

    def _handle_failure(self, handle: _Handle, error: BaseException, category: str,
                        original: Optional[BaseException] = None) -> None:
        state = handle.state
        if not isinstance(error, ShardError):
            wrapped = ShardCrash(f"shard raised {type(error).__name__}: {error}",
                                 **handle.attribution)
            wrapped.__cause__ = original if original is not None else error
            shard_error: ShardError = wrapped
        else:
            if original is not None and original is not error:
                error.__cause__ = original
            shard_error = error

        counter = {
            "exception": "shard_exceptions",
            "crash": "shard_crashes",
            "timeout": "shard_timeouts",
            "corrupt": "corrupt_results",
        }[category]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self._note(state, f"attempt {handle.attempt + 1} [{handle.rung}] "
                          f"{category}: {shard_error}")

        # Poison detection: only deterministic in-shard exceptions qualify
        # (timeouts, process deaths, and integrity rejections are
        # infrastructure noise, not proof the shard itself is poisoned).
        poison = False
        if category == "exception":
            signature = self._signature_of(original if original is not None else error)
            if state.last_signature is not None and state.last_signature == signature:
                poison = True
            state.last_signature = signature
        else:
            state.last_signature = None

        if category == "crash":
            state.crash_streak += 1
            if state.crash_streak >= 2:
                self._degrade(state, reason="worker keeps dying")
        else:
            state.crash_streak = 0

        if poison:
            self.stats.poison_shards += 1
            poison_error = PoisonShardError(
                "shard failed identically twice; retries cannot succeed "
                f"(signature {state.last_signature!r})",
                failure_signature=state.last_signature or ("", ""),
                **handle.attribution,
            )
            poison_error.__cause__ = shard_error
            self._fail_shard(state, handle.attempt + 1, poison_error)
            return

        attempts_used = state.attempt + 1
        if attempts_used > self.policy.max_retries:
            self._fail_shard(state, attempts_used, shard_error)
        else:
            self._schedule_retry(state)

    def _schedule_retry(self, state: _ShardState) -> None:
        state.attempt += 1
        state.not_before = time.monotonic() + self.policy.backoff_for(
            state.task.shard_id, state.attempt
        )

    def _signature_of(self, error: BaseException) -> Tuple[str, str]:
        if isinstance(error, _RemoteShardException):
            return (error.type_name, error.remote_message)
        if isinstance(error, ShardError):
            return error.signature()
        return (type(error).__name__, str(error))

    def _fail_shard(self, state: _ShardState, attempts: int, error: ShardError) -> None:
        state.failure = ShardFailure(
            shard_id=state.task.shard_id,
            attempts=attempts,
            error=error,
            history=list(state.history),
        )
        self.stats.failed += 1
        if not self.allow_partial:
            # Re-raise with full shard attribution, chaining the original
            # traceback where one exists (thread-rung exceptions carry it;
            # process-rung failures carry the formatted remote traceback).
            raise error from error.__cause__

    def _degrade(self, state: _ShardState, reason: str) -> None:
        """Move a process-rung shard onto a thread: the ladder's only step."""
        state.rung = "thread"
        state.crash_streak = 0
        self.stats.degradations += 1
        self._note(state, f"degraded to rung {state.rung!r}: {reason}")

    def _note(self, state: _ShardState, message: str) -> None:
        state.history.append(message)

    # ------------------------------------------------------------------- finish
    def _finish(self, deadline_hit: bool = False) -> SupervisedOutcome:
        failures = [s.failure for s in self._states if s.failure is not None]
        return SupervisedOutcome(
            results=[self._results[i] for i in sorted(self._results)],
            stats=self.stats,
            failures=failures,
            planned=len(self._states),
            degraded=deadline_hit or bool(failures),
            deadline_hit=deadline_hit,
            incomplete_shards=self._incomplete(),
        )

    def _incomplete(self) -> Tuple[int, ...]:
        return tuple(sorted(s.task.shard_id for s in self._states if not s.done))

    def _finish_deadline(self) -> SupervisedOutcome:
        for handle in self._running:
            if not handle.abandoned:
                self._abandon(handle)
        if not self.allow_partial:
            raise JobDeadlineExceeded(
                f"parallel job exceeded its {self.deadline:g}s deadline",
                deadline=self.deadline,
                completed=len(self._results),
                planned=len(self._states),
                incomplete_shards=self._incomplete(),
            )
        return self._finish(deadline_hit=True)

    def _cleanup(self) -> None:
        for handle in self._running:
            if not handle.abandoned:
                self._abandon(handle)
        self._running.clear()
        if self._executor is not None:
            if self._owns_executor:
                self._executor.shutdown(wait=False)
            self._executor = None


__all__ = [
    "LADDER",
    "CooperativeDeadline",
    "RetryPolicy",
    "ShardFailure",
    "ShardSupervisor",
    "SupervisedOutcome",
    "SupervisionStats",
]
