"""Fault tolerance for the parallel sampling service.

Three pieces, layered under :mod:`repro.parallel`:

* :mod:`repro.resilience.errors` — the structured failure taxonomy
  (:class:`ShardCrash`, :class:`ShardTimeout`, :class:`CorruptShardResult`,
  :class:`PoisonShardError`, :class:`JobDeadlineExceeded`), every member
  carrying shard attribution (shard id, seed, backend, attempt, rung).
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness: seeded :class:`FaultPlan` objects (scripted or rate-based) that
  make workers raise, hang, die, or return corrupted results in an exactly
  replayable pattern, plus the ``REPRO_FAULT_RATE`` environment harness for
  CI chaos legs.
* :mod:`repro.resilience.supervisor` — :class:`ShardSupervisor`, the
  per-shard dispatch engine: every attempt is one future, launched, waited
  on and collected the same way on every rung.  It brings bounded retries
  (:class:`RetryPolicy`), per-shard timeouts, job deadlines with principled
  partial results, poison detection, and the one ``process -> thread``
  degradation step.

See ``docs/resilience.md`` for the design rationale and the determinism
argument (retries and degradations never change the merged answer).
"""

from repro.resilience.errors import (
    CorruptShardResult,
    EmptyResultError,
    JobDeadlineExceeded,
    PoisonShardError,
    ShardCrash,
    ShardError,
    ShardTimeout,
    describe_seed,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    HTTP_FAULT_KINDS,
    KILL_EXIT_CODE,
    NO_FAULTS,
    FaultAction,
    FaultPlan,
    InjectedFault,
    apply_pre_fault,
    fault_plan_from_env,
    in_worker_process,
)
from repro.resilience.supervisor import (
    LADDER,
    CooperativeDeadline,
    RetryPolicy,
    ShardFailure,
    ShardSupervisor,
    SupervisedOutcome,
    SupervisionStats,
)

__all__ = [
    "FAULT_KINDS",
    "HTTP_FAULT_KINDS",
    "KILL_EXIT_CODE",
    "LADDER",
    "NO_FAULTS",
    "CooperativeDeadline",
    "CorruptShardResult",
    "EmptyResultError",
    "FaultAction",
    "FaultPlan",
    "InjectedFault",
    "JobDeadlineExceeded",
    "PoisonShardError",
    "RetryPolicy",
    "ShardCrash",
    "ShardError",
    "ShardFailure",
    "ShardSupervisor",
    "ShardTimeout",
    "SupervisedOutcome",
    "SupervisionStats",
    "apply_pre_fault",
    "describe_seed",
    "fault_plan_from_env",
    "in_worker_process",
]
