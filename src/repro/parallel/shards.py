"""Shard specifications and the worker entry point of the parallel service.

A parallel aggregate is planned as a fixed list of **shards**.  Each shard
is a self-contained, picklable :class:`ShardTask`: the queries to sample,
the backend to use, the aggregate, the number of accepted samples (or
attempts) the shard must produce, and a :class:`numpy.random.SeedSequence`
child derived from the root seed with
:func:`repro.utils.rng.shard_seed_sequences`.

Because a shard's output depends only on its task — never on which worker
executes it, whether that worker is a thread or a spawned process, or how
many sibling shards run concurrently — the coordinator can merge shard
results *in shard order* and obtain answers that are bit-identical to a
sequential run of the same shard list: the merge is the
:meth:`repro.aqp.estimators.AggregateAccumulator.merge` law (exactly-rounded
sums, chunk-order-invariant).

:func:`run_shard` is the single worker entry point: a shard is one block
source (:mod:`repro.aqp.sources`) driven once by the same ``draw_into`` that
drives every ``OnlineAggregator.step``.  ``run_shard`` must stay a
module-level function: ``multiprocessing`` with the ``spawn`` start method
imports this module inside the worker and looks it up by name.  Plain
samples do not come through here: they run the chunk loop of
:func:`repro.aqp.sources.draw_chunks`.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.aqp.estimators import AggregateAccumulator, AggregateSpec
from repro.aqp.sources import build_sources, draw_into
from repro.joins.query import JoinQuery, observed_versions
from repro.resilience.faults import (
    FaultPlan,
    apply_pre_fault,
    fault_plan_from_env,
    in_worker_process,
)
from repro.utils.rng import ensure_rng

#: Backends a shard can run.
SHARD_BACKENDS = ("exact-weight", "olken", "wander-join", "online-union")


@dataclass(frozen=True)
class ShardTask:
    """One self-contained unit of parallel work (picklable).

    Attributes
    ----------
    shard_id:
        Position of this shard in the plan; results merge in this order.
    queries:
        The query (or union-compatible queries) to sample.  Process workers
        receive a pickled copy of the base relations; thread workers share
        the coordinator's objects.
    backend:
        One of :data:`SHARD_BACKENDS`.
    count:
        Accepted samples this shard must produce (``wander-join`` and
        ``online-union``: *attempts*, their HT unit).
    seed:
        The shard's independent :class:`numpy.random.SeedSequence` child.
    spec:
        Aggregate to accumulate.  Process execution requires the spec to be
        picklable: a ``where`` :class:`~repro.relational.predicates.Predicate`
        is, a lambda is not, and the pool falls back to threads for it.
    max_attempts:
        Attempt budget forwarded to the underlying sampler.
    """

    shard_id: int
    queries: Tuple[JoinQuery, ...]
    backend: str
    count: int
    seed: np.random.SeedSequence
    spec: AggregateSpec
    max_attempts: int = 1_000_000

    def __post_init__(self) -> None:
        if self.backend not in SHARD_BACKENDS:
            raise ValueError(f"backend must be one of {SHARD_BACKENDS}, got {self.backend!r}")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if not self.queries:
            raise ValueError("a shard needs at least one query")


@dataclass
class ShardResult:
    """What one shard hands back to the coordinator (picklable): its partial
    accumulator, whose counters the coordinator sums into fleet totals (an
    empty join accounts its failed attempts there without ever walking)."""

    shard_id: int
    accumulator: AggregateAccumulator
    #: per-relation version counters observed when the shard started, used by
    #: the coordinator's epoch guard (thread workers share live relations)
    db_versions: Tuple[int, ...] = ()
    #: supervisor attempt that produced this result (0 = first try); echoes
    #: back so late results of abandoned attempts are recognizable
    worker_attempt: int = 0
    #: blake2b digest over the payload, computed by the worker just before
    #: hand-off and re-verified by the coordinator before merging; ``None``
    #: when the payload is unpicklable (a ``where`` given as a lambda rather
    #: than a ``Predicate``) and the check is skipped
    checksum: Optional[str] = None

    def fingerprint(self) -> Optional[str]:
        """Digest of the merge-relevant payload, or ``None`` if unpicklable."""
        payload = (self.shard_id, self.db_versions, self.accumulator)
        try:
            raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        return hashlib.blake2b(raw, digest_size=16).hexdigest()

    def seal(self) -> "ShardResult":
        """Stamp the integrity checksum (the worker's last act)."""
        self.checksum = self.fingerprint()
        return self


def run_shard(
    task: ShardTask,
    attempt: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    deadline: Optional[object] = None,
    seal: Optional[bool] = None,
) -> ShardResult:
    """Execute one shard; the worker entry point for threads and processes.

    The draw stream depends only on ``task.seed`` and the relation contents,
    so thread and process execution of the same task return identical
    results — and so does a *retry*: ``attempt`` feeds only the
    fault-injection harness and supervisor bookkeeping, never the sampler
    RNG, which is what makes a re-executed shard bit-identical to the run
    that failed.

    ``fault_plan`` threads the deterministic fault harness into the worker
    (``None`` falls back to the ``REPRO_FAULT_RATE`` environment harness;
    pass :data:`repro.resilience.faults.NO_FAULTS` to opt out explicitly).
    ``deadline`` is an optional cooperative-deadline object whose ``check()``
    raises when the in-process (thread/inline) time budget is spent; it is
    consulted at stage boundaries since a thread cannot be forcibly killed.
    ``seal`` controls the integrity checksum (an extra pickle of the
    payload): ``None`` stamps it only where it can catch anything — inside a
    spawned worker, whose result crosses a pipe, or under an active fault
    action — so the in-process fast path pays nothing for it.
    """
    if fault_plan is None:
        fault_plan = fault_plan_from_env()
    action = fault_plan.action_for(task.shard_id, attempt) if fault_plan else None
    if deadline is not None:
        deadline.check("shard start")
    apply_pre_fault(action, task.shard_id, attempt)
    versions = observed_versions(task.queries)
    accumulator = AggregateAccumulator(task.spec, task.queries[0].output_schema)
    if task.count:
        sources = build_sources(
            task.queries, task.backend, ensure_rng(task.seed), max_attempts=task.max_attempts
        )
        draw_into(accumulator, sources, task.count)
    result = ShardResult(task.shard_id, accumulator, versions, attempt)
    if deadline is not None:
        deadline.check("shard finish")
    if seal is None:
        # Auto: the checksum guards the pipe back from a spawned worker and
        # the fault harness's corrupt faults.  A thread/inline result never
        # leaves the coordinator's address space, so sealing it would only
        # tax the fault-free fast path with an extra pickle of the payload.
        seal = in_worker_process() or action is not None
    if seal:
        result.seal()
    if action is not None and action.kind == "corrupt":
        # Simulated transport/memory corruption: the payload mutates after
        # the worker stamped its checksum, so the coordinator's pre-merge
        # integrity check must reject this result.
        result.accumulator.attempts += 1
        result.accumulator.accepted += 1
    return result


def verify_shard_result(
    task: ShardTask,
    result: ShardResult,
    expected_versions: Optional[Tuple[int, ...]] = None,
) -> Optional[str]:
    """Pre-merge integrity check; returns a problem description or ``None``.

    Three layers: the **shard-id echo** (the result must answer the task it
    was dispatched for), the **epoch echo** (the result must describe the
    database snapshot the coordinator planned against — a mismatch while the
    live relations still show the planned versions can only be corruption;
    a mismatch *with* a live version bump is a genuine mutation epoch and is
    left to the pool's epoch guard), and the **payload checksum** (the
    worker's sealed digest must reproduce on the coordinator's side).
    Unpicklable payloads (a lambda ``where`` instead of a ``Predicate``)
    carry no checksum; the cheaper echoes still apply.
    """
    if result.shard_id != task.shard_id:
        return (
            f"shard-id echo mismatch: task {task.shard_id} received a result "
            f"claiming shard {result.shard_id}"
        )
    if result.checksum is not None and result.fingerprint() != result.checksum:
        return "payload checksum mismatch: result corrupted in flight"
    if expected_versions is not None and result.db_versions != expected_versions:
        if observed_versions(task.queries) == expected_versions:
            return (
                f"epoch echo mismatch: result claims snapshot {result.db_versions}, "
                f"coordinator planned {expected_versions} and the live relations "
                "still match the plan"
            )
        return None  # genuine mid-flight mutation: the epoch guard restarts
    return None


__all__ = [
    "SHARD_BACKENDS",
    "ShardTask",
    "ShardResult",
    "run_shard",
    "verify_shard_result",
]
