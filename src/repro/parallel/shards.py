"""Shard specifications and the worker entry point of the parallel service.

A parallel run is planned as a fixed list of **shards**.  Each shard is a
self-contained, picklable :class:`ShardTask`: the queries to sample, the
backend to use, the number of accepted samples (or attempts) the shard must
produce, and a :class:`numpy.random.SeedSequence` child derived from the
root seed with :func:`repro.utils.rng.shard_seed_sequences`.

Because a shard's output depends only on its task — never on which worker
executes it, whether that worker is a thread or a spawned process, or how
many sibling shards run concurrently — the coordinator can merge shard
results *in shard order* and obtain answers that are bit-identical to a
sequential run of the same shard list.  For aggregation the merge is the
:meth:`repro.aqp.estimators.AggregateAccumulator.merge` law (exactly-rounded
sums, chunk-order-invariant); for plain sampling it is list concatenation.

:func:`run_shard` is the single worker entry point.  An aggregate shard is
one block source (:mod:`repro.aqp.sources`) driven once by the same
``draw_into`` that drives every ``OnlineAggregator.step``; a plain-sampling
shard differs only in payload: a join block, or union values drawn from the
same :class:`~repro.aqp.sources.UnionCoverSource` (no warm-up).  ``run_shard``
must stay a module-level function: ``multiprocessing`` with the ``spawn``
start method imports this module inside the worker and looks it up by name.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.aqp.estimators import AggregateAccumulator, AggregateSpec
from repro.aqp.planner import BACKEND_WEIGHTS
from repro.aqp.sources import UnionCoverSource, build_sources, draw_into
from repro.joins.query import JoinQuery, observed_versions
from repro.resilience.faults import (
    FaultPlan,
    apply_pre_fault,
    fault_plan_from_env,
    in_worker_process,
)
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler
from repro.utils.rng import ensure_rng

#: Backends a shard can run.  ``wander-join`` is aggregate-only (its walks
#: carry Horvitz–Thompson weights, not uniform samples).
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
        Accepted samples this shard must produce (aggregate shards of
        ``wander-join`` and ``online-union``: *attempts*, their HT unit).
    seed:
        The shard's independent :class:`numpy.random.SeedSequence` child.
    spec:
        Aggregate to accumulate, or ``None`` for plain sampling.  Process
        execution requires the spec to be picklable: a ``where``
        :class:`~repro.relational.predicates.Predicate` is, a lambda is not,
        and the pool falls back to threads for it.
    max_attempts:
        Attempt budget forwarded to the underlying sampler.
    """

    shard_id: int
    queries: Tuple[JoinQuery, ...]
    backend: str
    count: int
    seed: np.random.SeedSequence
    spec: Optional[AggregateSpec] = None
    max_attempts: int = 1_000_000

    def __post_init__(self) -> None:
        if self.backend not in SHARD_BACKENDS:
            raise ValueError(f"backend must be one of {SHARD_BACKENDS}, got {self.backend!r}")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if not self.queries:
            raise ValueError("a shard needs at least one query")
        if self.backend == "wander-join" and self.spec is None:
            raise ValueError("wander-join shards are aggregate-only (HT weights)")


@dataclass
class ShardResult:
    """What one shard hands back to the coordinator (picklable).

    Exactly one of ``accumulator`` (aggregate mode), ``block`` (join-backend
    sampling mode), or ``values`` (union sampling mode) is populated.
    Join-backend sampling shards ship a struct-of-arrays
    :class:`~repro.sampling.blocks.SampleBlock` — a handful of small integer
    arrays that pickle for cents — instead of boxed draw lists; the
    coordinator projects values from the block against its own relations
    (validated unchanged by the epoch guard).  ``attempts``/``accepted``
    mirror the sampler's attempt-level accounting so the coordinator can
    report fleet totals.
    """

    shard_id: int
    attempts: int = 0
    accepted: int = 0
    accumulator: Optional[AggregateAccumulator] = None
    block: Optional[SampleBlock] = None
    values: List[Tuple] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)
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
        payload = (
            self.shard_id,
            self.attempts,
            self.accepted,
            self.db_versions,
            self.accumulator,
            self.block,
            self.values,
            self.sources,
        )
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
    rng = ensure_rng(task.seed)
    result = ShardResult(
        shard_id=task.shard_id,
        db_versions=observed_versions(task.queries),
        worker_attempt=attempt,
    )
    if task.spec is not None:
        accumulator = AggregateAccumulator(task.spec, task.queries[0].output_schema)
        if task.count:
            sources = build_sources(
                task.queries, task.backend, rng, max_attempts=task.max_attempts
            )
            draw_into(accumulator, sources, task.count)
        result.accumulator = accumulator
        # Read the counters off the accumulator, not the sampler: an empty
        # join accounts its failed attempts there without ever walking, and
        # both must agree in the merged report.
        result.attempts = accumulator.attempts
        result.accepted = accumulator.accepted
    elif task.count and task.backend == "online-union":
        union = UnionCoverSource(task.queries, rng).take(task.count, task.max_attempts)
        result.values = list(zip(*(column.tolist() for column in union.columns)))
        result.sources = [task.queries[owner].name for owner in union.owners.tolist()]
        result.attempts = union.attempts
        result.accepted = task.count
    elif task.count:
        sampler = JoinSampler(task.queries[0], weights=BACKEND_WEIGHTS[task.backend], seed=rng)
        result.block = sampler.sample_block(task.count, max_attempts=task.max_attempts)
        result.attempts = sampler.stats.attempts
        result.accepted = sampler.stats.accepted
    return _finish_shard(result, action, deadline, seal)


def _finish_shard(result: ShardResult, action, deadline, seal) -> ShardResult:
    """Seal the result; apply a ``corrupt`` fault *after* the checksum."""
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
        result.attempts += 1
        result.accepted += 1
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
    "observed_versions",
    "run_shard",
    "verify_shard_result",
]
