"""Online aggregation: drive a sampler until the error target is met.

:class:`OnlineAggregator` wires a planner-selected sampler backend to a
streaming :class:`~repro.aqp.estimators.AggregateAccumulator` and exposes the
classic online-aggregation loop: draw a batch, update the estimate, report a
confidence interval, stop once ``until(rel_error, confidence)`` is satisfied.

The backend is a list of block sources (:mod:`repro.aqp.sources`, one per
``parallelism`` shard); whatever it is, a step syncs the epoch, serves cached
blocks, fans the rest out over the sources, ingests, publishes to the cache.

Update semantics (``repro.dynamic`` epochs): every batch first re-syncs
every source with the base relations.  When a mutation epoch is detected the
accumulator **restarts** — Horvitz–Thompson contributions are only exchangeable
within one database snapshot, so mixing attempts across epochs would silently
bias the estimate.  The number of restarts is tracked in
:attr:`OnlineAggregator.epochs_restarted`; estimates reported before a
mutation remain valid for the snapshot they were computed on.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Optional, Sequence, Tuple, Union

from repro.cache.store import SampleCache
from repro.resilience.errors import EmptyResultError, JobDeadlineExceeded

from repro.aqp.estimators import AggregateAccumulator, AggregateReport, AggregateSpec
from repro.aqp.planner import (
    BACKEND_WEIGHTS,
    SamplerPlan,
    SamplerPlanner,
    supported_backends,
)
from repro.aqp.sources import build_sources, draw_into
from repro.joins.query import JoinQuery, observed_versions
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import z_value
from repro.utils.rng import RandomState, ensure_rng, spawn_rngs


class OnlineAggregator:
    """Approximate COUNT/SUM/AVG/GROUP-BY over a join or union of joins.

    Parameters
    ----------
    queries:
        One :class:`JoinQuery` (SQL bag semantics) or a union-compatible
        sequence of them (set semantics over ``J_1 ∪ ... ∪ J_n``).
    spec:
        The aggregate to compute.
    method:
        ``"auto"`` (cost-based planning) or an explicit backend:
        ``"exact-weight"``, ``"olken"``, ``"wander-join"``, ``"online-union"``.
        Explicit backends are validated against the capability matrix.
        A union's ``"online-union"`` steps count cover-source attempts.
    confidence / ci_method:
        Interval defaults used by :meth:`estimate` and the stopping rule.
    parallelism:
        When > 1, every :meth:`step` fans its batch out across that many
        in-process sources (independent seed streams derived from ``seed``;
        JoinSampler backends shard via ``split()``) and ingests the draws in
        source order, so a fixed ``(seed, parallelism)`` pair is fully
        deterministic.  Epoch restarts apply to the whole fleet: a
        ``refresh()`` bump observed on any source discards the accumulated
        state, exactly as with one source.  (For process-based fan-out over
        CPU cores use :func:`repro.parallel.parallel_aggregate`.)
    cache:
        Optional :class:`~repro.cache.store.SampleCache`.  Each step first
        re-consumes any cached blocks of this join shape drawn under the
        current epoch (whole blocks, attempts and weight intact — the same
        pooling the parallel shard merge performs), and tops up with fresh
        draws only when the cached stream is exhausted; fresh draws are
        published back so later aggregators over the same shape reuse them.
        ``cached_samples`` / ``fresh_samples`` report the split.  With a
        cold or absent cache the draw stream is byte-for-byte what it would
        be without ``cache=`` (the cache never consumes RNG state).
        Requires a single query, ``parallelism == 1``, and a shared-weight
        JoinSampler backend; an ``auto`` plan that picks another backend
        simply runs uncached.
    """

    def __init__(
        self,
        queries: Union[JoinQuery, Sequence[JoinQuery]],
        spec: AggregateSpec,
        method: str = "auto",
        seed: RandomState = None,
        confidence: float = 0.95,
        ci_method: str = "clt",
        batch_size: Optional[int] = None,
        target_samples: int = 1024,
        bootstrap_replicates: int = 200,
        parallelism: int = 1,
        join_sampler: Optional[JoinSampler] = None,
        cache: Optional[SampleCache] = None,
    ) -> None:
        if isinstance(queries, JoinQuery):
            queries = [queries]
        self.queries: Tuple[JoinQuery, ...] = tuple(queries)
        if not self.queries:
            raise ValueError("need at least one query to aggregate over")
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.spec = spec
        self.confidence = confidence
        self.ci_method = ci_method
        self.bootstrap_replicates = bootstrap_replicates
        self.parallelism = int(parallelism)
        sampler_rng, self._ci_rng = spawn_rngs(ensure_rng(seed), 2)

        supported = supported_backends(self.queries)
        if method == "auto":
            self.plan: SamplerPlan = SamplerPlanner(
                self.queries, target_samples=target_samples
            ).plan()
        elif method in supported:
            self.plan = SamplerPlan(
                backend=method,
                weights=BACKEND_WEIGHTS.get(method),
                batch_size=batch_size or 1024,
                expected_acceptance=1.0,
                expected_costs={},
                target_samples=target_samples,
                rationale=(f"backend {method!r} requested explicitly",),
            )
        else:
            raise ValueError(
                f"backend {method!r} cannot sample this query shape; "
                f"supported: {supported}"
            )
        self.backend = self.plan.backend
        if batch_size is not None:
            self.batch_size = int(batch_size)
        elif self.backend == "wander-join":
            # Wander-join steps are walk *attempts*: use the plan's
            # rejection-inflated sizing so a step lands near the target.
            self.batch_size = self.plan.batch_size
        else:
            # Accept/reject steps request *accepted* samples, union steps
            # attempts of the cover source; plan.batch_size caps the
            # JoinSamplers' attempt batches below.
            self.batch_size = min(self.plan.target_samples, self.plan.batch_size)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

        schema = self.queries[0].output_schema
        self.accumulator = AggregateAccumulator(spec, schema)
        self.epochs_restarted = 0

        self._sources = build_sources(
            self.queries, self.backend, sampler_rng, self.parallelism, sampler=join_sampler,
            # plan.batch_size caps JoinSampler's attempt batches
            max_batch_size=max(self.batch_size, 1),
        )
        # Sample-cache tier: consume/publish shared draw streams (see
        # repro.cache.store for the validity invariants).
        self.cache: Optional[SampleCache] = None
        self._cache_entry = None
        self._cache_cursor = 0
        self.cached_samples = 0
        self.fresh_samples = 0
        if cache is not None:
            if len(self.queries) > 1:
                raise ValueError(
                    "cache= applies to a single join query; union streams "
                    "have per-join ownership and cannot be pooled wholesale"
                )
            if self.parallelism > 1:
                raise ValueError(
                    "cache= requires parallelism=1; sharded streams merge "
                    "through the parallel coordinator instead"
                )
            if method != "auto" and self.backend not in BACKEND_WEIGHTS:
                raise ValueError(
                    f"cache= only supports shared-weight JoinSampler backends "
                    f"({tuple(BACKEND_WEIGHTS)}), not {self.backend!r}"
                )
            if self.backend in BACKEND_WEIGHTS:
                self.cache = cache
        # One aggregator may serve concurrent callers (the server's shared
        # path): the lock serializes step/estimate, so interleaved runs see
        # consistent accumulator state at step granularity.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ public
    def step(self, batch_size: Optional[int] = None) -> AggregateReport:
        """Ingest one batch of draws and return the refreshed estimates."""
        size = int(batch_size or self.batch_size)
        if size <= 0:
            raise ValueError("batch_size must be positive")
        with self._lock:
            self._sync_epoch()
            size -= self._consume_cache(size)
            if size > 0:
                block = draw_into(self.accumulator, self._sources, size)
                if block is not None:  # shared-weight backends only
                    self.fresh_samples += len(block)
                    self._publish_cache(block)
            return self.estimate()

    def estimate(self) -> AggregateReport:
        """Current estimates without drawing further samples."""
        with self._lock:
            return self.accumulator.estimate(
                confidence=self.confidence,
                ci_method=self.ci_method,
                bootstrap_replicates=self.bootstrap_replicates,
                seed=self._ci_rng,
            )

    def until(
        self,
        rel_error: float,
        confidence: Optional[float] = None,
        max_attempts: int = 1_000_000,
        min_accepted: int = 32,
        deadline: Optional[float] = None,
        allow_partial: bool = False,
    ) -> AggregateReport:
        """Online-aggregation stopping rule.

        Draw batches until every group's confidence interval (at
        ``confidence``, default the aggregator's) has relative half-width at
        most ``rel_error`` — or, for exactly-zero estimates, zero width.
        Raises ``RuntimeError`` when ``max_attempts`` draw attempts do not
        reach the target (degenerate aggregate or budget too small).

        ``deadline`` bounds the run in wall-clock seconds (checked between
        steps — one step is the granularity of cancellation).  When it
        expires before convergence the default is to raise
        :class:`~repro.resilience.errors.JobDeadlineExceeded`; with
        ``allow_partial=True`` the current estimate comes back instead,
        marked ``degraded=True`` — an unbiased answer whose *achieved*
        relative error (``report.max_relative_half_width()``) is simply
        wider than the one requested.  A partial return requires at least
        one accepted sample: if the budget expires before anything is
        accepted there is no honest estimate to degrade to (the all-rejected
        accumulator would report a zero-width CI around 0.0, and
        ``achieved_rel_error`` would be 0/0), so
        :class:`~repro.resilience.errors.EmptyResultError` is raised
        instead.
        """
        if rel_error <= 0:
            raise ValueError("rel_error must be positive")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative")
        if confidence is not None:
            self.confidence = confidence
        deadline_at = None if deadline is None else time.monotonic() + deadline
        report = self.estimate()
        # Geometric step schedule: start small so an easy target stops after
        # a few hundred samples, grow toward the planned batch size so a
        # tight target is not nickel-and-dimed by per-step overhead.  Total
        # overshoot is bounded by the final step.  A COUNT/SUM estimate()
        # reads running exact totals, O(groups) per step; AVG's residual pass
        # keeps its total cost O(n log n).
        step_size = min(self.batch_size, 256)
        while not self._converged(report, rel_error, min_accepted):
            with self._lock:
                attempts = self.accumulator.attempts
            if deadline_at is not None and time.monotonic() >= deadline_at:
                if allow_partial:
                    return self._partial_report(report, deadline)
                achieved = report.max_relative_half_width()
                raise JobDeadlineExceeded(
                    f"online aggregation hit its {deadline:g}s deadline before "
                    f"reaching rel_error={rel_error} at confidence="
                    f"{self.confidence} (achieved relative half-width: "
                    f"{achieved:.3g} after {attempts} attempts); "
                    "pass allow_partial=True for the degraded estimate",
                    deadline=deadline,
                )
            if attempts >= max_attempts:
                if allow_partial:
                    return self._partial_report(report, deadline)
                raise RuntimeError(
                    f"online aggregation did not reach rel_error={rel_error} at "
                    f"confidence={self.confidence} within {max_attempts} attempts "
                    f"(worst relative half-width: {report.max_relative_half_width():.3g})"
                )
            report = self.step(step_size)
            step_size = min(step_size * 2, self.batch_size)
        return report

    # --------------------------------------------------------------- internals
    def _partial_report(self, report: AggregateReport, deadline: Optional[float]) -> AggregateReport:
        """Degrade ``report`` for an ``allow_partial`` return — or refuse.

        A degraded report with zero accepted samples would be a lie (finite
        zero-width CI around 0.0, undefined achieved error), so the empty
        case raises :class:`EmptyResultError` instead of returning.
        """
        with self._lock:
            accepted = self.accumulator.accepted
            attempts = self.accumulator.attempts
        if accepted == 0:
            raise EmptyResultError(
                "online aggregation budget expired before any sample was "
                "accepted; no partial estimate exists — retry with a larger "
                "deadline or attempt budget",
                deadline=deadline,
                attempts=attempts,
            )
        report.degraded = True
        return report

    def _converged(self, report: AggregateReport, rel_error: float, min_accepted: int) -> bool:
        with self._lock:
            attempts = self.accumulator.attempts
            accepted = self.accumulator.accepted
        if attempts == 0:
            return False
        if accepted < min_accepted:
            # The zero-width/zero-estimate case (empty join) is genuinely done.
            return all(
                e.estimate == 0.0 and e.half_width == 0.0
                for e in report.estimates.values()
            ) and attempts >= min_accepted
        return all(
            e.half_width <= rel_error * abs(e.estimate)
            or (e.estimate == 0.0 and e.half_width == 0.0)
            for e in report.estimates.values()
        )

    def _sync_epoch(self) -> None:
        """Restart the accumulator when the base relations mutated (new epoch).

        Every source re-syncs (a list, not a generator: no short-circuit), and
        a stale epoch observed on *any* of them discards the accumulated
        state, so sources never contribute attempts from different database
        snapshots.
        """
        if any([source.refresh() for source in self._sources]):
            self.accumulator.reset()
            # Cached contributions belonged to the old snapshot too: drop the
            # entry reference and start a fresh consume from block 0 of
            # whatever entry the new epoch resolves to.
            self._cache_entry = None
            self._cache_cursor = 0
            self.cached_samples = 0
            self.fresh_samples = 0
            self.epochs_restarted += 1

    def _consume_cache(self, size: int) -> int:
        """Ingest unseen cached blocks of this shape until ``size`` is met.

        With no cache (or a cold one) this is a no-op and the fresh draws
        that follow are the byte-exact uncached pipeline: the cache neither
        consumes RNG state nor changes batch sizes.

        Whole blocks only — a block's ``(attempts, weight)`` bookkeeping
        makes its contribution exactly the merge a parallel shard would
        deliver.  Each block is re-served through
        :meth:`~repro.sampling.blocks.SampleBlock.reweighted` at the
        *consumer's* current total weight (equal up to rounding by the epoch
        pin; the view removes even that drift).  Consumption stops at whole
        block granularity once the step's demand is covered — the cursor
        parks mid-stream and later steps resume from it, so a cheap query
        never pays to ingest a stream far deeper than its error target
        needs.  The accepted run is concatenated into one block before
        ingestion: one gather of what the aggregate reads and one
        accumulator pass instead of one per published chunk.  Returns
        samples served.
        """
        if self.cache is None:
            return 0
        total_weight = self._sources[0].total_weight
        if total_weight <= 0:
            # Empty join: nothing to look up; the draw accounts the attempts.
            return 0
        query = self.queries[0]
        entry = self._cache_entry
        if entry is None or not entry.alive or entry.epoch != observed_versions((query,)):
            entry = self.cache.entry(query, BACKEND_WEIGHTS[self.backend])
            self._cache_entry = entry
            self._cache_cursor = 0
        blocks, _ = self.cache.read(entry, self._cache_cursor)
        served = 0
        views = []
        # Geometric gulp: drain at least as much as this aggregator has
        # already ingested, not just the step's ask.  Deep streams are
        # consumed in O(log n) consume/estimate rounds instead of being
        # nickel-and-dimed through the step schedule's batch cap.
        demand = max(size, self.cached_samples + self.fresh_samples)
        for block in blocks:
            if served >= demand:
                break
            self._cache_cursor += 1
            if block.weights is not None or not math.isclose(
                block.weight, total_weight, rel_tol=1e-9
            ):
                # Defensive: a block from another distribution must never be
                # pooled; skipping it is safe (its draws are simply unused).
                continue
            views.append(block.reweighted(total_weight))
            served += len(block)
        if views:
            self.accumulator.ingest_sample_block(SampleBlock.concat(views), query)
        self.cached_samples += served
        return served

    def _publish_cache(self, block: SampleBlock) -> None:
        """Share a fresh draw batch through the cache (if one is attached).

        ``block`` is what the sources just ingested; it carries the step's
        true attempt count and total weight.  The cursor jumps past it so
        this aggregator never re-ingests its own contribution (invariant 3
        in :mod:`repro.cache.store`).
        """
        if self.cache is None or self._cache_entry is None:
            return
        self.cache.publish(self._cache_entry, block)
        if self._cache_entry.alive:
            self._cache_cursor = len(self._cache_entry.blocks)


def planning_budget(rel_error: float, confidence: float = 0.95) -> int:
    """Expected accepted-sample demand of an ``until(rel_error)`` run.

    The CLT half-width shrinks as ``z·CV/√n``, so hitting a relative target
    needs roughly ``(z/rel_error)²·CV²`` samples; with a unit
    coefficient-of-variation prior that is ``(z/rel_error)²`` (~1.5k at the
    default 5% target, ~38k at 1%).  Feeding this to the planner matters:
    setup-heavy backends (exact weights) amortize over tight-error runs,
    while zero-setup backends (wander join) only win small budgets — pricing
    every run at a fixed 1024 samples mis-ranks them at the extremes.
    """
    if rel_error <= 0:
        raise ValueError("rel_error must be positive")
    z = z_value(confidence)
    return max(1024, int((z / rel_error) ** 2))


def aggregate(
    queries: Union[JoinQuery, Sequence[JoinQuery]],
    spec: AggregateSpec,
    rel_error: float = 0.05,
    confidence: float = 0.95,
    method: str = "auto",
    seed: RandomState = None,
    **kwargs: object,
) -> AggregateReport:
    """One-shot convenience wrapper: plan, sample until the target, report.

    The cost-based planner is primed with the sample demand the error target
    implies (:func:`planning_budget`) unless the caller fixes
    ``target_samples`` explicitly.
    """
    kwargs.setdefault("target_samples", planning_budget(rel_error, confidence))
    aggregator = OnlineAggregator(
        queries, spec, method=method, seed=seed, confidence=confidence, **kwargs
    )
    return aggregator.until(rel_error)


__all__ = ["OnlineAggregator", "aggregate", "planning_budget"]
