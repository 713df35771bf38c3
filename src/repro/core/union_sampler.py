"""Union sampling algorithms: disjoint union, Bernoulli set union, and
non-Bernoulli (cover-based) set union — Algorithm 1 of the paper.

All samplers share one skeleton, :class:`UnionSamplerBase`: a warm-up
supplies :class:`~repro.estimation.parameters.UnionParameters` (join sizes,
cover sizes, union size), then every iteration selects a join, draws one
uniform sample from it via a single-join
:class:`~repro.sampling.join_sampler.JoinSampler`, and decides whether to
keep the tuple so that the accepted stream is uniform over the *set union*
(or trivially uniform over the disjoint union).  The skeleton pins the
database snapshot it was built on: these samplers have no ``refresh()``, so
once a base relation mutates, ``sample`` refuses rather than serve a union
that no longer exists.

Three set-union selection/deduplication policies are provided:

* **Bernoulli** (§3, the "union trick"): every join is independently selected
  with probability ``|J_j|/|U|`` each iteration; a tuple is kept only when it
  is drawn from the first join that contains it.
* **record** (Algorithm 1 as printed): joins are selected with probability
  ``|J'_j|/|U|``; ownership of values is tracked in the ``orig_join`` record
  of a :class:`RecordLedger` and corrected with *revisions* when a
  lower-index join later samples the same value.
* **strict**: joins are selected proportionally to their full sizes and a
  membership probe enforces the lowest-index cover exactly.  Every accepted
  tuple then has probability exactly ``1/|U|`` — this is the variant used by
  the statistical uniformity tests.

Algorithm 2 (:mod:`repro.core.online_sampler`) extends this skeleton the way
§7 extends Algorithm 1: the same ledger and record rule, plus sample reuse,
refinement and backtracking.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import SampleResult, SamplingStats, UnionSample
from repro.estimation.base import UnionSizeEstimator
from repro.estimation.parameters import UnionParameters
from repro.joins.membership import UnionMembershipIndex, Value
from repro.joins.query import JoinQuery, check_union_compatible, observed_versions
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler, draw_and_drain
from repro.utils.rng import BatchedCategorical, RandomState, ensure_rng, spawn_rngs


def refill_value_queue(
    sampler: JoinSampler,
    queue: Deque[Any],
    count: int,
    annotate: Optional[Callable[[List[Value]], Iterable[Any]]] = None,
) -> None:
    """Queue ``count`` (or a few more) uniform sample *values* of a join.

    Union iterations only consume the output value tuple, so boxing a full
    ``SampleDraw`` (assignment dict included) per draw is pure overhead.
    The values come from :func:`~repro.sampling.join_sampler.draw_and_drain`
    — the drawn block plus the sampler's parked surplus — so one refill pays
    a single descent and a single columnar projection for the whole batch.
    ``annotate`` maps the values to the queue's entries (what is queued is
    what is served); whatever it learns about them it learns once per block.
    """
    values = SampleBlock.concat(draw_and_drain(sampler, count)).values(sampler.query)
    queue.extend(values if annotate is None else annotate(values))


def drain_value_queue(
    sampler: JoinSampler,
    queue: Deque[Any],
    demand: int = 1,
    annotate: Optional[Callable[[List[Value]], Iterable[Any]]] = None,
) -> Any:
    """One uniform sample value from a join; an empty queue first refills
    with ``demand`` values — what the caller still expects to ask of it."""
    if not queue:
        refill_value_queue(sampler, queue, max(demand, 1), annotate)
    return queue.popleft()


class RecordLedger:
    """Algorithm 1's ``orig_join`` record and the samples it keeps.

    ``samples`` lists the kept samples in acceptance order; a revision
    tombstones (sets to ``None``) the copies it drops instead of rebuilding
    the list, through a value -> slots side index.  Three operations:

    * :meth:`offer` — the record rule, for the record policy and Algorithm 2;
    * :meth:`keep` — a sample with no record (the strict policy's probes
      already decided it);
    * :meth:`retain` — backtracking's filter over the live samples.
    """

    def __init__(self, stats: SamplingStats) -> None:
        self.stats = stats
        #: value -> position of the join recorded as its origin
        self.owners: Dict[Value, int] = {}
        self.samples: List[Optional[UnionSample]] = []
        #: how many entries of ``samples`` are not tombstones
        self.live = 0
        self._slots: Dict[Value, List[int]] = {}

    def offer(
        self, value: Value, position: int, join_name: str, iteration: int, reused: bool = False
    ) -> Optional[UnionSample]:
        """The record rule for ``value`` drawn from the join at ``position``:
        rejected (``None``) when an earlier join owns it; when a later join
        does, a *revision* drops that owner's copies.  Then the value is
        recorded as this join's and the sample kept."""
        recorded = self.owners.get(value)
        if recorded is not None and recorded != position:
            if recorded < position:
                self.stats.rejected_duplicate += 1
                return None
            self.stats.revisions += 1
            slots = self._slots.pop(value, [])
            for slot in slots:
                self.samples[slot] = None
            self.live -= len(slots)
            self.stats.revision_removed += len(slots)
        self.owners[value] = position
        # keep(), inlined: this runs once per iteration of every round.
        sample = UnionSample(value, join_name, iteration, reused)
        self._slots.setdefault(value, []).append(len(self.samples))
        self.samples.append(sample)
        self.live += 1
        return sample

    def keep(self, sample: UnionSample) -> UnionSample:
        """Keep ``sample``; a later revision of its value drops it."""
        self._slots.setdefault(sample.value, []).append(len(self.samples))
        self.samples.append(sample)
        self.live += 1
        return sample

    def retain(self, predicate: Callable[[UnionSample], bool]) -> int:
        """Keep the live samples ``predicate`` accepts — asked once per live
        sample, in acceptance order — and compact the tombstones away; the
        record is untouched.  Returns how many samples were dropped."""
        kept: List[Optional[UnionSample]] = []
        self._slots = {}
        for sample in self.samples:
            if sample is not None and predicate(sample):
                self._slots.setdefault(sample.value, []).append(len(kept))
                kept.append(sample)
        removed = self.live - len(kept)
        self.samples = kept
        self.live = len(kept)
        return removed

    def live_samples(self) -> List[UnionSample]:
        """The kept samples, in acceptance order."""
        return [sample for sample in self.samples if sample is not None]


class UnionSamplerBase:
    """Shared machinery: per-join samplers, selection distribution, the
    snapshot pin, the iteration guard and timing."""

    algorithm = "base"

    def __init__(
        self,
        queries: Sequence[JoinQuery],
        parameters: UnionParameters | UnionSizeEstimator,
        join_weights: str = "ew",
        seed: RandomState = None,
        max_iterations_factor: int = 1000,
    ) -> None:
        self._prepare(queries, join_weights, seed, max_iterations_factor)
        with self.stats.timer.phase("warmup"):
            if isinstance(parameters, UnionSizeEstimator):
                parameters = parameters.estimate()
            self.parameters = parameters
            self._open_join_samplers(spawn_rngs(self.rng, len(self.queries)))

        missing = [n for n in self.names if n not in self.parameters.join_sizes]
        if missing:
            raise ValueError(f"parameters missing join sizes for {missing}")

    def _prepare(
        self,
        queries: Sequence[JoinQuery],
        join_weights: str,
        seed: RandomState,
        max_iterations_factor: int,
    ) -> None:
        """The state every union sampler starts from, before its warm-up
        (each derives its join samplers' streams and parameters its own way)."""
        check_union_compatible(list(queries))
        self.queries: List[JoinQuery] = list(queries)
        self.names: List[str] = [q.name for q in self.queries]
        self.join_weights = join_weights
        self.max_iterations_factor = max_iterations_factor
        self.rng = ensure_rng(seed)
        self.stats = SamplingStats()
        #: the snapshot the sampler's state describes
        self._versions = observed_versions(self.queries)
        #: each join's per-iteration selection probability (the policy's own)
        self._probabilities: Dict[str, float] = {}
        #: batched join-selection state (rebuilt when the distribution changes)
        self._selector: Optional[BatchedCategorical] = None
        self._selector_source: Optional[Dict[str, float]] = None
        #: per-join uniform sample values, refilled block-wise (zero-object)
        self._value_queues: Dict[str, Deque[Any]] = {n: deque() for n in self.names}
        #: probers of the cover test, for the policies that probe
        self.membership: Optional[UnionMembershipIndex] = None

    def _open_join_samplers(self, seeds: Sequence[np.random.Generator]) -> None:
        self.join_samplers: Dict[str, JoinSampler] = {
            q.name: JoinSampler(q, weights=self.join_weights, seed=s)
            for q, s in zip(self.queries, seeds)
        }

    # ------------------------------------------------------------------ hooks
    def _iterate(self, remaining: int) -> List[UnionSample]:
        """One sampler iteration; returns the samples accepted in it.
        ``remaining`` is what the caller still owes: it sizes queue refills."""
        raise NotImplementedError

    # ----------------------------------------------------------------- public
    def sample(self, count: int) -> SampleResult:
        """Draw ``count`` samples from the union (with replacement)."""
        limit = self._iteration_limit(count)
        accepted: List[UnionSample] = []
        while len(accepted) < count:
            accepted.extend(self._step(limit, count, count - len(accepted)))
        return self._result(accepted[:count], self.algorithm)

    # --------------------------------------------------------------- internal
    def _iteration_limit(self, count: int) -> int:
        """The iteration budget of ``sample(count)``, granted only while the
        snapshot the sampler was built on is still the database's."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if observed_versions(self.queries) != self._versions:
            raise RuntimeError(
                f"base relations mutated since this {type(self).__name__} was built "
                "and it has no refresh(); build a new sampler for the new snapshot"
            )
        return max(count, 1) * self.max_iterations_factor

    def _guard(self, limit: int, count: int) -> None:
        if self.stats.iterations >= limit:
            raise RuntimeError(
                f"{type(self).__name__} exceeded {limit} iterations "
                f"while collecting {count} samples (rejection rate too high)"
            )

    def _step(self, limit: int, count: int, remaining: int) -> List[UnionSample]:
        """One guarded, counted and timed iteration; returns what it accepted."""
        self._guard(limit, count)
        self.stats.iterations += 1
        started = time.perf_counter()
        new_samples = self._iterate(remaining)
        elapsed = time.perf_counter() - started
        if new_samples:
            self.stats.timer.add("accepted", elapsed)
            self.stats.accepted += len(new_samples)
        else:
            self.stats.timer.add("rejected", elapsed)
        return new_samples

    def _result(self, samples: List[UnionSample], algorithm: str) -> SampleResult:
        """The call's result, with the per-join samplers' totals collected."""
        attempts = sum(s.stats.attempts for s in self.join_samplers.values())
        accepted = sum(s.stats.accepted for s in self.join_samplers.values())
        self.stats.join_sampler_attempts = attempts
        self.stats.join_sampler_rejections = attempts - accepted
        return SampleResult(
            samples=samples, parameters=self.parameters, stats=self.stats, algorithm=algorithm
        )

    def _select_join(self, probabilities: Dict[str, float]) -> str:
        """Select a join; selections are drawn one multinomial batch at a time."""
        if self._selector is None or self._selector_source is not probabilities:
            weights = [probabilities.get(n, 0.0) for n in self.names]
            self._selector = BatchedCategorical(self.rng, self.names, weights)
            self._selector_source = probabilities
        return str(self._selector.draw())

    def _demand(self, join_name: str, remaining: int) -> int:
        """Draws the rest of the call expects to ask of ``join_name``: one
        iteration per sample still owed, each selecting the join with its
        selection probability (rejections ask again, with less owed)."""
        return math.ceil(remaining * min(self._probabilities.get(join_name, 0.0), 1.0))

    def _draw_value(self, join_name: str, remaining: int) -> Value:
        self.stats.record_draw(join_name)
        value: Value = drain_value_queue(
            self.join_samplers[join_name],
            self._value_queues[join_name],
            self._demand(join_name, remaining),
        )
        return value

    def _draw_cover_value(self, position: int, remaining: int) -> Tuple[Value, bool]:
        """A value of join ``position`` and whether an earlier join contains
        it: the cover test of the probing policies.  It runs when the join's
        queue refills, on the whole block, and its verdicts are queued beside
        the values."""
        join_name = self.names[position]
        self.stats.record_draw(join_name)
        drawn: Tuple[Value, bool] = drain_value_queue(
            self.join_samplers[join_name],
            self._value_queues[join_name],
            self._demand(join_name, remaining),
            lambda values: zip(values, self._owned_by_earlier(position, values)),
        )
        return drawn

    def _owned_by_earlier(self, position: int, values: List[Value]) -> List[bool]:
        """Per value, whether a join before ``position`` contains it: one
        batched probe per earlier join, each narrowed to the values no join
        before it has claimed."""
        assert self.membership is not None
        owned = np.zeros(len(values), dtype=bool)
        for earlier in self.names[:position]:
            free = np.flatnonzero(~owned)
            if free.size == 0:
                break
            owned[free] = self.membership.contains_many(earlier, [values[i] for i in free])
        verdicts: List[bool] = owned.tolist()
        return verdicts


class DisjointUnionSampler(UnionSamplerBase):
    """Sampling from the disjoint (bag) union — Definition 1.

    Selects a join with probability ``|J_j| / (|J_1| + ... + |J_n|)`` and keeps
    every drawn tuple; accepted tuples are uniform over the disjoint union.
    """

    algorithm = "disjoint-union"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._probabilities = self.parameters.selection_probabilities(use_cover=False)

    def _iterate(self, remaining: int) -> List[UnionSample]:
        join_name = self._select_join(self._probabilities)
        value = self._draw_value(join_name, remaining)
        return [UnionSample(value, join_name, self.stats.iterations)]


class BernoulliUnionSampler(UnionSamplerBase):
    """Set-union sampling with Bernoulli join selection (§3, the union trick).

    Each iteration every join is independently selected with probability
    ``|J_j|/|U|``; a drawn tuple is kept only when the drawing join is the
    first join (in declaration order) containing the value, which gives every
    value in the union probability exactly ``1/|U|`` per iteration.
    """

    algorithm = "bernoulli-set-union"

    def __init__(
        self, *args: Any, membership: Optional[UnionMembershipIndex] = None, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self.membership = membership or UnionMembershipIndex(self.queries)
        union_size = max(self.parameters.union_size, 1e-12)
        self._probabilities = {
            name: min(self.parameters.join_sizes[name] / union_size, 1.0)
            for name in self.names
        }

    def _iterate(self, remaining: int) -> List[UnionSample]:
        accepted: List[UnionSample] = []
        selections = self.rng.random(len(self.queries))
        for position, query in enumerate(self.queries):
            if selections[position] >= self._probabilities[query.name]:
                self.stats.rejected_not_selected += 1
                continue
            value, owned = self._draw_cover_value(position, remaining)
            if owned:
                self.stats.rejected_duplicate += 1
                continue
            accepted.append(UnionSample(value, query.name, self.stats.iterations))
        return accepted


class SetUnionSampler(UnionSamplerBase):
    """Non-Bernoulli set-union sampling — Algorithm 1.

    ``mode="record"`` reproduces the printed algorithm: the ``orig_join``
    record remembers which join first produced each value; a tuple drawn from
    a higher-index join than the recorded owner is rejected, and a tuple drawn
    from a lower-index join triggers a *revision* that reassigns ownership and
    drops the previously accepted copies.

    ``mode="strict"`` enforces the lowest-index cover with membership probes
    and selects joins proportionally to their full sizes; accepted tuples are
    then uniform over the union by construction (used for uniformity tests).
    """

    algorithm = "set-union"

    def __init__(
        self,
        queries: Sequence[JoinQuery],
        parameters: UnionParameters | UnionSizeEstimator,
        join_weights: str = "ew",
        seed: RandomState = None,
        mode: str = "record",
        membership: Optional[UnionMembershipIndex] = None,
        max_iterations_factor: int = 1000,
    ) -> None:
        super().__init__(
            queries,
            parameters,
            join_weights=join_weights,
            seed=seed,
            max_iterations_factor=max_iterations_factor,
        )
        if mode not in ("record", "strict"):
            raise ValueError("mode must be 'record' or 'strict'")
        self.mode = mode
        self.membership = membership
        if mode == "strict" and self.membership is None:
            self.membership = UnionMembershipIndex(self.queries)
        self._probabilities = self.parameters.selection_probabilities(
            use_cover=(mode == "record")
        )
        self._positions = {name: i for i, name in enumerate(self.names)}
        self._ledger = RecordLedger(self.stats)

    def _iterate(self, remaining: int) -> List[UnionSample]:
        join_name = self._select_join(self._probabilities)
        position = self._positions[join_name]

        if self.mode == "strict":
            value, owned = self._draw_cover_value(position, remaining)
            if owned:
                self.stats.rejected_duplicate += 1
                return []
            return [self._ledger.keep(UnionSample(value, join_name, self.stats.iterations))]

        value = self._draw_value(join_name, remaining)
        sample = self._ledger.offer(value, position, join_name, self.stats.iterations)
        return [] if sample is None else [sample]

    def sample(self, count: int) -> SampleResult:
        """Draw ``count`` samples, honouring revisions (which may shrink the pool)."""
        limit = self._iteration_limit(count)
        while self._ledger.live < count:
            self._step(limit, count, count - self._ledger.live)
        return self._result(
            self._ledger.live_samples()[:count], f"{self.algorithm}-{self.mode}"
        )


__all__ = [
    "UnionSamplerBase",
    "DisjointUnionSampler",
    "BernoulliUnionSampler",
    "SetUnionSampler",
]
