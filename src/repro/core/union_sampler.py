"""Union sampling algorithms: disjoint union, Bernoulli set union, and
non-Bernoulli (cover-based) set union — Algorithm 1 of the paper.

All samplers share the same shape: a warm-up supplies
:class:`~repro.estimation.parameters.UnionParameters` (join sizes, cover
sizes, union size), then every iteration selects a join, draws one uniform
sample from it via a single-join :class:`~repro.sampling.join_sampler.JoinSampler`,
and decides whether to keep the tuple so that the accepted stream is uniform
over the *set union* (or trivially uniform over the disjoint union).

Three set-union selection/deduplication policies are provided:

* **Bernoulli** (§3, the "union trick"): every join is independently selected
  with probability ``|J_j|/|U|`` each iteration; a tuple is kept only when it
  is drawn from the first join that contains it.
* **record** (Algorithm 1 as printed): joins are selected with probability
  ``|J'_j|/|U|``; ownership of values is tracked in the ``orig_join`` record
  and corrected with *revisions* when a lower-index join later samples the
  same value.
* **strict**: joins are selected proportionally to their full sizes and a
  membership probe enforces the lowest-index cover exactly.  Every accepted
  tuple then has probability exactly ``1/|U|`` — this is the variant used by
  the statistical uniformity tests.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import SampleResult, SamplingStats, UnionSample
from repro.estimation.base import UnionSizeEstimator
from repro.estimation.parameters import UnionParameters
from repro.joins.membership import UnionMembershipIndex
from repro.joins.query import JoinQuery, check_union_compatible
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler, draw_and_drain
from repro.utils.rng import BatchedCategorical, RandomState, ensure_rng, spawn_rngs


def refill_value_queue(
    sampler: JoinSampler,
    queue: Deque,
    count: int,
    annotate: Optional[Callable[[List[Tuple]], Iterable]] = None,
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
    queue: Deque,
    demand: int = 1,
    annotate: Optional[Callable[[List[Tuple]], Iterable]] = None,
):
    """One uniform sample value from a join; an empty queue first refills
    with ``demand`` values — what the caller still expects to ask of it."""
    if queue and sampler.stale:
        # A mutation epoch landed since the queue was filled: the parked
        # values describe the previous snapshot and must not be served.
        queue.clear()
    if not queue:
        refill_value_queue(sampler, queue, max(demand, 1), annotate)
    return queue.popleft()


class UnionSamplerBase:
    """Shared machinery: per-join samplers, selection distribution, timing."""

    algorithm = "base"

    def __init__(
        self,
        queries: Sequence[JoinQuery],
        parameters: UnionParameters | UnionSizeEstimator,
        join_weights: str = "ew",
        seed: RandomState = None,
        max_iterations_factor: int = 1000,
    ) -> None:
        check_union_compatible(list(queries))
        self.queries: List[JoinQuery] = list(queries)
        self.names: List[str] = [q.name for q in self.queries]
        self.join_weights = join_weights
        self.max_iterations_factor = max_iterations_factor
        self.rng = ensure_rng(seed)
        self.stats = SamplingStats()

        with self.stats.timer.phase("warmup"):
            if isinstance(parameters, UnionSizeEstimator):
                parameters = parameters.estimate()
            self.parameters = parameters
            sampler_seeds = spawn_rngs(self.rng, len(self.queries))
            self.join_samplers: Dict[str, JoinSampler] = {
                q.name: JoinSampler(q, weights=join_weights, seed=s)
                for q, s in zip(self.queries, sampler_seeds)
            }

        missing = [n for n in self.names if n not in self.parameters.join_sizes]
        if missing:
            raise ValueError(f"parameters missing join sizes for {missing}")

        #: each join's per-iteration selection probability (the policy's own)
        self._probabilities: Dict[str, float] = {}
        #: batched join-selection state (rebuilt when the distribution changes)
        self._selector: Optional[BatchedCategorical] = None
        self._selector_source: Optional[Dict[str, float]] = None
        #: per-join uniform sample values, refilled block-wise (zero-object)
        self._value_queues: Dict[str, Deque[Tuple]] = {n: deque() for n in self.names}
        #: probers of the cover test, for the policies that probe
        self.membership: Optional[UnionMembershipIndex] = None

    # ------------------------------------------------------------------ hooks
    def _iterate(self, remaining: int) -> List[UnionSample]:
        """One sampler iteration; returns the samples accepted in it.
        ``remaining`` is what the caller still owes: it sizes queue refills."""
        raise NotImplementedError

    # ----------------------------------------------------------------- public
    def sample(self, count: int) -> SampleResult:
        """Draw ``count`` samples from the union (with replacement)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        accepted: List[UnionSample] = []
        max_iterations = max(count, 1) * self.max_iterations_factor
        while len(accepted) < count:
            if self.stats.iterations >= max_iterations:
                raise RuntimeError(
                    f"{type(self).__name__} exceeded {max_iterations} iterations "
                    f"while collecting {count} samples (rejection rate too high)"
                )
            self.stats.iterations += 1
            started = time.perf_counter()
            new_samples = self._iterate(count - len(accepted))
            elapsed = time.perf_counter() - started
            if new_samples:
                self.stats.timer.add("accepted", elapsed)
                accepted.extend(new_samples)
                self.stats.accepted += len(new_samples)
            else:
                self.stats.timer.add("rejected", elapsed)
        self._collect_join_sampler_stats()
        return SampleResult(
            samples=accepted[:count] if count else [],
            parameters=self.parameters,
            stats=self.stats,
            algorithm=self.algorithm,
        )

    # --------------------------------------------------------------- internal
    def _collect_join_sampler_stats(self) -> None:
        attempts = sum(s.stats.attempts for s in self.join_samplers.values())
        accepted = sum(s.stats.accepted for s in self.join_samplers.values())
        self.stats.join_sampler_attempts = attempts
        self.stats.join_sampler_rejections = attempts - accepted

    def _select_join(self, probabilities: Dict[str, float]) -> str:
        """Select a join; selections are drawn one multinomial batch at a time."""
        if self._selector is None or self._selector_source is not probabilities:
            weights = [probabilities.get(n, 0.0) for n in self.names]
            self._selector = BatchedCategorical(self.rng, self.names, weights)
            self._selector_source = probabilities
        return self._selector.draw()

    def _demand(self, join_name: str, remaining: int) -> int:
        """Draws the rest of the call expects to ask of ``join_name``: one
        iteration per sample still owed, each selecting the join with its
        selection probability (rejections ask again, with less owed)."""
        return math.ceil(remaining * min(self._probabilities.get(join_name, 0.0), 1.0))

    def _draw_value(self, join_name: str, remaining: int) -> Tuple:
        self.stats.record_draw(join_name)
        return drain_value_queue(
            self.join_samplers[join_name],
            self._value_queues[join_name],
            self._demand(join_name, remaining),
        )

    def _draw_cover_value(self, position: int, remaining: int) -> Tuple[Tuple, bool]:
        """A value of join ``position`` and whether an earlier join contains
        it: the cover test of the probing policies.  It runs when the join's
        queue refills, on the whole block, and its verdicts are queued beside
        the values."""
        join_name = self.names[position]
        self.stats.record_draw(join_name)
        return drain_value_queue(
            self.join_samplers[join_name],
            self._value_queues[join_name],
            self._demand(join_name, remaining),
            lambda values: zip(values, self._owned_by_earlier(position, values)),
        )

    def _owned_by_earlier(self, position: int, values: List[Tuple]) -> List[bool]:
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
        return owned.tolist()


class DisjointUnionSampler(UnionSamplerBase):
    """Sampling from the disjoint (bag) union — Definition 1.

    Selects a join with probability ``|J_j| / (|J_1| + ... + |J_n|)`` and keeps
    every drawn tuple; accepted tuples are uniform over the disjoint union.
    """

    algorithm = "disjoint-union"

    def __init__(self, *args, **kwargs) -> None:
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

    def __init__(self, *args, membership: Optional[UnionMembershipIndex] = None, **kwargs) -> None:
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
        #: value -> index of the join currently recorded as its origin
        self._orig_join: Dict[Tuple, int] = {}
        #: accepted samples in acceptance order; revisions tombstone entries
        #: (set them to None) instead of rebuilding the whole list
        self._accepted: List[Optional[UnionSample]] = []
        #: value -> slots of its accepted copies (side index driving revisions)
        self._value_slots: Dict[Tuple, List[int]] = {}
        self._live_count = 0

    # -------------------------------------------------------------- iteration
    def _iterate(self, remaining: int) -> List[UnionSample]:
        join_name = self._select_join(self._probabilities)
        position = self._positions[join_name]

        if self.mode == "strict":
            value, owned = self._draw_cover_value(position, remaining)
            if owned:
                self.stats.rejected_duplicate += 1
                return []
            sample = UnionSample(value, join_name, self.stats.iterations)
            self._accept(sample)
            return [sample]

        value = self._draw_value(join_name, remaining)
        recorded = self._orig_join.get(value)
        if recorded is not None and recorded < position:
            # Already owned by an earlier join in the cover order: reject.
            self.stats.rejected_duplicate += 1
            return []
        if recorded is not None and recorded > position:
            # Revision: the cover says this value belongs to the earlier join.
            self.stats.revisions += 1
            removed = self._remove_value(value)
            self.stats.revision_removed += removed
        self._orig_join[value] = position
        sample = UnionSample(value, join_name, self.stats.iterations)
        self._accept(sample)
        return [sample]

    def _accept(self, sample: UnionSample) -> None:
        """Record an accepted sample and index its slot for later revisions."""
        self._value_slots.setdefault(sample.value, []).append(len(self._accepted))
        self._accepted.append(sample)
        self._live_count += 1

    def _remove_value(self, value: Tuple) -> int:
        """Drop all previously accepted copies of ``value`` (revision step).

        The value -> slots side index makes this O(copies of the value)
        instead of a rebuild of the whole accepted list.
        """
        removed = 0
        for slot in self._value_slots.pop(value, ()):
            if self._accepted[slot] is not None:
                self._accepted[slot] = None
                removed += 1
        self._live_count -= removed
        return removed

    # ----------------------------------------------------------------- public
    def sample(self, count: int) -> SampleResult:
        """Draw ``count`` samples, honouring revisions (which may shrink the pool)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        max_iterations = max(count, 1) * self.max_iterations_factor
        while self._live_count < count:
            if self.stats.iterations >= max_iterations:
                raise RuntimeError(
                    f"SetUnionSampler exceeded {max_iterations} iterations while "
                    f"collecting {count} samples"
                )
            self.stats.iterations += 1
            started = time.perf_counter()
            new_samples = self._iterate(count - self._live_count)
            elapsed = time.perf_counter() - started
            if new_samples:
                self.stats.timer.add("accepted", elapsed)
                self.stats.accepted += len(new_samples)
            else:
                self.stats.timer.add("rejected", elapsed)
        self._collect_join_sampler_stats()
        live = [s for s in self._accepted if s is not None]
        return SampleResult(
            samples=live[:count],
            parameters=self.parameters,
            stats=self.stats,
            algorithm=f"{self.algorithm}-{self.mode}",
        )


__all__ = [
    "UnionSamplerBase",
    "DisjointUnionSampler",
    "BernoulliUnionSampler",
    "SetUnionSampler",
]
