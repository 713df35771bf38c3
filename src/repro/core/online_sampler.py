"""Online union sampling with sample reuse and backtracking — Algorithm 2 (§7).

The histogram-based warm-up is nearly free but loose; the random-walk warm-up
is accurate but costs walks.  The online sampler combines them:

* parameters are initialized with a cheap warm-up (histogram by default, or a
  short random-walk warm-up whose walks seed the reuse pools);
* every iteration proceeds like Algorithm 1, except that when the selected
  join still has warm-up walk results in its pool, one of them is *reused*: a
  pooled tuple ``t`` with walk probability ``p(t)`` is accepted with
  probability ``l / (p(t)·|J_j|)`` (``l`` = current pool size), which restores
  uniformity of the reused tuple within its join (§7, Sample Reuse);
* the probabilities of all tuples obtained so far are recorded; every ``phi``
  recordings the join/overlap/union estimates are refined with the random-walk
  estimator of §6 and *backtracking* re-weights the already accepted samples —
  each accepted tuple is kept with probability
  ``min(1, (|J'_j|'/|U|') / (|J'_j|/|U|))`` so that the retained sample remains
  uniform under the refined parameters;
* refinement stops once the overlap estimates reach the target confidence
  level ``gamma``.

As §7 extends Algorithm 1, :class:`OnlineUnionSampler` extends its skeleton
(:class:`~repro.core.union_sampler.UnionSamplerBase`): the per-join samplers,
value queues, iteration guard and the
:class:`~repro.core.union_sampler.RecordLedger` — whose record rule decides
every iteration and whose ``retain`` is backtracking — are Algorithm 1's.
What this class adds is a warm-up of its own, reuse, refinement, and a
``refresh`` that starts a new snapshot: everything that describes one
snapshot is set in one method, :meth:`OnlineUnionSampler._start_snapshot`.

Iterations only interact through the ``orig_join`` record and the refinement
schedule, so :meth:`OnlineUnionSampler.sample` runs them a *round* at a time:
as many iterations as the call still owes samples, cut short where the next
refinement falls due.  A round draws all its join selections at once, settles
each join's reuse trials, fetches each join's regular draws as one block, and
only then walks the iterations in order applying the record rule — the same
law as the one-iteration-at-a-time :meth:`OnlineUnionSampler._iterate`, which
stays as the oracle the tests compare the rounds against.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.result import SampleResult, UnionSample
from repro.core.union_sampler import (
    RecordLedger,
    UnionSamplerBase,
    drain_value_queue,
    refill_value_queue,
)
from repro.estimation.histogram import HistogramUnionEstimator
from repro.estimation.parameters import UnionParameters
from repro.estimation.random_walk import CollectedSample, RandomWalkUnionEstimator
from repro.estimation.union_size import (
    compute_all_overlaps,
    compute_k_overlaps,
    cover_sizes_from_overlaps,
    union_size_from_k_overlaps,
)
from repro.joins.membership import UnionMembershipIndex, Value
from repro.joins.query import JoinQuery, observed_versions
from repro.sampling.wander_join import z_value
from repro.utils.rng import RandomState, spawn_rngs


@dataclass
class _Record:
    """One recorded draw: the tuple value and the probability it carried."""

    value: Value
    weight: float  # Horvitz–Thompson style weight used for overlap refinement


class OnlineUnionSampler(UnionSamplerBase):
    """Algorithm 2: set-union sampling with sample reuse and backtracking."""

    algorithm = "online-set-union"

    def __init__(
        self,
        queries: Sequence[JoinQuery],
        seed: RandomState = None,
        warmup: str = "random-walk",
        reuse: bool = True,
        phi: int = 200,
        gamma: float = 0.9,
        join_weights: str = "ew",
        walks_per_join: int = 500,
        warmup_estimator: Optional[RandomWalkUnionEstimator | HistogramUnionEstimator] = None,
        max_iterations_factor: int = 1000,
    ) -> None:
        self._prepare(queries, join_weights, seed, max_iterations_factor)
        if warmup not in ("random-walk", "histogram"):
            raise ValueError("warmup must be 'random-walk' or 'histogram'")
        if phi <= 0:
            raise ValueError("phi must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.reuse = reuse
        self.phi = phi
        self.gamma = gamma

        with self.stats.timer.phase("warmup"):
            # Derive the warm-up and per-join streams from self.rng instead of
            # sharing the generator itself: handing self.rng to the estimator
            # would alias its walk stream with this sampler's selection and
            # backtracking draws (see the aliasing contract in repro.utils.rng).
            warmup_rng, sampler_parent = spawn_rngs(self.rng, 2)
            self._open_join_samplers(spawn_rngs(sampler_parent, len(self.queries)))
            estimator: RandomWalkUnionEstimator | HistogramUnionEstimator
            if warmup_estimator is not None:
                estimator = warmup_estimator
            elif warmup == "random-walk":
                estimator = RandomWalkUnionEstimator(
                    self.queries, walks_per_join=walks_per_join, seed=warmup_rng
                )
            else:
                estimator = self._histogram_estimator()
            self._start_snapshot(estimator)

    def _histogram_estimator(self) -> HistogramUnionEstimator:
        """The cheap warm-up: histogram overlap bounds around join sizes that
        are exact wherever a sampler's total weight *is* its join's size
        (exact weights, no residual condition, no predicate left to
        rejection) and extended-Olken bounds elsewhere.  Refinement only
        re-estimates overlaps relative to the sizes, so a loose size here
        would stay loose for the sampler's whole life."""
        exact = {
            name: size
            for name, sampler in self.join_samplers.items()
            if (size := sampler.exact_size()) is not None
            and not sampler.tree.residual_conditions
            and not sampler.query.unpushed_predicates
        }
        return HistogramUnionEstimator(
            self.queries, join_size_method="eo", exact_join_sizes=exact
        )

    def _start_snapshot(
        self, estimator: RandomWalkUnionEstimator | HistogramUnionEstimator
    ) -> None:
        """Set everything that describes one database snapshot, from that
        snapshot's warm-up.  ``__init__`` and :meth:`refresh` both come here,
        so nothing of a previous snapshot survives a refresh — a field added
        here is reset with the rest (and named in the EPOCH001 contract)."""
        self.parameters = estimator.estimate()
        self._probabilities = self.parameters.selection_probabilities(use_cover=True)
        self.confidence_level = 0.0
        #: warm-up walk results not yet reused (their walk probabilities
        #: were computed against this snapshot's degrees)
        self._pools: Dict[str, List[CollectedSample]] = {n: [] for n in self.names}
        if self.reuse and isinstance(estimator, RandomWalkUnionEstimator):
            for name, samples in estimator.all_collected_samples().items():
                self._pools[name] = list(samples)
        #: probers + ``(join, value)`` memo: a random-walk warm-up's own (what
        #: it learned about the pooled values is not asked again)
        if isinstance(estimator, RandomWalkUnionEstimator):
            self.membership = estimator.membership
        elif self.membership is None:
            self.membership = UnionMembershipIndex(self.queries)
        else:
            self.membership.memo.clear()
        #: per-join recorded draws (line 3 of Algorithm 2)
        self._records: Dict[str, List[_Record]] = {n: [] for n in self.names}
        self._records_since_update = 0
        self._ledger = RecordLedger(self.stats)
        self._value_queues = {n: deque() for n in self.names}
        self._versions = observed_versions(self.queries)

    # ------------------------------------------------------------------ public
    def refresh(self) -> bool:
        """Start a new epoch after the base relations mutated.

        Returns True when any underlying relation was stale.  The per-join
        samplers re-sync themselves (delta-maintained weights/plans); the
        rest of the sampler's state describes a snapshot, and
        :meth:`_start_snapshot` sets it afresh from a histogram warm-up built
        on the samplers' delta-maintained exact sizes and the
        delta-maintained histogram statistics.  Samples returned before the
        refresh remain valid uniform draws over the snapshot they were taken
        from.
        """
        for sampler in self.join_samplers.values():
            sampler.refresh()
        if observed_versions(self.queries) == self._versions:
            return False
        with self.stats.timer.phase("refresh"):
            self._start_snapshot(self._histogram_estimator())
        return True

    def sample(self, count: int) -> SampleResult:
        """Draw ``count`` samples from the set union.

        Staleness is detected automatically: if a base relation mutated since
        the last epoch, :meth:`refresh` runs first — the membership memo and
        selection probabilities must never outlive the snapshot they were
        computed from, or the union sample silently biases.  (The per-join
        samplers refresh themselves, but uniformity over the *union* also
        depends on this class's own cached state.)
        """
        self.refresh()
        limit = self._iteration_limit(count)
        while self._ledger.live < count:
            self._guard(limit, count)
            # An iteration accepts at most one sample and records exactly one
            # draw, so a round this long neither overshoots the demand nor
            # runs past the record count at which the next refinement fires.
            size = min(count - self._ledger.live, limit - self.stats.iterations)
            if self.confidence_level < self.gamma:
                size = min(size, self.phi - self._records_since_update)
            self._round(size)
            self._maybe_update_parameters()
        return self._result(
            self._ledger.live_samples()[:count],
            self.algorithm + ("-reuse" if self.reuse else ""),
        )

    # ------------------------------------------------------------------ rounds
    def _round(self, size: int) -> None:
        """``size`` iterations of Algorithm 2 under the current parameters."""
        started = time.perf_counter()
        stats = self.stats
        selections = self._select_joins(size)
        # Per join, in the order its selections fall: what each of its
        # iterations draws.  Fetched before the pass below, one block per
        # join, because a draw never depends on the record.
        asked = np.bincount(selections, minlength=len(self.names)).tolist()
        draws = [
            (name, self._round_draws(name, count) if count else iter(()))
            for name, count in zip(self.names, asked)
        ]
        self._records_since_update += size

        # Lines 11-17 for the whole round, in selection order: Algorithm 1's
        # record rule.
        offer = self._ledger.offer
        iteration = stats.iterations
        kept = kept_reused = 0
        for position in selections.tolist():
            iteration += 1
            name, stream = draws[position]
            value, reused = next(stream)
            if offer(value, position, name, iteration, reused) is not None:
                kept += 1
                kept_reused += reused

        stats.iterations = iteration
        stats.accepted += kept
        stats.reused_accepted += kept_reused
        # One clock reading per round, charged to the phases in proportion
        # to the iterations that ended in each.
        per_iteration = (time.perf_counter() - started) / size
        stats.timer.add("accepted", per_iteration * kept)
        stats.timer.add("reuse_accepted", per_iteration * kept_reused)
        stats.timer.add("rejected", per_iteration * (size - kept))

    def _select_joins(self, count: int) -> npt.NDArray[np.int64]:
        """``count`` join positions from the selection distribution, in one
        categorical draw (uniform when no join has positive probability)."""
        weights = np.array([max(self._probabilities.get(n, 0.0), 0.0) for n in self.names])
        total = weights.sum()
        if total <= 0:
            return self.rng.integers(0, len(self.names), size=count)
        return self.rng.choice(len(self.names), size=count, p=weights / total)

    def _round_draws(self, name: str, count: int) -> Iterator[Tuple[Value, bool]]:
        """What ``count`` successive selections of join ``name`` draw, as
        ``(value, reused)`` pairs, recorded with the weight each carried."""
        join_size = max(self.parameters.join_sizes[name], 1e-12)
        trials = self._reuse_trials(name, count, join_size)
        # Lines 9-10: a selection the pool did not serve is a regular uniform
        # draw from the join — all of them one block, values only.
        regular = count - len(trials) + trials.count(None)
        queue = self._value_queues[name]
        if regular:
            self.stats.record_draw(name, regular)
            if len(queue) < regular:
                refill_value_queue(self.join_samplers[name], queue, regular - len(queue))
        rest = count - len(trials)
        values = [queue.popleft() if t is None else t.value for t in trials]
        values.extend(queue.popleft() for _ in range(rest))
        weights = [join_size if t is None else 1.0 / max(t.probability, 1e-300) for t in trials]
        weights.extend([join_size] * rest)
        reused = [t is not None for t in trials]
        reused.extend([False] * rest)
        self._records[name].extend(map(_Record, values, weights))
        return zip(values, reused)

    def _reuse_trials(
        self, name: str, count: int, join_size: float
    ) -> List[Optional[CollectedSample]]:
        """Sample Reuse (lines 7-8) for the leading selections of a round:
        while its pool lasts, a selection takes one pooled tuple without
        replacement and keeps it with probability ``l / (p(t)·|J_j|)``.
        One entry per trial: the tuple kept, or ``None``."""
        pool = self._pools[name]
        if not (self.reuse and pool):
            return []
        sizes = np.arange(len(pool), max(len(pool) - count, 0), -1)
        picks = self.rng.integers(0, sizes).tolist()
        coins = self.rng.random(sizes.size).tolist()
        trials: List[Optional[CollectedSample]] = []
        for pool_size, pick, coin in zip(sizes.tolist(), picks, coins):
            candidate = pool.pop(pick)
            acceptance = pool_size / (max(candidate.probability, 1e-300) * join_size)
            if coin < min(acceptance, 1.0):
                trials.append(candidate)
            else:
                self.stats.reused_rejected += 1
                trials.append(None)
        return trials

    # ------------------------------------------------------------------ oracle
    def _iterate(self, remaining: int) -> List[UnionSample]:
        """One iteration of Algorithm 2, written as the paper prints it: the
        reference the tests hold :meth:`_round` to (as ``try_sample`` is for
        ``sample_block``).  It draws one value at a time, whatever
        ``remaining`` is; the caller counts iterations and refines."""
        position = int(self._select_joins(1)[0])
        join_name = self.names[position]
        join_size = max(self.parameters.join_sizes[join_name], 1e-12)

        value: Optional[Value] = None
        reused = False

        pool = self._pools[join_name]
        if self.reuse and pool:
            # Sample Reuse (lines 7-8): draw from the warm-up pool without
            # replacement and accept with probability l / (p(t)·|J_j|).
            pool_size = len(pool)
            idx = int(self.rng.integers(0, pool_size))
            candidate = pool.pop(idx)
            acceptance = pool_size / (max(candidate.probability, 1e-300) * join_size)
            if self.rng.random() < min(acceptance, 1.0):
                value = candidate.value
                reused = True
                self._record(join_name, candidate.value, 1.0 / max(candidate.probability, 1e-300))
            else:
                self.stats.reused_rejected += 1

        if value is None:
            # Lines 9-10: fall back to a regular uniform draw from the join.
            self.stats.record_draw(join_name)
            value = drain_value_queue(
                self.join_samplers[join_name], self._value_queues[join_name]
            )
            self._record(join_name, value, join_size)

        # Lines 11-17: Algorithm 1's record rule.
        sample = self._ledger.offer(value, position, join_name, self.stats.iterations, reused)
        if sample is None:
            return []
        self.stats.reused_accepted += reused
        return [sample]

    def _record(self, join_name: str, value: Value, weight: float) -> None:
        self._records[join_name].append(_Record(value, weight))
        self._records_since_update += 1

    # ----------------------------------------------------- parameter refinement
    def _maybe_update_parameters(self) -> None:
        if self._records_since_update < self.phi or self.confidence_level >= self.gamma:
            return
        self._records_since_update = 0
        self.stats.backtrack_rounds += 1
        started = time.perf_counter()
        old = self.parameters
        refined = self._refine_parameters(old)
        self._backtrack(old, refined)
        self.parameters = refined
        self._probabilities = refined.selection_probabilities(use_cover=True)
        self.stats.timer.add("estimation_update", time.perf_counter() - started)

    def _refine_parameters(self, old: UnionParameters) -> UnionParameters:
        """Re-estimate overlaps from the recorded draws (random-walk method, §6.2)."""
        membership = self.membership
        assert membership is not None
        join_sizes = dict(old.join_sizes)
        worst_half_width = 0.0
        # Per round, not per subset: a pivot's recorded values, their weights
        # and the weights' total, and one probe of the values per other join.
        recorded: Dict[str, Tuple[List[Value], List[float], float]] = {}
        inside: Dict[Tuple[str, str], npt.NDArray[np.bool_]] = {}

        def overlap_of(subset: FrozenSet[str]) -> float:
            nonlocal worst_half_width
            if len(subset) == 1:
                return join_sizes[next(iter(subset))]
            # Ties go to the earliest declared join, not to string-hash order.
            pivot = max(
                (n for n in self.names if n in subset), key=lambda n: len(self._records[n])
            )
            records = self._records[pivot]
            if not records:
                # No member of the subset has been drawn from yet: the
                # warm-up's figure stands, and the round claims no confidence.
                worst_half_width = 1.0
                return old.overlap(list(subset))
            if pivot not in recorded:
                weights = [r.weight for r in records]
                recorded[pivot] = ([r.value for r in records], weights, sum(weights))
            values, weights, total_weight = recorded[pivot]
            hit = np.ones(len(records), dtype=bool)
            for name in subset:
                if name == pivot:
                    continue
                if (pivot, name) not in inside:
                    inside[pivot, name] = membership.recall_many(name, values)
                hit &= inside[pivot, name]
            # Added one at a time in record order: the estimate keeps the
            # bits of the per-record loop this replaces.
            hit_weight = 0.0
            for weight in compress(weights, hit.tolist()):
                hit_weight += weight
            hits = int(hit.sum())
            if total_weight <= 0:
                return old.overlap(list(subset))
            ratio = hit_weight / total_weight
            p_hat = hits / len(records)
            half_width = z_value(min(self.gamma, 0.999)) * math.sqrt(
                max(p_hat * (1 - p_hat) / len(records), 0.0)
            )
            worst_half_width = max(worst_half_width, half_width)
            return join_sizes[pivot] * ratio

        overlaps = compute_all_overlaps(self.names, overlap_of)
        k_overlaps = compute_k_overlaps(self.names, overlaps)
        union_size = union_size_from_k_overlaps(k_overlaps)
        union_size = min(
            max(union_size, max(join_sizes.values(), default=0.0)), sum(join_sizes.values())
        )
        covers = cover_sizes_from_overlaps(self.names, overlaps)
        # Confidence: how tight the binomial overlap ratios are.
        self.confidence_level = max(0.0, 1.0 - worst_half_width)
        return UnionParameters(
            join_order=list(self.names),
            join_sizes=join_sizes,
            cover_sizes=covers,
            union_size=union_size,
            overlaps={k: v for k, v in overlaps.items() if len(k) >= 2},
            method="online-refined",
            metadata={"rounds": self.stats.backtrack_rounds},
        )

    def _backtrack(self, old: UnionParameters, new: UnionParameters) -> None:
        """Re-accept previously sampled tuples under the refined parameters
        (§7): each live sample stays with probability ``min(1, new/old)`` of
        its join's cover-to-union ratio, one uniform draw per live sample in
        acceptance order."""
        keep_probability: Dict[str, float] = {}
        for name in self.names:
            old_ratio = old.cover_sizes[name] / max(old.union_size, 1e-12)
            new_ratio = new.cover_sizes[name] / max(new.union_size, 1e-12)
            keep_probability[name] = 1.0 if old_ratio <= 0 else min(new_ratio / old_ratio, 1.0)
        self.stats.backtrack_removed += self._ledger.retain(
            lambda sample: self.rng.random() < keep_probability[sample.source_join]
        )


__all__ = ["OnlineUnionSampler"]
