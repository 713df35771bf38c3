"""Random-walk overlap and union-size estimation (paper §6).

This is the *centralized* instantiation of the warm-up phase: when relations
can be accessed directly, wander-join random walks estimate both the join
sizes (Horvitz–Thompson, §6.1) and the overlap sizes (§6.2):

* fix a pivot join ``J_j`` in Δ and keep sampling results ``t`` with their walk
  probabilities ``p(t)``;
* conceptually replicate each sampled ``t`` ``1/p(t)`` times so the weighted
  sample ``S'_j`` preserves the distribution of ``J_j``;
* probe every other join in Δ to see whether it also contains ``t`` — the
  pivot's whole sample list against one join at a time
  (:meth:`~repro.joins.membership.UnionMembershipIndex.recall_many`);
* the overlap is then ``|O_Δ| = |J_j| · |∩ S'_i| / |S'_j|`` (Eq. 2), with the
  confidence interval of Eq. 3.

The walks performed during the warm-up are *not* wasted: the estimator keeps
every successful walk together with its probability so the online union
sampler (§7) can reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.estimation.base import UnionSizeEstimator
from repro.joins.membership import UnionMembershipIndex
from repro.joins.query import JoinQuery
from repro.sampling.wander_join import RunningEstimator, SizeEstimate, WanderJoin, z_value
from repro.utils.rng import RandomState, ensure_rng, spawn_rngs


@dataclass
class CollectedSample:
    """One successful warm-up walk, kept for reuse by the online sampler."""

    query_name: str
    value: Tuple
    probability: float


@dataclass
class OverlapEstimate:
    """An overlap estimate with its variance and confidence interval (Eq. 3)."""

    value: float
    ratio: float
    variance: float
    half_width: float
    confidence: float
    walks: int


class RandomWalkUnionEstimator(UnionSizeEstimator):
    """Warm-up phase instantiation based on wander-join random walks.

    Parameters
    ----------
    queries:
        Joins of the union.
    walks_per_join:
        Number of random walks used per join for both size and overlap
        estimation (the paper stops at a confidence target or 1,000 samples;
        :meth:`prepare` honours ``confidence``/``relative_half_width`` first
        and caps at ``walks_per_join``).
    confidence / relative_half_width:
        Termination rule for the per-join size estimate.
    exact_join_sizes:
        Optional exact sizes ``|J_j|`` to plug into Eq. 2 instead of the HT
        estimates (the paper treats ``|J_j|`` as exact when analysing Eq. 2).
    """

    method = "random-walk"

    def __init__(
        self,
        queries: Sequence[JoinQuery],
        walks_per_join: int = 1000,
        confidence: float = 0.9,
        relative_half_width: float = 0.1,
        min_walks: int = 100,
        seed: RandomState = None,
        exact_join_sizes: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(queries)
        if walks_per_join <= 0:
            raise ValueError("walks_per_join must be positive")
        self.walks_per_join = walks_per_join
        self.confidence = confidence
        self.relative_half_width = relative_half_width
        self.min_walks = min(min_walks, walks_per_join)
        self.exact_join_sizes = dict(exact_join_sizes or {})
        rngs = spawn_rngs(seed, len(self.queries))
        self._walkers: Dict[str, WanderJoin] = {
            q.name: WanderJoin(q, seed=rng) for q, rng in zip(self.queries, rngs)
        }
        #: the probers and the ``(join, value)`` memo of the union; an online
        #: sampler warmed up by this estimator goes on using both
        self.membership = UnionMembershipIndex(self.queries)
        self._samples: Dict[str, List[CollectedSample]] = {q.name: [] for q in self.queries}
        self._size_estimates: Dict[str, SizeEstimate] = {}
        self._prepared = False

    # ---------------------------------------------------------------- warm-up
    def prepare(self) -> None:
        """Run the warm-up walks for every join (idempotent)."""
        if self._prepared:
            return
        for query in self.queries:
            self._warmup_join(query)
        self._prepared = True

    def _warmup_join(self, query: JoinQuery) -> None:
        walker = self._walkers[query.name]
        estimator = RunningEstimator()
        samples = self._samples[query.name]
        # Walks run in vectorized batches: the first batch covers the minimum
        # walk budget, later ones re-check the confidence target per batch.
        while estimator.count < self.walks_per_join:
            if estimator.count < self.min_walks:
                chunk = self.min_walks - estimator.count
            else:
                chunk = min(64, self.walks_per_join - estimator.count)
            for result in walker.walk_batch(chunk):
                estimator.add(result.inverse_probability)
                if result.success:
                    samples.append(
                        CollectedSample(query.name, result.value, result.probability)
                    )
            if estimator.count >= self.min_walks:
                estimate = estimator.estimate(self.confidence)
                if (
                    estimate.estimate > 0
                    and estimate.relative_half_width <= self.relative_half_width
                ):
                    break
        self._size_estimates[query.name] = estimator.estimate(self.confidence)

    # ------------------------------------------------------------------ sizes
    def join_size(self, query: JoinQuery) -> float:
        self.prepare()
        if query.name in self.exact_join_sizes:
            return float(self.exact_join_sizes[query.name])
        return max(self._size_estimates[query.name].estimate, 0.0)

    def size_estimate(self, name: str) -> SizeEstimate:
        """The full HT size estimate (with confidence interval) for one join."""
        self.prepare()
        return self._size_estimates[name]

    # ---------------------------------------------------------------- overlap
    def overlap(self, queries: Sequence[JoinQuery]) -> float:
        return self.overlap_estimate(queries).value

    def overlap_estimate(self, queries: Sequence[JoinQuery]) -> OverlapEstimate:
        """Eq. 2 estimate with the Eq. 3 confidence interval."""
        self.prepare()
        if len(queries) < 2:
            raise ValueError("overlap_estimate needs at least two joins")
        pivot = self._pivot(queries)
        others = [q for q in queries if q.name != pivot.name]
        samples = self._samples[pivot.name]
        if not samples:
            return OverlapEstimate(0.0, 0.0, 0.0, 0.0, self.confidence, 0)

        # One probe of the whole sample list per other join; the memo makes
        # it one per pair of joins over all the subsets that share the pivot.
        values = [sample.value for sample in samples]
        in_all = np.ones(len(values), dtype=bool)
        for query in others:
            in_all &= self.membership.recall_many(query.name, values)

        total_weight = 0.0
        overlap_weight = 0.0
        hits = 0
        for sample, hit in zip(samples, in_all.tolist()):
            weight = 1.0 / sample.probability if sample.probability > 0 else 0.0
            total_weight += weight
            if hit:
                overlap_weight += weight
                hits += 1
        if total_weight <= 0:
            return OverlapEstimate(0.0, 0.0, 0.0, 0.0, self.confidence, len(samples))

        ratio = overlap_weight / total_weight
        join_size = self.join_size(pivot)
        value = join_size * ratio

        # Eq. 3: combine the binomial variance of the ratio with the variance
        # of the HT join-size estimate (delta method, independence assumed).
        walk_count = max(len(samples), 1)
        p_hat = hits / walk_count
        ratio_var = p_hat * (1.0 - p_hat) / walk_count
        size_estimate = self._size_estimates[pivot.name]
        size_var = (
            0.0
            if pivot.name in self.exact_join_sizes
            else size_estimate.variance / max(size_estimate.walks, 1)
        )
        variance = (
            (join_size ** 2) * ratio_var
            + (ratio ** 2) * size_var
            + size_var * ratio_var
        )
        half_width = z_value(self.confidence) * math.sqrt(max(variance, 0.0))
        return OverlapEstimate(
            value=value,
            ratio=ratio,
            variance=variance,
            half_width=half_width,
            confidence=self.confidence,
            walks=len(samples),
        )

    def _pivot(self, queries: Sequence[JoinQuery]) -> JoinQuery:
        """The join whose samples drive Eq. 2: the smallest estimated join."""
        return min(queries, key=lambda q: self.join_size(q))

    # ------------------------------------------------------------------ reuse
    def collected_samples(self, name: str) -> List[CollectedSample]:
        """Warm-up walk results of one join (for §7 sample reuse)."""
        self.prepare()
        return list(self._samples[name])

    def all_collected_samples(self) -> Dict[str, List[CollectedSample]]:
        self.prepare()
        return {name: list(samples) for name, samples in self._samples.items()}

    def total_walks(self) -> int:
        """Total random walks performed during the warm-up."""
        return sum(w.walk_count for w in self._walkers.values())


__all__ = ["RandomWalkUnionEstimator", "CollectedSample", "OverlapEstimate"]
