"""Wander Join: random walks over the join data graph (Li et al., SIGMOD'16).

A wander-join walk starts at a uniformly random row of the root relation and,
at every hop, moves to a uniformly random joinable row of the next relation.
The walk either fails (no joinable row, or a residual condition is violated)
or produces one join result ``t`` together with its sampling probability

    p(t) = 1/|R_1| · 1/d_2(t_1) · ... · 1/d_m(t_{m-1})

computed on the fly from the hash indexes (paper §6.1, Example 6).  Results
are independent but *not* uniform; the Horvitz–Thompson estimator
``|J| ≈ (1/m) Σ 1/p(t_k)`` (failed walks contribute 0) estimates the join size
with a confidence interval that shrinks as the number of walks grows.

The union framework uses wander join in two places:

* the **random-walk warm-up** that estimates join sizes and overlap sizes
  (§6), and
* the **sample reuse** pool of the online union sampler (§7), which recycles
  the walk results ``(t, p(t))`` with an extra accept/reject step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.joins.query import JoinQuery
from repro.sampling.alias import uniform_segment_pick
from repro.sampling.blocks import SampleBlock
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class WalkResult:
    """Outcome of a single wander-join random walk."""

    success: bool
    value: Optional[Tuple] = None
    assignment: Optional[Dict[str, int]] = None
    probability: float = 0.0

    @property
    def inverse_probability(self) -> float:
        """Horvitz–Thompson contribution (0 for failed walks)."""
        if not self.success or self.probability <= 0:
            return 0.0
        return 1.0 / self.probability


@dataclass
class SizeEstimate:
    """A join-size estimate with its confidence interval."""

    estimate: float
    variance: float
    walks: int
    successes: int
    confidence: float
    half_width: float

    @property
    def standard_error(self) -> float:
        if self.walks == 0:
            return float("inf")
        return math.sqrt(self.variance / self.walks)

    @property
    def relative_half_width(self) -> float:
        if self.estimate == 0:
            return float("inf")
        return self.half_width / self.estimate

    @property
    def success_rate(self) -> float:
        if self.walks == 0:
            return 0.0
        return self.successes / self.walks


class RunningEstimator:
    """Incrementally updated Horvitz–Thompson estimator (paper §6.1).

    ``add`` consumes the HT contribution ``1/p(t)`` of a walk (0 for failures)
    and keeps running mean and variance using the same update rule as Eq. in
    §6.1: ``|J|_{S∪t0} = |J|_S + ( 1/p(t0) − |J|_S ) / (m+1)``.
    """

    def __init__(self) -> None:
        self.count = 0
        self.successes = 0
        self.mean = 0.0
        self._m2 = 0.0  # sum of squared deviations (Welford)

    def add(self, inverse_probability: float) -> None:
        self.count += 1
        if inverse_probability > 0:
            self.successes += 1
        delta = inverse_probability - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (inverse_probability - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance of the HT contributions."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def estimate(self, confidence: float = 0.9) -> SizeEstimate:
        half_width = 0.0
        if self.count >= 2:
            z = z_value(confidence)
            half_width = z * math.sqrt(self.variance / self.count)
        return SizeEstimate(
            estimate=self.mean,
            variance=self.variance,
            walks=self.count,
            successes=self.successes,
            confidence=confidence,
            half_width=half_width,
        )


def z_value(confidence: float) -> float:
    """Two-sided standard-normal quantile for the given confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


class WanderJoin:
    """Random-walk sampler and size estimator for one join query."""

    def __init__(self, query: JoinQuery, seed: RandomState = None) -> None:
        self.query = query
        self.tree = query.join_tree()
        self.rng = ensure_rng(seed)
        self._order = self.tree.descent()
        self.walk_count = 0
        self.success_count = 0

    # ------------------------------------------------------------------ walks
    def walk(self) -> WalkResult:
        """Perform one random walk; returns its result and probability."""
        self.walk_count += 1
        root = self.tree.root
        root_rel = self.query.relation(root.relation)
        if len(root_rel) == 0:
            return WalkResult(success=False)
        assignment: Dict[str, int] = {}
        probability = 1.0 / len(root_rel)
        assignment[root.relation] = int(self.rng.integers(0, len(root_rel)))

        for node, parent in self._order:
            if parent is None:
                continue
            parent_rel = self.query.relation(parent.relation)
            child_rel = self.query.relation(node.relation)
            key = parent_rel.project_row(assignment[parent.relation], node.parent_attributes)
            lookup = key if len(key) > 1 else key[0]
            joinable = child_rel.index_on_columns(node.child_attributes).positions(lookup)
            if len(joinable) == 0:
                return WalkResult(success=False)
            probability *= 1.0 / len(joinable)
            assignment[node.relation] = int(joinable[int(self.rng.integers(0, len(joinable)))])

        if not self.tree.residual_satisfied(assignment):
            return WalkResult(success=False)
        self.success_count += 1
        return WalkResult(
            success=True,
            value=self.query.project_assignment(assignment),
            assignment=assignment,
            probability=probability,
        )

    def walks(self, count: int, batch_size: int = 4096) -> List[WalkResult]:
        """``count`` independent walks (failed walks included).

        Walks run in vectorized batches over the columnar/CSR storage layer;
        results are identically distributed to ``count`` :meth:`walk` calls.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        results: List[WalkResult] = []
        while len(results) < count:
            results.extend(self.walk_batch(min(batch_size, count - len(results))))
        return results

    def walk_batch(self, size: int) -> List[WalkResult]:
        """``size`` independent walks performed level-by-level, vectorized.

        Each hop is one key gather, one CSR slot lookup, and one uniform
        choice within the joinable segment for every surviving walk at once;
        probabilities accumulate as ``1/|R_1| · Π 1/d`` exactly as in
        :meth:`walk`.
        """
        chosen, walks, probability, size = self._descend(size)
        results = [WalkResult(success=False) for _ in range(size)]
        if walks is None or walks.size == 0:
            return results

        value_columns = []
        for out in self.query.output_attributes:
            relation = self.query.relation(out.relation)
            value_columns.append(
                relation.column_array(out.attribute)[chosen[out.relation][walks]].tolist()
            )
        values = list(zip(*value_columns))
        relation_names = [node.relation for node, _ in self._order]
        assignment_columns = {
            name: chosen[name][walks].tolist() for name in relation_names
        }
        for i, walk_id in enumerate(walks.tolist()):
            results[walk_id] = WalkResult(
                success=True,
                value=values[i],
                assignment={name: assignment_columns[name][i] for name in relation_names},
                probability=float(probability[walk_id]),
            )
        return results

    def walk_block(self, size: int) -> SampleBlock:
        """``size`` walks as one struct-of-arrays block (zero-object path).

        The block holds the *successful* walks' per-relation row indices and
        their Horvitz–Thompson weights ``1/p(t)``; ``attempts`` records all
        ``size`` walks so attempt-level estimators stay unbiased.  Consumes
        the identical random stream as :meth:`walk_batch`, so both paths
        describe the same walks for a fixed seed.
        """
        chosen, walks, probability, size = self._descend(size)
        relation_names = tuple(node.relation for node, _ in self._order)
        if walks is None or walks.size == 0:
            block = SampleBlock.empty(relation_names)
            block.attempts = size
            block.weights = np.empty(0, dtype=float)
            return block
        return SampleBlock(
            relation_order=relation_names,
            positions={name: chosen[name][walks] for name in relation_names},
            attempts=size,
            weights=1.0 / probability[walks],
        )

    def _descend(self, size: int):
        """Shared vectorized descent: ``(chosen, surviving walks, p, size)``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0:
            return {}, None, None, 0
        self.walk_count += size
        root = self.tree.root
        root_rel = self.query.relation(root.relation)
        n_root = len(root_rel)
        if n_root == 0:
            return {}, None, None, size

        chosen: Dict[str, np.ndarray] = {
            node.relation: np.full(size, -1, dtype=np.intp)
            for node, _ in self._order
        }
        chosen[root.relation] = self.rng.integers(0, n_root, size=size).astype(np.intp)
        probability = np.full(size, 1.0 / n_root, dtype=float)
        walks = np.arange(size, dtype=np.intp)

        for node, parent in self._order:
            if parent is None:
                continue
            if walks.size == 0:
                break
            parent_rel = self.query.relation(parent.relation)
            child_rel = self.query.relation(node.relation)
            csr = child_rel.sorted_index_on_columns(node.child_attributes)
            keys = parent_rel.join_key_array(node.parent_attributes)[
                chosen[parent.relation][walks]
            ]
            slots = csr.slots_for(keys)
            present = slots >= 0
            walks = walks[present]
            slots = slots[present]
            if walks.size == 0:
                break
            starts = csr.offsets[slots]
            degrees = csr.offsets[slots + 1] - starts
            # Zero-degree slots (deletions pending compaction) mean "no
            # joinable rows": those walks fail exactly like absent keys.
            alive = degrees > 0
            if not alive.all():
                walks = walks[alive]
                starts = starts[alive]
                degrees = degrees[alive]
                if walks.size == 0:
                    break
            # Uniform hop: the degenerate (single-dart) alias kernel.
            picks = uniform_segment_pick(self.rng, starts, degrees)
            chosen[node.relation][walks] = csr.row_positions[picks]
            probability[walks] /= degrees

        if walks.size and self.tree.residual_conditions:
            ok = self.tree.residual_mask(
                {name: positions[walks] for name, positions in chosen.items()}
            )
            walks = walks[ok]

        self.success_count += int(walks.size)
        return chosen, walks, probability, size

    # -------------------------------------------------------------- estimation
    def estimate_size(
        self,
        confidence: float = 0.9,
        relative_half_width: float = 0.1,
        min_walks: int = 100,
        max_walks: int = 10_000,
    ) -> SizeEstimate:
        """Horvitz–Thompson join-size estimate.

        Walks continue until the confidence interval's relative half-width
        drops below ``relative_half_width`` (at the given ``confidence``) or
        ``max_walks`` is reached — the termination rule of §6.1.
        """
        estimator = RunningEstimator()
        while estimator.count < max_walks:
            estimator.add(self.walk().inverse_probability)
            if estimator.count >= min_walks:
                current = estimator.estimate(confidence)
                if (
                    current.estimate > 0
                    and current.relative_half_width <= relative_half_width
                ):
                    return current
        return estimator.estimate(confidence)


__all__ = [
    "WalkResult",
    "SizeEstimate",
    "RunningEstimator",
    "WanderJoin",
    "z_value",
]
