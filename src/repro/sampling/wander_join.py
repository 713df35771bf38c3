"""Wander Join: random walks over the join data graph (Li et al., SIGMOD'16).

A wander-join walk starts at a uniformly random row of the root relation and,
at every hop, moves to a uniformly random joinable row of the next relation.
The walk either fails (no joinable row, a residual condition is violated, or
a predicate not pushed down rejects a bound row) or produces one join result
``t`` together with its sampling probability

    p(t) = 1/|R_1| · 1/d_2(t_1) · ... · 1/d_m(t_{m-1})

computed on the fly from each edge's hop table (paper §6.1, Example 6).  Results
are independent but *not* uniform; the Horvitz–Thompson estimator
``|J| ≈ (1/m) Σ 1/p(t_k)`` (failed walks contribute 0) estimates the join size
with a confidence interval that shrinks as the number of walks grows.

The union framework uses wander join in two places:

* the **random-walk warm-up** that estimates join sizes and overlap sizes
  (§6), and
* the **sample reuse** pool of the online union sampler (§7), which recycles
  the walk results ``(t, p(t))`` with an extra accept/reject step.

Callers run their own stopping rule over :meth:`WanderJoin.walk_batch_with_values`
or :meth:`WanderJoin.walk_block` with a :class:`RunningEstimator`.  The tests
hold the walks to the enumerated join
(:func:`~repro.joins.executor.iterate_join_assignments`): each probability to
``1/|R_1| · Π 1/d`` read from the indexes, the success rate to ``Σ p(t)`` over
the join, and the HT size to the exact one.
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
    """Random-walk sampler for one join query; its walks carry the
    probabilities the HT size estimate reads."""

    def __init__(self, query: JoinQuery, seed: RandomState = None) -> None:
        self.query = query
        self.tree = query.join_tree()
        self.rng = ensure_rng(seed)
        self._order = self.tree.descent()
        self.walk_count = 0
        self.success_count = 0

    # ------------------------------------------------------------------ walks
    def walks(self, count: int, batch_size: int = 4096) -> List[WalkResult]:
        """``count`` independent walks (failed walks included).

        Walks run in vectorized batches (:meth:`walk_batch`) over the
        columnar/CSR storage layer.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        results: List[WalkResult] = []
        while len(results) < count:
            results.extend(self.walk_batch(min(batch_size, count - len(results))))
        return results

    def walk_batch(self, size: int) -> List[WalkResult]:
        """``size`` independent walks performed level-by-level, vectorized.

        Each hop gathers every surviving walk's joinable segment from the
        edge's hop table (:meth:`~repro.joins.query.JoinQuery.edge_hops`)
        and makes one uniform choice within it for all of them at once;
        probabilities accumulate as ``1/|R_1| · Π 1/d``.
        """
        return self.walk_batch_with_values(size)[0]

    def walk_batch_with_values(
        self, size: int
    ) -> Tuple[List[WalkResult], List[np.ndarray]]:
        """:meth:`walk_batch`, plus the successful walks' output values as
        one array per output attribute, in walk order."""
        chosen, walks, probability, size = self._descend(size)
        results = [WalkResult(success=False) for _ in range(size)]
        columns = [
            self.query.relation(out.relation).column_array(out.attribute)
            for out in self.query.output_attributes
        ]
        if walks.size == 0:
            return results, [column[:0] for column in columns]
        value_columns = [
            column[chosen[out.relation]]
            for column, out in zip(columns, self.query.output_attributes)
        ]
        values = list(zip(*(column.tolist() for column in value_columns)))
        assignment_columns = {name: positions.tolist() for name, positions in chosen.items()}
        for i, (walk_id, p) in enumerate(zip(walks.tolist(), probability.tolist())):
            results[walk_id] = WalkResult(
                success=True,
                value=values[i],
                assignment={name: column[i] for name, column in assignment_columns.items()},
                probability=p,
            )
        return results, value_columns

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
        if walks.size == 0:
            block = SampleBlock.empty(relation_names)
            block.attempts = size
            block.weights = np.empty(0, dtype=float)
            return block
        return SampleBlock(
            relation_order=relation_names,
            positions={name: chosen[name] for name in relation_names},
            attempts=size,
            weights=1.0 / probability,
        )

    def _descend(
        self, size: int
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray, int]:
        """Shared vectorized descent over ``size`` walks: ``(positions, walk
        ids, p, size)`` of the walks that succeed, aligned with each other.

        Every per-relation position array and the probabilities stay aligned
        with the walks still alive: a hop reads the edge's hop table
        (:meth:`~repro.joins.query.JoinQuery.edge_hops`) — two gathers — and
        only a hop where some walk fails compresses the arrays, with one mask.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        walks = np.arange(size, dtype=np.intp)
        if size == 0:
            return {}, walks, np.empty(0), 0
        self.walk_count += size
        root = self.tree.root
        n_root = len(self.query.relation(root.relation))
        if n_root == 0:
            return {}, walks[:0], np.empty(0), size

        chosen: Dict[str, np.ndarray] = {
            root.relation: self.rng.integers(0, n_root, size=size).astype(np.intp)
        }
        probability = np.full(size, 1.0 / n_root, dtype=float)
        for node, parent in self._order:
            if parent is None:
                continue
            csr = self.query.relation(node.relation).index_on_columns(node.child_attributes)
            starts, degrees = self.query.edge_hops(parent.relation, node)
            at = chosen[parent.relation]
            degrees = degrees[at]
            # An absent key and a zero-degree slot (deletions pending
            # compaction) both mean "no joinable rows": the walk fails.
            alive = degrees > 0
            if not alive.all():
                walks, probability = walks[alive], probability[alive]
                if walks.size == 0:
                    return {}, walks, probability, size
                chosen = {name: positions[alive] for name, positions in chosen.items()}
                at, degrees = chosen[parent.relation], degrees[alive]
            # Uniform hop: the degenerate (single-dart) alias kernel.
            picks = uniform_segment_pick(self.rng, starts[at], degrees)
            chosen[node.relation] = csr.row_positions[picks].astype(np.intp, copy=False)
            probability /= degrees

        # A walk fails on a residual condition of the cycle, or on a row its
        # relation's predicate rejects where predicates were not pushed down.
        ok = self.tree.residual_mask(chosen) if self.tree.residual_conditions else None
        for name, admitted in self.query.row_masks().items():
            ok = admitted[chosen[name]] if ok is None else ok & admitted[chosen[name]]
        if ok is not None and not ok.all():
            walks, probability = walks[ok], probability[ok]
            chosen = {name: positions[ok] for name, positions in chosen.items()}

        self.success_count += int(walks.size)
        return chosen, walks, probability, size


__all__ = [
    "WalkResult",
    "SizeEstimate",
    "RunningEstimator",
    "WanderJoin",
    "z_value",
]
