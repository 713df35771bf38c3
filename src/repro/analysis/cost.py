"""Expected sampling-cost models.

Two models live here:

* the paper's **Theorem 2** draw-count bound for union sampling
  (:func:`expected_sampling_cost`): Theorem 2 bounds the expected number of
  draws Algorithm 1 needs to return ``N`` uniform, independent samples by

      ψ  ≤  Σ_j N_j log N_j   with   N_j = N · |J'_j| / |U|,

  which telescopes to ``N + N log N``;

* a **backend cost model** (:class:`BackendCostModel`,
  :func:`estimate_backend_costs`) that prices the single-join sampler
  backends — exact-weight, extended-Olken accept/reject, and wander join —
  from :class:`~repro.relational.statistics.ColumnStatistics`-derived
  quantities (the Olken bound and its average-degree refinement).  The
  :class:`~repro.aqp.planner.SamplerPlanner` minimizes these costs to pick a
  backend and batch size automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.result import SampleResult
from repro.estimation.parameters import UnionParameters
from repro.joins.query import JoinQuery
from repro.sampling.olken import olken_refined_bound, olken_upper_bound


@dataclass(frozen=True)
class CostEstimate:
    """Expected-cost decomposition for a target sample size."""

    sample_size: int
    per_join_expected_samples: Dict[str, float]
    per_join_expected_draws: Dict[str, float]
    expected_total_draws: float
    theorem2_bound: float

    @property
    def amplification(self) -> float:
        """Expected draws per returned sample."""
        if self.sample_size == 0:
            return 0.0
        return self.expected_total_draws / self.sample_size


def expected_sampling_cost(parameters: UnionParameters, sample_size: int) -> CostEstimate:
    """Evaluate the Theorem-2 cost model for ``sample_size`` target samples."""
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    probabilities = parameters.selection_probabilities(use_cover=True)
    per_join_samples: Dict[str, float] = {}
    per_join_draws: Dict[str, float] = {}
    total = 0.0
    for name in parameters.join_order:
        expected_samples = sample_size * probabilities[name]
        per_join_samples[name] = expected_samples
        # Coupon-collector style term N_j log N_j (0 for N_j <= 1).
        draws = expected_samples * math.log(expected_samples) if expected_samples > 1 else expected_samples
        per_join_draws[name] = draws
        total += draws
    bound = sample_size + sample_size * math.log(sample_size) if sample_size > 1 else float(sample_size)
    return CostEstimate(
        sample_size=sample_size,
        per_join_expected_samples=per_join_samples,
        per_join_expected_draws=per_join_draws,
        expected_total_draws=total,
        theorem2_bound=bound,
    )


def observed_cost(result: SampleResult) -> Dict[str, float]:
    """Observed cost counters of a finished sampler run, in Theorem-2 terms."""
    accepted = max(len(result), 1)
    return {
        "samples": float(len(result)),
        "iterations": float(result.stats.iterations),
        "draws": float(result.stats.total_draws),
        "draws_per_sample": result.stats.total_draws / accepted,
        "iterations_per_sample": result.stats.iterations / accepted,
    }


# --------------------------------------------------------------------- backends
@dataclass(frozen=True)
class BackendCostModel:
    """Unit costs of the single-join sampler backends.

    The constants are calibrated against the **columnar block pipeline**
    (the per-layer timings of the measurement spine, ``benchmarks/spine``):
    alias-table draws put a batched accept/reject attempt and a wander-join walk both in
    the few-hundred-nanosecond range, so the decision is dominated by the
    setup terms (the EW weight build plus per-level alias/plan construction
    vs. the EO statistics pass vs. wander's zero setup) and by the per-sample
    inflation factors (rejection rate, walk failure rate, HT design effect).
    They only need to be *relatively* right: the planner compares backends
    against each other, it never predicts absolute wall-clock.
    """

    #: one batched accept/reject attempt (alias root draw + per-level descent)
    attempt_seconds: float = 3.5e-7
    #: one batched wander-join walk (uniform alias hops)
    walk_seconds: float = 3.0e-7
    #: EW sampler setup per base-relation row: bottom-up segment-sum weight
    #: build plus level-plan and per-segment alias-table construction
    weight_build_seconds_per_row: float = 1.2e-6
    #: EO sampler setup per row: key-index build / max-degree passes
    stats_seconds_per_row: float = 4.0e-7
    #: residual-condition survival prior for cyclic skeletons (unknown a
    #: priori; only used to keep cyclic costs comparable across backends)
    cyclic_survival_prior: float = 0.25
    #: variance-inflation prior of the non-uniform wander-join HT estimator
    #: vs. uniform samples.  Walk weights are heavy-tailed on skewed joins
    #: (a walk's HT weight is the product of the degrees along its path), so
    #: the inflation grows as the error target tightens — measured ~3x at
    #: rel_error=0.05 and >10x at 0.01 on the TPC-H bench workloads.  The
    #: prior sits at the pessimistic end: wander join's niche is cheap
    #: setup (huge databases, small sample budgets), and mispricing it
    #: cheap on tight-error aggregation is the expensive mistake.
    ht_design_effect: float = 10.0


DEFAULT_COST_MODEL = BackendCostModel()


def acceptance_ratio(query: JoinQuery) -> float:
    """Estimated accept/reject acceptance rate under extended-Olken weights.

    The true rate is ``|J| / W_eo``; the planner proxies ``|J|`` with the
    average-degree refinement of the Olken bound (§5.1), i.e. the ratio of
    average to maximum degrees along the join tree.  Clamped to ``(0, 1]``.
    Memoized per snapshot (a ``query.derived`` tenant).
    """
    return query.derived("acceptance_ratio", lambda: _acceptance_ratio(query))


def _acceptance_ratio(query: JoinQuery) -> float:
    bound = olken_upper_bound(query)
    if bound <= 0:
        return 1.0  # empty join: every backend is instantly "done"
    refined = olken_refined_bound(query)
    return min(max(refined / bound, 1e-9), 1.0)


def walk_success_ratio(query: JoinQuery) -> float:
    """Estimated probability that one wander-join walk completes.

    Per join edge, the fraction of parent rows with at least one joinable
    child row (read from the edge's hop table,
    :meth:`~repro.joins.query.JoinQuery.edge_hops` — the table the walks
    gather from anyway); the walk succeeds when every hop finds a child, so
    the per-edge fractions multiply.  This deliberately ignores *which*
    parent the walk is at (hops are uniform, dangling rows are what kill
    walks in practice), which keeps the estimate O(rows) while tracking the
    measured success rate closely on the TPC-H workloads.  Clamped to ``[1e-9, 1]``.  Memoized per snapshot like
    :func:`acceptance_ratio`.
    """
    return query.derived("walk_success_ratio", lambda: _walk_success_ratio(query))


def _walk_success_ratio(query: JoinQuery) -> float:
    product = 1.0
    for node, parent in query.join_tree().descent():
        if parent is None:
            continue
        parent_rel = query.relation(parent.relation)
        if len(parent_rel) == 0:
            return 1e-9
        _, degrees = query.edge_hops(parent.relation, node)
        product *= max(float(np.count_nonzero(degrees)) / len(degrees), 1e-9)
    return min(max(product, 1e-9), 1.0)


def estimate_backend_costs(
    query: JoinQuery,
    sample_size: int,
    model: Optional[BackendCostModel] = None,
    backends: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Expected seconds for each single-join backend to produce ``sample_size``
    accepted samples (wander join: walks of equivalent estimator value).

    ``backends`` restricts which entries are priced at all — the statistics
    behind an entry are only computed when that entry is requested (planning
    itself must stay cheap relative to the sampling it prices; pricing a
    backend the capability matrix already excluded would be pure waste), and
    each is computed once per snapshot (the two ratios are ``derived``
    tenants), so pricing the same snapshot again is O(relations).

    * ``exact-weight`` pays the O(rows) weight/plan/alias build, then accepts
      every attempt (up to residual survival on cyclic skeletons);
    * ``olken`` pays a cheaper statistics pass but accepts only
      ``acceptance_ratio`` of its attempts;
    * ``wander-join`` has zero setup; walks complete at
      :func:`walk_success_ratio` (a dangling-row model — much higher than the
      accept/reject acceptance ratio), but the surviving walks are
      *non-uniform*, so the model charges the ``ht_design_effect`` prior: a
      skewed join needs proportionally more walks for the same estimator
      variance.
    """
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    model = model or DEFAULT_COST_MODEL
    wanted = set(backends) if backends is not None else {"exact-weight", "olken", "wander-join"}
    rows = sum(len(r) for r in query.relations.values())
    survival = model.cyclic_survival_prior if query.is_cyclic else 1.0
    n = float(sample_size)
    costs: Dict[str, float] = {}
    if "exact-weight" in wanted:
        costs["exact-weight"] = (
            rows * model.weight_build_seconds_per_row + n / survival * model.attempt_seconds
        )
    if "olken" in wanted:
        costs["olken"] = (
            rows * model.stats_seconds_per_row
            + n / (acceptance_ratio(query) * survival) * model.attempt_seconds
        )
    if "wander-join" in wanted:
        costs["wander-join"] = (
            n * model.ht_design_effect / (walk_success_ratio(query) * survival) * model.walk_seconds
        )
    return costs


__all__ = [
    "CostEstimate",
    "expected_sampling_cost",
    "observed_cost",
    "BackendCostModel",
    "DEFAULT_COST_MODEL",
    "acceptance_ratio",
    "walk_success_ratio",
    "estimate_backend_costs",
]
