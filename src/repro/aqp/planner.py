"""Cost-based sampler planning: pick a backend and batch size automatically.

Users previously had to hand-pick Olken vs exact-weight vs wander-join per
workload.  :class:`SamplerPlanner` makes that choice from cheap statistics:
the Olken bound and its average-degree refinement (both derived from
:class:`~repro.relational.statistics.ColumnStatistics` maintained on the base
relations) feed the backend cost model in :mod:`repro.analysis.cost`, and the
cheapest *supported* backend wins.

Capability matrix (what "supported" means):

* ``online-union`` — the only backend that samples a union of several joins
  (:class:`~repro.aqp.sources.UnionCoverSource`);
  never eligible for a single join.
* ``exact-weight`` / ``olken`` — any single join (cyclic skeletons are
  handled by residual rejection, non-pushed-down predicates by predicate
  rejection).
* ``wander-join`` — single **acyclic** joins whose predicates are pushed
  down: :class:`~repro.sampling.wander_join.WanderJoin` walks verify residual
  conditions but not §8.3-style predicate rejection, and on cyclic templates
  the HT weights ignore residual survival, so the planner never selects it
  there.  (The Hypothesis suite in ``tests/test_aqp_properties.py`` pins this
  invariant for random query shapes.)

The plan also fixes the sampler batch size: large enough that one batched
pass is expected to deliver the whole per-call demand despite rejections,
clamped to the engine's ``[64, 8192]`` sweet spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.analysis.cost import (
    BackendCostModel,
    acceptance_ratio,
    estimate_backend_costs,
    walk_success_ratio,
)
from repro.joins.query import JoinQuery

#: Every backend the planner can hand out.
BACKENDS = ("exact-weight", "olken", "wander-join", "online-union")

#: Backend -> weight-function name for JoinSampler-based backends.
BACKEND_WEIGHTS = {"exact-weight": "ew", "olken": "eo"}

_MIN_BATCH = 64
_MAX_BATCH = 8192


@dataclass(frozen=True)
class SamplerPlan:
    """The planner's decision plus the evidence behind it."""

    backend: str
    #: ``"ew"``/``"eo"`` for JoinSampler backends, None otherwise
    weights: Optional[str]
    batch_size: int
    expected_acceptance: float
    #: backend -> expected seconds for the target sample size
    expected_costs: Dict[str, float]
    target_samples: int
    rationale: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "weights": self.weights,
            "batch_size": self.batch_size,
            "expected_acceptance": self.expected_acceptance,
            "target_samples": self.target_samples,
            "rationale": list(self.rationale),
        }


def supported_backends(
    queries: Union[JoinQuery, Sequence[JoinQuery]],
) -> Tuple[str, ...]:
    """The backends capable of sampling the given query/queries at all."""
    if isinstance(queries, JoinQuery):
        queries = [queries]
    queries = list(queries)
    if not queries:
        raise ValueError("need at least one query to plan for")
    if len(queries) > 1:
        return ("online-union",)
    query = queries[0]
    supported = ["exact-weight", "olken"]
    predicates_ok = query.push_down_predicates or not query.predicates
    if not query.is_cyclic and predicates_ok:
        supported.append("wander-join")
    return tuple(supported)


class SamplerPlanner:
    """Choose the cheapest supported backend for a query or union of queries.

    Parameters
    ----------
    queries:
        One :class:`JoinQuery` or a union-compatible sequence of them.
    target_samples:
        The sample budget the cost is evaluated at.  Online aggregation with
        an ``until()`` stopping rule typically needs a few thousand samples;
        bulk sampling more — setup-heavy backends amortize with the budget.
    cost_model:
        Override the unit costs (mainly for tests).
    """

    def __init__(
        self,
        queries: Union[JoinQuery, Sequence[JoinQuery]],
        target_samples: int = 1024,
        cost_model: Optional[BackendCostModel] = None,
    ) -> None:
        if isinstance(queries, JoinQuery):
            queries = [queries]
        self.queries: Tuple[JoinQuery, ...] = tuple(queries)
        if not self.queries:
            raise ValueError("need at least one query to plan for")
        if target_samples <= 0:
            raise ValueError("target_samples must be positive")
        self.target_samples = int(target_samples)
        self.cost_model = cost_model

    # ------------------------------------------------------------------ public
    @property
    def supported(self) -> Tuple[str, ...]:
        return supported_backends(self.queries)

    def plan(self) -> SamplerPlan:
        """The cheapest supported backend, with batch size and rationale."""
        supported = self.supported
        if supported == ("online-union",):
            return SamplerPlan(
                backend="online-union",
                weights=None,
                batch_size=_clamp_batch(self.target_samples),
                expected_acceptance=1.0,
                expected_costs={},
                target_samples=self.target_samples,
                rationale=(
                    f"{len(self.queries)} union-compatible joins: only the "
                    "union cover source draws from a set union",
                ),
            )

        query = self.queries[0]
        # A plan is a pure function of the database snapshot and the budget;
        # re-planning the same (snapshot, target) — e.g. repeated aggregations
        # between mutations — must not re-pay the statistics passes.
        return query.derived(
            ("plan", self.target_samples, self.cost_model),
            lambda: self._plan_join(query, supported),
        )

    def _plan_join(self, query: JoinQuery, supported: Tuple[str, ...]) -> SamplerPlan:
        acceptance = acceptance_ratio(query)
        eligible = estimate_backend_costs(
            query, self.target_samples, self.cost_model, backends=supported
        )
        backend = min(eligible, key=lambda name: eligible[name])
        rationale = [
            f"acceptance ratio ~{acceptance:.3g} "
            "(avg/max degree along the join tree)",
            "expected cost: "
            + ", ".join(f"{n}={eligible[n]:.2e}s" for n in sorted(eligible)),
        ]
        if "wander-join" not in supported:
            reason = (
                "cyclic template"
                if query.is_cyclic
                else "predicates are not pushed down"
            )
            rationale.append(f"wander-join excluded: {reason}")
        if backend == "olken":
            per_attempt_acceptance = acceptance
        elif backend == "wander-join":
            # Walks fail on dangling rows, not on the accept/reject test.
            per_attempt_acceptance = walk_success_ratio(query)
            rationale.append(
                f"walk success ~{per_attempt_acceptance:.3g} (dangling-row model)"
            )
        else:
            per_attempt_acceptance = 1.0
        if query.is_cyclic:
            model = self.cost_model or BackendCostModel()
            per_attempt_acceptance *= model.cyclic_survival_prior
        return SamplerPlan(
            backend=backend,
            weights=BACKEND_WEIGHTS.get(backend),
            batch_size=_clamp_batch(self.target_samples / max(per_attempt_acceptance, 1e-9)),
            expected_acceptance=per_attempt_acceptance,
            expected_costs=eligible,
            target_samples=self.target_samples,
            rationale=tuple(rationale),
        )


def choose_weights(query: JoinQuery, target_samples: int = 1024) -> str:
    """``"ew"`` or ``"eo"`` for ``JoinSampler(query, weights="auto")``.

    Restricted to the two weight functions :class:`JoinSampler` can execute;
    wander-join / online-union level decisions live in :class:`SamplerPlanner`
    and the AQP aggregator.
    """
    costs = estimate_backend_costs(
        query, target_samples, backends=("exact-weight", "olken")
    )
    return "ew" if costs["exact-weight"] <= costs["olken"] else "eo"


def _clamp_batch(expected_attempts: float) -> int:
    """Batch size that should satisfy one call's demand in a single pass."""
    return int(min(max(expected_attempts * 1.25, _MIN_BATCH), _MAX_BATCH))


__all__ = [
    "BACKENDS",
    "BACKEND_WEIGHTS",
    "SamplerPlan",
    "SamplerPlanner",
    "supported_backends",
    "choose_weights",
]
