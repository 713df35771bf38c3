"""Approximate query processing: aggregates with confidence intervals.

This package turns the uniform join/union samples produced by
:mod:`repro.sampling` and :mod:`repro.core` into approximate COUNT / SUM /
AVG / GROUP-BY answers with CLT and bootstrap confidence intervals, an
``until(rel_error, confidence)`` online-aggregation stopping rule, and a
cost-based planner that picks the sampler backend automatically
(``method="auto"``).  See ``docs/aqp.md`` for the estimator math.
"""

from repro.aqp.estimators import (
    AGGREGATE_KINDS,
    GLOBAL_GROUP,
    AggregateAccumulator,
    AggregateEstimate,
    AggregateReport,
    AggregateSpec,
    exact_aggregate,
)
from repro.aqp.online import OnlineAggregator, aggregate, planning_budget
from repro.aqp.planner import (
    BACKENDS,
    SamplerPlan,
    SamplerPlanner,
    choose_weights,
    supported_backends,
)
from repro.aqp.sources import UnionCoverSource

__all__ = [
    "AGGREGATE_KINDS",
    "GLOBAL_GROUP",
    "AggregateSpec",
    "AggregateEstimate",
    "AggregateReport",
    "AggregateAccumulator",
    "exact_aggregate",
    "OnlineAggregator",
    "aggregate",
    "planning_budget",
    "BACKENDS",
    "SamplerPlan",
    "SamplerPlanner",
    "supported_backends",
    "choose_weights",
    "UnionCoverSource",
]
