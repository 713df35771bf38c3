"""repro — Sampling over Union of Joins.

A pure-Python reproduction of *Sampling over Union of Joins* (Liu, Xu,
Nargesian): uniform, independent sampling from the set union of chain,
acyclic, and cyclic joins without materializing the joins or the union,
including the histogram-based and random-walk warm-up estimators and the
online sampler with sample reuse and backtracking.

Quickstart
----------
>>> from repro import build_uq1, SetUnionSampler, HistogramUnionEstimator
>>> workload = build_uq1(scale_factor=0.001, overlap_scale=0.3, seed=7)
>>> estimator = HistogramUnionEstimator(workload.queries, join_size_method="ew")
>>> sampler = SetUnionSampler(workload.queries, estimator, seed=7)
>>> result = sampler.sample(100)
>>> len(result) == 100
True
"""

from repro.analysis import chi_square_uniformity, mean_ratio_error
from repro.aqp import (
    AggregateAccumulator,
    AggregateEstimate,
    AggregateReport,
    AggregateSpec,
    OnlineAggregator,
    SamplerPlan,
    SamplerPlanner,
    aggregate,
    exact_aggregate,
    supported_backends,
)
from repro.cache import SampleCache
from repro.core import (
    BernoulliUnionSampler,
    DisjointUnionSampler,
    OnlineUnionSampler,
    SampleResult,
    SamplingStats,
    SetUnionSampler,
    UnionSample,
)
from repro.dynamic import (
    DeleteEvent,
    EpochReport,
    InsertEvent,
    StreamingScenario,
    TPCHRefreshStream,
    UpdateBatch,
    apply_batch,
    apply_event,
    build_order_stream_scenario,
)
from repro.estimation import (
    FullJoinUnion,
    FullJoinUnionEstimator,
    HistogramUnionEstimator,
    RandomWalkUnionEstimator,
    UnionParameters,
    UnionSizeEstimator,
)
from repro.joins import (
    JoinCondition,
    JoinMembershipProber,
    JoinQuery,
    JoinType,
    OutputAttribute,
    UnionMembershipIndex,
    build_join_tree,
    exact_join_size,
    exact_overlap_size,
    exact_union_size,
    execute_join,
    find_standard_template,
)
from repro.parallel import (
    ParallelRunReport,
    ParallelSamplerPool,
    ShardResult,
    ShardTask,
    parallel_aggregate,
)
from repro.resilience import (
    FaultAction,
    FaultPlan,
    JobDeadlineExceeded,
    PoisonShardError,
    RetryPolicy,
    ShardCrash,
    ShardError,
    ShardSupervisor,
    ShardTimeout,
)
from repro.relational import (
    Attribute,
    Comparison,
    InSet,
    Relation,
    RelationDelta,
    Schema,
)
from repro.sampling import (
    ExactWeightFunction,
    ExtendedOlkenWeightFunction,
    JoinSampler,
    SampleBlock,
    WanderJoin,
    olken_upper_bound,
)
from repro.tpch import (
    TPCHGenerator,
    UnionWorkload,
    build_uq1,
    build_uq2,
    build_uq3,
    build_workload,
    generate_tpch,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # relational substrate
    "Attribute",
    "Schema",
    "Relation",
    "RelationDelta",
    "Comparison",
    "InSet",
    # join model
    "JoinQuery",
    "JoinType",
    "JoinCondition",
    "OutputAttribute",
    "build_join_tree",
    "execute_join",
    "exact_join_size",
    "exact_overlap_size",
    "exact_union_size",
    "JoinMembershipProber",
    "UnionMembershipIndex",
    "find_standard_template",
    # single-join sampling
    "JoinSampler",
    "SampleBlock",
    "WanderJoin",
    "ExactWeightFunction",
    "ExtendedOlkenWeightFunction",
    "olken_upper_bound",
    # estimation
    "UnionParameters",
    "UnionSizeEstimator",
    "FullJoinUnionEstimator",
    "FullJoinUnion",
    "HistogramUnionEstimator",
    "RandomWalkUnionEstimator",
    # union samplers
    "DisjointUnionSampler",
    "BernoulliUnionSampler",
    "SetUnionSampler",
    "OnlineUnionSampler",
    "UnionSample",
    "SampleCache",
    "SampleResult",
    "SamplingStats",
    # data substrate
    "TPCHGenerator",
    "generate_tpch",
    "UnionWorkload",
    "build_uq1",
    "build_uq2",
    "build_uq3",
    "build_workload",
    # dynamic (streaming) scenarios
    "InsertEvent",
    "DeleteEvent",
    "UpdateBatch",
    "TPCHRefreshStream",
    "apply_event",
    "apply_batch",
    "EpochReport",
    "StreamingScenario",
    "build_order_stream_scenario",
    # analysis
    "chi_square_uniformity",
    "mean_ratio_error",
    # approximate query processing (AQP)
    "AggregateSpec",
    "AggregateEstimate",
    "AggregateReport",
    "AggregateAccumulator",
    "OnlineAggregator",
    "aggregate",
    "exact_aggregate",
    "SamplerPlan",
    "SamplerPlanner",
    "supported_backends",
    # parallel aggregation service
    "ParallelSamplerPool",
    "ParallelRunReport",
    "ShardTask",
    "ShardResult",
    "parallel_aggregate",
    # resilience (fault-tolerant sampling service)
    "FaultAction",
    "FaultPlan",
    "JobDeadlineExceeded",
    "PoisonShardError",
    "RetryPolicy",
    "ShardCrash",
    "ShardError",
    "ShardSupervisor",
    "ShardTimeout",
]
