"""Multi-core parallel sampling service with mergeable AQP shards.

Fan sampling and online aggregation out across CPU cores (process- or
thread-based workers) and merge the per-shard results deterministically:
the shard plan is a pure function of the job and the root seed, partial
accumulators merge through the exactly-rounded merge law, and mutation
epochs observed mid-flight cancel and restart the job.  Shards run under a
:class:`~repro.resilience.supervisor.ShardSupervisor` — per-shard timeouts,
bounded retries, degradation ladder, job deadlines with partial results —
without changing any merged answer.  See ``docs/parallel.md`` for the
architecture and the seed-sharding scheme, and ``docs/resilience.md`` for
the fault-tolerance layer.
"""

from repro.parallel.pool import (
    DEFAULT_SHARDS,
    EXECUTION_MODES,
    ParallelRunReport,
    ParallelSamplerPool,
    parallel_aggregate,
    parallel_sample,
    sequential_reference,
)
from repro.parallel.shards import (
    SHARD_BACKENDS,
    ShardResult,
    ShardTask,
    observed_versions,
    run_shard,
)

__all__ = [
    "DEFAULT_SHARDS",
    "EXECUTION_MODES",
    "SHARD_BACKENDS",
    "ParallelRunReport",
    "ParallelSamplerPool",
    "ShardResult",
    "ShardTask",
    "observed_versions",
    "parallel_aggregate",
    "parallel_sample",
    "run_shard",
    "sequential_reference",
]
