#!/usr/bin/env python
"""Benchmark the columnar draw pipeline end to end: blocks vs boxed draws.

Measures accepted samples/second of the full aggregate hot path — draw from
the join, apply HT weighting, accumulate group contributions, report an
estimate — in its two wirings:

* **boxed** — the PR 1/PR 3 path: ``SampleBlock.to_draws`` boxes every
  accepted sample into a ``SampleDraw`` (value tuple + assignment dict) and
  ``AggregateAccumulator.observe`` unpacks them row by row;
* **block** — the columnar pipeline: ``JoinSampler.sample_block`` returns a
  struct-of-arrays :class:`~repro.sampling.blocks.SampleBlock` whose value
  columns feed ``AggregateAccumulator.ingest_block`` directly.

Both wirings share the alias-table draw kernels and produce identical
estimator state, so the ratio isolates the object-materialization tax.  The
roadmap gate is **>= 2x** block-vs-boxed throughput on the TPC-H UQ1 and UQ2
workloads.

Two more gates ride along:

* ``--workers 2`` process-backend aggregation must stay **bit-identical** to
  the sequential reference of the same shard plan (blocks ship across the
  process boundary; the merge law must not notice);
* the resident-bytes table records what the smallest-safe-dtype audit saves
  against NumPy's int64 defaults.

Results are written to ``BENCH_pipeline.json`` at the repository root.

Run via ``make bench-pipeline`` or::

    PYTHONPATH=src python benchmarks/bench_pipeline.py
"""

from __future__ import annotations

import sys
import time

from common import machine_info, resident_cache_bytes, uq1_workload, uq2_workload, write_report

from repro.aqp import AggregateAccumulator, AggregateSpec  # noqa: E402
from repro.parallel import ParallelSamplerPool, sequential_reference  # noqa: E402
from repro.sampling.blocks import SampleBlock  # noqa: E402
from repro.sampling.join_sampler import JoinSampler, draw_and_drain  # noqa: E402

SPEEDUP_TARGET = 2.0
BATCH = 4096
SECONDS = 0.6
PARALLEL_COUNT = 20_000
PARALLEL_SHARDS = 8


def boxed_rate(query, spec, seconds=SECONDS):
    """Accepted samples/sec of the boxed to_draws -> observe pipeline."""
    sampler = JoinSampler(query, weights="ew", seed=1)
    accumulator = AggregateAccumulator(spec, query.output_schema)
    total_weight = sampler.weight_function.total_weight
    draw_and_drain(sampler, BATCH)  # warm plans/indexes outside the timing
    accepted = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        before = sampler.stats.attempts
        draws = SampleBlock.concat(draw_and_drain(sampler, BATCH)).to_draws(query)
        accumulator.observe(
            [d.value for d in draws],
            attempts=sampler.stats.attempts - before,
            weight=total_weight,
        )
        accepted += len(draws)
    elapsed = time.perf_counter() - started
    accumulator.estimate()
    return accepted / elapsed, accumulator


def block_rate(query, spec, seconds=SECONDS):
    """Accepted samples/sec of the columnar sample_block -> ingest pipeline."""
    sampler = JoinSampler(query, weights="ew", seed=1)
    accumulator = AggregateAccumulator(spec, query.output_schema)
    total_weight = sampler.weight_function.total_weight
    sampler.sample_block(BATCH)  # warm plans/alias tables outside the timing
    sampler.pop_buffered_blocks()
    accepted = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        before = sampler.stats.attempts
        blocks = [sampler.sample_block(BATCH)]
        blocks.extend(sampler.pop_buffered_blocks())
        block = SampleBlock.concat(blocks)
        accumulator.ingest_block(
            block.value_columns(query),
            attempts=sampler.stats.attempts - before,
            weight=total_weight,
        )
        accepted += len(block)
    elapsed = time.perf_counter() - started
    accumulator.estimate()
    return accepted / elapsed, accumulator


def identity_check(query, spec, count=5000):
    """Boxed and block wirings must produce bit-identical estimator state.

    Same seed, same draw stream, fixed sample count: ``observe`` over boxed
    draws and ``ingest_block`` over the equivalent block columns must agree
    on every per-group estimate and interval bound exactly.
    """
    boxed_sampler = JoinSampler(query, weights="ew", seed=9)
    boxed_acc = AggregateAccumulator(spec, query.output_schema)
    w = boxed_sampler.weight_function.total_weight
    before = boxed_sampler.stats.attempts
    draws = SampleBlock.concat(draw_and_drain(boxed_sampler, count)).to_draws(query)
    boxed_acc.observe(
        [d.value for d in draws], attempts=boxed_sampler.stats.attempts - before, weight=w
    )

    block_sampler = JoinSampler(query, weights="ew", seed=9)
    block_acc = AggregateAccumulator(spec, query.output_schema)
    before = block_sampler.stats.attempts
    blocks = [block_sampler.sample_block(count)]
    blocks.extend(block_sampler.pop_buffered_blocks())
    block = SampleBlock.concat(blocks)
    block_acc.ingest_block(
        block.value_columns(query),
        attempts=block_sampler.stats.attempts - before,
        weight=w,
    )

    boxed_report = boxed_acc.estimate()
    block_report = block_acc.estimate()
    return all(
        boxed_report.estimates[g] == block_report.estimates[g]
        for g in boxed_report.estimates
    ) and set(boxed_report.estimates) == set(block_report.estimates)


def bench_workload(name, query, spec):
    boxed, _ = boxed_rate(query, spec)
    block, _ = block_rate(query, spec)
    ratio = block / boxed
    return {
        "workload": name,
        "aggregate": spec.describe(),
        "boxed_samples_per_sec": round(boxed, 1),
        "block_samples_per_sec": round(block, 1),
        "block_vs_boxed": round(ratio, 2),
        "estimates_bit_identical": identity_check(query, spec),
        "meets_speedup_target": ratio >= SPEEDUP_TARGET,
    }


def parallel_bit_identity(queries, spec, seed):
    """--workers 2 process-backend answers vs the sequential reference."""
    pool = ParallelSamplerPool(workers=2, execution="process", job_timeout=600)
    tasks = pool.plan_tasks(
        queries, PARALLEL_COUNT, seed=seed, method="exact-weight",
        spec=spec, shards=PARALLEL_SHARDS,
    )
    merged = None
    for result in sequential_reference(tasks):
        if merged is None:
            merged = result.accumulator
        else:
            merged.merge(result.accumulator)
    reference = merged.estimate()
    outcome = pool.aggregate(
        queries, spec, PARALLEL_COUNT, seed=seed,
        method="exact-weight", shards=PARALLEL_SHARDS,
    )
    parallel = outcome.accumulator.estimate()

    def key(report):
        overall = report.overall
        return (overall.estimate, overall.ci_low, overall.ci_high,
                report.attempts, report.accepted)

    return {
        "workers": 2,
        "execution": outcome.execution,
        "shards": PARALLEL_SHARDS,
        "samples": PARALLEL_COUNT,
        "estimate": parallel.overall.estimate,
        "bit_identical_to_sequential": key(parallel) == key(reference),
    }


def main() -> int:
    info = machine_info()
    uq1 = uq1_workload()
    uq2 = uq2_workload()
    uq1_query = uq1.queries[0]
    uq2_query = uq2.queries[0]

    report = {
        "benchmark": "columnar draw pipeline: block vs boxed end-to-end aggregate",
        **info,
        "speedup_target": SPEEDUP_TARGET,
        "batch": BATCH,
        "workloads": [
            bench_workload(
                "UQ1 first join (TPC-H acyclic chain)",
                uq1_query,
                AggregateSpec("sum", attribute="totalprice"),
            ),
            bench_workload(
                "UQ2 first join (predicated chain)",
                uq2_query,
                AggregateSpec("sum", attribute="retailprice"),
            ),
            bench_workload(
                "UQ1 first join, GROUP BY mktsegment",
                uq1_query,
                AggregateSpec("avg", attribute="totalprice", group_by="mktsegment"),
            ),
        ],
        "parallel": parallel_bit_identity(
            uq1_query, AggregateSpec("sum", attribute="totalprice"), seed=info["seed"]
        ),
    }
    # The dtype audit: resident bytes of the caches the benchmark just built.
    report["resident_bytes"] = resident_cache_bytes([uq1_query, uq2_query])

    report["all_meet_speedup_target"] = all(
        w["meets_speedup_target"] for w in report["workloads"][:2]  # UQ1/UQ2 gate
    )
    report["parallel_bit_identical"] = report["parallel"]["bit_identical_to_sequential"]

    write_report("BENCH_pipeline.json", report)
    return 0 if (report["all_meet_speedup_target"] and report["parallel_bit_identical"]) else 1


if __name__ == "__main__":
    sys.exit(main())
