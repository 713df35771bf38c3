#!/usr/bin/env python
"""cProfile the aggregate hot path; keep the top-25 cumulative profile.

Profiles the full columnar pipeline — ``JoinSampler.sample_block`` (alias
draws over the CSR plans) feeding ``AggregateAccumulator.ingest_sample_block``
(gathers of the columns the aggregate reads, GROUP BY over per-snapshot
codes) — on UQ1, a SUM(totalprice) pass and a SUM(totalprice) BY
mktsegment pass, and writes the top-25 cumulative-time functions to
``benchmarks/profiles/aggregate_hotpath.txt`` (plus the raw ``.prof`` dump
for ``snakeviz``/``pstats`` drill-downs).  The workload is built before the
profiler starts.  This is the artifact to diff when a change claims to move
the hot path; see docs/performance.md.

Run via ``make profile`` or::

    PYTHONPATH=src python benchmarks/profile_aggregate.py
"""

from __future__ import annotations

import cProfile
import io
import pstats
from pathlib import Path

from common import uq1_workload

from repro.aqp import AggregateAccumulator, AggregateSpec  # noqa: E402
from repro.joins.query import JoinQuery  # noqa: E402
from repro.sampling.blocks import SampleBlock  # noqa: E402
from repro.sampling.join_sampler import JoinSampler  # noqa: E402

PROFILE_DIR = Path(__file__).resolve().parent / "profiles"
BATCH = 4096
ROUNDS = 60
TOP = 25
SPECS = (
    AggregateSpec("sum", attribute="totalprice"),
    AggregateSpec("sum", attribute="totalprice", group_by="mktsegment"),
)


def aggregate_hot_path(query: JoinQuery) -> int:
    """The loop under profile, once per spec: draw blocks, ingest them,
    estimate once."""
    accepted = 0
    for spec in SPECS:
        sampler = JoinSampler(query, weights="ew", seed=1)
        accumulator = AggregateAccumulator(spec, query.output_schema)
        for _ in range(ROUNDS):
            block = SampleBlock.concat(
                [sampler.sample_block(BATCH), *sampler.pop_buffered_blocks()]
            )
            accumulator.ingest_sample_block(block, query)
            accepted += len(block)
        accumulator.estimate()
    return accepted


def main() -> None:
    PROFILE_DIR.mkdir(exist_ok=True)
    query = uq1_workload().queries[0]
    profiler = cProfile.Profile()
    accepted = profiler.runcall(aggregate_hot_path, query)

    raw_path = PROFILE_DIR / "aggregate_hotpath.prof"
    profiler.dump_stats(raw_path)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(TOP)
    text = (
        f"# Aggregate hot path profile: {ROUNDS} x sample_block({BATCH}) -> "
        f"ingest_sample_block per spec on UQ1 "
        f"({', '.join(spec.describe() for spec in SPECS)}), {accepted} accepted samples\n"
        f"# Regenerate with: make profile\n\n" + buffer.getvalue()
    )
    text_path = PROFILE_DIR / "aggregate_hotpath.txt"
    text_path.write_text(text, encoding="utf-8")
    print(text)
    print(f"written to {text_path} (raw dump: {raw_path})")


if __name__ == "__main__":
    main()
