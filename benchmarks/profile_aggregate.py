#!/usr/bin/env python
"""cProfile the aggregate hot path; keep the top-25 cumulative profile.

Profiles two passes over the first join of UQ1 at SF 0.05 (the spine's
``uq1_sf05`` fixture), built before the profiler starts, and one untimed
answer that builds what every later answer of the snapshot shares:

* ``block_pass`` — the exact-weight (EW) ``JoinSampler`` block pipeline:
  ``sample_block`` (alias draws over the CSR plans) feeding
  ``AggregateAccumulator.ingest_sample_block`` (gathers of the columns the
  aggregate reads, GROUP BY over per-snapshot codes), a SUM(totalprice) and
  a SUM(totalprice) BY mktsegment loop;
* ``grouped_answer_pass`` — what the spine times as ``aqp_groupby_ms``:
  cold ``aggregate(SUM(totalprice) BY mktsegment, method="auto")`` answers
  to 2% relative error, which the cost-based planner sends to wander join
  (``WanderJoin.walk_block`` feeding the Horvitz–Thompson accumulator).  The
  backend the planner picked is written into the header.

The top-25 cumulative-time functions go to
``benchmarks/profiles/aggregate_hotpath.txt`` (plus the raw ``.prof`` dump
for ``snakeviz``/``pstats`` drill-downs).  This is the artifact to diff when
a change claims to move the hot path; see docs/performance.md.

Run via ``make profile`` or::

    PYTHONPATH=src python benchmarks/profile_aggregate.py
"""

from __future__ import annotations

import cProfile
import io
import pstats
from pathlib import Path
from typing import Tuple

import common  # noqa: F401  (puts src/ on sys.path)

from repro.aqp import AggregateAccumulator, AggregateSpec, aggregate  # noqa: E402
from repro.aqp.online import OnlineAggregator, planning_budget  # noqa: E402
from repro.joins.query import JoinQuery  # noqa: E402
from repro.sampling.blocks import SampleBlock  # noqa: E402
from repro.sampling.join_sampler import JoinSampler  # noqa: E402
from repro.tpch import build_uq1, generate_tpch  # noqa: E402
from repro.utils.rng import ensure_rng  # noqa: E402

PROFILE_DIR = Path(__file__).resolve().parent / "profiles"
SCALE_FACTOR = 0.05
OVERLAP_SCALE = 0.3
DATA_SEED = 2023  # the spine's fixture (benchmarks/spine/profiles.py)
BATCH = 4096
ROUNDS = 60
ANSWERS = 40
GROUP_REL_ERROR = 0.02  # the spine's aqp_group_rel_error
TOP = 25
SUM = AggregateSpec("sum", attribute="totalprice")
SUM_BY = AggregateSpec("sum", attribute="totalprice", group_by="mktsegment")


def block_pass(query: JoinQuery) -> int:
    """Per spec: draw EW blocks, ingest them, estimate once."""
    accepted = 0
    for spec in (SUM, SUM_BY):
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


def grouped_answer_pass(query: JoinQuery) -> int:
    """``ANSWERS`` cold grouped answers, as the spine's ``aggregate_groupby``."""
    return sum(
        aggregate(query, SUM_BY, rel_error=GROUP_REL_ERROR, seed=seed).accepted
        for seed in range(ANSWERS)
    )


def profiled(query: JoinQuery) -> Tuple[int, int]:
    """Both passes, under one profile."""
    return block_pass(query), grouped_answer_pass(query)


def main() -> None:
    PROFILE_DIR.mkdir(exist_ok=True)
    rng = ensure_rng(DATA_SEED)
    tables = generate_tpch(SCALE_FACTOR, seed=rng)
    query = build_uq1(SCALE_FACTOR, OVERLAP_SCALE, seed=rng, tables=tables).queries[0]
    backend = OnlineAggregator(
        query, SUM_BY, method="auto", target_samples=planning_budget(GROUP_REL_ERROR)
    ).backend
    aggregate(query, SUM_BY, rel_error=GROUP_REL_ERROR, seed=ANSWERS)  # untimed

    profiler = cProfile.Profile()
    drawn, answered = profiler.runcall(profiled, query)

    raw_path = PROFILE_DIR / "aggregate_hotpath.prof"
    profiler.dump_stats(raw_path)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(TOP)
    text = (
        f"# Aggregate hot path profile on UQ1 at SF {SCALE_FACTOR} ({query.name}):\n"
        f"# block_pass: {ROUNDS} x EW sample_block({BATCH}) -> ingest_sample_block per "
        f"spec ({SUM.describe()}, {SUM_BY.describe()}), {drawn} accepted samples\n"
        f"# grouped_answer_pass: {ANSWERS} cold aggregate({SUM_BY.describe()}, "
        f"method='auto', rel_error={GROUP_REL_ERROR}) answers on backend {backend!r}, "
        f"{answered} accepted samples\n"
        f"# Regenerate with: make profile\n\n" + buffer.getvalue()
    )
    text_path = PROFILE_DIR / "aggregate_hotpath.txt"
    text_path.write_text(text, encoding="utf-8")
    print(text)
    print(f"written to {text_path} (raw dump: {raw_path})")


if __name__ == "__main__":
    main()
