#!/usr/bin/env python
"""Benchmark the batched sampling engine against the scalar reference path.

Measures accepted samples/second of ``JoinSampler.try_sample`` (scalar walks)
and ``JoinSampler.sample_many`` (vectorized batched walks) under EW and EO
weights, plus wander-join walk throughput, on the ``bench_micro`` workload
(UQ2 at the benchmark scale).  Results are written to
``BENCH_batch_engine.json`` at the repository root.

Run via ``make bench`` or::

    PYTHONPATH=src python benchmarks/bench_batch_engine.py
"""

from __future__ import annotations

import time

from common import machine_info, uq2_workload, write_report

from repro.sampling.join_sampler import JoinSampler  # noqa: E402
from repro.sampling.wander_join import WanderJoin  # noqa: E402
from repro.sampling.weights import ExactWeightFunction  # noqa: E402

#: Scalar-path throughput of the seed revision (before the vectorized
#: engine), measured with the same workload/scale/seed on the CI container.
SEED_BASELINE = {"ew": 14043.0, "eo": 10751.0}


def _scalar_rate(sampler: JoinSampler, seconds: float = 0.5) -> float:
    accepted = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for _ in range(200):
            if sampler.try_sample() is not None:
                accepted += 1
    return accepted / (time.perf_counter() - started)


def _batch_rate(sampler: JoinSampler, seconds: float = 0.5) -> float:
    accepted = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        accepted += len(sampler.sample_many(5000))
    return accepted / (time.perf_counter() - started)


def main() -> None:
    workload = uq2_workload()
    query = workload.queries[0]

    report: dict = {
        "benchmark": "bench_micro sample-rate (UQ2, first join)",
        **machine_info(),
        "seed_baseline_samples_per_sec": SEED_BASELINE,
        "results": {},
    }

    for weights in ("ew", "eo"):
        scalar = JoinSampler(query, weights=weights, seed=1)
        batched = JoinSampler(query, weights=weights, seed=2)
        for _ in range(100):
            scalar.try_sample()
        batched.sample_many(100)
        scalar_rate = _scalar_rate(scalar)
        batch_rate = _batch_rate(batched)
        report["results"][weights] = {
            "scalar_samples_per_sec": round(scalar_rate, 1),
            "batch_samples_per_sec": round(batch_rate, 1),
            "batch_vs_scalar": round(batch_rate / scalar_rate, 2),
            "batch_vs_seed_baseline": round(batch_rate / SEED_BASELINE[weights], 2),
        }

    walker = WanderJoin(query, seed=3)
    walker.walk_batch(100)
    started = time.perf_counter()
    walks = 0
    while time.perf_counter() - started < 0.5:
        walker.walk_batch(5000)
        walks += 5000
    report["results"]["wander_join_walks_per_sec"] = round(
        walks / (time.perf_counter() - started), 1
    )

    started = time.perf_counter()
    builds = 0
    while time.perf_counter() - started < 0.5:
        ExactWeightFunction(query)
        builds += 1
    report["results"]["ew_weight_builds_per_sec"] = round(
        builds / (time.perf_counter() - started), 2
    )

    write_report("BENCH_batch_engine.json", report)


if __name__ == "__main__":
    main()
