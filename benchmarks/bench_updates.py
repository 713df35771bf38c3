#!/usr/bin/env python
"""Benchmark delta maintenance against full cache rebuilds under churn.

Builds the customer ⋈ orders ⋈ lineitem dynamic scenario at a ~100k-row
lineitem scale, then replays the same TPC-H RF1/RF2 refresh stream twice:

* **delta** — the incremental path: every batch goes through
  ``Relation._apply`` (the next snapshot of the column arrays, O(Δ)
  patches to the CSR indexes and statistics), the weight function patches only the segments the
  dirty relations influence, and the sampler refreshes its plans;
* **rebuild** — the seed behaviour: every batch wholesale-invalidates all
  caches and rebuilds indexes, statistics, weights and sampler plans from
  scratch on next access.

Both modes draw the same number of samples per epoch, so the measured time
is "apply updates + bring the sampling engine back to serving state + serve".
Results are written to ``BENCH_updates.json`` at the repository root.

Run via ``make bench-updates`` or::

    PYTHONPATH=src python benchmarks/bench_updates.py
"""

from __future__ import annotations

import time

from common import machine_info, write_report

from repro.dynamic.scenario import build_order_stream_scenario  # noqa: E402
from repro.dynamic.stream import apply_batch  # noqa: E402
from repro.sampling.join_sampler import JoinSampler  # noqa: E402

#: lineitem rows ≈ 6,000,000 · scale -> ~100k-row mixed workload substrate
SCALE_FACTOR = 100_000 / 6_000_000
SEED = 2023
EPOCHS = 25
ORDERS_PER_BATCH = 64
SAMPLES_PER_EPOCH = 200


def _prime(tables, sampler: JoinSampler) -> None:
    """Build the caches the serving path uses (outside the timings).

    Warming the sampler builds the join-key hash/CSR indexes, column arrays
    and EW weights; the ``orderkey`` hash indexes route the RF2 deletes.
    Rebuild mode drops all of these each batch and rebuilds them lazily on
    the next delete/sample; delta mode patches them in place.
    """
    sampler.sample_many(SAMPLES_PER_EPOCH)
    tables["orders"].index_on("orderkey")
    tables["lineitem"].index_on("orderkey")


def run_mode(mode: str) -> dict:
    tables, query, stream = build_order_stream_scenario(
        scale_factor=SCALE_FACTOR,
        seed=SEED,
        orders_per_batch=ORDERS_PER_BATCH,
    )
    sampler = JoinSampler(query, weights="ew", seed=7)
    _prime(tables, sampler)

    epoch_seconds = []
    total_inserted = total_deleted = 0
    for batch in stream.batches(EPOCHS):
        started = time.perf_counter()
        counts = apply_batch(tables, batch)
        if mode == "rebuild":
            # Seed behaviour: caches die with the mutation; everything —
            # indexes, CSR, statistics, weights, plans — is rebuilt from the
            # column arrays before the next sample is served.
            for name in query.relation_order:
                query.relation(name)._invalidate()
            sampler = JoinSampler(query, weights="ew", seed=7)
        else:
            sampler.refresh()
        sampler.sample_many(SAMPLES_PER_EPOCH)
        epoch_seconds.append(time.perf_counter() - started)
        total_inserted += counts["inserted"]
        total_deleted += counts["deleted"]

    total = sum(epoch_seconds)
    return {
        "total_seconds": round(total, 4),
        "mean_epoch_ms": round(1000.0 * total / EPOCHS, 3),
        "rows_churned": total_inserted + total_deleted,
        "inserted_rows": total_inserted,
        "deleted_rows": total_deleted,
        "final_lineitem_rows": len(tables["lineitem"]),
    }


def main() -> None:
    report: dict = {
        "benchmark": "incremental update engine: delta maintenance vs full rebuild",
        "workload": {
            "query": "customer ⋈ orders ⋈ lineitem (EW weights)",
            "scale_factor": SCALE_FACTOR,
            "lineitem_rows": "~100k",
            "seed": SEED,
            "epochs": EPOCHS,
            "orders_per_batch": ORDERS_PER_BATCH,
            "samples_per_epoch": SAMPLES_PER_EPOCH,
            "stream": "TPC-H RF1/RF2 mixed insert/delete refresh batches",
        },
        "python": machine_info()["python"],
        "results": {},
    }
    for mode in ("delta", "rebuild"):
        report["results"][mode] = run_mode(mode)
        print(f"{mode:>8}: {report['results'][mode]}")
    speedup = (
        report["results"]["rebuild"]["total_seconds"]
        / max(report["results"]["delta"]["total_seconds"], 1e-12)
    )
    report["results"]["delta_vs_rebuild_speedup"] = round(speedup, 2)

    write_report("BENCH_updates.json", report)


if __name__ == "__main__":
    main()
