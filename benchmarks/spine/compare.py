#!/usr/bin/env python3
"""Compare two sweeps: per (metric, workload) medians, quartiles and a verdict.

    python benchmarks/spine/compare.py A.json B.json

``A`` is the parent, ``B`` the change; runs are paired by position.  Bounds
and directions come from BENCHMARK.json.  Verdicts, per the choosing-metrics
guide:

* **regressed**: B's median is worse than A's by more than the bound;
* **improved**: B wins at least nine tenths of the pairs (ties count for
  neither) *and* the medians differ by more than A's own quartile distance;
* **unresolved**: neither, and a side's run-to-run spread (quartile distance
  over median) is wider than the bound, so "unchanged" cannot be claimed;
* **unchanged**: otherwise.

Exit status is non-zero on a regression, on a larger share of failed
operations, when a B run was incorrect, or when B lacks a workload or a
metric that A has.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from report import declared


def load(path: str) -> Dict[str, List[Dict]]:
    """``workload -> runs`` of one sweep file."""
    by_workload: Dict[str, List[Dict]] = {}
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (the contract's measure)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_median, a_q3 = quartiles(a)
    _, b_median, _ = quartiles(b)
    gain = sign * (b_median - a_median)  # positive: B is better
    if gain < -bound * abs(a_median):
        return "regressed"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > a_q3 - a_q1:
        return "improved"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "unchanged"


def failed_share(runs: Sequence[Dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--raw", action="store_true",
                        help="compare the raw wall-clock medians, before host normalisation")
    args = parser.parse_args()

    def values(runs: Sequence[Dict], name: str) -> List[float]:
        if args.raw:
            return [r["raw"].get(name, r["metrics"][name]["value"]) for r in runs]
        return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]

    a_runs, b_runs = load(args.a), load(args.b)
    metrics = declared("end_to_end")
    bad = False
    header = (f"{'workload':<11}{'metric':<24}{'A median':>12}{'A q1':>12}{'A q3':>12}"
              f"{'A spread':>9}{'B median':>12}{'B spread':>9}{'bound':>7}  verdict")
    print(header)
    for workload in a_runs:
        if workload not in b_runs:
            print(f"{workload:<11}missing from B")
            bad = True
            continue
        for name, entry in metrics.items():
            a, b = values(a_runs[workload], name), values(b_runs[workload], name)
            if not a or not b:
                print(f"{workload:<11}{name:<24} missing")
                bad = True
                continue
            result = verdict(a, b, entry["better"], entry["bound"])
            bad |= result == "regressed"
            a_q1, a_median, a_q3 = quartiles(a)
            print(f"{workload:<11}{name:<24}{a_median:>12.5g}{a_q1:>12.5g}{a_q3:>12.5g}"
                  f"{spread(a):>9.3f}{quartiles(b)[1]:>12.5g}{spread(b):>9.3f}"
                  f"{entry['bound']:>7.2f}  {result}")
        a_failed, b_failed = failed_share(a_runs[workload]), failed_share(b_runs[workload])
        incorrect = sum(not r["correct"] for r in b_runs[workload])
        print(f"{workload:<11}failed share A {a_failed:.4f} B {b_failed:.4f}; "
              f"incorrect B runs {incorrect}; runs {len(a_runs[workload])}/"
              f"{len(b_runs[workload])}")
        bad |= b_failed > a_failed or incorrect > 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
