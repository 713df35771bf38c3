"""Summaries and printing: a metric's value is the median of its samples
(``serve_rps`` pools its slices instead, see ``run.REDUCERS``)."""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import paths


@dataclass(frozen=True)
class Summary:
    value: float  # the median, unless the metric has its own reducer
    q1: float
    q3: float
    n: int


def summarize(samples: Sequence[float],
              reduce: Callable[[Sequence[float]], float] = statistics.median) -> Summary:
    values = [float(v) for v in samples]
    if not values:  # nothing could be measured: the run fails its gate (run.py)
        return Summary(math.nan, math.nan, math.nan, 0)
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], 1)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Summary(reduce(values), q1, q3, len(values))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the maximum once ``fraction`` outruns ``n``)."""
    ordered = sorted(samples)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


def load_benchmark() -> Dict[str, object]:
    return json.loads(paths.BENCHMARK_JSON.read_text(encoding="utf-8"))


def declared(section: str) -> Dict[str, Dict[str, object]]:
    """``name -> declaration`` of a BENCHMARK.json metric section."""
    return {entry["name"]: entry for entry in load_benchmark()[section]}


def print_table(title: str, summaries: Mapping[str, Summary],
                units: Mapping[str, Mapping[str, object]]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<44}{'median':>14}  {'q1':>12}  {'q3':>12}  {'n':>5}  unit")
    for name, s in summaries.items():
        unit = units.get(name, {}).get("unit", "?")
        print(f"  {name:<44}{s.value:>14.6g}  {s.q1:>12.6g}  {s.q3:>12.6g}  {s.n:>5}  {unit}")


def result_line(correct: bool, attempted: int, failed: int,
                summaries: Mapping[str, Summary],
                units: Mapping[str, Mapping[str, object]]) -> str:
    """The contract's last line: one JSON object, every declared metric."""
    missing = [name for name in units if name not in summaries]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {
        name: {"value": summaries[name].value, "unit": units[name]["unit"]}
        for name in units
    }
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def summarize_all(
    samples: Mapping[str, List[float]],
    reducers: Optional[Mapping[str, Callable[[Sequence[float]], float]]] = None,
) -> Dict[str, Summary]:
    reducers = reducers or {}
    return {name: summarize(values, reducers.get(name, statistics.median))
            for name, values in samples.items()}


__all__ = ["Summary", "declared", "load_benchmark", "percentile", "print_table",
           "result_line", "summarize", "summarize_all"]
