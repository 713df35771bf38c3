"""Shared fixtures for the benchmark harness.

Every benchmark regenerates the data behind one of the paper's figures (or an
ablation) at the laptop-scale :data:`repro.experiments.config.BENCH_CONFIG`.
The resulting series tables — the same rows the paper plots — are printed and
written to ``benchmarks/results/<benchmark>.txt`` so a plain
``pytest benchmarks/ --benchmark-only`` run leaves the reproduced figures on
disk next to the timing data.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.config import BENCH_CONFIG
from repro.experiments.reporting import SeriesTable

RESULTS_DIR = Path(__file__).parent / "results"

#: Plain scripts (own `main()`, run via the make bench-* targets), not
#: pytest-benchmark suites — keep them out of `pytest benchmarks/`.
collect_ignore = [
    "bench_resilience.py",
    "bench_reuse_cache.py",
    "bench_updates.py",
    "profile_aggregate.py",
    "common.py",
]


@pytest.fixture(scope="session")
def config():
    """The experiment configuration used by all benchmarks."""
    return BENCH_CONFIG


@pytest.fixture
def record_table(request):
    """Callable that persists a SeriesTable under the current benchmark's name."""

    def _record(table: SeriesTable, suffix: str = "") -> SeriesTable:
        RESULTS_DIR.mkdir(exist_ok=True)
        name = request.node.name.replace("[", "_").replace("]", "")
        if suffix:
            name = f"{name}_{suffix}"
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(table.to_text() + "\n", encoding="utf-8")
        print()
        print(table.to_text())
        return table

    return _record
