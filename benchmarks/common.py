"""Shared plumbing for the plain-script benchmarks (``bench_*.py`` mains).

Every script used to open with the same ritual: compute the repo root, put
``src`` on ``sys.path``, build a TPC-H workload at ``BENCH_CONFIG`` scale,
and end by dumping a JSON report next to the repository root.  That
boilerplate lives here once; the scripts keep only their measurement logic.

Importing this module performs the path bootstrap as a side effect, so a
script's first line of real imports can already see ``repro``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.config import BENCH_CONFIG  # noqa: E402
from repro.tpch.workloads import build_uq1  # noqa: E402


def uq1_workload(overlap_scale: float = 0.3):
    """The UQ1 union workload at the shared benchmark scale/seed."""
    return build_uq1(
        scale_factor=BENCH_CONFIG.scale_factor,
        overlap_scale=overlap_scale,
        seed=BENCH_CONFIG.seed,
    )


def machine_info() -> Dict[str, object]:
    """The environment fields every report records."""
    return {
        "scale_factor": BENCH_CONFIG.scale_factor,
        "seed": BENCH_CONFIG.seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def write_report(filename: str, report: dict) -> Path:
    """Write ``report`` as ``<repo root>/<filename>`` and echo it to stdout."""
    out_path = REPO_ROOT / filename
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out_path}")
    return out_path


__all__ = [
    "REPO_ROOT",
    "BENCH_CONFIG",
    "uq1_workload",
    "machine_info",
    "write_report",
]
