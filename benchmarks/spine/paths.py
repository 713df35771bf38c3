"""Where the harness lives, and ``src`` on ``sys.path`` for ``import repro``."""

from __future__ import annotations

import sys
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
SRC = REPO_ROOT / "src"
RESULTS_DIR = SPINE_DIR / "results"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
