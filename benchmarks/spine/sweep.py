#!/usr/bin/env python3
"""Take N runs per workload from one or two checkouts, alternating sides.

    python benchmarks/spine/sweep.py LABEL[=ROOT] [LABEL[=ROOT]] [--runs N]

Each side is a label and the root of a checkout that holds this benchmark
(default: this one).  Per round and workload the sides run back to back, the
order flipping every round, each round with its own seed (``SEED_BASE`` +
round, the same on both sides), so drift of the host hits both alike.  Every
run's last stdout line is appended to ``results/<label>.json`` beside this
file (with the run's raw, un-normalised medians); compare two such files with
``compare.py``.

Two labels on the same root give the benchmark's own run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import paths
from profiles import PROFILES

#: round r of every sweep runs with seed SEED_BASE + r
SEED_BASE = 100


def one_run(root: Path, workload: str, seed: int) -> Dict:
    """Run the benchmark once in ``root``; the parsed result line plus wall."""
    env = {k: v for k, v in os.environ.items() if k != "SPINE_STARTED"}
    started = time.perf_counter()
    finished = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "spine" / "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=str(root), env=env, stdout=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - started
    lines = finished.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    raw = [line[4:] for line in lines if line.startswith("raw {")]
    result.update(workload=workload, seed=seed, wall_s=wall,
                  exit_code=finished.returncode,
                  raw=json.loads(raw[-1]) if raw else {})
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL[=ROOT]")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if not 1 <= len(args.sides) <= 2:
        parser.error("give one or two sides")
    sides = []
    for side in args.sides:
        label, _, root = side.partition("=")
        sides.append((label, Path(root).resolve() if root else paths.REPO_ROOT))
    runs: Dict[str, List[Dict]] = {label: [] for label, _ in sides}
    paths.RESULTS_DIR.mkdir(exist_ok=True)
    for round_index in range(args.runs):
        order = sides if round_index % 2 == 0 else sides[::-1]
        for workload in PROFILES:
            for label, root in order:
                result = one_run(root, workload, SEED_BASE + round_index)
                runs[label].append(result)
                print(f"round {round_index} {workload} {label}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"wall={result['wall_s']:.1f}s", flush=True)
                out = paths.RESULTS_DIR / f"{label}.json"
                out.write_text(json.dumps(
                    {"label": label, "root": str(root), "runs": runs[label]},
                    indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
