#!/usr/bin/env python
"""cProfile the union sampler's first 1 000 samples; keep the top-25 profile.

Profiles what the spine reports as ``union_first_1k_s`` on its ``uq1_sf05``
workload: constructing an ``OnlineUnionSampler`` (random-walk warm-up of §6,
per-join samplers) and drawing the first 1 000 union samples (reuse,
refinement rounds and backtracking of §7) over UQ1 at SF 0.05.  One untimed
first call builds the indexes, columns and alias tables every later sampler
shares, as the spine's stages do.  The top-25 cumulative-time functions go to
``benchmarks/profiles/union_first_1k.txt`` (plus the raw ``.prof`` dump):
what is left of the union's initialisation once membership probes are batched
(see "Batched membership probes" in docs/performance.md).

Run via ``make profile`` or::

    PYTHONPATH=src python benchmarks/profile_union.py
"""

from __future__ import annotations

import cProfile
import io
import pstats
from pathlib import Path

import common  # noqa: F401  (puts src/ on sys.path)

from repro.core.online_sampler import OnlineUnionSampler  # noqa: E402
from repro.tpch import build_uq1, generate_tpch  # noqa: E402
from repro.utils.rng import ensure_rng  # noqa: E402

PROFILE_DIR = Path(__file__).resolve().parent / "profiles"
SCALE_FACTOR = 0.05
OVERLAP_SCALE = 0.3
DATA_SEED = 2023  # the spine's fixture (benchmarks/spine/profiles.py)
SAMPLES = 1000
TOP = 25


def union_first_samples(queries, seed: int) -> int:
    """The call under profile: a new sampler and its first ``SAMPLES`` samples."""
    sampler = OnlineUnionSampler(queries, seed=seed)
    return len(sampler.sample(SAMPLES).samples)


def main() -> None:
    PROFILE_DIR.mkdir(exist_ok=True)
    rng = ensure_rng(DATA_SEED)
    tables = generate_tpch(SCALE_FACTOR, seed=rng)
    queries = build_uq1(SCALE_FACTOR, OVERLAP_SCALE, seed=rng, tables=tables).queries
    union_first_samples(queries, seed=1)  # untimed: builds the shared structures

    profiler = cProfile.Profile()
    accepted = profiler.runcall(union_first_samples, queries, 2)

    raw_path = PROFILE_DIR / "union_first_1k.prof"
    profiler.dump_stats(raw_path)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(TOP)
    text = (
        f"# Union first-samples profile: OnlineUnionSampler(queries).sample({SAMPLES}) "
        f"on UQ1 at SF {SCALE_FACTOR}, {accepted} samples\n"
        f"# Regenerate with: make profile\n\n" + buffer.getvalue()
    )
    text_path = PROFILE_DIR / "union_first_1k.txt"
    text_path.write_text(text, encoding="utf-8")
    print(text)
    print(f"written to {text_path} (raw dump: {raw_path})")


if __name__ == "__main__":
    main()
