#!/usr/bin/env python
"""Time the update path per function; keep the per-batch medians.

Replays the spine's update stage on its ``uq1_sf05`` fixture, built by the
spine's own code (``benchmarks/spine/fixture.py``, imported read-only): the
TPC-H tables of UQ1 at SF 0.05, the order chain ``customer JOIN orders JOIN
lineitem`` over them, an exact-weight (EW) ``JoinSampler`` warmed by one
2 048-sample block, then ``--batches`` RF1/RF2 batches of the profile's 64
orders (``TPCHRefreshStream``), each ``apply_batch``, ``refresh()`` and the
first 2 048-sample block after it, at the spine's run seed 100.

Wall-clock timers wrapped around named functions split each phase:

* ``refresh`` — the EW weight pass (``ExactWeightFunction._compute``, which
  holds the edge slot maps it reads, ``SortedIndex.slots_for``), the level
  reshapes (``SegmentTables.reshaped``), the CSR-ordered weight gathers
  (``_Descent._csr_weights``) and the root alias table
  (``AliasTable.__init__``);
* ``apply_batch`` — the column buffers copied for the next snapshot
  (``columnar.with_room``), the CSR surgery (``SortedIndex.apply_delta``) and
  the insert flush (``Relation._flush_pending``, which holds part of both).

A function's time is charged to the phase it ran in; nested timers overlap
(``_flush_pending`` contains ``with_room`` and ``apply_delta`` calls), so the
rows of a phase need not add up to it.  Medians per batch go to
``benchmarks/profiles/update_refresh.txt``; see docs/updates.md.

Run via ``make profile`` or::

    PYTHONPATH=src python benchmarks/profile_update.py

``--orders-per-batch N`` replays larger or smaller batches; with anything
but the defaults the table goes to stdout only, unless ``--output`` names a
file.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import common  # noqa: F401  (puts src/ on sys.path)

sys.path.insert(0, str(Path(__file__).resolve().parent / "spine"))

from fixture import build_fixture, derive  # noqa: E402
from profiles import PROFILES  # noqa: E402

from repro.dynamic import TPCHRefreshStream, apply_batch  # noqa: E402
from repro.relational import columnar  # noqa: E402
from repro.relational.index import SortedIndex  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.sampling import join_sampler  # noqa: E402
from repro.sampling.alias import AliasTable, SegmentTables  # noqa: E402
from repro.sampling.join_sampler import JoinSampler  # noqa: E402
from repro.sampling.weights import ExactWeightFunction  # noqa: E402

PROFILE_DIR = Path(__file__).resolve().parent / "profiles"
PROFILE = PROFILES["uq1_sf05"]
RUN_SEED = 100  # the seed the spine's runs are compared at
BATCHES = 40

#: (phase, label, owner, attribute) of every timed function
TIMED: Tuple[Tuple[str, str, Any, str], ...] = (
    ("refresh", "ExactWeightFunction._compute", ExactWeightFunction, "_compute"),
    ("refresh", "SegmentTables.reshaped", SegmentTables, "reshaped"),
    ("refresh", "_Descent._csr_weights", join_sampler._Descent, "_csr_weights"),
    ("refresh", "AliasTable.__init__ (root)", AliasTable, "__init__"),
    ("refresh", "SortedIndex.slots_for", SortedIndex, "slots_for"),
    ("apply_batch", "columnar.with_room", columnar, "with_room"),
    ("apply_batch", "SortedIndex.apply_delta", SortedIndex, "apply_delta"),
    ("apply_batch", "Relation._flush_pending", Relation, "_flush_pending"),
)


class Timers:
    """Per-batch seconds of each timed function, charged to the running phase."""

    def __init__(self) -> None:
        self.phase = ""
        self.batch: Dict[Tuple[str, str], float] = defaultdict(float)
        self.per_batch: Dict[Tuple[str, str], List[float]] = defaultdict(list)

    def wrap(self, label: str, function: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.batch[(self.phase, label)] += time.perf_counter() - started

        return timed

    def install(self) -> None:
        for _, label, owner, name in TIMED:
            setattr(owner, name, self.wrap(label, getattr(owner, name)))

    def close_batch(self) -> None:
        for phase, label, _, _ in TIMED:
            self.per_batch[(phase, label)].append(self.batch.get((phase, label), 0.0))
        self.batch.clear()


def replay(orders_per_batch: int, batches: int) -> Tuple[Dict[str, List[float]], Timers, float]:
    fixture = build_fixture(PROFILE)
    stream = TPCHRefreshStream(
        fixture.tables, seed=derive(RUN_SEED, 50), orders_per_batch=orders_per_batch
    )
    sampler = JoinSampler(fixture.update_query, weights="ew", seed=derive(RUN_SEED, 51))
    sampler.sample_block(PROFILE.update_block)
    timers = Timers()
    timers.install()
    phases: Dict[str, List[float]] = defaultdict(list)
    rows = 0
    for index in range(-1, batches):  # one untimed batch first, as the spine's
        batch = stream.batch()
        marks = [time.perf_counter()]
        for phase, step in (
            ("apply_batch", lambda: apply_batch(fixture.tables, batch)),
            ("refresh", sampler.refresh),
            ("first block", lambda: sampler.sample_block(PROFILE.update_block)),
        ):
            timers.phase = phase
            result = step()
            marks.append(time.perf_counter())
            if phase == "apply_batch":
                changed = result
        timers.phase = ""
        if index < 0:
            timers.batch.clear()
            continue
        rows += changed["inserted"] + changed["deleted"]
        for name, start, end in zip(("apply_batch", "refresh", "first block"), marks, marks[1:]):
            phases[name].append(end - start)
        timers.close_batch()
    return phases, timers, rows / batches


def render(
    phases: Dict[str, List[float]], timers: Timers, rows: float, orders_per_batch: int
) -> str:
    def ms(values: List[float]) -> str:
        return f"{statistics.median(values) * 1e3:8.3f}"

    batches = len(phases["refresh"])
    lines = [
        f"# Update path on the spine's {PROFILE.name} fixture (UQ1 tables at SF "
        f"{PROFILE.scale_factor}, data seed {PROFILE.data_seed}): order chain, EW JoinSampler,",
        f"# {batches} TPCHRefreshStream batches of {orders_per_batch} orders "
        f"({rows:.0f} rows each on average), run seed {RUN_SEED}, "
        f"{PROFILE.update_block}-sample blocks.",
        "# Median ms per batch; a function is charged to the phase it ran in, and",
        "# nested timers overlap.  Regenerate with: make profile",
        "",
        f"{'phase':<14}{'median ms':>10}",
    ]
    for name in ("apply_batch", "refresh", "first block"):
        lines.append(f"{name:<14}{ms(phases[name]):>10}")
    lines.append(f"{'refresh + first block':<24}"
                 f"{ms([r + b for r, b in zip(phases['refresh'], phases['first block'])])}")
    lines += ["", f"{'phase':<14}{'function':<34}{'median ms':>10}"]
    for phase, label, _, _ in TIMED:
        lines.append(
            f"{phase:<14}{label:<34}{ms(timers.per_batch[(phase, label)]):>10}"
        )
    return "\n".join(line.rstrip() for line in lines) + "\n"


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders-per-batch", type=int, default=PROFILE.update_orders_per_batch)
    parser.add_argument("--batches", type=int, default=BATCHES)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    output = args.output
    if output is None and (args.orders_per_batch, args.batches) == (
        PROFILE.update_orders_per_batch,
        BATCHES,
    ):
        output = PROFILE_DIR / "update_refresh.txt"
    phases, timers, rows = replay(args.orders_per_batch, args.batches)
    text = render(phases, timers, rows, args.orders_per_batch)
    if output is not None:
        output.parent.mkdir(exist_ok=True)
        output.write_text(text, encoding="utf-8")
    print(text)
    if output is not None:
        print(f"written to {output}")


if __name__ == "__main__":
    main()
