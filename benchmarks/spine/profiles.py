"""Frozen per-workload profiles: the only place a size lives.

A workload is an *input regime* (family x scale); the activities are the five
stages, which every run executes.  The database is a fixture built from the
profile's own ``data_seed`` (the UQ1 nation partition alone moves a join's
size 2.5x, so letting ``--seed`` pick it would make two seeds two different
benchmarks); ``--seed`` drives everything *drawn*.

Repetition counts are fixed, not a time box, so two runs of one seed perform
the same operations.  They are sized for ``NOMINAL_SECONDS`` of measuring;
``run.py --seconds``, which the builder's contract passes to every run,
scales them proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

#: the ``run_seconds`` of BENCHMARK.json the repetition counts are sized for
NOMINAL_SECONDS = 30


@dataclass(frozen=True)
class Profile:
    """Everything that sizes one workload's run."""

    name: str
    why: str
    # ---- the fixture -----------------------------------------------------
    family: str  # the CLI's workload name: "UQ1" or "UQ2"
    scale_factor: float
    data_seed: int = 2023
    overlap_scale: float = 0.3  # UQ1's shared-nation fraction (ignored by UQ2)
    sum_attribute: str = "totalprice"
    group_attribute: str = "mktsegment"
    #: the suite's filtered COUNT/SUM keep rows with ``sum_attribute`` above this
    filter_above: float = 250_000.0
    # ---- join_draw -------------------------------------------------------
    join_reps: int = 32
    join_blocks: int = 24
    join_block_size: int = 4096
    # ---- union_draw ------------------------------------------------------
    union_reps: int = 32
    union_first: int = 1000
    union_total: int = 6000
    # ---- aqp -------------------------------------------------------------
    aqp_reps: int = 20
    aqp_sum_rel_error: float = 0.01
    aqp_group_rel_error: float = 0.02
    aqp_suite_rel_error: float = 0.02
    # ---- serve: open-loop slices, each followed by a closed-loop slice ----
    serve_slices: int = 8
    open_per_slice: int = 40  # x8 slices = 320: 160 sample, 120 SUM, 40 GROUP BY
    open_rate: float = 24.0  # req/s: about a quarter of the closed-loop capacity,
    # which is 85 / 180 / 125 req/s on the three workloads at the seed commit
    closed_per_slice: int = 64
    closed_clients: int = 2  # = nproc
    catalogue: int = 48  # distinct seeded requests the arrivals pick from
    sample_count: int = 150
    serve_rel_error: float = 0.05
    # ---- update ----------------------------------------------------------
    update_reps: int = 64
    update_orders_per_batch: int = 64
    update_block: int = 2048
    # ---- correctness gate (a scale execute_join can enumerate) -------------
    check_scale: float = 0.001
    check_union_samples: int = 8000
    check_trials: int = 240
    check_group_trials: int = 80
    check_rel_error: float = 0.15
    # ---- traced run: probe sizes -------------------------------------------
    probe_samples: int = 50_000
    pool_samples: int = 20_000
    pool_shards: int = 4
    thrash_bytes: int = 1 << 20

    def scaled(self, seconds: float) -> "Profile":
        """The same profile with repetition counts sized for ``seconds``."""
        factor = seconds / NOMINAL_SECONDS
        if factor == 1.0:
            return self

        def n(count: int) -> int:
            return max(2, round(count * factor))

        return replace(
            self,
            join_reps=n(self.join_reps),
            union_reps=n(self.union_reps),
            aqp_reps=n(self.aqp_reps),
            serve_slices=n(self.serve_slices),
            update_reps=n(self.update_reps),
        )

    def traced(self) -> "Profile":
        """Fewer rounds of every stage: a traced run reports layers, not medians."""
        return replace(
            self,
            join_reps=max(4, self.join_reps // 4),
            union_reps=max(2, self.union_reps // 4),
            aqp_reps=max(2, self.aqp_reps // 4),
            serve_slices=max(2, self.serve_slices // 4),
            update_reps=max(4, self.update_reps // 4),
        )

    def smoke(self) -> "Profile":
        """Tiny scale, a few repetitions, the same code path (< 10 s)."""
        return replace(
            self,
            scale_factor=0.002,
            join_reps=3,
            join_blocks=4,
            join_block_size=512,
            union_reps=2,
            union_first=200,
            union_total=600,
            aqp_reps=2,
            aqp_sum_rel_error=0.05,
            aqp_group_rel_error=0.1,
            aqp_suite_rel_error=0.1,
            serve_slices=2,
            open_per_slice=16,
            open_rate=100.0,
            closed_per_slice=16,
            catalogue=16,
            sample_count=40,
            update_reps=3,
            update_orders_per_batch=16,
            update_block=256,
            check_scale=0.0005,
            check_union_samples=6000,
            check_group_trials=40,
            probe_samples=4000,
            pool_samples=2000,
            thrash_bytes=1 << 14,
        )


_UQ2 = dict(
    family="UQ2",
    sum_attribute="retailprice",
    group_attribute="r_name",
    filter_above=1400.0,
)

PROFILES: Dict[str, Profile] = {
    p.name: p
    for p in (
        Profile(
            name="uq1_sf05",
            why="UQ1 at SF 0.05 (67k-146k lineitem rows per join): indexes, CSR, "
            "alias tables and gathers do the work, EW rejects nothing, joins barely overlap",
            family="UQ1",
            scale_factor=0.05,
            join_reps=24,
            union_reps=14,  # 0.5 s each at this scale
            aqp_reps=14,
            open_rate=22.0,
        ),
        Profile(
            name="uq1_sf005",
            why="UQ1 at SF 0.005, relations 10x smaller: fixed per-call cost of aqp, "
            "server and core dominates and the kernels idle; bypass regime for storage changes",
            family="UQ1",
            scale_factor=0.005,
            aqp_reps=24,
            update_reps=96,
            open_rate=45.0,
        ),
        Profile(
            name="uq2_sf05",
            why="UQ2 at SF 0.05: three predicated chains over the same base data, heavily "
            "overlapping: the union sampler rejects duplicates, revises ownership, reuses warm-up",
            scale_factor=0.05,
            open_rate=31.0,
            **_UQ2,
        ),
    )
}


__all__ = ["NOMINAL_SECONDS", "PROFILES", "Profile"]
