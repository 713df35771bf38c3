"""Result containers for the union sampling algorithms.

Besides the samples themselves, the experiments of the paper need detailed
accounting: how many draws were spent per join, how many were rejected and
why, how much wall-clock time went to parameter estimation versus accepted
versus rejected answers (Fig. 5f–h), and how the reuse phase compares to the
regular phase (Fig. 6b).  :class:`SamplingStats` collects those counters and
:class:`SampleResult` bundles them with the samples and the parameters used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.estimation.parameters import UnionParameters
from repro.utils.timer import PhaseTimer


@dataclass
class UnionSample:
    """One accepted sample from the union.

    Attributes
    ----------
    value:
        The sampled tuple value (projection onto the standardized output
        attributes).
    source_join:
        Name of the join the tuple was drawn from.
    iteration:
        The sampler iteration at which the tuple was accepted.
    reused:
        True when the tuple came from the warm-up reuse pool (§7).
    """

    value: Tuple[Any, ...]
    source_join: str
    iteration: int
    reused: bool = False


@dataclass
class SamplingStats:
    """Counters and timers accumulated by a union sampler run."""

    iterations: int = 0
    accepted: int = 0
    rejected_duplicate: int = 0
    rejected_not_selected: int = 0
    revisions: int = 0
    revision_removed: int = 0
    reused_accepted: int = 0
    reused_rejected: int = 0
    backtrack_rounds: int = 0
    backtrack_removed: int = 0
    draws_per_join: Dict[str, int] = field(default_factory=dict)
    join_sampler_attempts: int = 0
    join_sampler_rejections: int = 0
    timer: PhaseTimer = field(default_factory=PhaseTimer)

    # ------------------------------------------------------------- recording
    def record_draw(self, join_name: str, count: int = 1) -> None:
        self.draws_per_join[join_name] = self.draws_per_join.get(join_name, 0) + count

    # ------------------------------------------------------------------ views
    @property
    def total_draws(self) -> int:
        return sum(self.draws_per_join.values())

    @property
    def rejected(self) -> int:
        return self.rejected_duplicate + self.reused_rejected

    @property
    def acceptance_rate(self) -> float:
        """Accepted samples per union-sampler iteration."""
        if self.iterations == 0:
            return 0.0
        return self.accepted / self.iterations

    @property
    def warmup_seconds(self) -> float:
        return self.timer.get("warmup")

    @property
    def sampling_seconds(self) -> float:
        return self.timer.get("accepted") + self.timer.get("rejected")

    @property
    def total_seconds(self) -> float:
        return self.timer.total()

    def breakdown(self) -> Dict[str, float]:
        """Wall-clock breakdown matching Fig. 5f–h: estimation / accepted / rejected."""
        return {
            "estimation": self.timer.get("warmup") + self.timer.get("estimation_update"),
            "accepted": self.timer.get("accepted"),
            "rejected": self.timer.get("rejected"),
        }

    def time_per_accepted(self, phase: Optional[str] = None) -> float:
        """Average seconds per accepted sample (Fig. 6b).

        ``phase`` may be ``"reuse"`` or ``"regular"`` to restrict the ratio to
        samples accepted in that phase; None uses all accepted samples.
        """
        if phase is None:
            denominator = self.accepted
            numerator = self.timer.get("accepted")
        elif phase == "reuse":
            denominator = self.reused_accepted
            numerator = self.timer.get("reuse_accepted")
        elif phase == "regular":
            denominator = self.accepted - self.reused_accepted
            numerator = self.timer.get("accepted") - self.timer.get("reuse_accepted")
        else:
            raise ValueError("phase must be None, 'reuse' or 'regular'")
        if denominator <= 0:
            return 0.0
        return numerator / denominator

    def describe(self) -> Dict[str, object]:
        return {
            "iterations": self.iterations,
            "accepted": self.accepted,
            "rejected_duplicate": self.rejected_duplicate,
            "revisions": self.revisions,
            "reused_accepted": self.reused_accepted,
            "acceptance_rate": self.acceptance_rate,
            "draws_per_join": dict(self.draws_per_join),
            "time": self.timer.as_dict(),
        }


@dataclass
class SampleResult:
    """The outcome of one union-sampling run."""

    samples: List[UnionSample]
    parameters: UnionParameters
    stats: SamplingStats
    algorithm: str = ""

    def values(self) -> List[Tuple[Any, ...]]:
        """The sampled tuple values, in acceptance order."""
        return [s.value for s in self.samples]

    def distinct_values(self) -> List[Tuple[Any, ...]]:
        """Distinct sampled values (first occurrence order)."""
        return list(dict.fromkeys(s.value for s in self.samples))

    def __len__(self) -> int:
        return len(self.samples)

    def sources(self) -> Dict[str, int]:
        """Number of accepted samples contributed by each join."""
        counts: Dict[str, int] = {}
        for sample in self.samples:
            counts[sample.source_join] = counts.get(sample.source_join, 0) + 1
        return counts

    def describe(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "samples": len(self.samples),
            "sources": self.sources(),
            "stats": self.stats.describe(),
            "parameters": self.parameters.describe(),
        }


__all__ = ["UnionSample", "SamplingStats", "SampleResult"]
