"""Experiment configuration objects.

Every figure-reproduction function in :mod:`repro.experiments.figures` takes an
:class:`ExperimentConfig` describing the data scale, overlap scales, sample
sizes and random seed, so benchmarks, examples and the test-suite can run the
same experiments at different sizes (tiny for CI and the pytest-benchmark
harness, larger by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the figure-reproduction experiments.

    Attributes
    ----------
    scale_factor:
        TPC-H scale factor used to generate the base data.
    overlap_scales:
        Overlap-scale sweep used by the Fig. 4 experiments (fraction of data
        shared across the joins of a workload).
    sample_sizes:
        Sample-size sweep used by the Fig. 5c–e and Fig. 6 experiments.
    data_scales:
        Scale-factor sweep used by the Fig. 5b experiment.
    default_overlap:
        Overlap scale used by experiments that do not sweep it.
    walks_per_join:
        Warm-up walk budget of the random-walk estimator.
    seed:
        Base random seed (experiments derive per-run seeds from it).
    """

    scale_factor: float = 0.002
    overlap_scales: Tuple[float, ...] = (0.1, 0.2, 0.4, 0.6, 0.8)
    sample_sizes: Tuple[int, ...] = (50, 100, 200, 400)
    data_scales: Tuple[float, ...] = (0.001, 0.002, 0.004)
    default_overlap: float = 0.2
    walks_per_join: int = 500
    seed: int = 2023

    def scaled_down(self, factor: float = 0.5) -> "ExperimentConfig":
        """A cheaper copy of this configuration (for smoke runs)."""
        return ExperimentConfig(
            scale_factor=self.scale_factor * factor,
            overlap_scales=self.overlap_scales[:3],
            sample_sizes=tuple(max(10, int(s * factor)) for s in self.sample_sizes[:3]),
            data_scales=self.data_scales[:2],
            default_overlap=self.default_overlap,
            walks_per_join=max(100, int(self.walks_per_join * factor)),
            seed=self.seed,
        )


#: Default configuration of the ``run_*`` figure functions when none is given.
DEFAULT_CONFIG = ExperimentConfig()

#: Tiny configuration used by the pytest-benchmark harness so a full
#: ``pytest benchmarks/`` run stays in the minutes range on a laptop.
BENCH_CONFIG = ExperimentConfig(
    scale_factor=0.001,
    overlap_scales=(0.1, 0.3, 0.6),
    sample_sizes=(25, 50, 100),
    data_scales=(0.0005, 0.001, 0.002),
    walks_per_join=300,
    seed=2023,
)

__all__ = ["ExperimentConfig", "DEFAULT_CONFIG", "BENCH_CONFIG"]
