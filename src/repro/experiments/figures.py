"""Reproduction of every figure in the paper's evaluation (§9).

Each ``run_*`` function regenerates the data behind one figure (or one
ablation) and returns a :class:`~repro.experiments.reporting.SeriesTable`
holding exactly the series the paper plots.  The pytest-benchmark harness in
``benchmarks/`` wraps these functions and writes each table to
``benchmarks/results/<benchmark>.txt``; no recorded output is committed.

Absolute runtimes are not expected to match the paper (the authors ran C++-
adjacent Python on a 64-core server against multi-GB TPC-H data; this is a
pure-Python laptop-scale reproduction) — the comparisons of interest are the
*relative* behaviours: which estimator is more accurate, which instantiation
is faster, how the methods scale with sample size / data size / overlap, and
how much sample reuse helps.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.errors import mean_ratio_error, ratio_estimation_errors
from repro.core.online_sampler import OnlineUnionSampler
from repro.core.union_sampler import BernoulliUnionSampler, SetUnionSampler
from repro.estimation.exact import FullJoinUnionEstimator
from repro.estimation.histogram import HistogramUnionEstimator
from repro.estimation.parameters import UnionParameters
from repro.estimation.random_walk import RandomWalkUnionEstimator
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.reporting import SeriesTable
from repro.joins.executor import exact_overlap_size
from repro.joins.query import JoinQuery
from repro.joins.template import Template, find_standard_template
from repro.tpch.workloads import UnionWorkload, build_uq1, build_uq2, build_uq3

#: The three framework instantiations compared throughout §9.2:
#: (label, warm-up estimator, join-sampling weights).
INSTANTIATIONS: Tuple[Tuple[str, str, str], ...] = (
    ("histogram+EW", "histogram", "ew"),
    ("histogram+EO", "histogram", "eo"),
    ("random-walk+EW", "random-walk", "ew"),
)


def build_workload(
    name: str, config: ExperimentConfig, overlap_scale: Optional[float] = None,
    scale_factor: Optional[float] = None,
) -> UnionWorkload:
    """Build UQ1/UQ2/UQ3 at the configuration's scale (overlap optionally overridden)."""
    overlap = config.default_overlap if overlap_scale is None else overlap_scale
    scale = config.scale_factor if scale_factor is None else scale_factor
    key = name.upper()
    if key == "UQ1":
        return build_uq1(scale, overlap, seed=config.seed)
    if key == "UQ2":
        return build_uq2(scale, seed=config.seed)
    if key == "UQ3":
        return build_uq3(scale, overlap, seed=config.seed)
    raise ValueError(f"unknown workload {name!r}")


def make_estimator(
    method: str,
    queries: Sequence[JoinQuery],
    config: ExperimentConfig,
    join_size_method: str = "ew",
):
    """Warm-up estimator factory for the instantiation labels used in §9."""
    if method == "histogram":
        return HistogramUnionEstimator(queries, join_size_method=join_size_method)
    if method == "random-walk":
        return RandomWalkUnionEstimator(
            queries, walks_per_join=config.walks_per_join, seed=config.seed
        )
    if method == "full-join":
        return FullJoinUnionEstimator(queries)
    raise ValueError(f"unknown estimation method {method!r}")


# ------------------------------------------------------------------ Fig. 4a / 4b
def run_fig4_ratio_error(
    workload_name: str, config: ExperimentConfig = DEFAULT_CONFIG
) -> SeriesTable:
    """Error of the |J_i|/|U| ratio estimation (histogram-based + EO).

    Fig. 4a uses UQ1, Fig. 4b uses UQ3; the x axis is the overlap scale.
    """
    table = SeriesTable(
        title=f"Fig4 ratio-estimation error ({workload_name}, histogram+EO)",
        x_label="overlap_scale",
    )
    for overlap in config.overlap_scales:
        workload = build_workload(workload_name, config, overlap_scale=overlap)
        exact = FullJoinUnionEstimator(workload.queries).estimate()
        estimated = HistogramUnionEstimator(
            workload.queries, join_size_method="eo"
        ).estimate()
        errors = ratio_estimation_errors(estimated, exact)
        table.add_row(
            overlap,
            mean_error=sum(errors.values()) / len(errors),
            max_error=max(errors.values()),
            min_error=min(errors.values()),
        )
    return table


# ------------------------------------------------------------------ Fig. 4c / 4d
def run_fig4_runtime(
    workload_name: str, config: ExperimentConfig = DEFAULT_CONFIG
) -> SeriesTable:
    """Runtime of union-size estimation: histogram-based vs FullJoinUnion."""
    table = SeriesTable(
        title=f"Fig4 union-size estimation runtime ({workload_name})",
        x_label="overlap_scale",
    )
    for overlap in config.overlap_scales:
        workload = build_workload(workload_name, config, overlap_scale=overlap)

        started = time.perf_counter()
        HistogramUnionEstimator(workload.queries, join_size_method="eo").estimate()
        histogram_seconds = time.perf_counter() - started

        started = time.perf_counter()
        FullJoinUnionEstimator(workload.queries).estimate()
        full_join_seconds = time.perf_counter() - started

        table.add_row(
            overlap,
            histogram_seconds=histogram_seconds,
            full_join_seconds=full_join_seconds,
            speedup=(full_join_seconds / histogram_seconds) if histogram_seconds else 0.0,
        )
    return table


# ------------------------------------------------------------------------ Fig. 5a
def run_fig5a_ratio_error(config: ExperimentConfig = DEFAULT_CONFIG) -> SeriesTable:
    """Per-join ratio error: histogram+EO vs random-walk, on UQ1."""
    workload = build_workload("UQ1", config)
    exact = FullJoinUnionEstimator(workload.queries).estimate()
    histogram = HistogramUnionEstimator(workload.queries, join_size_method="eo").estimate()
    random_walk = RandomWalkUnionEstimator(
        workload.queries, walks_per_join=config.walks_per_join, seed=config.seed
    ).estimate()
    hist_errors = ratio_estimation_errors(histogram, exact)
    walk_errors = ratio_estimation_errors(random_walk, exact)
    table = SeriesTable(
        title="Fig5a |J|/|U| ratio error per join (UQ1)", x_label="join"
    )
    for name in exact.join_order:
        table.add_row(
            name,
            histogram_eo_error=hist_errors[name],
            random_walk_error=walk_errors[name],
        )
    return table


# ------------------------------------------------------------------------ Fig. 5b
def run_fig5b_data_scale(
    config: ExperimentConfig = DEFAULT_CONFIG, sample_size: int = 100
) -> SeriesTable:
    """SetUnion sampling time vs data scale on UQ1, for all three instantiations."""
    table = SeriesTable(title="Fig5b sampling time vs data scale (UQ1)", x_label="scale_factor")
    for scale in config.data_scales:
        row: Dict[str, float] = {}
        for label, method, weights in INSTANTIATIONS:
            workload = build_workload("UQ1", config, scale_factor=scale)
            estimator = make_estimator(method, workload.queries, config, join_size_method=weights)
            started = time.perf_counter()
            sampler = SetUnionSampler(
                workload.queries, estimator, join_weights=weights, seed=config.seed
            )
            sampler.sample(sample_size)
            row[label] = time.perf_counter() - started
        table.add_row(scale, **row)
    return table


# -------------------------------------------------------------------- Fig. 5c/d/e
def run_fig5_sample_size(
    workload_name: str, config: ExperimentConfig = DEFAULT_CONFIG
) -> SeriesTable:
    """Sampling time vs sample size for the three instantiations (Fig. 5c–e)."""
    workload = build_workload(workload_name, config)
    table = SeriesTable(
        title=f"Fig5 sampling time vs sample size ({workload_name})",
        x_label="samples",
    )
    for count in config.sample_sizes:
        row: Dict[str, float] = {}
        for label, method, weights in INSTANTIATIONS:
            estimator = make_estimator(method, workload.queries, config, join_size_method=weights)
            started = time.perf_counter()
            sampler = SetUnionSampler(
                workload.queries, estimator, join_weights=weights, seed=config.seed
            )
            sampler.sample(count)
            row[label] = time.perf_counter() - started
        table.add_row(count, **row)
    return table


# -------------------------------------------------------------------- Fig. 5f/g/h
def run_fig5_breakdown(
    workload_name: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
    sample_size: int = 200,
) -> SeriesTable:
    """Wall-clock breakdown (estimation / accepted / rejected) per instantiation."""
    workload = build_workload(workload_name, config)
    table = SeriesTable(
        title=f"Fig5 time breakdown ({workload_name}, N={sample_size})",
        x_label="instantiation",
    )
    for label, method, weights in INSTANTIATIONS:
        estimator = make_estimator(method, workload.queries, config, join_size_method=weights)
        sampler = SetUnionSampler(
            workload.queries, estimator, join_weights=weights, seed=config.seed
        )
        result = sampler.sample(sample_size)
        breakdown = result.stats.breakdown()
        table.add_row(
            label,
            estimation_seconds=breakdown["estimation"],
            accepted_seconds=breakdown["accepted"],
            rejected_seconds=breakdown["rejected"],
            duplicate_rejections=result.stats.rejected_duplicate,
            join_sampler_rejections=result.stats.join_sampler_rejections,
        )
    return table


# -------------------------------------------------------------------- Fig. 6a / 6b
def run_fig6_reuse_time(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workload_names: Sequence[str] = ("UQ1", "UQ2", "UQ3"),
) -> SeriesTable:
    """Online union sampling time vs sample size, with and without reuse (Fig. 6a)."""
    table = SeriesTable(title="Fig6a online sampling time with/without reuse", x_label="samples")
    workloads = {name: build_workload(name, config) for name in workload_names}
    for count in config.sample_sizes:
        row: Dict[str, float] = {}
        for name, workload in workloads.items():
            for reuse in (True, False):
                started = time.perf_counter()
                sampler = OnlineUnionSampler(
                    workload.queries,
                    seed=config.seed,
                    reuse=reuse,
                    walks_per_join=config.walks_per_join,
                )
                sampler.sample(count)
                label = f"{name}:{'reuse' if reuse else 'no-reuse'}"
                row[label] = time.perf_counter() - started
        table.add_row(count, **row)
    return table


def run_fig6_reuse_per_sample(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workload_names: Sequence[str] = ("UQ1", "UQ2", "UQ3"),
    sample_size: int = 200,
    walks_per_join: Optional[int] = None,
) -> SeriesTable:
    """Time per accepted sample: regular phase vs reuse phase (Fig. 6b).

    ``walks_per_join`` controls the warm-up budget; choosing it smaller than
    the sample size guarantees that the reuse pool drains and the regular
    phase is exercised too (otherwise every sample would come from the pool).
    """
    budget = walks_per_join if walks_per_join is not None else config.walks_per_join
    table = SeriesTable(
        title=f"Fig6b time per accepted sample (N={sample_size})", x_label="workload"
    )
    for name in workload_names:
        workload = build_workload(name, config)
        sampler = OnlineUnionSampler(
            workload.queries,
            seed=config.seed,
            reuse=True,
            walks_per_join=budget,
        )
        result = sampler.sample(sample_size)
        table.add_row(
            name,
            reuse_phase_seconds=result.stats.time_per_accepted("reuse"),
            regular_phase_seconds=result.stats.time_per_accepted("regular"),
            reused_samples=result.stats.reused_accepted,
            regular_samples=result.stats.accepted - result.stats.reused_accepted,
        )
    return table


# ------------------------------------------------------------------------ ablations
def run_ablation_bernoulli(
    config: ExperimentConfig = DEFAULT_CONFIG, sample_size: int = 200
) -> SeriesTable:
    """Bernoulli vs non-Bernoulli (cover-based) set-union sampling on UQ1.

    The paper argues (§3) that the Bernoulli "union trick" has a higher
    rejection ratio on highly overlapping joins; this ablation measures draws
    and rejections per accepted sample for the two policies plus the strict
    cover-enforcing variant.
    """
    workload = build_workload("UQ1", config)
    exact = FullJoinUnionEstimator(workload.queries).estimate()
    table = SeriesTable(title="Ablation: Bernoulli vs non-Bernoulli (UQ1)", x_label="policy")

    samplers = {
        "bernoulli": BernoulliUnionSampler(workload.queries, exact, seed=config.seed),
        "cover-record": SetUnionSampler(workload.queries, exact, seed=config.seed, mode="record"),
        "cover-strict": SetUnionSampler(workload.queries, exact, seed=config.seed, mode="strict"),
    }
    for label, sampler in samplers.items():
        started = time.perf_counter()
        result = sampler.sample(sample_size)
        elapsed = time.perf_counter() - started
        stats = result.stats
        table.add_row(
            label,
            seconds=elapsed,
            draws_per_sample=stats.total_draws / max(len(result), 1),
            duplicate_rejections=stats.rejected_duplicate,
            revisions=stats.revisions,
        )
    return table


def run_ablation_template(config: ExperimentConfig = DEFAULT_CONFIG) -> SeriesTable:
    """Impact of the standard-template choice on the UQ3 overlap bound (§8.1.2).

    Compares the score-optimized template against a naive alphabetical
    ordering; a bad template loses co-location information and yields a much
    looser (larger) overlap bound.
    """
    workload = build_workload("UQ3", config)
    queries = workload.queries
    exact_overlap = exact_overlap_size(queries)
    table = SeriesTable(title="Ablation: template choice (UQ3 overlap bound)", x_label="template")

    optimized = find_standard_template(queries)
    naive = Template(tuple(sorted(queries[0].output_schema)), float("nan"))
    for label, template in (("score-optimized", optimized), ("alphabetical", naive)):
        estimator = HistogramUnionEstimator(
            queries, join_size_method="ew", mode="split", template=template
        )
        bound = estimator.overlap(queries)
        table.add_row(
            label,
            overlap_bound=bound,
            exact_overlap=float(exact_overlap),
            looseness=(bound / exact_overlap) if exact_overlap else float("inf"),
        )
    return table


__all__ = [
    "INSTANTIATIONS",
    "build_workload",
    "make_estimator",
    "run_fig4_ratio_error",
    "run_fig4_runtime",
    "run_fig5a_ratio_error",
    "run_fig5b_data_scale",
    "run_fig5_sample_size",
    "run_fig5_breakdown",
    "run_fig6_reuse_time",
    "run_fig6_reuse_per_sample",
    "run_ablation_bernoulli",
    "run_ablation_template",
]
