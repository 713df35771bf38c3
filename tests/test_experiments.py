"""Tests for repro.experiments (reporting and figure harness)."""

import math

import pytest

from repro.experiments.config import BENCH_CONFIG, DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.figures import (
    INSTANTIATIONS,
    build_workload,
    make_estimator,
    run_ablation_bernoulli,
    run_ablation_template,
    run_fig4_ratio_error,
    run_fig5_breakdown,
    run_fig5_sample_size,
    run_fig5a_ratio_error,
    run_fig6_reuse_per_sample,
    run_fig6_reuse_time,
)
from repro.experiments.reporting import SeriesTable, combine_tables


#: A configuration small enough for unit tests.
TINY = ExperimentConfig(
    scale_factor=0.0005,
    overlap_scales=(0.2, 0.6),
    sample_sizes=(20, 40),
    data_scales=(0.0005,),
    walks_per_join=150,
    seed=7,
)


class TestSeriesTable:
    def test_add_row_and_columns(self):
        table = SeriesTable("demo", "x")
        table.add_row(1, a=2.0, b=3.0)
        table.add_row(2, a=4.0, c=5.0)
        assert table.columns == ["x", "a", "b", "c"]
        assert table.column("a") == [2.0, 4.0]
        assert table.column("b") == [3.0, None]

    def test_to_text_contains_all_cells(self):
        table = SeriesTable("demo", "x")
        table.add_row(1, value=0.5)
        text = table.to_text()
        assert "# demo" in text
        assert "x" in text and "value" in text and "0.5" in text

    def test_missing_values_rendered_as_dash(self):
        table = SeriesTable("demo", "x")
        table.add_row(1, a=1.0)
        table.add_row(2, b=2.0)
        assert "-" in table.to_text()

    def test_combine_tables(self):
        a = SeriesTable("one", "x")
        a.add_row(1, v=1)
        b = SeriesTable("two", "x")
        b.add_row(2, v=2)
        combined = combine_tables([a, b])
        assert "# one" in combined and "# two" in combined


class TestConfig:
    def test_default_configs_are_consistent(self):
        assert DEFAULT_CONFIG.scale_factor > 0
        assert BENCH_CONFIG.scale_factor <= DEFAULT_CONFIG.scale_factor
        assert all(0 <= o <= 1 for o in DEFAULT_CONFIG.overlap_scales)

    def test_scaled_down(self):
        smaller = DEFAULT_CONFIG.scaled_down(0.5)
        assert smaller.scale_factor == DEFAULT_CONFIG.scale_factor * 0.5
        assert len(smaller.overlap_scales) <= len(DEFAULT_CONFIG.overlap_scales)


class TestFigureHarness:
    def test_build_workload_dispatch(self):
        assert build_workload("UQ1", TINY).name == "UQ1"
        assert build_workload("uq2", TINY).name == "UQ2"
        with pytest.raises(ValueError):
            build_workload("UQ7", TINY)

    def test_make_estimator_dispatch(self):
        workload = build_workload("UQ2", TINY)
        assert make_estimator("histogram", workload.queries, TINY).method == "histogram"
        assert make_estimator("random-walk", workload.queries, TINY).method == "random-walk"
        assert make_estimator("full-join", workload.queries, TINY).method == "full-join"
        with pytest.raises(ValueError):
            make_estimator("oracle", workload.queries, TINY)

    def test_fig4_ratio_error_rows(self):
        table = run_fig4_ratio_error("UQ2", TINY)
        assert len(table.rows) == len(TINY.overlap_scales)
        for value in table.column("mean_error"):
            assert value >= 0.0 and not math.isnan(value)

    def test_fig5a_reports_both_methods(self):
        table = run_fig5a_ratio_error(TINY)
        assert set(table.columns) >= {"join", "histogram_eo_error", "random_walk_error"}
        # Random walks are the accurate method in the paper; at this scale they
        # must not be drastically worse than the histogram bound on average.
        walk = table.column("random_walk_error")
        assert all(v < 0.5 for v in walk)

    def test_fig5_sample_size_monotone_columns(self):
        table = run_fig5_sample_size("UQ2", TINY)
        assert [row["samples"] for row in table.rows] == list(TINY.sample_sizes)
        for label, _, _ in INSTANTIATIONS:
            assert all(v > 0 for v in table.column(label))

    def test_fig5_breakdown_phases_present(self):
        table = run_fig5_breakdown("UQ2", TINY, sample_size=30)
        assert len(table.rows) == len(INSTANTIATIONS)
        for row in table.rows:
            assert row["accepted_seconds"] >= 0.0
            assert row["estimation_seconds"] >= 0.0

    def test_fig6_reuse_tables(self):
        time_table = run_fig6_reuse_time(TINY, workload_names=("UQ2",))
        assert len(time_table.rows) == len(TINY.sample_sizes)
        assert any("reuse" in c for c in time_table.columns)
        per_sample = run_fig6_reuse_per_sample(TINY, workload_names=("UQ2",), sample_size=30)
        assert per_sample.rows[0]["reused_samples"] >= 0

    def test_ablation_bernoulli(self):
        table = run_ablation_bernoulli(TINY, sample_size=40)
        policies = [row["policy"] for row in table.rows]
        assert policies == ["bernoulli", "cover-record", "cover-exact"]
        assert all(row["draws_per_sample"] >= 1.0 for row in table.rows)

    def test_ablation_template_optimized_not_looser_than_naive(self):
        table = run_ablation_template(TINY)
        by_label = {row["template"]: row for row in table.rows}
        assert by_label["score-optimized"]["overlap_bound"] <= (
            by_label["alphabetical"]["overlap_bound"] * 1.001
        )
        # Both are upper bounds on the exact overlap.
        for row in table.rows:
            assert row["overlap_bound"] >= row["exact_overlap"] * 0.999
