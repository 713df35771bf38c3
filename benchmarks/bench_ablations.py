"""Ablations called out in DESIGN.md.

* A1 — Bernoulli vs non-Bernoulli (cover-based) set-union sampling (§3): the
  Bernoulli union trick needs more draws per accepted sample on overlapping
  joins.
* A2 — standard-template choice (§8.1.2): the score-optimized template yields
  an overlap bound at least as tight as a naive alphabetical ordering.
"""

from repro.experiments.figures import run_ablation_bernoulli, run_ablation_template


def test_ablation_bernoulli_vs_cover(benchmark, config, record_table):
    table = benchmark.pedantic(
        run_ablation_bernoulli, args=(config,), kwargs={"sample_size": 100},
        rounds=1, iterations=1,
    )
    record_table(table)
    rows = {row["policy"]: row for row in table.rows}
    assert set(rows) == {"bernoulli", "cover-record", "cover-exact"}
    assert all(row["draws_per_sample"] >= 1.0 for row in table.rows)


def test_ablation_template_choice(benchmark, config, record_table):
    table = benchmark.pedantic(run_ablation_template, args=(config,), rounds=1, iterations=1)
    record_table(table)
    rows = {row["template"]: row for row in table.rows}
    assert rows["score-optimized"]["overlap_bound"] <= rows["alphabetical"]["overlap_bound"] * 1.001
    for row in table.rows:
        assert row["overlap_bound"] >= row["exact_overlap"] * 0.999
