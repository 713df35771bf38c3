"""Golden-output regression tests for the CLI.

Each case runs ``repro <subcommand>`` with fixed seeds and compares exit
code, stdout — minus wall-clock lines — and stderr against a checked-in
golden file in ``tests/goldens/``.  The goldens pin the full user-visible
behaviour of the CLI (estimates, intervals, sample values, planner
decisions, *and* the one-line error messages of the failure paths), so an
accidental change to any layer underneath shows up as a readable diff.

Regenerate after an intentional behaviour change with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py -k <case>

and only the cases whose bytes that change is meant to move (``git status``
on ``tests/goldens/`` is the check): the error paths, and every route the
change does not touch, must come out byte-identical.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"
UPDATE_GOLDENS = os.environ.get("UPDATE_GOLDENS") == "1"

COMMON = ["--scale-factor", "0.0005", "--seed", "3"]

CASES = {
    "cli_sample_set_union.json": [
        "sample", "--workload", "UQ2", "--samples", "20",
        "--sampler", "set-union", "--warmup", "histogram", *COMMON,
    ],
    "cli_sample_auto_weights.json": [
        "sample", "--workload", "UQ2", "--samples", "15",
        "--sampler", "set-union", "--warmup", "histogram",
        "--weights", "auto", *COMMON,
    ],
    # --workers > 1 draws the union through the served chunk loop: the
    # answer is a function of the seed and the worker count.
    "cli_sample_parallel.json": [
        "sample", "--workload", "UQ1", "--samples", "12",
        "--workers", "2", *COMMON,
    ],
    "cli_estimate_uq2.json": [
        "estimate", "--workload", "UQ2", "--walks", "120", *COMMON,
    ],
    "cli_aggregate_join_sum.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1", "--json", *COMMON,
    ],
    "cli_aggregate_groupby_avg.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "avg",
        "--attribute", "totalprice", "--group-by", "mktsegment",
        "--rel-error", "0.1", "--json", *COMMON,
    ],
    "cli_aggregate_union_sum.json": [
        "aggregate", "--workload", "UQ3", "--target", "union",
        "--aggregate", "sum", "--attribute", "totalprice",
        "--rel-error", "0.1", "--json", *COMMON,
    ],
    # Unfiltered COUNT(*) over a union: every value of the union is kept
    # with probability 1/ΣW per attempt, so it is an ordinary HT count.
    "cli_aggregate_union_count.json": [
        "aggregate", "--workload", "UQ3", "--target", "union",
        "--aggregate", "count", *COMMON,
    ],
    "cli_aggregate_parallel.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1",
        "--workers", "2", "--json", *COMMON,
    ],
    # Run 2 re-consumes the stream run 1 published: the golden pins the
    # cached/fresh split (run 2 fully cached) along with the estimates.
    "cli_aggregate_cached_repeat.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1",
        "--method", "exact-weight", "--cache", "--repeat", "2",
        "--json", *COMMON,
    ],
    # One case per aggregate route the cases above miss (each explicit backend,
    # sharded wander/union steps, bootstrap over sharded join steps).  These
    # pin the draw paths themselves, so regenerate one only in a PR that
    # changes which rows a seed draws *and* carries a test that the new
    # kernel is exact (as tests/test_alias.py::TestColdDraws is for the cold
    # draw): then a changed estimate is a different sample of the same law,
    # not a different law.  A refactor regenerates none of them.
    "cli_aggregate_wander.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1",
        "--method", "wander-join", "--json", *COMMON,
    ],
    "cli_aggregate_olken.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1",
        "--method", "olken", "--json", *COMMON,
    ],
    "cli_aggregate_wander_parallel.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1",
        "--method", "wander-join", "--workers", "2", "--json", *COMMON,
    ],
    "cli_aggregate_union_parallel.json": [
        "aggregate", "--workload", "UQ3", "--target", "union",
        "--aggregate", "sum", "--attribute", "totalprice",
        "--rel-error", "0.1", "--workers", "2", "--json", *COMMON,
    ],
    "cli_aggregate_bootstrap_parallel.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1",
        "--method", "olken", "--ci", "bootstrap", "--workers", "3",
        "--json", *COMMON,
    ],
    # ----------------------------------------------------------- error paths
    # Invalid flag combinations must exit non-zero with a one-line stderr
    # message, never a traceback.
    "cli_err_sample_workers_zero.json": [
        "sample", "--workload", "UQ1", "--workers", "0", *COMMON,
    ],
    "cli_err_sample_workers_with_sampler_flags.json": [
        "sample", "--workload", "UQ1", "--workers", "2",
        "--sampler", "bernoulli", "--weights", "eo", *COMMON,
    ],
    "cli_err_aggregate_workers_negative.json": [
        "aggregate", "--workload", "UQ1", "--workers", "-2", *COMMON,
    ],
    "cli_err_sum_missing_attribute.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum", *COMMON,
    ],
    "cli_err_union_backend_on_join.json": [
        "aggregate", "--workload", "UQ1", "--method", "online-union", *COMMON,
    ],
    "cli_err_join_backend_on_union.json": [
        "aggregate", "--workload", "UQ3", "--target", "union",
        "--method", "wander-join", *COMMON,
    ],
    "cli_err_unknown_join_name.json": [
        "aggregate", "--workload", "UQ1", "--query", "NOPE", *COMMON,
    ],
    # The cache serves one sequential draw stream; sharded workers would
    # double-consume it, so the combination is refused up front.
    "cli_err_aggregate_cache_workers.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--cache", "--workers", "2", *COMMON,
    ],
    # ------------------------------------------------- resilience / deadlines
    # A zero deadline is the deterministic way to pin the deadline-exceeded
    # paths: no chunk/step can complete, so the output never depends on
    # machine speed.  Exit code 3 = "ran out of time" (vs 1 = "cannot run").
    "cli_err_aggregate_deadline_exceeded.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1",
        "--deadline", "0", *COMMON,
    ],
    "cli_err_sample_deadline_exceeded.json": [
        "sample", "--workload", "UQ1", "--samples", "12",
        "--workers", "2", "--deadline", "0", *COMMON,
    ],
    "cli_err_sample_resilience_flags_without_workers.json": [
        "sample", "--workload", "UQ1", "--deadline", "5", *COMMON,
    ],
    # A partial report is only honest when it contains samples: the budget
    # (not the wall clock) is exhausted here, so the degraded report and its
    # achieved error are deterministic.
    "cli_aggregate_allow_partial.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.001",
        "--max-attempts", "400", "--allow-partial", "--json", *COMMON,
    ],
    # --allow-partial with a zero deadline accepts *nothing*: there is no
    # honest partial estimate (a zero-width CI around 0.0 would be a lie),
    # so the CLI refuses with the out-of-time exit code instead of printing
    # a degraded report with zero samples.
    "cli_err_aggregate_empty_partial.json": [
        "aggregate", "--workload", "UQ1", "--aggregate", "sum",
        "--attribute", "totalprice", "--rel-error", "0.1",
        "--deadline", "0", "--allow-partial", *COMMON,
    ],
    "cli_sample_parallel_partial.json": [
        "sample", "--workload", "UQ1", "--samples", "12",
        "--workers", "2", "--deadline", "0", "--allow-partial", *COMMON,
    ],
}

#: Deadline-exceeded cases exit with the dedicated code 3, so schedulers can
#: distinguish "give it more time / --allow-partial" from hard failures.
DEADLINE_CASES = (
    "cli_err_aggregate_deadline_exceeded.json",
    "cli_err_sample_deadline_exceeded.json",
    # empty-partial is an out-of-time failure too: the deadline expired
    # before a single sample was accepted
    "cli_err_aggregate_empty_partial.json",
)


def _normalize(output: str) -> List[str]:
    """Drop non-deterministic (wall-clock) lines; keep everything else."""
    return [
        line
        for line in output.rstrip("\n").splitlines()
        if not line.startswith("time breakdown")
    ]


def _run_case(args: List[str], capsys) -> dict:
    code = main(args)
    captured = capsys.readouterr()
    return {
        "args": args,
        "exit_code": code,
        "lines": _normalize(captured.out),
        "stderr": _normalize(captured.err),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, capsys):
    args = CASES[name]
    observed = _run_case(args, capsys)
    if name.startswith("cli_err_"):
        assert observed["exit_code"] != 0, "error cases must exit non-zero"
        assert len(observed["stderr"]) == 1, "error cases print exactly one stderr line"
        assert observed["stderr"][0].startswith("error: ")
    else:
        assert observed["exit_code"] == 0
    if name in DEADLINE_CASES:
        assert observed["exit_code"] == 3, "deadline failures use exit code 3"
    if name == "cli_aggregate_allow_partial.json":
        payload = json.loads("\n".join(observed["lines"]))
        assert payload["report"]["degraded"] is True
        assert "achieved_rel_error" in payload["report"]
        # the empty-partial contract: a degraded report always has samples
        assert payload["report"]["accepted"] > 0

    path = GOLDEN_DIR / name
    if UPDATE_GOLDENS:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(observed, indent=2) + "\n", encoding="utf-8")
    if not path.exists():
        pytest.fail(
            f"golden {path.name} missing; regenerate with "
            "UPDATE_GOLDENS=1 python -m pytest tests/test_cli_golden.py"
        )
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert golden["args"] == args, "golden was generated with different arguments"
    assert observed["exit_code"] == golden["exit_code"]
    assert observed["lines"] == golden["lines"]
    assert observed["stderr"] == golden["stderr"]


def test_goldens_have_no_timing_lines():
    """The goldens themselves must never contain wall-clock output."""
    for name in CASES:
        path = GOLDEN_DIR / name
        if not path.exists():  # pragma: no cover - covered by test_cli_golden
            continue
        golden = json.loads(path.read_text(encoding="utf-8"))
        assert not any(line.startswith("time breakdown") for line in golden["lines"])
