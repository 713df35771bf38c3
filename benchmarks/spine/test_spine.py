"""Self-tests of the measurement spine (collected by tier-1).

They hold the harness to its own contract: the names a run prints are the
names BENCHMARK.json declares; a broken sampler or an unreachable server
fails the gate; everything drawn repeats exactly for one seed and changes
with another; span self-time arithmetic is right.
"""

from __future__ import annotations

import json
import math
import os
import re
import socket
import subprocess
import sys
from types import SimpleNamespace

import pytest

import compare
import paths
from checks import Outcome, check_http, check_union_sampling
from compare import verdict
from fixture import build_fixture, build_workload_on
from loadgen import arrival_schedule, build_catalogue, open_loop
from profiles import PROFILES
from report import declared, load_benchmark, summarize
from spans import Span, Tracer, covered, self_times, totals
from stages import Aqp, Context, JoinDraw, Serve, UnionDraw, Update

from repro.estimation import FullJoinUnionEstimator

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE = PROFILES["uq2_sf05"].smoke()


def run_smoke(trace: int) -> dict:
    finished = subprocess.run(
        [sys.executable, str(paths.SPINE_DIR / "run.py"), "--workload", SMOKE.name,
         "--smoke", "--seed", "5", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert finished.returncode == 0, finished.stdout[-2000:]
    return json.loads(finished.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fixture():
    return build_fixture(SMOKE)


def context_for(fixture, seed: int) -> Context:
    return Context(fixture, SMOKE, seed, Tracer(enabled=False))


# ------------------------------------------------------------------- contract
def test_declared_names_are_well_formed_and_unique():
    benchmark = load_benchmark()
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    names += [w["name"] for w in benchmark["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in benchmark["workloads"]] == list(PROFILES)
    assert {w["name"]: w["why"] for w in benchmark["workloads"]} == {
        p.name: p.why for p in PROFILES.values()}
    assert benchmark["paths"] == ["benchmarks/spine"]
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])


def test_smoke_run_prints_every_end_to_end_metric():
    result = run_smoke(trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    end_to_end = declared("end_to_end")
    assert list(result["metrics"]) == list(end_to_end)
    for name, reading in result["metrics"].items():
        assert reading["unit"] == end_to_end[name]["unit"]
        assert reading["value"] > 0


def test_traced_smoke_run_prints_every_layer_metric_and_a_closed_budget():
    result = run_smoke(trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == list(declared("per_layer"))
    value = {name: reading["value"] for name, reading in result["metrics"].items()}
    inside = ("price", "gates", "split", "sample_block", "value_columns", "ingest",
              "estimate", "unattributed")
    assert sum(value[f"budget.{part}_ms"] for part in inside) == pytest.approx(
        value["budget.handle_ms"], rel=1e-9)
    trace = json.loads(
        (paths.RESULTS_DIR / f"trace-{SMOKE.name}.json").read_text(encoding="utf-8"))
    assert trace["columns"] == ["name", "start", "end", "parent", "op"]
    assert any(row[0] == "sampling.sample_block" for row in trace["spans"])


# ------------------------------------------------------------- the gate bites
class SkewedStub:
    """A 'sampler' that only ever returns the lowest-ranked eighth of the union."""

    def __init__(self, population):
        self.values = sorted(population)[: max(len(population) // 8, 1)]

    def sample(self, count):
        picks = [self.values[i % len(self.values)] for i in range(count)]
        return SimpleNamespace(samples=[SimpleNamespace(value=v) for v in picks])


def test_sabotaged_sampler_fails_the_gate():
    _, small, _, _ = build_workload_on(SMOKE, SMOKE.check_scale)
    estimator = FullJoinUnionEstimator(small.queries)
    estimator.prepare()
    population = set().union(*(estimator.result_set(n) for n in small.query_names))

    honest = Outcome()
    check_union_sampling(small.queries, estimator, population, 3000, 5, honest)
    assert honest.correct, honest.results

    sabotaged = Outcome()
    check_union_sampling(
        small.queries, estimator, population, 3000, 5, sabotaged,
        make_online=lambda queries, seed: SkewedStub(population),
        make_strict=lambda queries, parameters, seed, mode: SkewedStub(population),
    )
    assert [passed for _, passed, _ in sabotaged.results] == [False, False]


def test_unreachable_server_fails_the_run(fixture):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    context = context_for(fixture, 5)
    with pytest.raises(OSError):
        Serve(context, child=None, port=dead_port).prepare()
    catalogue = build_catalogue(SMOKE, fixture.first.name, 5)
    replies = open_loop(dead_port, catalogue, [0.0, 0.0], [0, 1], context.tracer)
    assert [reply.ok for reply in replies] == [False, False]
    outcome = Outcome()
    check_http(fixture.workload, catalogue[:8], replies, outcome)
    assert not outcome.correct


#: run.py with the server child replaced by a port nothing listens on
DEAD_CHILD = """
import socket, sys
import run

class DeadChild:
    ready_after = None
    def __init__(self, profile, cpu):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
    def wait_ready(self):
        return self.port
    def stop(self):
        pass

run.ServerChild = DeadChild
sys.exit(run.main())
"""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_that_cannot_finish_still_prints_an_incorrect_result(trace, section):
    finished = subprocess.run(
        [sys.executable, "-c", DEAD_CHILD, "--workload", SMOKE.name, "--smoke",
         "--seed", "5", "--trace", str(trace)],
        cwd=str(paths.SPINE_DIR), env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert finished.returncode == 1, finished.stderr[-2000:]
    assert "ConnectionRefusedError" in finished.stderr
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and 1 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == list(declared(section))
    assert all(math.isnan(reading["value"]) for reading in result["metrics"].values())


#: a child that ends and leaves two grandchildren running, the way the traced
#: run's process pool leaves ``multiprocessing``'s resource tracker
ORPHANS = """
import subprocess
from child import _children, adopt_orphans, stop_descendants

assert adopt_orphans()
subprocess.run(["sh", "-c", "sleep 60 & sleep 60 &"], check=True)
adopted = len(_children())
print(adopted, stop_descendants(), len(_children()))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl and /proc")
def test_no_process_outlives_a_run():
    finished = subprocess.run(
        [sys.executable, "-c", ORPHANS], cwd=str(paths.SPINE_DIR),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    assert finished.stdout.split() == ["2", "2", "0"]


def test_metric_without_a_reading_is_nan_over_no_samples():
    # every request of one kind failing leaves its metric without readings
    assert summarize([]).n == 0 and math.isnan(summarize([]).value)
    assert summarize([3.0]).value == 3.0


# ----------------------------------------------------------- seeds and counts
def test_arrival_schedule_repeats_for_a_seed_and_moves_with_it():
    first = arrival_schedule(24.0, 40, 48, seed=7)
    assert first == arrival_schedule(24.0, 40, 48, seed=7)
    assert first != arrival_schedule(24.0, 40, 48, seed=8)
    offsets, picks = first
    assert offsets == sorted(offsets) and len(picks) == 40
    kinds = [pick % 8 for pick in picks]
    assert sum(k < 4 for k in kinds) == 20 and sum(k == 7 for k in kinds) == 5
    assert build_catalogue(SMOKE, "q", 7) == build_catalogue(SMOKE, "q", 7)
    assert build_catalogue(SMOKE, "q", 7) != build_catalogue(SMOKE, "q", 8)


def drawn_counts(fixture, seed: int) -> dict:
    """Every count the traced run reports from the in-process stages."""
    context = context_for(fixture, seed)
    counts = {}
    for stage_class in (JoinDraw, UnionDraw, Aqp):
        stage = stage_class(context)
        stage.prepare()
        for index in range(2):
            stage.rep(index)
        counts[stage.name] = dict(stage.counts)
        if isinstance(stage, Aqp):
            counts["aqp.accepted"] = stage.accepted
    return counts


def test_counts_repeat_exactly_for_a_seed_and_change_with_another(fixture):
    first = drawn_counts(fixture, 11)
    assert first == drawn_counts(fixture, 11)
    other = drawn_counts(fixture, 12)
    assert first["union_draw"] != other["union_draw"]
    # Exact weights push UQ2's predicates down: no walk is rejected, whatever the seed.
    assert first["join_draw"]["accepted"] == first["join_draw"]["attempts"]


def test_update_stage_leaves_maintained_weight_equal_to_rebuilt():
    from checks import check_maintained

    fresh = build_fixture(SMOKE)  # the stage mutates its tables: not the shared one
    stage = Update(context_for(fresh, 5))
    stage.prepare()
    readings = [stage.rep(index) for index in range(3)]
    assert stage.failed == 0 and stage.counts["rows"] > 0
    assert all(r["update_rows_per_s"] > 0 for r in readings)
    outcome = Outcome()
    check_maintained(stage, outcome)
    assert outcome.correct, outcome.results


# ----------------------------------------------------------------------- spans
def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        Span("root", 0.0, 10.0, None, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("a.inner", 2.0, 3.0, 1, "op"),
        Span("b", 3.5, 6.0, 0, "op"),  # overlaps a by 0.5: covered once
        Span("c", 8.0, 12.0, 0, "op"),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - (5 + 2), 3 - 1, 1, 2.5, 4])
    assert covered([(1, 4), (3.5, 6), (8, 12)], 0, 10) == pytest.approx(7)
    summary = totals(spans)
    assert summary["a"] == {"count": 1, "seconds": 3.0, "self_seconds": 2.0}


def test_tracer_nests_per_thread_and_inherits_the_operation_id():
    tracer = Tracer(enabled=True)
    with tracer.span("stage", op="join#0"):
        with tracer.span("layer.call"):
            pass
    with tracer.span("other"):
        pass
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("stage", None, "join#0"), ("layer.call", 0, "join#0"), ("other", None, None)]
    assert all(s.end >= s.start for s in tracer.spans)
    silent = Tracer(enabled=False)
    with silent.span("ignored"):
        pass
    assert silent.spans == []


# --------------------------------------------------------------------- compare
def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert verdict(base, base, "lower", 0.10) == "unchanged"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.10) == "regressed"
    assert verdict(base, [v * 1.2 for v in base], "higher", 0.10) == "improved"
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.10) == "improved"
    noisy = [100.0, 130.0, 80.0, 120.0, 70.0, 125.0, 75.0, 110.0, 90.0, 100.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.10) == "unresolved"


def sweep_file(path, workloads) -> str:
    metrics = {name: {"value": 1.0, "unit": entry["unit"]}
               for name, entry in declared("end_to_end").items()}
    runs = [{"workload": w, "correct": True, "attempted": 10, "failed": 0,
             "metrics": metrics, "raw": {}} for w in workloads for _ in range(3)]
    path.write_text(json.dumps({"label": path.stem, "runs": runs}), encoding="utf-8")
    return str(path)


def test_compare_fails_when_the_change_lacks_a_workload(tmp_path, monkeypatch, capsys):
    a = sweep_file(tmp_path / "a.json", list(PROFILES))
    monkeypatch.setattr(sys, "argv", ["compare.py", a, a])
    assert compare.main() == 0
    b = sweep_file(tmp_path / "b.json", list(PROFILES)[:2])
    monkeypatch.setattr(sys, "argv", ["compare.py", a, b])
    assert compare.main() == 1
    assert f"{list(PROFILES)[2]:<11}missing from B" in capsys.readouterr().out
