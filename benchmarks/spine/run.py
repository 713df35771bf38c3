#!/usr/bin/env python3
"""The measurement spine: one command, every end-to-end metric, checked.

    python benchmarks/spine/run.py [--workload W] [--seed S] [--trace 1] [--smoke]

Builds the workload's fixture, starts the server child, prepares the five
stages (all of that is ``setup_s``), then advances the stages round-robin one
repetition at a time so host drift hits every metric alike, runs the
correctness gate, and prints each metric with its unit, quartiles and sample
count.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run).  Exit status is
non-zero when the gate fails; a run that cannot finish (the server child
unreachable, a stage raising) still ends in that line, with ``"correct":
false`` and the metrics it could not take as NaN.  Only where there is no
program to measure (no ``src/``) is there no result line.  ``--seconds`` is
the builder's contract, which passes ``run_seconds`` to every run: the fixed
repetition counts of profiles.py are sized for it and scale with it.  See
README.md beside this file.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()  # before the heavy imports: setup_s counts them

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Dict, List, Sequence, Tuple  # noqa: E402

import paths  # noqa: E402
from child import ServerChild, adopt_orphans, cpu_pair, stop_descendants  # noqa: E402
from profiles import NOMINAL_SECONDS, PROFILES, Profile  # noqa: E402
from report import declared, print_table, result_line, summarize, summarize_all  # noqa: E402
from spans import Tracer  # noqa: E402

#: iterations of the fixed pure-Python loop timed between all repetitions
CALIBRATION_ITERATIONS = 40_000
#: the loop's time on the reference host every timed metric is restated for
#: (about this sandbox's median, so normalised and raw values stay comparable)
CALIBRATION_REFERENCE_MS = 2.0
#: what is restated for the reference host: the stages that run on the
#: benchmark's own CPU, where the calibration loop runs too.  The serve stage's
#: time is mostly the server child's, on the other CPU, which the loop does not
#: observe (normalising it widened its spread, README.md); set-up is one reading
NORMALISED = frozenset({
    "join_samples_per_s", "union_first_1k_s", "union_samples_per_s", "aqp_sum_ms",
    "aqp_groupby_ms", "aqp_cached_ms", "update_rows_per_s", "fresh_block_ms",
})
#: throughput is work over time: equal slices pool into the harmonic mean of
#: their rates; every other metric is the median of its readings
REDUCERS = {"serve_rps": statistics.harmonic_mean}


def calibration_ms() -> float:
    """A fixed interpreter-bound loop: its time moves with the host, not the program."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return (time.perf_counter() - started) * 1e3


def measure(stages: Sequence, tracer: Tracer) -> Dict[str, List[Tuple[float, float]]]:
    """Round-robin over the stages; collect only between repetitions.

    Returns ``metric -> [(reading, calibration ms around it), ...]``: the
    calibration loop runs between all repetitions, and a reading is paired
    with the mean of the loop's times just before and just after it.
    """
    readings: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    before = calibration_ms()
    for index in range(max(stage.reps for stage in stages)):
        for stage in stages:
            if index >= stage.reps:
                continue
            with tracer.span(f"stage.{stage.name}", op=f"{stage.name}#{index}"):
                values = stage.rep(index)
            after = calibration_ms()
            around = (before + after) / 2.0
            readings["host.calibration_ms"].append((after, after))
            for metric, value in values.items():
                for reading in value if isinstance(value, list) else [value]:
                    readings[metric].append((reading, around))
            gc.collect()
            before = after
    return readings


def normalise(
    readings: Dict[str, List[Tuple[float, float]]], end_to_end: Dict[str, Dict[str, object]]
) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """``(normalised samples, raw samples of what was normalised)``.

    The host's speed drifts by +-10% over tens of seconds and the calibration
    loop tracks it (README.md shows the spread before and after), so the
    readings of ``NORMALISED`` metrics are restated for a reference host on
    which the loop takes ``CALIBRATION_REFERENCE_MS``: times scale with the
    host's speed factor, rates against it.
    """
    samples: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    for metric, pairs in readings.items():
        values = [value for value, _ in pairs]
        if metric not in NORMALISED:
            samples[metric] = values
            continue
        raw[metric] = values
        if end_to_end[metric]["better"] == "higher":
            samples[metric] = [v * c / CALIBRATION_REFERENCE_MS for v, c in pairs]
        else:
            samples[metric] = [v * CALIBRATION_REFERENCE_MS / c for v, c in pairs]
    raw["host.calibration_ms"] = samples["host.calibration_ms"]
    return samples, raw


def resolve_profile(args: argparse.Namespace) -> Profile:
    profile = PROFILES[args.workload]
    profile = profile.smoke() if args.smoke else profile.scaled(args.seconds)
    return profile.traced() if args.trace and not args.smoke else profile


def failure_line(stages: Sequence, units: Dict[str, Dict[str, object]]) -> str:
    """The result line of a run that could not finish: incorrect, nothing measured.

    What broke counts as one more operation, attempted and failed.
    """
    return result_line(
        False,
        sum(stage.attempted for stage in stages) + 1,
        sum(stage.failed for stage in stages) + 1,
        {name: summarize([]) for name in units},
        units,
    )


def run_workload(args: argparse.Namespace, started: float) -> int:
    if not paths.SRC.is_dir():
        raise SystemExit(f"no program to measure: {paths.SRC} is missing")
    profile = resolve_profile(args)
    allowed_cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    bench_cpu, server_cpu = cpu_pair()
    if bench_cpu is not None:
        os.sched_setaffinity(0, {bench_cpu})
    # Spawned before the benchmark's own `import repro` (hence the imports
    # below), so the two start-ups overlap as they would on two machines.
    child = ServerChild(profile, server_cpu)
    stages: List = []
    try:
        import checks
        from fixture import build_fixture
        from stages import Context, build_stages

        tracer = Tracer(enabled=bool(args.trace))
        fixture = build_fixture(profile)
        context = Context(fixture, profile, args.seed, tracer)
        stages = build_stages(context, child)
        for stage in stages:
            with tracer.span(f"setup.{stage.name}"):
                stage.prepare()
        # A full collection walks every row tuple of the fixture; freezing
        # moves them out of the collector's reach so later collections only
        # see what the repetitions allocate.
        gc_started = time.perf_counter()
        gc.collect()
        gc_walk_ms = (time.perf_counter() - gc_started) * 1e3
        gc.freeze()
        gc.disable()
        setup_s = time.perf_counter() - started

        readings = measure(stages, tracer)
        end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
        samples, raw = normalise(readings, end_to_end)
        samples["setup_s"] = [setup_s]
        samples["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ]
        if args.trace:
            import layers

            server_samples = layers.probe_server(context, stages[3])
            server_rss_mb = child.peak_rss_mb()
        child.stop()
        gc.enable()

        attempted = sum(stage.attempted for stage in stages)
        failed = sum(stage.failed for stage in stages)
        outcome = checks.run_gate(context, stages)
        unmeasured = [name for name in end_to_end if not samples.get(name)]
        outcome.record("every end-to-end metric has a reading", not unmeasured,
                       " ".join(unmeasured))
        summaries = summarize_all(
            {name: samples.get(name, []) for name in end_to_end}, REDUCERS)
        raw_summaries = summarize_all(raw, REDUCERS)
        units = end_to_end
        if args.trace:
            layer_samples = layers.measure_layers(
                context, stages, samples, outcome, server=server_samples,
                child_startup_s=child.ready_after, server_rss_mb=server_rss_mb,
                gc_walk_ms=gc_walk_ms, allowed_cpus=allowed_cpus,
            )
            units = per_layer
            layer_summaries = summarize_all({name: layer_samples[name] for name in units})
            path = paths.RESULTS_DIR / f"trace-{profile.name}.json"
            tracer.write(path, {"workload": profile.name, "seed": args.seed,
                                "smoke": bool(args.smoke)})
            print(f"spans written to {path}")
    except Exception:
        traceback.print_exc()
        print("the run did not finish (traceback on stderr)")
        print(failure_line(stages, declared("per_layer" if args.trace else "end_to_end")))
        return 1
    finally:
        child.stop()

    print(f"workload {profile.name}: {profile.why}")
    print(f"seed {args.seed}, trace {args.trace}, smoke {bool(args.smoke)}, "
          f"wall {time.perf_counter() - started:.1f} s")
    print_table("end-to-end metrics (median over the run's repetitions, host-normalised)",
                summaries, end_to_end)
    calibration = raw_summaries["host.calibration_ms"]
    print_table(f"before normalisation (raw wall clock; host speed factor "
                f"{CALIBRATION_REFERENCE_MS / calibration.value:.4f} = "
                f"{CALIBRATION_REFERENCE_MS} ms / median calibration)",
                raw_summaries, {**end_to_end, **per_layer})
    print("raw " + json.dumps({name: s.value for name, s in raw_summaries.items()}))
    if args.trace:
        print_table("per-layer metrics (traced run)", layer_summaries, units)
        summaries = layer_summaries
    print("\ncorrectness gate")
    for name, passed, detail in outcome.results:
        print(f"  {'ok  ' if passed else 'FAIL'} {name}{': ' + detail if detail else ''}")
    print(f"operations attempted {attempted}, failed {failed}")
    print(result_line(outcome.correct, attempted, failed, summaries, units))
    return 0 if outcome.correct else 1


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*PROFILES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="measuring time the repetition counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, a few repetitions, same code path")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if args.workload == "all":
        # One process per workload: setup_s and peak_rss_mb are per process.
        return max(
            subprocess.call([sys.executable, __file__, *sys.argv[1:], "--workload", name])
            for name in PROFILES
        )
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin str hashing (set and dict order of string keys) by re-executing;
        # the start time travels along so setup_s still counts from the first
        # process start.
        env = dict(os.environ, PYTHONHASHSEED="0", SPINE_STARTED=repr(PROCESS_STARTED))
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    started = float(os.environ.pop("SPINE_STARTED", PROCESS_STARTED))
    # No process may outlive the run, whichever way it ends: descendants whose
    # parent ends become this process's children, a SIGTERM unwinds through
    # the `finally` blocks, and the last of them ends and reaps what is left.
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run_workload(args, started)
    finally:
        stop_descendants()


if __name__ == "__main__":
    sys.exit(main())
