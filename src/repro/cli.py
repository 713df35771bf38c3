"""Command-line interface.

Four subcommands cover the common workflows:

``python -m repro sample``
    Build a workload (UQ1/UQ2/UQ3), estimate union parameters with the chosen
    warm-up method, draw N samples from the set union and print a summary.

``python -m repro estimate``
    Compare the histogram-based and random-walk warm-up estimators against the
    exact FullJoinUnion baseline on a workload.

``python -m repro aggregate``
    Approximate COUNT/SUM/AVG (optionally grouped) over one join or the whole
    union of a workload, with confidence intervals and the cost-based
    ``--method auto`` sampler planner (``--json`` for machine-readable
    output).

``python -m repro figure``
    Regenerate one of the paper's figures (fig4a ... fig6b, ablation-bernoulli,
    ablation-template) and print its series table.

``python -m repro serve``
    Load a workload once and serve concurrent sample/aggregate requests over
    JSON-over-HTTP with warm per-query state, admission control, and
    epoch-consistent answers (see ``docs/server.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.errors import mean_ratio_error
from repro.aqp import AggregateSpec, OnlineAggregator
from repro.aqp.online import planning_budget
from repro.aqp.sources import ChunkedDraw, CoverDraw, draw_chunks, union_takes
from repro.cache import SampleCache
from repro.core.online_sampler import OnlineUnionSampler
from repro.core.union_sampler import (
    BernoulliUnionSampler,
    DisjointUnionSampler,
    SetUnionSampler,
)
from repro.estimation.exact import FullJoinUnionEstimator
from repro.estimation.histogram import HistogramUnionEstimator
from repro.estimation.random_walk import RandomWalkUnionEstimator
from repro.experiments.config import ExperimentConfig
from repro.experiments import figures as figure_module
from repro.resilience import EmptyResultError, JobDeadlineExceeded
from repro.tpch.workloads import build_workload
from repro.utils.rng import spawn_rngs

#: figure name -> callable(config) -> SeriesTable
FIGURES: Dict[str, Callable] = {
    "fig4a": lambda cfg: figure_module.run_fig4_ratio_error("UQ1", cfg),
    "fig4b": lambda cfg: figure_module.run_fig4_ratio_error("UQ3", cfg),
    "fig4c": lambda cfg: figure_module.run_fig4_runtime("UQ1", cfg),
    "fig4d": lambda cfg: figure_module.run_fig4_runtime("UQ3", cfg),
    "fig5a": lambda cfg: figure_module.run_fig5a_ratio_error(cfg),
    "fig5b": lambda cfg: figure_module.run_fig5b_data_scale(cfg),
    "fig5c": lambda cfg: figure_module.run_fig5_sample_size("UQ1", cfg),
    "fig5d": lambda cfg: figure_module.run_fig5_sample_size("UQ2", cfg),
    "fig5e": lambda cfg: figure_module.run_fig5_sample_size("UQ3", cfg),
    "fig5f": lambda cfg: figure_module.run_fig5_breakdown("UQ1", cfg),
    "fig5g": lambda cfg: figure_module.run_fig5_breakdown("UQ2", cfg),
    "fig5h": lambda cfg: figure_module.run_fig5_breakdown("UQ3", cfg),
    "fig6a": lambda cfg: figure_module.run_fig6_reuse_time(cfg),
    "fig6b": lambda cfg: figure_module.run_fig6_reuse_per_sample(cfg),
    "ablation-bernoulli": lambda cfg: figure_module.run_ablation_bernoulli(cfg),
    "ablation-template": lambda cfg: figure_module.run_ablation_template(cfg),
}

SAMPLERS = ("set-union", "online", "bernoulli", "disjoint")
WARMUPS = ("histogram", "random-walk", "exact")
AGGREGATES = ("count", "sum", "avg")
METHODS = ("auto", "exact-weight", "olken", "wander-join", "online-union")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sampling over Union of Joins — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="sample the set union of a workload")
    _add_workload_arguments(sample)
    sample.add_argument("--samples", type=int, default=200, help="number of samples to draw")
    sample.add_argument("--sampler", choices=SAMPLERS, default="set-union")
    sample.add_argument("--warmup", choices=WARMUPS, default="histogram")
    sample.add_argument("--weights", choices=("ew", "eo", "auto"), default="ew",
                        help="single-join sampling weights "
                        "(auto = cost-based planner choice)")
    sample.add_argument("--workers", type=int, default=1,
                        help="worker count; >1 draws the union through that "
                        "many cover sources in the chunk loop a served union "
                        "sample runs, so the samples depend on the seed and "
                        "the worker count (incompatible with "
                        "--sampler/--warmup/--weights)")
    sample.add_argument("--deadline", type=float, default=None,
                        help="deadline in seconds (requires --workers > 1); "
                        "exceeding it exits with code 3 unless --allow-partial")
    sample.add_argument("--allow-partial", action="store_true",
                        help="on an exceeded deadline, print the samples "
                        "drawn so far instead of failing (requires "
                        "--workers > 1)")

    estimate = sub.add_parser("estimate", help="compare warm-up estimators on a workload")
    _add_workload_arguments(estimate)
    estimate.add_argument("--walks", type=int, default=500,
                          help="random-walk warm-up walks per join")

    aggregate = sub.add_parser(
        "aggregate", help="approximate aggregation with confidence intervals"
    )
    _add_workload_arguments(aggregate)
    aggregate.add_argument("--aggregate", choices=AGGREGATES, default="count",
                           help="aggregate function")
    aggregate.add_argument("--attribute", default=None,
                           help="output attribute for sum/avg")
    aggregate.add_argument("--group-by", default=None,
                           help="output attribute to group by")
    aggregate.add_argument("--target", choices=("join", "union"), default="join",
                           help="aggregate one join (bag semantics) or the whole "
                           "union (set semantics)")
    aggregate.add_argument("--query", default=None,
                           help="join name for --target join (default: first)")
    aggregate.add_argument("--method", choices=METHODS, default="auto",
                           help="sampler backend (auto = cost-based planner)")
    aggregate.add_argument("--rel-error", type=float, default=0.05,
                           help="stop when every CI half-width is below this "
                           "fraction of its estimate")
    aggregate.add_argument("--confidence", type=float, default=0.95)
    aggregate.add_argument("--ci", choices=("clt", "bootstrap"), default="clt",
                           help="confidence-interval method")
    aggregate.add_argument("--max-attempts", type=int, default=1_000_000)
    aggregate.add_argument("--workers", type=int, default=1,
                           help="sampler shards run per batch (>1 fans each "
                           "online-aggregation step out across cores)")
    aggregate.add_argument("--deadline", type=float, default=None,
                           help="wall-clock budget in seconds for the online-"
                           "aggregation loop; exceeding it before the error "
                           "target exits with code 3 unless --allow-partial")
    aggregate.add_argument("--allow-partial", action="store_true",
                           help="on an exceeded deadline, report the current "
                           "(degraded) estimate with its achieved — not "
                           "requested — relative error instead of failing")
    aggregate.add_argument("--cache", action=argparse.BooleanOptionalAction,
                           default=False,
                           help="share drawn sample blocks across runs "
                           "through the sample-cache tier (see docs/cache.md); "
                           "single-join targets with a JoinSampler backend "
                           "only, incompatible with --workers > 1")
    aggregate.add_argument("--repeat", type=int, default=1,
                           help="run the aggregate N times with seeds "
                           "seed..seed+N-1 and report the last run; with "
                           "--cache later runs re-consume the cached stream")
    aggregate.add_argument("--json", action="store_true",
                           help="print a machine-readable JSON report")

    figure = sub.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("name", choices=sorted(FIGURES), help="figure identifier")
    figure.add_argument("--scale-factor", type=float, default=0.001)
    figure.add_argument("--walks", type=int, default=300)
    figure.add_argument("--seed", type=int, default=2023)

    serve = sub.add_parser(
        "serve", help="serve concurrent sample/aggregate requests over HTTP"
    )
    _add_workload_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 binds an ephemeral port and "
                       "prints the actual one)")
    serve.add_argument("--max-request-seconds", type=float, default=30.0,
                       help="admission ceiling per request, in cost-model "
                       "seconds")
    serve.add_argument("--max-samples", type=int, default=1_000_000,
                       help="admission ceiling on samples per request")
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="concurrent sample/aggregate requests before "
                       "admission rejects instead of queueing")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip warming per-query prototypes at startup "
                       "(they are then built lazily on first use)")
    serve.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="enable the cross-request sample cache tier "
                       "(cached aggregate requests price near zero; stats "
                       "under /stats; see docs/cache.md).  Off by default "
                       "because shared draws make a response depend on the "
                       "requests that ran before it")
    serve.add_argument("--cache-bytes", type=int, default=None,
                       help="cache memory budget in bytes before LRU "
                       "eviction (default 64 MiB; requires --cache)")
    serve.add_argument("--no-overload", action="store_true",
                       help="disable the overload layer (health state "
                       "machine, load shedding, circuit breakers, watchdog; "
                       "see docs/overload.md)")
    serve.add_argument("--capacity-seconds", type=float, default=None,
                       help="priced-seconds the server executes concurrently "
                       "before queueing/shedding (default 60.0)")
    serve.add_argument("--backlog-seconds", type=float, default=None,
                       help="priced-seconds allowed to queue behind capacity "
                       "before new work is shed with 429 (default 30.0)")
    serve.add_argument("--connection-timeout", type=float, default=30.0,
                       help="per-connection socket read/write timeout in "
                       "seconds, the slow-loris bound (0 disables)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    return parser


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=("UQ1", "UQ2", "UQ3"), default="UQ1")
    parser.add_argument("--scale-factor", type=float, default=0.001)
    parser.add_argument("--overlap-scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=2023)


def _make_estimator(name: str, queries, args, seed=None):
    if name == "histogram":
        weights = getattr(args, "weights", "ew")
        if weights == "auto":
            # The histogram estimator only uses the method to size joins; its
            # cheap decentralized default is the extended-Olken variant.  The
            # per-join samplers still resolve "auto" through the planner.
            weights = "eo"
        return HistogramUnionEstimator(queries, join_size_method=weights)
    if name == "random-walk":
        return RandomWalkUnionEstimator(
            queries,
            walks_per_join=getattr(args, "walks", 500),
            seed=args.seed if seed is None else seed,
        )
    return FullJoinUnionEstimator(queries)


def command_sample(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.workers == 1 and (args.deadline is not None or args.allow_partial):
        print("error: --deadline and --allow-partial bound the parallel union "
              "draw; add --workers > 1", file=sys.stderr)
        return 2
    if args.workers > 1:
        # The parallel route draws through the union cover sources (no
        # warm-up); silently dropping an explicit sampler choice would
        # misreport what actually ran.
        overridden = [
            flag
            for flag, value, default in (
                ("--sampler", args.sampler, "set-union"),
                ("--warmup", args.warmup, "histogram"),
                ("--weights", args.weights, "ew"),
            )
            if value != default
        ]
        if overridden:
            print(f"error: --workers {args.workers} draws through the union cover sources, "
                  f"which ignore {', '.join(overridden)}; drop those flags or use --workers 1",
                  file=sys.stderr)
            return 2
    workload = build_workload(args.workload, args.scale_factor, args.overlap_scale, args.seed)
    queries = workload.queries
    if args.workers > 1:
        return _sample_union(args, workload, queries)
    # Derive independent streams for the warm-up estimator and the sampler:
    # seeding both with args.seed would replay the identical sequence in two
    # components that must draw independently (see repro.utils.rng).
    estimator_rng, sampler_rng = spawn_rngs(args.seed, 2)
    try:
        if args.sampler == "online":
            sampler = OnlineUnionSampler(queries, seed=sampler_rng, join_weights=args.weights)
        else:
            estimator = _make_estimator(args.warmup, queries, args, seed=estimator_rng)
            if args.sampler == "set-union":
                sampler = SetUnionSampler(queries, estimator, join_weights=args.weights,
                                          seed=sampler_rng)
            elif args.sampler == "bernoulli":
                sampler = BernoulliUnionSampler(queries, estimator, join_weights=args.weights,
                                                seed=sampler_rng)
            else:
                sampler = DisjointUnionSampler(queries, estimator, join_weights=args.weights,
                                               seed=sampler_rng)
        result = sampler.sample(args.samples)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"workload={workload.name} sampler={args.sampler} warmup={args.warmup} "
          f"weights={args.weights}")
    print(f"samples drawn      : {len(result)}")
    print(f"per-join samples   : {result.sources()}")
    print(f"iterations         : {result.stats.iterations} "
          f"(acceptance rate {result.stats.acceptance_rate:.2f})")
    print(f"time breakdown (s) : {result.stats.breakdown()}")
    print("first 5 samples:")
    for value in result.values()[:5]:
        print(f"  {value}")
    return 0


def union_sample(queries, count: int, seed: int, workers: int,
                 deadline: Optional[float] = None, allow_partial: bool = False) -> ChunkedDraw:
    """What ``repro sample --workers`` draws: ``count`` union values from
    ``workers`` cover sources, in the chunk loop a served union ``sample``
    runs, so the values depend on ``(seed, workers)``."""
    return draw_chunks(queries, partial(union_takes, queries, seed, workers), count,
                       deadline=deadline, allow_partial=allow_partial)


def _sample_union(args: argparse.Namespace, workload, queries) -> int:
    try:
        run = union_sample(queries, args.samples, args.seed, args.workers,
                           args.deadline, args.allow_partial)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except JobDeadlineExceeded as error:
        # Deadline failures get their own exit code so schedulers can tell
        # "ran out of time" from "could not run" (add --allow-partial to get
        # the samples drawn so far instead).
        print(f"error: {error}", file=sys.stderr)
        return 3
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    values, owners, attempts = [], [], 0
    if run.parts:
        union = CoverDraw.concat(run.parts)
        values, owners, attempts = union.rows(), union.owners.tolist(), union.attempts
    print(f"workload={workload.name} sampler=parallel backend=online-union "
          f"workers={args.workers}")
    print(f"samples drawn      : {run.drawn}")
    print(f"per-join samples   : {dict(Counter(queries[owner].name for owner in owners))}")
    print(f"attempts           : {attempts} (accepted {run.drawn})")
    if run.degraded:
        print(f"DEGRADED           : the deadline expired after {run.drawn} of "
              f"{args.samples} samples")
    print("first 5 samples:")
    for value in values[:5]:
        print(f"  {value}")
    return 0


def command_estimate(args: argparse.Namespace) -> int:
    workload = build_workload(args.workload, args.scale_factor, args.overlap_scale, args.seed)
    queries = workload.queries
    exact = FullJoinUnionEstimator(queries).estimate()
    histogram = HistogramUnionEstimator(queries, join_size_method="eo").estimate()
    walks = RandomWalkUnionEstimator(queries, walks_per_join=args.walks, seed=args.seed).estimate()
    print(f"workload={workload.name}  joins={workload.query_names}")
    print(f"{'method':<14} {'|U| estimate':>14} {'mean |J|/|U| error':>20}")
    print(f"{'exact':<14} {exact.union_size:14.1f} {0.0:20.4f}")
    print(f"{'histogram+EO':<14} {histogram.union_size:14.1f} "
          f"{mean_ratio_error(histogram, exact):20.4f}")
    print(f"{'random-walk':<14} {walks.union_size:14.1f} "
          f"{mean_ratio_error(walks, exact):20.4f}")
    return 0


def command_aggregate(args: argparse.Namespace) -> int:
    if args.aggregate in ("sum", "avg") and not args.attribute:
        print("error: --attribute is required for sum/avg aggregates", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 2
    if args.cache and args.workers > 1:
        print(
            "error: --cache shares one sequential draw stream and cannot "
            "feed sharded workers; drop --cache or use --workers 1",
            file=sys.stderr,
        )
        return 2
    if args.cache and args.target == "union":
        print(
            "error: --cache applies to single-join aggregates; union streams "
            "have per-join ownership and cannot be pooled (drop --cache)",
            file=sys.stderr,
        )
        return 2
    workload = build_workload(args.workload, args.scale_factor, args.overlap_scale, args.seed)
    if args.target == "union":
        queries = workload.queries
        if args.method not in ("auto", "online-union"):
            print(
                f"error: --method {args.method} cannot sample a union; "
                "use auto or online-union",
                file=sys.stderr,
            )
            return 2
    else:
        if args.method == "online-union":
            print(
                "error: --method online-union samples a union of joins; "
                "use --target union (or a single-join backend)",
                file=sys.stderr,
            )
            return 2
        if args.query and args.query not in workload.query_names:
            print(
                f"error: workload {workload.name} has no join {args.query!r}; "
                f"choose from {workload.query_names}",
                file=sys.stderr,
            )
            return 2
        queries = [workload.query(args.query) if args.query else workload.queries[0]]
    spec = AggregateSpec(
        args.aggregate,
        attribute=args.attribute,
        group_by=args.group_by,
    )
    cache = SampleCache() if args.cache else None
    # --repeat N replays the run with derived seeds; with --cache the later
    # runs re-consume the blocks the first run published, which is the whole
    # demonstration — the reported run is the last (most cached) one.
    for run_index in range(args.repeat):
        try:
            aggregator = OnlineAggregator(
                queries,
                spec,
                method=args.method,
                seed=args.seed + run_index,
                confidence=args.confidence,
                ci_method=args.ci,
                parallelism=args.workers,
                # Prime the cost-based planner with the sample demand the
                # error target implies (setup-heavy backends amortize over
                # tight runs).
                target_samples=planning_budget(args.rel_error, args.confidence),
                cache=cache,
            )
        except ValueError as error:
            # e.g. an attribute missing from the output schema, or a backend
            # that cannot sample the query shape.
            print(f"error: {error}", file=sys.stderr)
            return 2
        try:
            report = aggregator.until(
                args.rel_error,
                max_attempts=args.max_attempts,
                deadline=args.deadline,
                allow_partial=args.allow_partial,
            )
        except ValueError as error:
            # e.g. a negative --rel-error or --deadline.
            print(f"error: {error}", file=sys.stderr)
            return 2
        except JobDeadlineExceeded as error:
            # Out of time, not out of options: exit code 3 distinguishes an
            # exceeded deadline (retry with more time or --allow-partial) from
            # a run that cannot converge at all.
            print(f"error: {error}", file=sys.stderr)
            return 3
        except EmptyResultError as error:
            # --allow-partial with zero accepted samples: there is no honest
            # partial estimate (a zero-width CI around 0.0 would be a lie), so
            # this is an out-of-time failure, same exit code as the deadline.
            print(f"error: {error}", file=sys.stderr)
            return 3
        except RuntimeError as error:
            # Budget exhausted before the error target: report, don't
            # traceback.
            print(f"error: {error}", file=sys.stderr)
            return 1

    target = queries[0].name if args.target == "join" else f"union of {len(queries)} joins"
    if args.json:
        payload = {
            "workload": workload.name,
            "target": target,
            "method": args.method,
            "backend": aggregator.backend,
            "weights": aggregator.plan.weights,
            "batch_size": aggregator.batch_size,
            "workers": aggregator.parallelism,
            "rel_error": args.rel_error,
            "epochs_restarted": aggregator.epochs_restarted,
            "report": report.to_dict(),
        }
        if cache is not None:
            payload["cache"] = {
                "runs": args.repeat,
                "cached_samples": aggregator.cached_samples,
                "fresh_samples": aggregator.fresh_samples,
                **cache.stats_dict(),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"workload={workload.name} target={target} "
          f"method={args.method} backend={aggregator.backend}")
    print(f"aggregate          : {spec.describe()}")
    print(f"attempts/accepted  : {report.attempts} / {report.accepted}")
    if cache is not None:
        stats = cache.stats_dict()
        print(f"cache              : cached {aggregator.cached_samples} / "
              f"fresh {aggregator.fresh_samples} samples in the reported run "
              f"({stats['entries']} entries, {stats['blocks']} blocks, "
              f"{stats['bytes']} bytes)")
    if report.degraded:
        achieved = report.max_relative_half_width()
        achieved_text = "inf" if achieved == float("inf") else f"{achieved:.4f}"
        print(f"DEGRADED           : deadline hit before rel_error={args.rel_error}; "
              f"achieved rel error {achieved_text}")
    for group in report.groups():
        estimate = report.estimates[group]
        label = "overall" if not group else "group " + repr(tuple(group))
        print(f"{label:18s} : {estimate.estimate:.4f} "
              f"[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}] "
              f"({int(estimate.confidence * 100)}% {report.ci_method}, "
              f"rel ±{estimate.relative_half_width:.4f})")
    return 0


def command_figure(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        scale_factor=args.scale_factor,
        walks_per_join=args.walks,
        seed=args.seed,
        overlap_scales=(0.1, 0.3, 0.6),
        sample_sizes=(25, 50, 100),
        data_scales=(0.0005, 0.001, 0.002),
    )
    table = FIGURES[args.name](config)
    print(table.to_text())
    return 0


def command_serve(args: argparse.Namespace) -> int:
    # Deferred import: the server stack is only paid for by the one
    # subcommand that serves.
    from repro.server import (
        AdmissionLimits,
        OverloadConfig,
        SamplingService,
        start_server,
    )

    if args.port < 0 or args.port > 65535:
        print(f"error: --port must be in [0, 65535], got {args.port}", file=sys.stderr)
        return 2
    overload_flags = (args.capacity_seconds is not None
                      or args.backlog_seconds is not None)
    if args.no_overload and overload_flags:
        print("error: --capacity-seconds/--backlog-seconds tune the overload "
              "layer; drop --no-overload", file=sys.stderr)
        return 2
    if args.no_overload:
        overload = False
    elif overload_flags:
        defaults = OverloadConfig()
        try:
            overload = OverloadConfig(
                capacity_seconds=(defaults.capacity_seconds
                                  if args.capacity_seconds is None
                                  else args.capacity_seconds),
                backlog_seconds=(defaults.backlog_seconds
                                 if args.backlog_seconds is None
                                 else args.backlog_seconds),
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        overload = True
    if args.cache_bytes is not None and not args.cache:
        print("error: --cache-bytes sizes the sample cache; add --cache",
              file=sys.stderr)
        return 2
    cache = None
    if args.cache:
        try:
            cache = (SampleCache() if args.cache_bytes is None
                     else SampleCache(max_bytes=args.cache_bytes))
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        service = SamplingService(
            workload_name=args.workload,
            scale_factor=args.scale_factor,
            overlap_scale=args.overlap_scale,
            seed=args.seed,
            limits=AdmissionLimits(
                max_request_seconds=args.max_request_seconds,
                max_samples=args.max_samples,
                max_inflight=args.max_inflight,
            ),
            warm_on_start=not args.no_warm,
            cache=cache,
            overload=overload,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    server, thread = start_server(
        service, host=args.host, port=args.port, verbose=args.verbose,
        connection_timeout=(None if args.connection_timeout <= 0
                            else args.connection_timeout),
    )
    # The exact line (flushed!) the smoke harness and orchestrators wait for;
    # with --port 0 it is the only way to learn the bound port.
    print(f"serving workload={args.workload} on http://{args.host}:{server.port}",
          flush=True)
    try:
        thread.join()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        service.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "sample":
        return command_sample(args)
    if args.command == "estimate":
        return command_estimate(args)
    if args.command == "aggregate":
        return command_aggregate(args)
    if args.command == "figure":
        return command_figure(args)
    if args.command == "serve":
        return command_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
