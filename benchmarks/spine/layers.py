"""Per-layer metrics of a traced run: every layer measured from outside.

Three sources, all through public functions only:

* **spans** the stages recorded around their calls (``spans.totals``): draw,
  projection, refresh, update and request times per unit of work;
* **counts** from the objects' own public stats (accept ratios, revisions,
  cache hits): these repeat exactly for one seed;
* **probes**: short dedicated calls into a layer (index build, weight build,
  pickling, the gates...), each inside a span, the median of a few repeats.

The **budget** replays the canonical request (first join, SUM, rel_error
0.05, warm path) step by step with the request's own seeds, so its parts are
the very work ``SamplingService.handle`` did; what the replay cannot see from
outside is ``budget.unattributed_ms`` = handle - the replayed parts.

Predictions (which end-to-end metric each layer metric should move, and on
which workload) are in README.md.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from checks import Outcome
from fixture import derive
from loadgen import arrival_schedule, closed_loop, request_of
from report import percentile
from spans import totals
from stages import Context, Serve, aggregate_specs, run_suite

from repro.aqp import AggregateAccumulator, SamplerPlanner, aggregate, planning_budget
from repro.cache import SampleCache
from repro.core import SetUnionSampler
from repro.estimation import HistogramUnionEstimator, RandomWalkUnionEstimator
from repro.joins import UnionMembershipIndex, build_join_tree
from repro.parallel import ParallelSamplerPool, run_shard, sequential_reference
from repro.relational import Relation
from repro.sampling import (
    ExactWeightFunction,
    ExtendedOlkenWeightFunction,
    JoinSampler,
    SampleBlock,
    WanderJoin,
)
from repro.server import (
    AdmissionController,
    HealthMonitor,
    OverloadConfig,
    OverloadGate,
    SamplingService,
    ServerClient,
)
from repro.utils.rng import spawn_rngs

Samples = Dict[str, List[float]]


class Probe:
    """Times calls inside spans and files the readings under metric names."""

    def __init__(self, context: Context) -> None:
        self.span = context.tracer.span
        self.samples: Samples = {}

    def time(self, metric: str, fn: Callable[..., object], *, scale: float,
             repeats: int = 3, per: float = 1.0,
             setup: Optional[Callable[[], object]] = None) -> object:
        """``repeats`` readings of ``fn()`` in ``1/scale`` seconds per ``per``
        units; with ``setup``, of ``fn(setup())``, the set-up untimed."""
        result = None
        for _ in range(repeats):
            args = () if setup is None else (setup(),)
            with self.span(metric):
                started = time.perf_counter()
                result = fn(*args)
                elapsed = time.perf_counter() - started
            self.samples.setdefault(metric, []).append(elapsed * scale / per)
        return result

    def put(self, metric: str, *values: float) -> None:
        self.samples.setdefault(metric, []).extend(float(v) for v in values)


MS, US, NS = 1e3, 1e6, 1e9


# ------------------------------------------------------------- while serving
@dataclass
class ServerProbe:
    """Readings that need the server child alive (milliseconds, req/s)."""

    closed_rps_1: float
    wire_ms: List[float]  # the canonical request over HTTP
    handle_ms: List[float]  # the same request handled in process, alternated
    wire_sum_ms: List[float]  # SUM requests of the one-client closed loop
    payload: Dict[str, object]  # the canonical request's answer


def probe_server(context: Context, serve: Serve) -> ServerProbe:
    """What needs the server child alive: one waiting client, and the
    canonical request over the wire, alternated with the same request handled
    in process so both see the same host."""
    profile = context.profile
    _, picks = arrival_schedule(1.0, profile.closed_per_slice, len(serve.catalogue),
                                derive(context.seed, 42))
    replies, wall = closed_loop(serve.port, serve.catalogue, picks, 1, context.tracer)
    client = ServerClient(port=serve.port, timeout=30.0)
    request = canonical_request(context)
    wire, handle = [], []
    with SamplingService(workload=context.fixture.workload, warm_on_start=False) as service:
        payload = service.handle(dict(request))  # builds the warm prototype, untimed
        for _ in range(15):
            started = time.perf_counter()
            with context.tracer.span("budget.wire"):
                client.request(request)
            middle = time.perf_counter()
            with context.tracer.span("budget.handle"):
                service.handle(dict(request))
            wire.append((middle - started) * MS)
            handle.append((time.perf_counter() - middle) * MS)
    return ServerProbe(
        closed_rps_1=sum(r.ok for r in replies) / wall,
        wire_ms=wire,
        handle_ms=handle,
        wire_sum_ms=[r.latency * MS for r in replies if r.kind == "sum" and r.ok],
        payload=payload,
    )


def canonical_request(context: Context) -> Dict[str, object]:
    """ROADMAP's canonical request: first join, SUM, rel_error 0.05, warm."""
    return request_of("sum", context.profile, context.fixture.first.name,
                      derive(context.seed, 70))


# ------------------------------------------------------------------ from spans
def from_stages(context: Context, stages: Sequence, samples: Samples, probe: Probe) -> None:
    """Layer metrics that are ratios of recorded spans and public counts."""
    stage = {s.name: s for s in stages}
    spans = totals(context.tracer.spans, measured_only=True)

    def seconds(name: str) -> float:
        return spans[name]["self_seconds"]

    join = stage["join_draw"].counts
    probe.put("sampling.block_ns_per_sample",
              seconds("sampling.sample_block") * NS / join["accepted"])
    probe.put("sampling.value_columns_ns_per_sample",
              seconds("sampling.value_columns") * NS / join["accepted"])
    probe.put("sampling.concat_ns_per_sample",
              seconds("sampling.concat") * NS / join["accepted"])
    probe.put("sampling.accept_ratio", join["accepted"] / join["attempts"])

    union = stage["union_draw"].counts
    runs = spans["core.online_init"]["count"]
    probe.put("core.online_init_ms", seconds("core.online_init") * MS / runs)
    probe.put("core.online_us_per_iter",
              seconds("core.online_sample") * US / union["steady_iterations"])
    probe.put("core.online_accept_ratio", union["accepted"] / union["iterations"])
    for name in ("revisions", "reused_accepted", "backtrack_rounds"):
        probe.put(f"core.online_{name}", union[name])

    aqp = stage["aqp"]
    probe.put("aqp.samples_per_answer.sum", statistics.median(aqp.accepted["sum"]))
    probe.put("aqp.samples_per_answer.groupby",
              statistics.median(aqp.accepted["groupby"]))
    cache = aqp.cache.stats_dict()
    probe.put("cache.hit_ratio", cache["hits"] / max(cache["hits"] + cache["misses"], 1))
    probe.put("cache.cached_sample_share", aqp.counts["cached_samples"]
              / max(aqp.counts["cached_samples"] + aqp.counts["fresh_samples"], 1))
    probe.put("cache.resident_bytes", cache["bytes"])

    update = stage["update"].counts
    probe.put("dynamic.batch_gen_ms", seconds("dynamic.batch") * MS / update["batches"])
    probe.put("dynamic.apply_batch_ms",
              seconds("dynamic.apply_batch") * MS / update["batches"])
    probe.put("dynamic.rows_per_batch", update["rows"] / update["batches"])
    probe.put("sampling.refresh_ms", seconds("sampling.refresh") * MS / update["batches"])

    serve = stage["serve"]
    latencies = [r.latency * MS for r in serve.open]
    probe.put("server.open_p95_ms", percentile(latencies, 0.95))
    probe.put("server.open_p99_ms", percentile(latencies, 0.99))
    probe.put("server.gen_late_p99_ms",
              percentile([r.late * MS for r in serve.open], 0.99))
    everything = [*serve.open, *serve.closed]
    probe.put("server.shed_share", sum(r.shed for r in everything) / len(everything))
    probe.put("host.calibration_ms", *samples["host.calibration_ms"])


def trace_overhead(context: Context, stage, probe: Probe, pairs: int = 6) -> None:
    """Traced vs untraced time of the same stage, alternated."""
    tracer = context.tracer
    rates: Dict[bool, List[float]] = {True: [], False: []}
    for index in range(2 * pairs):
        tracer.enabled = index % 2 == 0
        rates[tracer.enabled].append(stage.rep(index)["join_samples_per_s"])
    tracer.enabled = True
    probe.put("trace.overhead_share",
              statistics.median(rates[False]) / statistics.median(rates[True]) - 1.0)


# --------------------------------------------------------------------- probes
def probe_relational(context: Context, probe: Probe, gc_walk_ms: float) -> None:
    fixture = context.fixture
    query = fixture.first
    relation = max(query.relations.values(), key=len)
    condition = next(c for c in query.conditions
                     if relation.name in (c.left_relation, c.right_relation))
    key = (condition.left_attribute if condition.left_relation == relation.name
           else condition.right_attribute)

    def fresh() -> Relation:
        return Relation(relation.name, relation.schema, relation.rows)

    def build_columns(copy: Relation) -> None:
        for attribute in copy.attribute_names:
            copy.column_array(attribute)

    probe.time("relational.index_build_ms",
               lambda copy: copy.sorted_index_on_columns([key]), scale=MS, setup=fresh)
    probe.time("relational.columns_build_ms", build_columns, scale=MS, setup=fresh)
    copy = fresh()  # with every cache built, so inserts and deletes maintain them all
    copy.sorted_index_on_columns([key])
    build_columns(copy)
    rows = list(copy.rows[:1000])

    def insert() -> None:
        copy.extend(rows)
        copy.index_on(key)  # inserts are applied to the caches on next access

    for _ in range(3):
        probe.time("relational.insert_us_per_row", insert, scale=US, repeats=1,
                   per=len(rows))
        tail = range(len(copy) - len(rows), len(copy))
        probe.time("relational.delete_us_per_row", lambda: copy.delete_rows(tail),
                   scale=US, repeats=1, per=len(rows))
    seen = {id(r): r for q in fixture.queries for r in q.relations.values()}
    probe.put("relational.resident_bytes",
              sum(sum(r.cache_nbytes().values()) for r in seen.values()))
    probe.put("relational.gc_walk_ms", gc_walk_ms)
    probe.put("tpch.generate_s", fixture.generate_s)
    probe.put("tpch.build_queries_s", fixture.build_queries_s)


def probe_joins(context: Context, probe: Probe) -> None:
    queries = context.fixture.queries
    first = queries[0]
    probe.time("joins.tree_build_ms", lambda: build_join_tree(first), scale=MS, repeats=5)
    index = probe.time("joins.membership_build_ms",
                       lambda: UnionMembershipIndex(queries), scale=MS)
    values = JoinSampler(first, seed=derive(context.seed, 71)).sample_block(500).values(first)
    others = [q.name for q in queries[1:]]

    def probe_all() -> int:
        return sum(index.contains(name, value) for value in values for name in others)

    hits = probe.time("joins.membership_probe_us", probe_all, scale=US,
                      per=len(values) * len(others))
    probe.put("joins.probe_hit_ratio", hits / (len(values) * len(others)))


def probe_sampling(context: Context, probe: Probe) -> JoinSampler:
    """Returns a warm exact-weight prototype for the probes that follow."""
    profile, query = context.profile, context.fixture.first
    probe.time("sampling.weights_ew_build_ms", lambda: ExactWeightFunction(query), scale=MS)
    probe.time("sampling.weights_eo_build_ms",
               lambda: ExtendedOlkenWeightFunction(query), scale=MS)
    prototype = probe.time("sampling.warm_ms", JoinSampler.warm, scale=MS,
                           setup=lambda: JoinSampler(query, weights="ew", seed=0))
    olken = JoinSampler(query, weights="eo", seed=derive(context.seed, 72)).warm()
    olken.sample_block(profile.join_block_size)
    for _ in range(5):
        before = olken.stats.attempts
        started = time.perf_counter()
        with probe.span("sampling.eo_block"):
            olken.sample_block(profile.join_block_size)
        elapsed = time.perf_counter() - started
        olken.pop_buffered_blocks()
        probe.put("sampling.eo_ns_per_attempt",
                  elapsed * NS / (olken.stats.attempts - before))
    probe.put("sampling.eo_accept_ratio", olken.stats.acceptance_rate)
    block = prototype.sample_block(profile.join_block_size)
    probe.time("sampling.boxing_ns_per_sample", lambda: block.values(query),
               scale=NS, per=len(block))
    probe.time("sampling.split_us",
               lambda: prototype.split(1, seed=7, share_plans=True), scale=US, repeats=25)
    walker = WanderJoin(query, seed=derive(context.seed, 73))
    walker.walk_block(profile.join_block_size)
    probe.time("sampling.wander_ns_per_walk",
               lambda: walker.walk_block(profile.join_block_size),
               scale=NS, per=profile.join_block_size, repeats=5)
    return prototype


def probe_estimation(context: Context, probe: Probe, outcome: Outcome) -> None:
    queries = context.fixture.queries
    seed = derive(context.seed, 74)
    probe.time("estimation.histogram_ms",
               lambda: HistogramUnionEstimator(queries, join_size_method="eo").estimate(),
               scale=MS)
    probe.time("estimation.random_walk_ms",
               lambda: RandomWalkUnionEstimator(queries, walks_per_join=500,
                                                seed=seed).estimate(), scale=MS)
    small, exact = outcome.check_queries, outcome.check_union_size
    estimators = {
        "histogram": HistogramUnionEstimator(small, join_size_method="eo"),
        "random_walk": RandomWalkUnionEstimator(small, walks_per_join=500, seed=seed),
    }
    for name, estimator in estimators.items():
        probe.put(f"estimation.union_size_ratio_err.{name}",
                  abs(estimator.estimate().union_size / exact - 1.0))


def probe_core(context: Context, probe: Probe) -> None:
    profile, queries = context.profile, context.fixture.queries
    count = profile.union_first
    for mode, metric in (("record", "core.setunion_us_per_sample"),
                         ("strict", "core.setunion_strict_us_per_sample")):
        def draw() -> object:
            estimator = HistogramUnionEstimator(queries, join_size_method="eo")
            sampler = SetUnionSampler(queries, estimator,
                                      seed=derive(context.seed, 75), mode=mode)
            return sampler.sample(count)

        probe.time(metric, draw, scale=US, per=count)


def probe_aqp(context: Context, probe: Probe, prototype: JoinSampler) -> None:
    profile, fixture = context.profile, context.fixture
    query = fixture.first
    specs = aggregate_specs(profile)
    budget = planning_budget(profile.aqp_sum_rel_error)
    probe.time("aqp.plan_ms",
               lambda: SamplerPlanner([query], target_samples=budget).plan(),
               scale=MS, repeats=5)
    sampler = prototype.split(1, seed=derive(context.seed, 76), share_plans=True)[0]
    blocks = []
    for _ in range(2):
        blocks.append(sampler.sample_block(profile.probe_samples))
        sampler.pop_buffered_blocks()  # a block served from surplus carries no attempts
    columns = [block.value_columns(query) for block in blocks]
    for key, suffix in (("sum", ""), ("sum_by", "_grouped")):
        def filled(which: int) -> AggregateAccumulator:
            accumulator = AggregateAccumulator(specs[key], query.output_schema)
            accumulator.ingest_block(columns[which], attempts=blocks[which].attempts,
                                     weight=blocks[which].weight)
            return accumulator

        accumulator = probe.time(f"aqp.ingest{suffix}_ns_per_sample", lambda: filled(0),
                                 scale=NS, per=profile.probe_samples)
        probe.time(f"aqp.estimate{suffix}_ms_at_50k", accumulator.estimate, scale=MS)
        if not suffix:
            other = filled(1)
            probe.time("aqp.merge_ms", lambda mine: mine.merge(other), scale=MS,
                       setup=lambda: filled(0))
    probe.time("aqp.union_answer_ms",
               lambda: aggregate(fixture.queries, specs["sum"],
                                 rel_error=profile.serve_rel_error,
                                 seed=derive(context.seed, 77)), scale=MS)


def probe_cache(context: Context, probe: Probe, aqp_stage, prototype: JoinSampler) -> None:
    profile, query = context.profile, context.fixture.first
    cache = aqp_stage.cache
    entry = cache.peek(query, "ew")
    blocks, _ = cache.read(entry, 0)
    probe.time("cache.read_us_per_block", lambda: cache.read(entry, 0),
               scale=US, per=len(blocks), repeats=5)
    probe.time("cache.reweight_us_per_block",
               lambda: [b.reweighted(entry.blocks[0].weight) for b in blocks],
               scale=US, per=len(blocks), repeats=5)

    def publish_all() -> None:
        scratch = SampleCache()
        target = scratch.entry(query, "ew")
        for block in blocks:
            scratch.publish(target, block)

    probe.time("cache.publish_us_per_block", publish_all, scale=US, per=len(blocks),
               repeats=5)
    # The suite under a budget far below its stream: publish/evict, not read.
    thrash = SampleCache(max_bytes=profile.thrash_bytes)
    specs = list(aggregate_specs(profile).values())
    probe.time("cache.thrash_answer_ms",
               lambda: run_suite(query, specs, prototype, thrash,
                                 profile.aqp_suite_rel_error,
                                 derive(context.seed, 78), probe.span), scale=MS)
    probe.put("cache.evictions", thrash.stats_dict()["evictions"])


def probe_parallel(context: Context, probe: Probe, allowed_cpus) -> bool:
    """Pool probes; returns whether every pooled answer equalled the
    sequential reference bit for bit."""
    profile, query = context.profile, context.fixture.first
    spec = aggregate_specs(profile)["sum"]
    seed = derive(context.seed, 79)
    job = dict(seed=seed, method="exact-weight", shards=profile.pool_shards)

    def answer(accumulator) -> Tuple:
        overall = accumulator.estimate().overall
        return (overall.estimate, overall.ci_low, overall.ci_high,
                accumulator.attempts, accumulator.accepted)

    def merged(results) -> Tuple:
        total = None
        for result in results:
            total = result.accumulator if total is None else total.merge(result.accumulator)
        return answer(total)

    identical = True
    with ParallelSamplerPool(workers=2, execution="thread") as pool:
        tasks = probe.time("parallel.plan_ms",
                           lambda: pool.plan_tasks(query, profile.pool_samples,
                                                   spec=spec, **job), scale=MS)
        result = probe.time("parallel.run_shard_ms", lambda: run_shard(tasks[0]), scale=MS)
        reference = merged(probe.time("sequential_ms",
                                      lambda: sequential_reference(tasks), scale=MS))
        report = probe.time("parallel.thread_job_ms",
                            lambda: pool.aggregate(query, spec, profile.pool_samples,
                                                   **job), scale=MS)
        identical &= answer(report.accumulator) == reference
        stats = [pool.stats]
    with ParallelSamplerPool(workers=1, execution="thread") as inline:
        probe.time("supervised_ms", lambda: inline.run(tasks), scale=MS)
    probe.put("resilience.supervision_overhead_ms",
              statistics.median(probe.samples.pop("supervised_ms"))
              - statistics.median(probe.samples.pop("sequential_ms")))
    probe.time("parallel.task_pickle_ms", lambda: pickle.dumps(tasks[0]), scale=MS)
    payload = probe.time("parallel.result_pickle_ms", lambda: pickle.dumps(result), scale=MS)
    probe.put("parallel.result_pickle_mb", len(payload) / 2**20)
    if allowed_cpus is not None:  # the workers inherit the affinity: give them every core
        os.sched_setaffinity(0, allowed_cpus)
    with ParallelSamplerPool(workers=2, execution="process", job_timeout=150.0) as pool:
        report = probe.time("parallel.process_job_s",
                            lambda: pool.aggregate(query, spec, profile.pool_samples,
                                                   **job), scale=1.0, repeats=1)
        identical &= answer(report.accumulator) == reference
        stats.append(pool.stats)
    probe.put("resilience.retries", sum(s.retries for s in stats))
    probe.put("resilience.degradations", sum(s.degradations for s in stats))
    return identical


def probe_budget(context: Context, probe: Probe, server: ServerProbe) -> bool:
    """The first layer budget; returns whether the replay reproduced the
    served answer (it must: same request, same seeds, same calls)."""
    profile, fixture = context.profile, context.fixture
    query = fixture.first
    request = canonical_request(context)
    spec = aggregate_specs(profile)["sum"]
    budget = planning_budget(profile.serve_rel_error)
    repeats = 7
    payload = server.payload
    served = payload["result"]["report"]
    probe.time("budget.encode_ms", lambda: json.dumps(payload), scale=MS, repeats=repeats)
    probe.samples["server.json_encode_us"] = [
        v * 1e3 for v in probe.samples["budget.encode_ms"]]
    body = json.dumps(request).encode("utf-8")
    probe.time("server.json_decode_us", lambda: json.loads(body.decode("utf-8")),
               scale=US, repeats=repeats)

    prototype = JoinSampler(query, weights="ew", seed=0).warm()
    admission = AdmissionController()
    config = OverloadConfig()
    gate = OverloadGate(config, HealthMonitor(config, time.monotonic), time.monotonic)
    parts: Dict[str, List[float]] = {name: [] for name in (
        "price", "gates", "split", "sample_block", "value_columns", "ingest", "estimate")}
    reproduced = True
    for _ in range(repeats):
        spent = dict.fromkeys(parts, 0.0)

        def charge(part: str, fn: Callable[[], object]) -> object:
            with probe.span(f"budget.{part}"):
                started = time.perf_counter()
                result = fn()
                spent[part] += time.perf_counter() - started
            return result

        priced = charge("price", lambda: admission.price([query], budget, warm=True))
        gate_ticket = charge("gates", lambda: gate.admit(priced))
        ticket = charge("gates", lambda: admission.admit([query], budget, warm=True,
                                                         priced=priced))
        clone_rng, _ = spawn_rngs(request["seed"], 2)
        clone = charge("split", lambda: prototype.split(1, seed=clone_rng,
                                                        share_plans=True))[0]
        accumulator = AggregateAccumulator(spec, query.output_schema)
        step = 256
        while accumulator.accepted < served["accepted"]:
            before = clone.stats.attempts
            block = charge("sample_block", lambda: SampleBlock.concat(
                [clone.sample_block(step), *clone.pop_buffered_blocks()]))
            columns = charge("value_columns", lambda: block.value_columns(query))
            charge("ingest", lambda: accumulator.ingest_block(
                columns, attempts=clone.stats.attempts - before, weight=block.weight))
            report = charge("estimate", accumulator.estimate)
            step = min(step * 2, 1024)
        charge("gates", ticket.release)
        charge("gates", gate_ticket.release)
        for part, seconds in spent.items():
            parts[part].append(seconds * MS)
        reproduced &= report.overall.estimate == served["groups"][0]["estimate"]
    handle_ms = statistics.median(server.handle_ms)
    encode_ms = statistics.median(probe.samples["budget.encode_ms"])
    replayed = 0.0
    for part, readings in parts.items():
        probe.samples[f"budget.{part}_ms"] = [statistics.median(readings)]
        replayed += statistics.median(readings)
    probe.put("server.price_us", *(ms * 1e3 for ms in parts["price"]))
    probe.put("server.gate_us", *(ms * 1e3 for ms in parts["gates"]))
    # Single readings, so that the parts add up to handle_ms exactly.
    probe.samples["budget.handle_ms"] = [handle_ms]
    probe.samples["budget.encode_ms"] = [encode_ms]
    probe.put("budget.unattributed_ms", handle_ms - replayed)
    probe.put("budget.http_ms", statistics.median(server.wire_ms) - handle_ms - encode_ms)
    return reproduced


def measure_layers(
    context: Context,
    stages: Sequence,
    samples: Samples,
    outcome: Outcome,
    *,
    server: ServerProbe,
    child_startup_s: float,
    server_rss_mb: float,
    gc_walk_ms: float,
    allowed_cpus,
) -> Samples:
    """Every per-layer metric of BENCHMARK.json; records the traced run's
    extra checks on ``outcome``."""
    probe = Probe(context)
    stage = {s.name: s for s in stages}
    from_stages(context, stages, samples, probe)
    trace_overhead(context, stage["join_draw"], probe)
    probe_relational(context, probe, gc_walk_ms)
    probe_joins(context, probe)
    prototype = probe_sampling(context, probe)
    probe_estimation(context, probe, outcome)
    probe_core(context, probe)
    probe_aqp(context, probe, prototype)
    probe_cache(context, probe, stage["aqp"], prototype)
    outcome.record("budget replay reproduces the served answer",
                   probe_budget(context, probe, server))
    for kind, metric in (("sample", "server.handle_sample_ms"),
                         ("sum", "server.handle_aggregate_ms"),
                         ("groupby", "server.handle_groupby_ms")):
        probe.put(metric, *(s * MS for s in outcome.handle_seconds[kind]))
    probe.put("server.http_overhead_ms",
              statistics.median(server.wire_sum_ms)
              - statistics.median(probe.samples["server.handle_aggregate_ms"]))
    probe.put("server.closed_rps_1", server.closed_rps_1)
    probe.put("server.startup_s", child_startup_s)
    probe.put("server.peak_rss_mb", server_rss_mb)
    outcome.record("pool answers equal sequential_reference bit for bit",
                   probe_parallel(context, probe, allowed_cpus))
    return probe.samples


__all__ = ["measure_layers", "probe_server"]
