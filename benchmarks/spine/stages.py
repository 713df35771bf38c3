"""The five stages every run executes: the benchmark's activities.

A stage is prepared once (state built, one untimed first call: part of
``setup_s``) and then repeated a fixed number of times; the runner advances
all stages round-robin, one repetition at a time.  ``rep`` returns that
repetition's readings of each end-to-end metric: one value, or a list where
the samples are single requests (the serve stage's latencies).  Every call
into a layer's public function sits in a span, which costs one attribute
test when tracing is off.

``counts`` holds what the traced run reports from the objects' own public
stats; the counts repeat exactly for one seed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from child import ServerChild
from fixture import Fixture, derive
from loadgen import Reply, arrival_schedule, build_catalogue, closed_loop, open_loop
from profiles import Profile
from spans import Tracer

from repro.aqp import AggregateSpec, OnlineAggregator, aggregate
from repro.cache import SampleCache
from repro.core import OnlineUnionSampler
from repro.dynamic import TPCHRefreshStream, apply_batch
from repro.sampling import JoinSampler, SampleBlock
from repro.server import ServerClient


@dataclass
class Context:
    """What every stage shares."""

    fixture: Fixture
    profile: Profile
    seed: int
    tracer: Tracer


class Stage:
    """Base: counters of operations attempted and failed, and public counts."""

    name = "stage"

    def __init__(self, context: Context, reps: int) -> None:
        self.context = context
        self.reps = reps
        self.attempted = 0
        self.failed = 0
        self.counts: Dict[str, float] = defaultdict(float)

    def prepare(self) -> None:
        raise NotImplementedError

    def rep(self, index: int) -> Dict[str, object]:
        raise NotImplementedError


# ------------------------------------------------------------------ join_draw
class JoinDraw(Stage):
    """Blocks of uniform samples from the family's first join, exact weights.

    One block is what ``OnlineAggregator`` does per step: ``sample_block``,
    drain the surplus, concatenate, project the output columns.
    """

    name = "join_draw"

    def __init__(self, context: Context) -> None:
        super().__init__(context, context.profile.join_reps)

    def prepare(self) -> None:
        c = self.context
        self.query = c.fixture.first
        self.sampler = JoinSampler(self.query, weights="ew", seed=derive(c.seed, 10))
        self.rep(-1)

    def rep(self, index: int) -> Dict[str, float]:
        profile, span = self.context.profile, self.context.tracer.span
        sampler, query = self.sampler, self.query
        accepted = 0
        before = sampler.stats.attempts
        started = time.perf_counter()
        for _ in range(profile.join_blocks):
            with span("sampling.sample_block"):
                block = sampler.sample_block(profile.join_block_size)
            with span("sampling.pop_buffered_blocks"):
                surplus = sampler.pop_buffered_blocks()
            with span("sampling.concat"):
                block = SampleBlock.concat([block, *surplus])
            with span("sampling.value_columns"):
                block.value_columns(query)
            accepted += len(block)
        elapsed = time.perf_counter() - started
        if index >= 0:
            self.attempted += profile.join_blocks
            self.counts["accepted"] += accepted
            self.counts["attempts"] += sampler.stats.attempts - before
        return {"join_samples_per_s": accepted / elapsed}


# ----------------------------------------------------------------- union_draw
class UnionDraw(Stage):
    """A fresh ``OnlineUnionSampler`` per repetition: warm-up, then drawing."""

    name = "union_draw"
    STATS = ("iterations", "accepted", "rejected_duplicate", "revisions",
             "reused_accepted", "backtrack_rounds")

    def __init__(self, context: Context) -> None:
        super().__init__(context, context.profile.union_reps)

    def prepare(self) -> None:
        self.rep(-1)

    def rep(self, index: int) -> Dict[str, float]:
        c = self.context
        profile, span = c.profile, c.tracer.span
        seed = derive(c.seed, 20, index + 1)
        started = time.perf_counter()
        with span("core.online_init"):
            sampler = OnlineUnionSampler(c.fixture.queries, seed=seed)
        with span("core.online_first"):
            sampler.sample(profile.union_first)
        first_done = time.perf_counter()
        iterations = sampler.stats.iterations
        with span("core.online_sample"):
            result = sampler.sample(profile.union_total)
        done = time.perf_counter()
        if index >= 0:
            self.attempted += 2
            self.failed += 2 * (len(result.samples) != profile.union_total)
            for name in self.STATS:
                self.counts[name] += getattr(sampler.stats, name)
            self.counts["steady_iterations"] += sampler.stats.iterations - iterations
        return {
            "union_first_1k_s": first_done - started,
            "union_samples_per_s": (profile.union_total - profile.union_first)
            / (done - first_done),
        }


# ------------------------------------------------------------------------ aqp
def aggregate_specs(profile: Profile) -> Dict[str, AggregateSpec]:
    """The aggregates the benchmark asks: two cold answers and the cached suite."""
    attribute, group, above = (
        profile.sum_attribute, profile.group_attribute, profile.filter_above
    )

    def keep(row) -> bool:
        return row[attribute] > above

    return {
        "sum": AggregateSpec("sum", attribute=attribute),
        "avg": AggregateSpec("avg", attribute=attribute),
        "count_filtered": AggregateSpec("count", where=keep),
        "sum_filtered": AggregateSpec("sum", attribute=attribute, where=keep),
        "sum_by": AggregateSpec("sum", attribute=attribute, group_by=group),
        "count_by": AggregateSpec("count", group_by=group),
    }


def run_suite(
    query,
    specs: Sequence[AggregateSpec],
    prototype: JoinSampler,
    cache: SampleCache,
    rel_error: float,
    seed: int,
    span: Callable,
) -> Dict[str, int]:
    """One pass of the suite through ``cache``; returns cached/fresh sample counts."""
    served = {"cached": 0, "fresh": 0}
    for k, spec in enumerate(specs):
        with span("sampling.split"):
            clone = prototype.split(1, seed=derive(seed, k), share_plans=True)[0]
        with span("aqp.cached_answer"):
            aggregator = OnlineAggregator(
                query, spec, method="exact-weight", seed=derive(seed, 100 + k),
                join_sampler=clone, cache=cache,
            )
            aggregator.until(rel_error)
        served["cached"] += aggregator.cached_samples
        served["fresh"] += aggregator.fresh_samples
    return served


class Aqp(Stage):
    """Two cold answers (SUM, GROUP BY) and the six-query suite over a primed cache."""

    name = "aqp"

    def __init__(self, context: Context) -> None:
        super().__init__(context, context.profile.aqp_reps)
        self.accepted: Dict[str, List[int]] = {"sum": [], "groupby": []}

    def prepare(self) -> None:
        c = self.context
        self.query = c.fixture.first
        self.specs = aggregate_specs(c.profile)
        self.prototype = JoinSampler(self.query, weights="ew", seed=0).warm()
        self.cache = SampleCache()
        # Two priming passes: the second tops up what the first pass's
        # consumers needed beyond the stream they found.
        for k in range(2):
            self._suite(derive(c.seed, 31, k))
        self.rep(-1)

    def _suite(self, seed: int) -> Dict[str, int]:
        c = self.context
        return run_suite(
            self.query, list(self.specs.values()), self.prototype, self.cache,
            c.profile.aqp_suite_rel_error, seed, c.tracer.span,
        )

    def rep(self, index: int) -> Dict[str, float]:
        c = self.context
        profile, span = c.profile, c.tracer.span
        started = time.perf_counter()
        with span("aqp.aggregate_sum"):
            total = aggregate(
                self.query, self.specs["sum"], rel_error=profile.aqp_sum_rel_error,
                seed=derive(c.seed, 30, index + 1),
            )
        sum_done = time.perf_counter()
        with span("aqp.aggregate_groupby"):
            grouped = aggregate(
                self.query, self.specs["sum_by"], rel_error=profile.aqp_group_rel_error,
                seed=derive(c.seed, 32, index + 1),
            )
        group_done = time.perf_counter()
        with span("aqp.cached_suite"):
            served = self._suite(derive(c.seed, 33, index + 1))
        done = time.perf_counter()
        if index >= 0:
            self.attempted += 2 + len(self.specs)
            self.accepted["sum"].append(total.accepted)
            self.accepted["groupby"].append(grouped.accepted)
            self.counts["cached_samples"] += served["cached"]
            self.counts["fresh_samples"] += served["fresh"]
        return {
            "aqp_sum_ms": (sum_done - started) * 1e3,
            "aqp_groupby_ms": (group_done - sum_done) * 1e3,
            "aqp_cached_ms": (done - group_done) * 1e3,
        }


# ---------------------------------------------------------------------- serve
class Serve(Stage):
    """An open-loop slice, then a closed-loop slice, against the server child."""

    name = "serve"

    def __init__(self, context: Context, child: Optional[ServerChild],
                 port: Optional[int] = None) -> None:
        super().__init__(context, context.profile.serve_slices)
        self.child = child
        self.port = port
        self.open: List[Reply] = []
        self.closed: List[Reply] = []

    def prepare(self) -> None:
        c = self.context
        if self.port is None:
            assert self.child is not None
            self.port = self.child.wait_ready()
        ServerClient(port=self.port, timeout=30.0).health()
        self.catalogue = build_catalogue(c.profile, c.fixture.first.name, c.seed)
        self.rep(-1)

    def rep(self, index: int) -> Dict[str, object]:
        c = self.context
        profile = c.profile
        offsets, picks = arrival_schedule(
            profile.open_rate, profile.open_per_slice, len(self.catalogue),
            derive(c.seed, 40, index + 1),
        )
        if index < 0:  # first call: one request of each kind, back to back
            offsets, picks = [0.0] * 8, list(range(8))
        replies = open_loop(self.port, self.catalogue, offsets, picks, c.tracer)
        _, closed_picks = arrival_schedule(
            1.0, 8 if index < 0 else profile.closed_per_slice, len(self.catalogue),
            derive(c.seed, 41, index + 1),
        )
        closed, wall = closed_loop(
            self.port, self.catalogue, closed_picks, profile.closed_clients, c.tracer
        )
        if index >= 0:
            self.open.extend(replies)
            self.closed.extend(closed)
            self.attempted += len(replies) + len(closed)
            self.failed += sum(not r.ok for r in replies) + sum(not r.ok for r in closed)

        def latencies(kind: str) -> List[float]:
            return [r.latency * 1e3 for r in replies if r.kind == kind and r.ok]

        return {
            "serve_sample_p50_ms": latencies("sample"),
            "serve_aggregate_p50_ms": latencies("sum"),
            "serve_rps": sum(r.ok for r in closed) / wall,
        }


# --------------------------------------------------------------------- update
class Update(Stage):
    """RF1/RF2 batches against the structures ``join_draw`` only reads."""

    name = "update"

    def __init__(self, context: Context) -> None:
        super().__init__(context, context.profile.update_reps)

    def prepare(self) -> None:
        c = self.context
        self.stream = TPCHRefreshStream(
            c.fixture.tables, seed=derive(c.seed, 50),
            orders_per_batch=c.profile.update_orders_per_batch,
        )
        self.sampler = JoinSampler(
            c.fixture.update_query, weights="ew", seed=derive(c.seed, 51)
        )
        self.sampler.sample_block(c.profile.update_block)
        self.rep(-1)

    def rep(self, index: int) -> Dict[str, float]:
        c = self.context
        span = c.tracer.span
        with span("dynamic.batch"):
            batch = self.stream.batch()
        started = time.perf_counter()
        with span("dynamic.apply_batch"):
            changed = apply_batch(c.fixture.tables, batch)
        applied = time.perf_counter()
        with span("sampling.refresh"):
            self.sampler.refresh()
        refreshed = time.perf_counter()
        with span("sampling.fresh_block"):
            block = self.sampler.sample_block(c.profile.update_block)
        done = time.perf_counter()
        rows = changed["inserted"] + changed["deleted"]
        if index >= 0:
            self.attempted += 1
            self.failed += len(block) != c.profile.update_block
            self.counts["rows"] += rows
            self.counts["batches"] += 1
        return {
            "update_rows_per_s": rows / (refreshed - started),
            "fresh_block_ms": (done - applied) * 1e3,
        }


def build_stages(context: Context, child: Optional[ServerChild]) -> List[Stage]:
    return [JoinDraw(context), UnionDraw(context), Aqp(context),
            Serve(context, child), Update(context)]


__all__ = [
    "Aqp", "Context", "JoinDraw", "Serve", "Stage", "UnionDraw", "Update",
    "aggregate_specs", "build_stages", "run_suite",
]
