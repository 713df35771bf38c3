"""Block sources: the one contract between a sampler backend and the AQP layer.

:func:`build_sources` turns a backend into a list of sources (one per
in-process shard) and :func:`draw_into` drives them.  Both consumers — every
:meth:`OnlineAggregator.step <repro.aqp.online.OnlineAggregator.step>` and the
aggregate mode of :func:`repro.parallel.shards.run_shard` — go through that
one driver, so "how a backend's draws become Horvitz–Thompson contributions"
is written down here and nowhere else.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Protocol, Sequence, TypeVar

from repro.aqp.estimators import AggregateAccumulator, AggregateSpec
from repro.aqp.planner import BACKEND_WEIGHTS
from repro.core.online_sampler import OnlineUnionSampler
from repro.core.result import SampleResult
from repro.estimation.parameters import UnionParameters
from repro.joins.query import JoinQuery, observed_versions
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler, draw_and_drain
from repro.sampling.wander_join import WanderJoin
from repro.utils.rng import RandomState, spawn_rngs

DrawT = TypeVar("DrawT")


class Source(Protocol[DrawT]):
    """One shard of one backend."""

    def refresh(self) -> bool:
        """Re-sync with the base relations; True when a mutation epoch landed
        (the consumer must discard what it accumulated)."""

    def draw(self, n: int) -> DrawT:
        """The draws for a quota of ``n``.  Touches only this source's own
        sampler, so :func:`fan_out` may run it on a worker thread."""

    def ingest(
        self, accumulator: AggregateAccumulator, draws: Sequence[DrawT]
    ) -> Optional[SampleBlock]:
        """Coordinator side: ingest the draws of *all* shards of one step, in
        shard order; returns the block a sample cache may publish, if any."""


class JoinSource:
    """Accept/reject :class:`JoinSampler`; a draw is ``[main, *surplus]`` —
    every accepted walk of the pass, so attempt counts match the samples."""

    def __init__(self, sampler: JoinSampler, max_attempts: int) -> None:
        self.sampler = sampler
        self.max_attempts = max_attempts

    @property
    def total_weight(self) -> float:
        return float(self.sampler.weight_function.total_weight)

    def refresh(self) -> bool:
        return bool(self.sampler.refresh())

    def draw(self, n: int) -> List[SampleBlock]:
        if self.total_weight <= 0:
            # Empty join: every walk would fail (and sample_block would spin
            # to max_attempts); account the n failed attempts directly.
            block: SampleBlock = self.sampler.sample_block(0)
            block.attempts = n
            return [block]
        return draw_and_drain(self.sampler, n, self.max_attempts)

    def ingest(
        self, accumulator: AggregateAccumulator, draws: Sequence[List[SampleBlock]]
    ) -> SampleBlock:
        # Every shard's main block in shard order, then every shard's surplus
        # in shard order, as ONE chunk: the bootstrap resamples contributions
        # by index and consumes its generator in group-insertion order, so
        # both the order and the chunking are part of the answer.
        block = SampleBlock.concat(
            [blocks[0] for blocks in draws]
            + [surplus for blocks in draws for surplus in blocks[1:]]
        )
        accumulator.ingest_block(
            block.value_columns(self.sampler.query),
            attempts=block.attempts,
            weight=block.weight,
        )
        return block


class WanderSource:
    """Wander-join walks: ``n`` is walk *attempts*, weights are per walk."""

    def __init__(self, walker: WanderJoin) -> None:
        self.walker = walker
        # Wander join reads the delta-maintained indexes directly and caches
        # nothing; the version vector only tells the consumer to restart.
        self._versions = observed_versions((walker.query,))

    def refresh(self) -> bool:
        versions = observed_versions((self.walker.query,))
        stale = versions != self._versions
        self._versions = versions
        return stale

    def draw(self, n: int) -> SampleBlock:
        return self.walker.walk_block(n)

    def ingest(self, accumulator: AggregateAccumulator, draws: Sequence[SampleBlock]) -> None:
        for block in draws:
            accumulator.ingest_block(
                block.value_columns(self.walker.query),
                attempts=block.attempts,
                weights=block.weights,
            )


class UnionSource:
    """Set-union sampler; its draws *replace* what was ingested before.

    Revisions and backtracking rewrite the sampler's history, so a draw asks
    for the cumulative quota and the accumulator is rebuilt from every
    shard's full live sample list each step.  ``sampler`` is an
    :class:`OnlineUnionSampler` or any prebuilt object with ``sample(count)``.
    """

    def __init__(self, sampler: Any) -> None:
        self.sampler = sampler
        self._consumed = 0

    def refresh(self) -> bool:
        refresh = getattr(self.sampler, "refresh", None)
        if refresh is None:
            # A prebuilt sampler (e.g. SetUnionSampler with exact parameters)
            # cannot follow a mutation: its own sample() refuses a moved
            # snapshot, so the next draw raises rather than mix snapshots.
            return False
        stale = bool(refresh())
        if stale:
            self._consumed = 0
        return stale

    def draw(self, n: int) -> SampleResult:
        self._consumed += n
        result: SampleResult = self.sampler.sample(self._consumed)
        return result

    def ingest(self, accumulator: AggregateAccumulator, draws: Sequence[SampleResult]) -> None:
        accumulator.reset()
        for result in draws:
            accumulator.observe(
                [sample.value for sample in result.samples],
                attempts=len(result.samples),
                weight=float(result.parameters.union_size),
            )


def build_sources(
    queries: Sequence[JoinQuery], backend: str, seed: RandomState, parallelism: int = 1,
    *, sampler: Any = None, max_batch_size: int = 8192, max_attempts: int = 1_000_000,
    warmup: str = "random-walk",
) -> List[Source[Any]]:
    """``parallelism`` sources of ``backend``, their streams derived from ``seed``.

    ``sampler`` wraps a prebuilt sampler (the server's warm clone, a strict
    union sampler) instead of building one.  The last three keywords are the
    samplers' own defaults; each has one caller that needs another value (the
    aggregator sizes attempt batches to its step; shard tasks carry an
    attempt budget and warm unions up with the cheap histogram estimator).
    """
    if sampler is not None and parallelism > 1:
        raise ValueError(
            "a prebuilt sampler cannot be sharded; drop join_sampler= / "
            "union_sampler= or set parallelism=1"
        )
    if backend in BACKEND_WEIGHTS:
        if sampler is None:
            sampler = JoinSampler(
                queries[0],
                weights=BACKEND_WEIGHTS[backend],
                seed=seed,
                max_batch_size=max_batch_size,
            )
        # Warm server path: a reused sampler may predate a mutation; sync now
        # so the first step does not count it as an epoch restart.
        sampler.refresh()
        # split() shards share the weight function and derive their streams.
        shards = [sampler] if parallelism == 1 else sampler.split(parallelism)
        return [JoinSource(shard, max_attempts) for shard in shards]
    if sampler is not None:
        return [UnionSource(sampler)]
    streams: Sequence[RandomState] = (
        [seed] if parallelism == 1 else spawn_rngs(seed, parallelism)
    )
    if backend == "wander-join":
        return [WanderSource(WanderJoin(queries[0], seed=stream)) for stream in streams]
    return [
        UnionSource(OnlineUnionSampler(list(queries), seed=stream, warmup=warmup))
        for stream in streams
    ]


def split_evenly(total: int, parts: int) -> List[int]:
    """Even split of ``total`` into ``parts`` quotas (first shards get +1)."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def fan_out(sources: Sequence[Source[DrawT]], size: int) -> List[DrawT]:
    """Draw ``size`` across the sources; results come back in source order."""
    if len(sources) == 1:
        return [sources[0].draw(size)]
    quotas = split_evenly(size, len(sources))
    with ThreadPoolExecutor(max_workers=len(sources)) as executor:
        return list(executor.map(lambda source, quota: source.draw(quota), sources, quotas))


def draw_into(
    accumulator: AggregateAccumulator, sources: Sequence[Source[DrawT]], size: int
) -> Optional[SampleBlock]:
    """One step of the draw loop: fan out, then ingest in source order."""
    return sources[0].ingest(accumulator, fan_out(sources, size))


def reject_degenerate_union_count(
    spec: AggregateSpec, parameters: Optional[UnionParameters] = None
) -> None:
    """Refuse unfiltered COUNT(*) over a union with *estimated* parameters.

    Every sample's HT contribution is the constant ``|U|`` parameter, so the
    CLT interval collapses to zero width around whatever the union size
    *estimate* is — a nominal 95% interval with no coverage at all, and more
    samples cannot help.  With exact ``parameters`` (``FullJoinUnionEstimator``)
    the zero-width answer is the exact ``|U|`` and is allowed.
    """
    if spec.kind != "count" or spec.where is not None or spec.group_attributes:
        return
    if parameters is not None and parameters.method == "full-join":
        return
    raise ValueError(
        "COUNT(*) over a union of joins just echoes the union-size "
        "parameter (every sample contributes the same |U|), so its "
        "confidence interval would be a zero-width lie around an "
        "estimate. Use the union-size estimators (`repro estimate`) for "
        "|U|, supply exact parameters, or add a where filter / group-by."
    )


__all__ = [
    "Source",
    "build_sources",
    "draw_into",
    "fan_out",
    "reject_degenerate_union_count",
    "split_evenly",
]
