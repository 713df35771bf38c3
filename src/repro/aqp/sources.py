"""Block sources: the one contract between a sampler backend and the AQP layer.

:func:`build_sources` turns a backend into a list of sources (one per
in-process shard) and :func:`draw_into` drives them.  Both consumers — every
:meth:`OnlineAggregator.step <repro.aqp.online.OnlineAggregator.step>` and
:func:`repro.parallel.shards.run_shard` — go through that one driver, so "how
a backend's draws become Horvitz–Thompson contributions" is written down here
and nowhere else.
Every source is an attempt-level HT stream, a union's included
(:class:`UnionCoverSource`); none replays or rewrites what it drew.

Plain samples have one loop too, :func:`draw_chunks`: a served ``sample``
and ``repro sample --workers`` both fan each chunk out with :func:`fan_out`
under the epoch protocol and one deadline.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce
from typing import Any, Callable, List, NamedTuple, Optional, Protocol, Sequence, TypeVar

import numpy as np
import numpy.typing as npt

from repro.aqp.estimators import AggregateAccumulator
from repro.aqp.planner import BACKEND_WEIGHTS
from repro.joins.membership import UnionMembershipIndex
from repro.joins.query import JoinQuery, observed_versions
from repro.relational.columnar import concat_column_arrays
from repro.resilience.errors import EpochRestartsExhausted, JobDeadlineExceeded
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler, draw_and_drain
from repro.sampling.wander_join import WanderJoin
from repro.utils.rng import RandomState, ensure_rng, spawn_rngs

DrawT = TypeVar("DrawT")

#: Values per chunk of :func:`draw_chunks`: ``repro sample --workers`` and a
#: served ``sample`` (its default ``sample_chunk``).
SAMPLE_CHUNK = 1024


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
            # Empty join (sample_block would spin): n walks fail at the root.
            return [self.sampler.attempt_block(n)]
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
        accumulator.ingest_sample_block(block, self.sampler.query)
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
            accumulator.ingest_sample_block(block, self.walker.query)


class CoverDraw(NamedTuple):
    """A :class:`UnionCoverSource` draw: the kept values (one array per output
    attribute), each one's owning join, the attempts, and their weight ΣW."""

    columns: List[npt.NDArray[Any]]
    owners: npt.NDArray[np.intp]
    attempts: int
    weight: float

    @staticmethod
    def concat(draws: Sequence["CoverDraw"]) -> "CoverDraw":
        parts = zip(*(draw.columns for draw in draws))
        columns = [reduce(concat_column_arrays, column) for column in parts]
        owners = np.concatenate([draw.owners for draw in draws])
        return CoverDraw(columns, owners, sum(draw.attempts for draw in draws), draws[0].weight)

    def rows(self) -> List[tuple]:
        """The kept values as tuples, in draw order."""
        return list(zip(*(column.tolist() for column in self.columns)))


class UnionCoverSource:
    """The set union through its disjoint cover ``U = ⊔_j (J_j \\ ∪_{i<j} J_i)``.

    A draw of ``n`` *attempts* splits them multinomially by the joins' exact
    weights ``W_j``; each join makes its share of walks
    (:meth:`JoinSampler.attempt_block`) and keeps a value only when no
    earlier join contains it.  Every value of ``U`` is then kept with
    probability exactly ``1/ΣW`` per attempt, by its owner alone: the same
    attempt-level HT stream :class:`JoinSource` feeds, with weight ``ΣW``
    (set semantics, for joins that produce each of their values once).
    """

    def __init__(
        self, queries: Sequence[JoinQuery], seed: RandomState, max_batch_size: int = 8192
    ) -> None:
        self.queries = tuple(queries)
        self.rng, *streams = spawn_rngs(seed, len(self.queries) + 1)
        #: the root stream, past the children derived from it: orders a take
        self.order = ensure_rng(seed)
        self.samplers = [
            JoinSampler(query, weights="ew", seed=stream, max_batch_size=max_batch_size)
            for query, stream in zip(self.queries, streams)
        ]
        self.membership = UnionMembershipIndex(self.queries)

    def refresh(self) -> bool:
        return any([sampler.refresh() for sampler in self.samplers])

    def draw(self, n: int) -> CoverDraw:
        weights = np.array([sampler.size_bound for sampler in self.samplers], dtype=float)
        total = float(weights.sum())
        names = [query.name for query in self.queries]
        # The n attempts are accounted once, on an empty first part.
        width = len(self.queries[0].output_attributes)
        parts = [CoverDraw([np.asarray([])] * width, np.empty(0, dtype=np.intp), n, total)]
        shares = self.rng.multinomial(n, weights / total) if total > 0 else np.zeros_like(weights)
        for position in np.flatnonzero(shares):
            sampler = self.samplers[position]
            columns = sampler.attempt_block(int(shares[position])).value_columns(sampler.query)
            kept = ~self.membership.contained_in_any(names[:position], columns)
            owners = np.full(int(kept.sum()), position, dtype=np.intp)
            parts.append(CoverDraw([column[kept] for column in columns], owners, 0, total))
        return CoverDraw.concat(parts)

    def take(self, count: int, max_attempts: int = 1_000_000) -> CoverDraw:
        """``count`` values i.i.d. uniform over the union: draw until
        ``count`` are kept, permute, truncate.  A draw groups its kept values
        by join; permuted they are exchangeable, so the prefix is i.i.d.
        uniform.  ``attempts`` counts every attempt made; ``max_attempts``
        of them keeping nothing raise ``RuntimeError``."""
        draws: List[CoverDraw] = []
        kept = attempts = 0
        # A zero take makes one empty draw, which consumes no random state.
        while kept < count or not draws:
            if not kept and attempts >= max_attempts:
                raise RuntimeError(f"the union kept no value in {attempts} attempts")
            need = count - kept
            # Size from the share kept so far (+25%); double while none is.
            size = math.ceil(need * attempts / kept * 1.25) if kept else max(need, attempts)
            draws.append(self.draw(size))
            kept += len(draws[-1].owners)
            attempts += size
        merged, chosen = CoverDraw.concat(draws), self.order.permutation(kept)[:count]
        return merged._replace(
            columns=[column[chosen] for column in merged.columns], owners=merged.owners[chosen]
        )

    def ingest(self, accumulator: AggregateAccumulator, draws: Sequence[CoverDraw]) -> None:
        # Every shard's kept values in shard order, as ONE chunk (the order
        # and the chunking are part of the answer, as for JoinSource).  Kept
        # values carry no row ids, so they enter as value columns.
        merged = CoverDraw.concat(draws)
        accumulator.ingest_block(merged.columns, attempts=merged.attempts, weight=merged.weight)


def build_sources(
    queries: Sequence[JoinQuery], backend: str, seed: RandomState, parallelism: int = 1,
    *, sampler: Optional[JoinSampler] = None, max_batch_size: int = 8192,
    max_attempts: int = 1_000_000,
) -> List[Source[Any]]:
    """``parallelism`` sources of ``backend``, their streams derived from ``seed``.

    ``sampler`` wraps a prebuilt join sampler (the server's warm clone)
    instead of building one.  The last two keywords are the samplers' own
    defaults; each has one caller that needs another value (the aggregator
    sizes attempt batches to its step; shard tasks carry an attempt budget).
    """
    if sampler is not None and (parallelism > 1 or backend not in BACKEND_WEIGHTS):
        raise ValueError(
            f"a prebuilt join sampler serves one {'/'.join(BACKEND_WEIGHTS)} source, "
            f"not {parallelism} of {backend!r}; drop join_sampler= or set parallelism=1"
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
    streams: Sequence[RandomState] = (
        [seed] if parallelism == 1 else spawn_rngs(seed, parallelism)
    )
    if backend == "wander-join":
        return [WanderSource(WanderJoin(queries[0], seed=stream)) for stream in streams]
    return [UnionCoverSource(queries, stream, max_batch_size) for stream in streams]


def split_evenly(total: int, parts: int) -> List[int]:
    """Even split of ``total`` into ``parts`` quotas (first shards get +1)."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def fan_out(draws: Sequence[Callable[[int], DrawT]], size: int) -> List[DrawT]:
    """Split ``size`` evenly over the draw callables, one thread each;
    results come back in their order."""
    if len(draws) == 1:
        return [draws[0](size)]
    quotas = split_evenly(size, len(draws))
    with ThreadPoolExecutor(max_workers=len(draws)) as executor:
        return list(executor.map(lambda draw, quota: draw(quota), draws, quotas))


class ChunkedDraw(NamedTuple):
    """What :func:`draw_chunks` drew: each chunk's draws in worker order, the
    values they hold, the epoch restarts, and whether a deadline cut it short."""

    parts: List[Any]
    drawn: int
    restarts: int
    degraded: bool


def draw_chunks(
    queries: Sequence[JoinQuery],
    draws: Callable[[], Sequence[Callable[[int], Any]]],
    count: int,
    *,
    chunk: int = SAMPLE_CHUNK,
    deadline: Optional[float] = None,
    allow_partial: bool = False,
    max_epoch_restarts: int = 3,
    after_chunk: Optional[Callable[[], None]] = None,
    on_restart: Optional[Callable[[], None]] = None,
) -> ChunkedDraw:
    """``count`` values, ``chunk`` at a time, from one snapshot of ``queries``.

    ``draws()`` makes one draw per worker and :func:`fan_out` splits each
    chunk over them.  The relation versions are re-read after every chunk
    (and its ``after_chunk`` hook): on a bump all chunks are discarded and
    the loop starts over with fresh draws, telling ``on_restart``, at most
    ``max_epoch_restarts`` times.  Past the ``deadline`` (seconds, checked
    before each chunk) it raises, or with ``allow_partial`` returns what it
    has, marked degraded.
    """
    if count < 0 or (deadline is not None and deadline < 0):
        raise ValueError(f"count and deadline must be non-negative, got {count}, {deadline}")
    start = time.monotonic()
    restarts = 0
    while True:
        before = observed_versions(queries)
        workers = draws()
        parts: List[Any] = []
        drawn = 0
        while drawn < count:
            if deadline is not None and time.monotonic() - start >= deadline:
                if not allow_partial:
                    raise JobDeadlineExceeded(
                        f"sample request exceeded its {deadline:g}s deadline "
                        f"after {drawn} of {count} samples",
                        deadline=deadline,
                    )
                return ChunkedDraw(parts, drawn, restarts, True)
            size = min(count - drawn, chunk)
            shares = fan_out(workers, size)
            if after_chunk is not None:
                after_chunk()
            if observed_versions(queries) != before:
                break
            parts.extend(shares)
            drawn += size
        else:
            return ChunkedDraw(parts, drawn, restarts, False)
        # A mutation epoch landed mid-draw: the chunks describe a mix of
        # snapshots.  Discard them all and redraw against the new epoch.
        restarts += 1
        if on_restart is not None:
            on_restart()
        if restarts > max_epoch_restarts:
            raise EpochRestartsExhausted(
                f"sample request restarted {restarts} times on mutation epochs "
                "without completing; pause the update stream or raise "
                "max_epoch_restarts",
                restarts=restarts,
            )


def union_takes(
    queries: Sequence[JoinQuery], seed: RandomState, workers: int, max_attempts: int = 1_000_000
) -> List[Callable[[int], CoverDraw]]:
    """A union's draws for :func:`draw_chunks`: one ``take`` per worker over
    ``workers`` cover sources."""
    sources = build_sources(queries, "online-union", seed, workers)
    return [partial(source.take, max_attempts=max_attempts) for source in sources]


def surplus_first(sampler: JoinSampler, max_attempts: int) -> Callable[[int], SampleBlock]:
    """A join's draw for :func:`draw_chunks`: ``sample_block`` that serves
    the surplus its last call left first, so a request split into chunks
    throws no accepted walk away (a share served from surplus alone has
    ``attempts == 0``)."""
    kept: List[SampleBlock] = []  # at most one block

    def take(count: int) -> SampleBlock:
        have = len(kept[0]) if kept else 0
        if kept and have >= count:
            block, kept[0] = kept[0].split(count)
            return block
        fresh = sampler.sample_block(count - have, max_attempts=max_attempts)
        block = SampleBlock.concat([*kept, fresh])
        kept[:] = sampler.pop_buffered_blocks()
        return block

    return take


def draw_into(
    accumulator: AggregateAccumulator, sources: Sequence[Source[DrawT]], size: int
) -> Optional[SampleBlock]:
    """One step of the draw loop: fan out, then ingest in source order."""
    return sources[0].ingest(accumulator, fan_out([source.draw for source in sources], size))


__all__ = [
    "SAMPLE_CHUNK",
    "ChunkedDraw",
    "CoverDraw",
    "Source",
    "UnionCoverSource",
    "build_sources",
    "draw_chunks",
    "draw_into",
    "fan_out",
    "split_evenly",
    "surplus_first",
    "union_takes",
]
