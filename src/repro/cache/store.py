"""The sample-cache tier: materialized ``SampleBlock`` streams, shared across requests.

Under real traffic most requests repeat with small variations — same join,
different aggregate, different filter, different group-by.  Every such
request today re-draws its sample stream from scratch even though the server
already paid for thousands of accepted samples over the *same* join shape.
This module caches those draws so later requests re-consume them.

Why this is statistically sound
-------------------------------

A cached block records exactly the Horvitz–Thompson bookkeeping a fresh
block carries: the number of draw *attempts* it consumed and the shared
inverse-inclusion weight ``W`` (the weight function's total weight).  The
attempt-level HT estimator is a plain mean over attempt contributions
``w·g(t)``, so pooling blocks from different seeded streams over the same
snapshot is the same merge the parallel shard coordinator already performs —
unbiased, with honest variance, *provided* three invariants hold:

1. **Whole blocks only.**  A block's attempt count belongs to the block as a
   unit; consuming half its samples while keeping the full attempt count (or
   vice versa) biases the estimate.  Consumers ingest a cached block wholly
   or not at all.
2. **One snapshot.**  Contributions are exchangeable only within one
   database epoch.  Every entry is pinned to the version vector
   (:func:`~repro.joins.query.observed_versions` of its query) it was drawn
   under; a lookup under any other vector is a miss and drops the stale
   entry.  ``drop_relation`` invalidates eagerly on mutation — and only
   entries touching the mutated relation, never the whole cache.
3. **No double-consumption within one estimate.**  A consumer tracks a
   cursor into the entry's block list and never re-ingests a block it has
   already merged (re-ingesting would correlate contributions and shrink the
   reported CI below its true width).  Distinct *requests* may share blocks
   freely — their answers are correlated with each other, but each answer's
   own CI is honest.

Key structure
-------------

Entries are keyed by :func:`shape_key` — the join's structural identity
(query name, relation names, equi-join conditions, output schema) plus the
weight-function string, i.e. the sampling *distribution* — never by the
aggregate, filter, or group-by, which are applied downstream by the
accumulator over the shared draw stream.  The version vector is held alongside
and checked on every lookup.

Eviction is LRU over entries, accounted in bytes (``SampleBlock.nbytes``),
bounded by ``max_bytes``.  Cached arrays are frozen read-only so a consumer
bug cannot corrupt other requests' answers.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.joins.query import JoinQuery, observed_versions
from repro.sampling.blocks import SampleBlock

#: default cache budget: enough for ~1M cached (sample × 4-relation) rows.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


def shape_key(query: JoinQuery, weights: str) -> Tuple:
    """Structural identity of a sampling distribution over a join.

    Two requests share a cache entry exactly when they sample the same join
    tree with the same weight function: same relations, same equi-join
    conditions, same output schema.  The query *name* participates because a
    workload may register distinct filtered instances of the same base
    relations under different names (UQ1's regional partitions) — those are
    different populations and must never share draws.
    """
    conditions = tuple(
        sorted(
            (c.left_relation, c.left_attribute, c.right_relation, c.right_attribute)
            for c in query.conditions
        )
    )
    outputs = tuple(
        (out.name, out.relation, out.attribute) for out in query.output_attributes
    )
    return (query.name, tuple(sorted(query.relations)), conditions, outputs, weights)


class CachedStream:
    """One cache entry: an append-only block stream pinned to an epoch.

    Consumers hold a reference plus a cursor; all mutation goes through the
    owning :class:`SampleCache` (which holds the lock).  ``alive`` flips to
    ``False`` on eviction/invalidation — a dead entry serves nothing and
    swallows publishes, and consumers re-resolve through the cache.
    """

    __slots__ = (
        "key", "epoch", "relation_names", "blocks",
        "samples", "attempts", "nbytes", "alive", "last_used",
    )

    def __init__(self, key: Tuple, epoch: Tuple, relation_names: frozenset) -> None:
        self.key = key
        self.epoch = epoch
        self.relation_names = relation_names
        self.blocks: List[SampleBlock] = []
        self.samples = 0
        self.attempts = 0
        self.nbytes = 0
        self.alive = True
        self.last_used = 0


class SampleCache:
    """Bounded, thread-safe store of :class:`CachedStream` entries."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: Dict[Tuple, CachedStream] = {}
        self._bytes = 0
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_drops = 0

    # ------------------------------------------------------------------ lookup
    def entry(self, query: JoinQuery, weights: str) -> CachedStream:
        """The live entry for ``(query shape, weights)`` at the current epoch.

        A stale entry (any relation version moved since it was created) is
        dropped and replaced by a fresh empty one — the incremental half of
        the epoch protocol: only streams whose snapshot actually changed pay.
        """
        key = shape_key(query, weights)
        epoch = observed_versions((query,))
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if existing.epoch == epoch:
                    self.hits += 1
                    self._touch(existing)
                    return existing
                self.stale_drops += 1
                self._drop(existing)
            self.misses += 1
            entry = CachedStream(key, epoch, frozenset(query.relations))
            self._entries[key] = entry
            self._touch(entry)
            return entry

    def peek(self, query: JoinQuery, weights: str) -> Optional[CachedStream]:
        """The fresh-epoch entry if one exists — no creation, no counters.

        The admission controller's pricing probe: it must not perturb
        hit/miss statistics or LRU order.
        """
        with self._lock:
            existing = self._entries.get(shape_key(query, weights))
            if existing is not None and existing.epoch == observed_versions((query,)):
                return existing
            return None

    # ------------------------------------------------------------ read/publish
    def read(self, entry: CachedStream, cursor: int) -> Tuple[List[SampleBlock], int]:
        """Blocks appended since ``cursor`` plus the advanced cursor.

        Returns whole blocks only (invariant 1); a dead entry yields nothing
        and leaves the cursor for the caller's re-resolve.
        """
        with self._lock:
            if not entry.alive or cursor >= len(entry.blocks):
                return [], cursor
            blocks = entry.blocks[cursor:]
            self._touch(entry)
            return blocks, len(entry.blocks)

    def publish(self, entry: CachedStream, block: SampleBlock) -> None:
        """Append a freshly drawn block to the stream; evict LRU if over budget.

        Publishing to a dead entry is a silent no-op: the request that drew
        the block still ingests it locally, the draws are simply not shared.
        """
        if len(block) == 0 and block.attempts == 0:
            return
        with self._lock:
            if not entry.alive:
                return
            entry.blocks.append(block.freeze())
            entry.samples += len(block)
            entry.attempts += int(block.attempts)
            size = block.nbytes
            entry.nbytes += size
            self._bytes += size
            self._touch(entry)
            while self._bytes > self.max_bytes and self._entries:
                victim = min(self._entries.values(), key=lambda e: e.last_used)
                self.evictions += 1
                self._drop(victim)

    # ------------------------------------------------------------ invalidation
    def drop_relation(self, name: str) -> int:
        """Invalidate every entry whose join touches relation ``name``.

        The eager half of the epoch protocol (the mutate handler calls this);
        entries over other relations keep serving untouched.  Returns the
        number of entries dropped.
        """
        with self._lock:
            victims = [
                entry for entry in self._entries.values()
                if name in entry.relation_names
            ]
            for entry in victims:
                self.invalidations += 1
                self._drop(entry)
            return len(victims)

    def clear(self) -> None:
        with self._lock:
            for entry in list(self._entries.values()):
                self._drop(entry)

    # ------------------------------------------------------------------- stats
    @property
    def entries(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def stats_dict(self) -> Dict[str, int]:
        """Counters for ``/stats`` and the CLI — plain ints, JSON-ready."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "blocks": sum(len(e.blocks) for e in self._entries.values()),
                "samples": sum(e.samples for e in self._entries.values()),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "stale_drops": self.stale_drops,
            }

    # --------------------------------------------------------------- internals
    def _touch(self, entry: CachedStream) -> None:
        self._tick += 1
        entry.last_used = self._tick

    def _drop(self, entry: CachedStream) -> None:
        entry.alive = False
        self._bytes -= entry.nbytes
        entry.blocks = []
        entry.nbytes = 0
        self._entries.pop(entry.key, None)


__all__ = [
    "CachedStream",
    "SampleCache",
    "DEFAULT_MAX_BYTES",
    "shape_key",
]
