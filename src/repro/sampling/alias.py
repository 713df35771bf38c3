"""Walker/Vose alias tables: O(1) weighted draws for the batched engine.

The batched descent of :class:`~repro.sampling.join_sampler.JoinSampler`
originally answered "pick a row proportionally to its weight" with an
inverse-CDF ``np.searchsorted`` over a cumulative weight array — O(log n)
memory probes per draw.  The alias method (Walker 1977, Vose 1991) answers
the same question with exactly **two array lookups per draw**: throw a dart
at a uniform bucket ``j``, keep ``j`` with probability ``prob[j]``, otherwise
take ``alias[j]``.  Construction redistributes the probability mass so that
every bucket is covered by at most two outcomes, which is always possible
(the classic "robin hood" argument) and costs O(n).

Two structures cover the sampler's needs:

* :class:`AliasTable` — one flat distribution (the root-row choice).  Built
  eagerly with a vectorized construction: a bulk prefix-sum round assigns
  almost every light bucket to one heavy bucket in O(n) array ops, and the
  few boundary leftovers finish in pairing rounds (a sequential fallback
  guards pathological weight profiles).
* :class:`SegmentedAliasTable` — one alias table per key segment of a CSR
  :class:`~repro.relational.index.SortedIndex` (the per-level child choice).
  Segments whose weights are uniform (the common leaf-level case: every
  weight 1) need no table at all.  A non-uniform segment's table costs
  O(degree) to build, so a segment that is drawn from about once must not
  pay for one: a draw into an *unbuilt* segment is served **cold**, by a
  segment-local inverse CDF computed for the whole block of such draws in a
  handful of ragged array operations (no per-segment Python, nothing
  written to the table).  Tables are built only where they pay: a large
  segment when one block draws from it more than once (one vectorized
  construction; a small segment costs a cold draw at most ``_SMALL_SEGMENT``
  rows and is never built by a draw), and every remaining segment at once
  by ``build_all()`` — which the warm server
  path calls per epoch, and which the table calls on itself once it has
  served as many cold draws as it has rows (by then the workload has paid,
  draw by draw, what the tables cost).  After a mutation epoch
  ``rebuild_segments()`` invalidates exactly the slots a delta dirtied and
  the count starts over.

Every draw path consumes the underlying generator identically (one uniform
for the dart, one for the coin — a cold draw inverts the first and ignores
the second), so a fixed seed yields a fixed draw sequence regardless of how
many segments happen to be uniform, built, or cold.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

#: Vectorized pairing rounds before the sequential fallback takes over.
_MAX_ROUNDS = 64

#: Below this size the sequential list-based Vose beats the vectorized
#: construction (numpy call overhead dominates tiny segments) — and a draw
#: never builds the segment's table: it is served cold, whatever the block.
_SMALL_SEGMENT = 64


def _build_flat(scaled: np.ndarray, prob: np.ndarray, alias: np.ndarray, base: int) -> None:
    """Fill ``prob``/``alias`` (views of length n) for one distribution.

    ``scaled`` are the weights normalized to sum to ``n`` (consumed — the
    array is scratch space); ``base`` is added to every alias entry so that
    segmented tables can store global row indices.  Buckets keep their own
    item with probability ``prob`` and defer to ``alias`` otherwise.
    """
    n = scaled.size
    if n == 0:
        return
    if n == 1:
        prob[0] = 1.0
        alias[0] = base
        return
    if n <= _SMALL_SEGMENT:
        # Tiny distributions (the common CSR-segment case: one join key's
        # rows) run the classic sequential Vose on plain lists — the
        # vectorized rounds below cost ~100µs of numpy call overhead per
        # invocation, three orders of magnitude more than this loop at n≈10.
        values = scaled.tolist()
        small_list = [i for i, s in enumerate(values) if s < 1.0]
        large_list = [i for i, s in enumerate(values) if s >= 1.0]
        while small_list and large_list:
            s = small_list.pop()
            l = large_list[-1]
            prob[s] = values[s]
            alias[s] = l + base
            values[l] -= 1.0 - values[s]
            if values[l] < 1.0:
                small_list.append(large_list.pop())
        for i in small_list:
            prob[i] = 1.0
        for i in large_list:
            prob[i] = 1.0
        return
    small = np.flatnonzero(scaled < 1.0)
    large = np.flatnonzero(scaled >= 1.0)
    rounds = 0
    while small.size and large.size and rounds < _MAX_ROUNDS:
        rounds += 1
        if small.size > large.size:
            # Bulk round: lay the light buckets' deficits (1 - scaled) end to
            # end against the heavy buckets' surpluses (scaled - 1); one
            # searchsorted assigns each light bucket to the heavy bucket whose
            # surplus interval contains its whole deficit.  At most one light
            # bucket per heavy boundary straddles two intervals and is
            # deferred to the next round, so one bulk round finalizes all but
            # O(#heavy) light buckets.
            deficits = 1.0 - scaled[small]
            cum_deficit = np.cumsum(deficits)
            cum_surplus = np.cumsum(scaled[large] - 1.0)
            owner = np.searchsorted(cum_surplus, cum_deficit, side="left")
            inside = owner < large.size
            prev_surplus = np.zeros(small.size, dtype=float)
            clipped = np.clip(owner - 1, 0, max(large.size - 1, 0))
            prev_surplus[owner > 0] = cum_surplus[clipped[owner > 0]]
            inside &= (cum_deficit - deficits) >= prev_surplus - 1e-12
            done = small[inside]
            prob[done] = scaled[done]
            alias[done] = large[owner[inside]] + base
            absorbed = np.bincount(
                owner[inside], weights=deficits[inside], minlength=large.size
            )
            scaled[large] -= absorbed
            small = small[~inside]
        else:
            # Pairing round: k disjoint (light, heavy) pairs at once.  The
            # paired heavies go back on the stack for reclassification —
            # they still hold their remaining surplus.
            k = min(small.size, large.size)
            s, l = small[:k], large[:k]
            prob[s] = scaled[s]
            alias[s] = l + base
            scaled[l] -= 1.0 - scaled[s]
            small = small[k:]
            large = np.concatenate([large[k:], l])
        still_small = scaled[large] < 1.0
        if still_small.any():
            small = np.concatenate([small, large[still_small]])
            large = large[~still_small]

    if small.size and large.size:
        # Pathological profile outran the vectorized rounds: finish the
        # remaining chain sequentially (classic Vose stacks).
        small_list = small.tolist()
        large_list = large.tolist()
        while small_list and large_list:
            s = small_list.pop()
            l = large_list[-1]
            prob[s] = scaled[s]
            alias[s] = l + base
            scaled[l] -= 1.0 - scaled[s]
            if scaled[l] < 1.0:
                small_list.append(large_list.pop())
        small = np.asarray(small_list, dtype=np.intp)
        large = np.asarray(large_list, dtype=np.intp)

    # Leftovers on either stack hold mass 1 up to rounding: keep them whole.
    prob[large] = 1.0
    prob[small] = 1.0


def _pin_zero_weights(
    weights: np.ndarray, prob: np.ndarray, alias: np.ndarray, base: int
) -> None:
    """Numerical backstop: a zero-weight item must never be drawn.

    The construction gives zero-weight items ``prob = 0`` and an alias
    pointing at a positive-weight item in exact arithmetic; floating-point
    leftovers could leave one self-aliased with ``prob = 1``, so pin the
    invariant explicitly (``prob``/``alias`` are views; ``base`` converts
    local positions to the global indices the alias entries carry).
    """
    zero = weights <= 0
    if not bool(zero.any()):
        return
    local = np.arange(weights.size, dtype=np.intp) + base
    self_aliased = zero & (alias == local)
    if bool(self_aliased.any()):
        alias[self_aliased] = base + int(np.argmax(weights))
    prob[zero] = 0.0


class AliasTable:
    """Alias table over one weight vector (e.g. the root-row weights).

    Zero-weight items are valid: their buckets carry ``prob = 0`` and always
    defer to their alias, so they are never drawn (provided some weight is
    positive — an all-zero table refuses to sample).
    """

    __slots__ = ("n", "total", "prob", "alias")

    def __init__(self, weights: Sequence[float] | np.ndarray) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if w.size and float(w.min()) < 0:
            raise ValueError("weights must be non-negative")
        self.n = int(w.size)
        self.total = float(w.sum())
        self.prob = np.ones(self.n, dtype=float)
        self.alias = np.arange(self.n, dtype=np.intp)
        if self.n and self.total > 0:
            # The scale product is a fresh array: _build_flat may consume it.
            _build_flat(w * (self.n / self.total), self.prob, self.alias, 0)
            _pin_zero_weights(w, self.prob, self.alias, 0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` independent draws (indices into the weight vector)."""
        if self.n == 0 or self.total <= 0:
            raise ValueError("cannot sample from an empty or all-zero table")
        darts = rng.integers(0, self.n, size=size)
        keep = rng.random(size) < self.prob[darts]
        return np.where(keep, darts, self.alias[darts]).astype(np.intp, copy=False)


class SegmentedAliasTable:
    """Per-segment alias tables over a CSR (offsets + per-row weights) layout.

    Parameters
    ----------
    weights:
        Row weights in CSR order (length ``offsets[-1]``).
    offsets:
        CSR offsets (length ``n_segments + 1``); segment ``i`` spans
        ``weights[offsets[i]:offsets[i+1]]``.  Zero-length segments are legal
        (deletions pending compaction) and simply never drawn from.

    Draws address segments by slot id and return **global row indices** into
    the CSR order, so the caller can gather ``csr.row_positions[result]``
    directly.  Uniform segments (all weights equal — detected vectorized at
    construction) skip table construction entirely; the remaining segments
    are drawn from cold until building pays (see the module docstring),
    which is what makes the epoch protocol cheap:
    :meth:`rebuild_segments` just clears the built flag of the dirtied slots.
    """

    __slots__ = (
        "offsets",
        "weights",
        "segment_totals",
        "prob",
        "alias",
        "_built",
        "_all_built",
        "_cold_draws",
    )

    def __init__(self, weights: np.ndarray, offsets: np.ndarray) -> None:
        self.offsets = np.asarray(offsets)
        self.weights = np.asarray(weights, dtype=float)
        n = self.weights.size
        n_seg = len(self.offsets) - 1
        starts = self.offsets[:-1]
        ends = self.offsets[1:]
        nonempty = ends > starts
        self.segment_totals = np.zeros(n_seg, dtype=float)
        if n_seg and n:
            ne_starts = np.asarray(starts[nonempty], dtype=np.intp)
            if ne_starts.size:
                self.segment_totals[nonempty] = np.add.reduceat(self.weights, ne_starts)
        self.prob = np.ones(n, dtype=float)
        self.alias = np.arange(n, dtype=np.intp)
        # A segment whose weights are all equal draws uniformly through the
        # identity prob/alias arrays — mark it built without doing any work.
        self._built = np.zeros(n_seg, dtype=bool)
        if n_seg and n:
            seg_max = np.zeros(n_seg, dtype=float)
            seg_min = np.zeros(n_seg, dtype=float)
            ne_starts = np.asarray(starts[nonempty], dtype=np.intp)
            if ne_starts.size:
                seg_max[nonempty] = np.maximum.reduceat(self.weights, ne_starts)
                seg_min[nonempty] = np.minimum.reduceat(self.weights, ne_starts)
            self._built = (seg_max == seg_min) | ~nonempty
        elif n_seg:
            self._built = np.ones(n_seg, dtype=bool)
        self._all_built = bool(self._built.all()) if n_seg else True
        #: cold draws served since the table (or its last delta) was new
        self._cold_draws = 0

    @property
    def n_segments(self) -> int:
        return len(self.offsets) - 1

    # ------------------------------------------------------------------ build
    def _build_segment(self, slot: int) -> None:
        start = int(self.offsets[slot])
        end = int(self.offsets[slot + 1])
        total = self.segment_totals[slot]
        degree = end - start
        if degree > 0 and total > 0:
            scaled = self.weights[start:end] * (degree / total)  # fresh array
            _build_flat(scaled, self.prob[start:end], self.alias[start:end], start)
            _pin_zero_weights(
                self.weights[start:end], self.prob[start:end], self.alias[start:end], start
            )
        self._built[slot] = True

    def build_all(self) -> None:
        """Eagerly build every pending segment, making the table read-only.

        Once every segment is built, :meth:`sample` never mutates the table
        again (it short-circuits on ``_all_built``), so a fully built table
        can be shared across threads without locking.  The warm server path
        calls this once per epoch so per-request sampler clones can share one
        table; a table that has served as many cold draws as it has rows
        calls it on itself.
        """
        if self._all_built:
            return
        for slot in np.flatnonzero(~self._built).tolist():
            self._build_segment(int(slot))
        self._all_built = True

    def rebuild_segments(self, slots: Iterable[int], weights: Optional[np.ndarray] = None) -> None:
        """Invalidate the given segments after a delta.

        ``weights`` optionally replaces the rows' weights in CSR order (same
        shape — for shape-changing deltas build a fresh table instead).  Only
        the named slots lose their tables (and are drawn from cold, with the
        new weights, until the next :meth:`build_all`); everything else keeps
        its tables, which is the "per-segment where the delta is local" half
        of the epoch protocol.
        """
        slot_arr = np.asarray(list(slots), dtype=np.intp)
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != self.weights.shape:
                raise ValueError(
                    "rebuild_segments cannot change the CSR shape; build a new table"
                )
            self.weights = w
            for slot in slot_arr.tolist():
                start, end = int(self.offsets[slot]), int(self.offsets[slot + 1])
                self.segment_totals[slot] = float(self.weights[start:end].sum())
        for slot in slot_arr.tolist():
            start, end = int(self.offsets[slot]), int(self.offsets[slot + 1])
            self.prob[start:end] = 1.0
            self.alias[start:end] = np.arange(start, end, dtype=np.intp)
            segment = self.weights[start:end]
            uniform = segment.size == 0 or float(segment.max()) == float(segment.min())
            self._built[slot] = uniform
            if not uniform:
                self._all_built = False
        self._cold_draws = 0

    # ------------------------------------------------------------------ draws
    def sample(self, rng: np.random.Generator, slots: np.ndarray) -> np.ndarray:
        """One weighted draw per entry of ``slots``; returns global CSR indices.

        Every addressed slot must have positive total weight (the sampler
        filters empty/zero segments through :attr:`segment_totals` first).
        """
        slots = np.asarray(slots, dtype=np.intp)
        starts = self.offsets[slots]
        degrees = self.offsets[slots + 1] - starts
        dart = rng.random(slots.size)
        coin = rng.random(slots.size)
        cold = None if self._all_built else self._route_unbuilt(slots, degrees)
        darts = starts + np.minimum((dart * degrees).astype(np.intp), degrees - 1)
        picks = np.where(coin < self.prob[darts], darts, self.alias[darts])
        if cold is not None:
            picks[cold] = self._cold_pick(slots[cold], dart[cold])
            self._cold_draws += int(cold.size)
            if self._cold_draws >= self.weights.size:
                self.build_all()
        return picks.astype(np.intp, copy=False)

    def _route_unbuilt(self, slots: np.ndarray, degrees: np.ndarray) -> Optional[np.ndarray]:
        """The block positions to serve cold: those whose segment is unbuilt.

        A cold draw scans its segment.  For a small segment that is at most
        ``_SMALL_SEGMENT`` rows, whatever the block holds.  A *large* segment
        is served cold only to a block that draws from it once; a block that
        draws from it again is the evidence that a table pays, so it is built
        first (one vectorized construction) — which also keeps what a block
        scans cold within ``_SMALL_SEGMENT`` rows per draw plus the table's
        own rows.
        """
        unbuilt = np.flatnonzero(~self._built[slots])
        large = unbuilt[degrees[unbuilt] > _SMALL_SEGMENT]
        if large.size:
            touched, hits = np.unique(slots[large], return_counts=True)
            for slot in touched[hits > 1].tolist():
                self._build_segment(int(slot))
            unbuilt = unbuilt[~self._built[slots[unbuilt]]]
        return unbuilt if unbuilt.size else None

    def _cold_pick(self, slots: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Segment-local inverse CDF for a block of draws: draw ``i`` maps
        ``u[i]`` in ``[0, 1)`` to the row of segment ``slots[i]`` whose share
        of the segment's weight covers it.  Reads the weights, writes nothing.

        The block's segments are laid end to end (ragged: ``sum(degrees)``
        entries, whatever the mix of degrees) and one ``cumsum`` yields every
        segment's running sums.  Each row enters as its *share* of its
        segment, negated for every other draw of the block: the running sum
        climbs to 1 over one segment and back to 0 over the next, so it never
        grows with the block or with another segment's weights, and a
        segment's own sums are exact to a few ulps of 1.  The picked row is
        the number of the segment's sums at or below ``u``, capped at the last
        positive-weight row; a zero-weight row repeats its predecessor's sum
        and is never the first to exceed anything.
        """
        starts = self.offsets[slots]
        degrees = self.offsets[slots + 1] - starts
        ends = np.cumsum(degrees)
        firsts = ends - degrees
        draw = np.repeat(np.arange(slots.size, dtype=np.intp), degrees)
        rows = np.arange(int(ends[-1]), dtype=np.intp) + (starts - firsts)[draw]
        share = self.weights[rows] / self.segment_totals[slots][draw]
        run = np.cumsum(np.where(draw & 1, -share, share))
        before = np.concatenate([[0.0], run[ends[:-1] - 1]])
        sums = np.abs(run - before[draw])
        pick = np.add.reduceat(sums <= u[draw], firsts, dtype=np.intp)
        last_positive = np.add.reduceat(sums < sums[ends - 1][draw], firsts, dtype=np.intp)
        return starts + np.minimum(pick, last_positive)


def uniform_segment_pick(
    rng: np.random.Generator, starts: np.ndarray, degrees: np.ndarray
) -> np.ndarray:
    """One uniform pick inside each CSR segment (the wander-join hop kernel).

    The degenerate alias table of a uniform segment is a single dart — no
    coin flip — so wander join's "move to a uniformly random joinable row"
    shares this kernel instead of carrying prob/alias arrays of all ones.
    """
    return starts + np.minimum(
        (rng.random(starts.size) * degrees).astype(np.intp), degrees - 1
    )


__all__ = ["AliasTable", "SegmentedAliasTable", "uniform_segment_pick"]
