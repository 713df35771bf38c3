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
* :class:`SegmentTables` + :class:`SegmentedAliasTable` — one alias table
  per key segment of a CSR :class:`~repro.relational.index.SortedIndex`
  (the per-level child choice), in two halves.  The **shared tables**
  (weights, segment totals, ``prob``/``alias``, the mask of built segments
  and a lock that serialises builds) are one object per snapshot, held by
  the query's descent and read by every sampler of that snapshot.  The
  **per-sampler view** holds that sampler's *build decisions*.  Segments
  whose weights are uniform (the common leaf-level case: every weight 1)
  need no table at all.  A non-uniform segment's table costs O(degree) to
  build, so a segment that is drawn from about once must not pay for one:
  a draw into a segment the view has not built is served **cold**, by a
  segment-local inverse CDF computed for the whole block of such draws in
  a handful of ragged array operations (no per-segment Python, nothing
  written).  A view decides to build only where it pays: a large segment
  when one block draws from it more than once (one vectorized
  construction; a small segment costs a cold draw at most
  ``_SMALL_SEGMENT`` rows and is never built by a draw), and every
  remaining segment at once by ``build_all()`` — which the warm server
  path calls per epoch, and which the view calls on itself once it has
  served as many cold draws as the tables have rows (by then the workload
  has paid, draw by draw, what the tables cost).  A decision to build a
  segment that another view already built costs nothing but the mark, so
  the amortisation is paid once per snapshot, while what a seed draws
  depends on its own decisions only.  A mutation never writes published
  tables: ``SegmentTables.patched()`` gives the next snapshot's tables,
  sharing nothing it changes, and ``SegmentedAliasTable.resync()`` drops
  exactly the decisions on the segments a delta dirtied; over a CSR whose
  rows a delta moved, ``SegmentTables.reshaped()`` gives fresh tables that
  reduce only the segments the delta changed.

Every draw path consumes the underlying generator identically (one uniform
for the dart, one for the coin — a cold draw inverts the first and ignores
the second), so a fixed seed yields a fixed draw sequence regardless of how
many segments happen to be uniform, built, or cold.  Alias index arrays are
int32 whenever the row count allows.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Optional, Sequence

import numpy as np
import numpy.typing as npt

_Floats = npt.NDArray[np.float64]
_Indices = npt.NDArray[np.intp]
#: alias entries: int32 or intp, see ``_index_dtype``
_AliasIndices = npt.NDArray[np.signedinteger[Any]]

#: Vectorized pairing rounds before the sequential fallback takes over.
_MAX_ROUNDS = 64

#: Below this size the sequential list-based Vose beats the vectorized
#: construction (numpy call overhead dominates tiny segments) — and a draw
#: never builds the segment's table: it is served cold, whatever the block.
_SMALL_SEGMENT = 64


def _index_dtype(n: int) -> type[np.signedinteger[Any]]:
    """Dtype of an alias array over ``n`` rows: int32 while every row index
    fits (half the bytes), else the platform index type.  Draws are the same
    either way: ``np.where`` against the ``intp`` darts promotes to ``intp``."""
    return np.int32 if n < 2**31 else np.intp


def _build_flat(scaled: _Floats, prob: _Floats, alias: _AliasIndices, base: int) -> None:
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
    weights: _Floats, prob: _Floats, alias: _AliasIndices, base: int
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


def _scaled(weights: _Floats, total: float, n: int) -> _Floats:
    """``weights`` scaled to mean 1, as a new array.  ``n / total`` is inf
    for a subnormal ``total`` (and ``inf * 0`` NaN), so such weights are
    divided first; all others keep the one-multiply rounding."""
    scale = n / float(total)
    if math.isfinite(scale):
        return weights * scale
    return weights / total * n


def _reduce_segments(
    values: _Floats, starts: _Indices
) -> tuple[_Floats, npt.NDArray[np.bool_]]:
    """Total and all-equal flag of each segment of ``values``: segment ``i``
    runs from ``starts[i]`` (ascending) to the next start, the last one to
    the end."""
    totals: _Floats = np.add.reduceat(values, starts)
    uniform = np.maximum.reduceat(values, starts) == np.minimum.reduceat(values, starts)
    return totals, uniform


class AliasTable:
    """Alias table over one weight vector (e.g. the root-row weights).

    Zero-weight items are valid: their buckets carry ``prob = 0`` and always
    defer to their alias, so they are never drawn (provided some weight is
    positive — an all-zero table refuses to sample).
    """

    __slots__ = ("n", "total", "prob", "alias")

    def __init__(self, weights: Sequence[float] | npt.NDArray[Any]) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if w.size and float(w.min()) < 0:
            raise ValueError("weights must be non-negative")
        self.n = int(w.size)
        self.total = float(w.sum())
        self.prob = np.ones(self.n, dtype=float)
        self.alias = np.arange(self.n, dtype=_index_dtype(self.n))
        if self.n and self.total > 0:
            # The scaled weights are a fresh array: _build_flat may consume it.
            _build_flat(_scaled(w, self.total, self.n), self.prob, self.alias, 0)
            _pin_zero_weights(w, self.prob, self.alias, 0)

    def sample(self, rng: np.random.Generator, size: int) -> _Indices:
        """``size`` independent draws (indices into the weight vector)."""
        if self.n == 0 or self.total <= 0:
            raise ValueError("cannot sample from an empty or all-zero table")
        darts = rng.integers(0, self.n, size=size)
        keep = rng.random(size) < self.prob[darts]
        return np.where(keep, darts, self.alias[darts]).astype(np.intp, copy=False)


class SegmentTables:
    """The shared half of a segmented alias table: one alias table per key
    segment of a CSR (offsets + per-row weights) layout.

    Parameters
    ----------
    weights:
        Row weights in CSR order (length ``offsets[-1]``).
    offsets:
        CSR offsets (length ``n_segments + 1``); segment ``i`` spans
        ``weights[offsets[i]:offsets[i+1]]``.  Zero-length segments are legal
        (deletions pending compaction) and simply never drawn from.

    ``built`` marks the segments whose tables ``prob``/``alias`` hold;
    uniform segments (all weights equal, detected vectorized here) draw
    through the identity arrays and start built.  A segment's table is a
    function of its weights alone, so it is built at most once, by
    whichever view first decides to build it, under ``_lock``.  Published
    tables only ever gain built segments; the next snapshot's are a new
    object (:meth:`patched`).
    """

    __slots__ = (
        "offsets", "weights", "segment_totals", "uniform", "prob", "alias", "built",
        "complete", "_lock",
    )

    def __init__(self, weights: npt.NDArray[Any], offsets: npt.NDArray[Any]) -> None:
        offsets = np.asarray(offsets)
        weights = np.asarray(weights, dtype=float)
        nonempty = offsets[1:] > offsets[:-1]
        ne_starts = np.asarray(offsets[:-1][nonempty], dtype=np.intp)
        segment_totals = np.zeros(len(offsets) - 1, dtype=float)
        uniform = np.ones(len(offsets) - 1, dtype=bool)
        if ne_starts.size and weights.size:
            segment_totals[nonempty], uniform[nonempty] = _reduce_segments(weights, ne_starts)
        self._start(weights, offsets, segment_totals, uniform)

    def _start(
        self,
        weights: _Floats,
        offsets: npt.NDArray[Any],
        segment_totals: _Floats,
        uniform: npt.NDArray[np.bool_],
    ) -> None:
        """Adopt the CSR and its segment reductions; build no table but the
        uniform segments' (which need none)."""
        self.offsets = offsets
        self.weights = weights
        self.segment_totals = segment_totals
        self.uniform = uniform
        n = weights.size
        self.prob = np.ones(n, dtype=float)
        self.alias = np.arange(n, dtype=_index_dtype(n))
        self.built = uniform.copy()
        #: every segment built: views made from now on may skip the mask
        self.complete = bool(self.built.all())
        self._lock = threading.Lock()

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
            scaled = _scaled(self.weights[start:end], total, degree)  # fresh array
            _build_flat(scaled, self.prob[start:end], self.alias[start:end], start)
            _pin_zero_weights(
                self.weights[start:end], self.prob[start:end], self.alias[start:end], start
            )
        self.built[slot] = True

    def build(self, slots: _Indices) -> None:
        """Build the tables of ``slots`` that no view has built yet."""
        with self._lock:
            for slot in slots[~self.built[slots]].tolist():
                self._build_segment(int(slot))

    def build_all(self) -> None:
        """Build every segment still unbuilt (a no-op once complete)."""
        if self.complete:
            return
        with self._lock:
            for slot in np.flatnonzero(~self.built).tolist():
                self._build_segment(int(slot))
            self.complete = True

    def changed_segments(
        self, weights: _Floats, offsets: Optional[npt.NDArray[Any]] = None
    ) -> npt.NDArray[np.bool_]:
        """Mask of the slots of the CSR ``offsets`` (default: these tables'
        own) whose degree or row weights differ from these tables'; slots
        appended past these tables' count are changed.

        ``offsets`` must number the slots as these tables do: rows inserted
        and deleted, slots appended, none compacted away
        (:attr:`~repro.relational.index.SortedIndex.compactions` tells).
        Slots whose degree moved cut the CSR into runs over which every
        offset shifts by one constant, so each run's weights compare as two
        slices: O(rows) comparisons, O(changed slots) Python.
        """
        old = self.offsets
        offsets = old if offsets is None else np.asarray(offsets)
        n_old = self.n_segments
        if len(offsets) - 1 < n_old:
            raise ValueError("slots were compacted away; build new tables")
        changed = np.ones(len(offsets) - 1, dtype=bool)
        changed[:n_old] = np.diff(old) != np.diff(offsets[: n_old + 1])
        cuts = np.flatnonzero(changed[:n_old]).tolist()
        moved: list[_Indices] = []
        for first, end in zip([0] + [cut + 1 for cut in cuts], cuts + [n_old]):
            lo, hi = int(old[first]), int(old[end])
            shift = int(offsets[first]) - lo
            differ = self.weights[lo:hi] != weights[lo + shift : hi + shift]
            moved.append(np.flatnonzero(differ) + lo)
        rows = np.concatenate(moved)
        changed[np.searchsorted(old, rows.astype(old.dtype), side="right") - 1] = True
        return changed

    def patched(self, weights: npt.NDArray[Any]) -> "SegmentTables":
        """These tables over new row weights of the same CSR, as new tables.

        A segment whose rows kept their weights keeps its table, built or
        not; a changed segment starts over (built only if now uniform, drawn
        cold from its new weights until a view builds it).  Returns ``self``
        when no weight moved.  Nothing of ``self`` is written: samplers still
        drawing from the previous snapshot keep exactly what they read.
        """
        w = np.asarray(weights, dtype=float)
        if w.shape != self.weights.shape:
            raise ValueError("a patch cannot change the CSR shape; build new tables")
        changed = self.changed_segments(w)
        if not changed.any():
            return self
        tables = self._carried(w, self.offsets, changed)
        kept_rows = np.repeat(~changed, np.diff(self.offsets))
        with self._lock:
            tables.prob[kept_rows] = self.prob[kept_rows]
            tables.alias[kept_rows] = self.alias[kept_rows]
            tables.built[~changed] = self.built[~changed]
        tables.complete = bool(tables.built.all())
        return tables

    def reshaped(self, weights: npt.NDArray[Any], offsets: npt.NDArray[Any]) -> "SegmentTables":
        """New tables over the CSR these tables' CSR became by deltas that
        renumbered no slot (see :meth:`changed_segments`).

        Equal to ``SegmentTables(weights, offsets)`` field for field, at the
        cost of the delta: only the changed and appended segments are
        reduced.  Like fresh tables, they have built nothing but the uniform
        segments (a dirty edge's views start cold), and nothing of ``self``
        is written.
        """
        w = np.asarray(weights, dtype=float)
        offsets = np.asarray(offsets)
        return self._carried(w, offsets, self.changed_segments(w, offsets))

    def _carried(
        self, w: _Floats, offsets: npt.NDArray[Any], changed: npt.NDArray[np.bool_]
    ) -> "SegmentTables":
        """Fresh tables over ``w``/``offsets`` that reduce the ``changed``
        slots and take every other slot's total and uniform flag from these
        tables."""
        kept = np.flatnonzero(~changed)
        segment_totals = np.zeros(changed.size, dtype=float)
        uniform = np.ones(changed.size, dtype=bool)
        segment_totals[kept] = self.segment_totals[kept]
        uniform[kept] = self.uniform[kept]
        slots = np.flatnonzero(changed)
        starts = np.asarray(offsets[slots], dtype=np.intp)
        degrees = np.asarray(offsets[slots + 1], dtype=np.intp) - starts
        nonempty = degrees > 0
        slots, starts, degrees = slots[nonempty], starts[nonempty], degrees[nonempty]
        if slots.size:
            # The changed segments' rows laid end to end: each reduces over
            # exactly the values a whole-CSR reduceat gives it.
            ends = np.cumsum(degrees)
            firsts = ends - degrees
            rows = np.arange(int(ends[-1]), dtype=np.intp) + np.repeat(starts - firsts, degrees)
            segment_totals[slots], uniform[slots] = _reduce_segments(w[rows], firsts)
        tables = SegmentTables.__new__(SegmentTables)
        tables._start(w, offsets, segment_totals, uniform)
        return tables

    def cold_pick(self, slots: _Indices, u: _Floats) -> _Indices:
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


class SegmentedAliasTable:
    """One sampler's view of shared :class:`SegmentTables`: its build decisions.

    Draws address segments by slot id and return **global row indices** into
    the CSR order, so the caller can gather ``csr.row_positions[result]``
    directly.  The view keeps which segments *this sampler* has decided to
    draw from a table (``_built``), whether that is all of them
    (``_all_built``) and its count toward promotion (``_cold_draws``); a
    segment it has not decided to build is drawn cold, even when another
    sampler's view had the shared table build it.  Deciding to build a
    segment that is already built only marks it.  So a draw depends on the
    seed and the snapshot alone, never on what other samplers of the
    snapshot did (see the module docstring for the rule).

    A new view has built nothing but the uniform segments; ``all_built``
    builds every segment first and gives a view that reads no mask and
    writes nothing (it may share the tables' own ``built`` array).
    :meth:`resync` moves a view to the next snapshot's tables over the same
    CSR.
    """

    __slots__ = ("tables", "_built", "_all_built", "_cold_draws")

    def __init__(self, tables: SegmentTables, all_built: bool = False) -> None:
        self.tables = tables
        if all_built:
            tables.build_all()
            self._built = tables.built
        else:
            self._built = tables.uniform.copy()
        self._all_built = all_built or bool(self._built.all())
        #: cold draws served since the view (or its last delta) was new
        self._cold_draws = 0

    def build_all(self) -> None:
        """Build every segment for this view: from now on it only reads.

        Once every segment is built, :meth:`sample` never mutates the view or
        the tables again (it short-circuits on ``_all_built``), so the view's
        draws need no lock.  ``warm()`` calls this per epoch; a view that has
        served as many cold draws as its tables have rows calls it on itself.
        """
        if self._all_built:
            return
        self.tables.build_all()
        self._built = self.tables.built
        self._all_built = True

    def resync(self, tables: SegmentTables) -> "SegmentedAliasTable":
        """Move to ``tables``, the next snapshot's tables over the same CSR;
        returns self.

        Only the segments whose weights moved lose this view's build decision
        (drawn cold, with the new weights, until it builds them again) and
        the count toward promotion starts over; everything else keeps its
        decision — the "per-segment where the delta is local" half of the
        epoch protocol.

        A kept decision needs its table in ``tables``, which need not hold
        it: they may descend from other tables than this view's (a snapshot
        in between retired the chain, or a segment's weights moved and came
        back), or this view built the segment after they were patched.  So
        every kept segment ``tables`` lack is built into them here — the
        table of the same weights, so the view draws what it drew before.
        """
        if tables is self.tables:
            return self
        changed = self.tables.changed_segments(tables.weights)
        self.tables = tables
        if changed.any():
            self._built = self._built.copy()  # possibly the old tables' mask
            self._built[changed] = tables.uniform[changed]
            self._all_built = self._all_built and bool(tables.uniform[changed].all())
            self._cold_draws = 0
        if self._all_built:
            tables.build_all()
            self._built = tables.built
        else:
            tables.build(np.flatnonzero(self._built))
        return self

    # ------------------------------------------------------------------ draws
    def sample(self, rng: np.random.Generator, slots: npt.NDArray[Any]) -> _Indices:
        """One weighted draw per entry of ``slots``; returns global CSR indices.

        Every addressed slot must have positive total weight (the sampler
        filters empty/zero segments through ``segment_totals`` first).
        """
        tables = self.tables
        slots = np.asarray(slots, dtype=np.intp)
        starts = tables.offsets[slots]
        degrees = tables.offsets[slots + 1] - starts
        dart = rng.random(slots.size)
        coin = rng.random(slots.size)
        cold = None if self._all_built else self._route_unbuilt(slots, degrees)
        darts = starts + np.minimum((dart * degrees).astype(np.intp), degrees - 1)
        picks = np.where(coin < tables.prob[darts], darts, tables.alias[darts])
        if cold is not None:
            picks[cold] = tables.cold_pick(slots[cold], dart[cold])
            self._cold_draws += int(cold.size)
            if self._cold_draws >= tables.weights.size:
                self.build_all()
        return picks.astype(np.intp, copy=False)

    def _route_unbuilt(
        self, slots: _Indices, degrees: npt.NDArray[Any]
    ) -> Optional[_Indices]:
        """The block positions to serve cold: those whose segment is unbuilt.

        A cold draw scans its segment.  For a small segment that is at most
        ``_SMALL_SEGMENT`` rows, whatever the block holds.  A *large* segment
        is served cold only to a block that draws from it once; a block that
        draws from it again is the evidence that a table pays, so it is built
        first (one vectorized construction, or none if the shared tables hold
        it already) — which also keeps what a block scans cold within
        ``_SMALL_SEGMENT`` rows per draw plus the table's own rows.
        """
        unbuilt = np.flatnonzero(~self._built[slots])
        large = unbuilt[degrees[unbuilt] > _SMALL_SEGMENT]
        if large.size:
            touched, hits = np.unique(slots[large], return_counts=True)
            repeated = touched[hits > 1]
            if repeated.size:
                self.tables.build(repeated)
                self._built[repeated] = True
                unbuilt = unbuilt[~self._built[slots[unbuilt]]]
        return unbuilt if unbuilt.size else None


def uniform_segment_pick(
    rng: np.random.Generator, starts: npt.NDArray[Any], degrees: npt.NDArray[Any]
) -> _Indices:
    """One uniform pick inside each CSR segment (the wander-join hop kernel).

    The degenerate alias table of a uniform segment is a single dart — no
    coin flip — so wander join's "move to a uniformly random joinable row"
    shares this kernel instead of carrying prob/alias arrays of all ones.
    """
    return starts + np.minimum(
        (rng.random(starts.size) * degrees).astype(np.intp), degrees - 1
    )


__all__ = ["AliasTable", "SegmentTables", "SegmentedAliasTable", "uniform_segment_pick"]
