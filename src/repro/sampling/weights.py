"""Weight functions for accept/reject join sampling (Zhao et al. framework).

The single-join sampler (paper §3.2) labels every tuple of every relation with
a *weight*: an upper bound on the number of join results the tuple can yield
through the subtree of the join tree rooted at its relation.  Sampling then
walks the tree root-to-leaves, choosing rows proportionally to their weights
and rejecting with the ratio of realized weight to bound, which yields
uniform, independent samples of the join result with acceptance probability
``|J| / W`` (``W`` is the total weight).

Two instantiations from the paper are provided:

* :class:`ExactWeightFunction` (**EW**) — exact per-row result counts computed
  bottom-up; sampling never rejects (the ground truth for weights).  A
  refresh after a mutation batch compares what it reads with what the pass
  before read and sums and gathers again only the slots and rows that
  moved (O(Δ) per level, after O(rows) vectorized comparisons); the root
  alias table, the edge slot maps its owner rebuilds and the product at a
  node with several children stay O(rows);
* :class:`ExtendedOlkenWeightFunction` (**EO**) — per-node constants derived
  from maximum degrees; cheap to build but rejects with rate
  ``1 - |J|/OlkenBound``.  Following §3.2 we release the key–foreign-key
  assumption by zeroing the weights of root tuples that have no joinable
  partner in some child (an extra linear pass over the hash tables).

The Wander-Join instantiation is not a weight function — it is a random-walk
estimator — and lives in :mod:`repro.sampling.wander_join`.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Dict, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.joins.join_tree import JoinTreeNode
from repro.joins.query import JoinQuery
from repro.relational.index import IntArray, SortedIndex, distinct


class WeightFunction(ABC):
    """Per-row weights over the relations of one join tree."""

    #: short identifier used in experiment labels ("ew", "eo", ...)
    name: str = "abstract"

    def __init__(self, query: JoinQuery) -> None:
        self.query = query
        self.tree = query.join_tree()

    # -------------------------------------------------------------- snapshots
    def successor(self, dirty: Set[str]) -> "WeightFunction":
        """These weights moved forward past mutations of the ``dirty``
        relations, as a new function; ``self`` is left as it was.

        A weight function is a value of one snapshot and holds no record of
        which: its owner (the shared descent of
        :mod:`repro.sampling.join_sampler`) reads the relation versions
        before the weight pass and diffs them into ``dirty``.  ``_refresh``
        recomputes only what those relations can influence and replaces the
        arrays and containers it changes instead of writing them, so the
        copy shares exactly what the delta left alone.
        """
        successor = copy.copy(self)
        successor._refresh(dirty)
        return successor

    def _refresh(self, dirty: Set[str]) -> None:
        """Recompute state invalidated by the ``dirty`` relations, replacing
        (never writing into) the containers that hold it."""
        raise NotImplementedError

    def changed_slots(
        self, node: JoinTreeNode, before: IntArray, after: IntArray
    ) -> Optional[IntArray]:
        """The slots of ``node``'s join-key CSR whose rows or row weights may
        differ between its layouts with offsets ``before`` and ``after``, as
        the refresh that made this function found them; None where it did
        not look.  A slot left out holds the same rows with the same weights,
        so level tables may carry its total and uniform flag."""
        return None

    # ------------------------------------------------------------------ api
    @property
    @abstractmethod
    def total_weight(self) -> float:
        """Sum of root-row weights ``W`` — an upper bound on the join size."""

    @abstractmethod
    def root_weights(self) -> np.ndarray:
        """Weight of every row of the root relation (array of length |root|)."""

    @abstractmethod
    def weight(self, node: JoinTreeNode, position: int) -> float:
        """Weight of the row at ``position`` in ``node``'s relation."""

    @abstractmethod
    def acceptance_bound(self, node: JoinTreeNode) -> Optional[float]:
        """Denominator of the accept/reject test when descending into ``node``.

        ``None`` means "use the realized weight sum" (no rejection — the exact
        weight case); otherwise the value must upper-bound the realized weight
        sum of the joinable rows for any parent row.
        """

    def weights_for(self, node: JoinTreeNode, positions: Sequence[int]) -> np.ndarray:
        """Vectorized weight lookup for several row positions of ``node``.

        Subclasses override this with an array gather; the default falls back
        to per-position :meth:`weight` calls.
        """
        return np.asarray(
            [self.weight(node, int(p)) for p in positions], dtype=float
        )

    def constant_weight(self, node: JoinTreeNode) -> Optional[float]:
        """The weight every row of ``node``'s relation carries, or None.

        A level plan over a constant node lays its tables out from the CSR
        offsets alone: no weight gather, no per-row comparison.
        """
        return None

    # -------------------------------------------------------------- utilities
    def describe(self) -> Dict[str, float]:
        """Summary used by benchmarks (total weight and per-node bounds)."""
        return {"total_weight": self.total_weight}


class _EdgeInputs(NamedTuple):
    """What one weight pass read of a join edge, for the next pass to compare
    against: the child's join-key CSR, its compaction count and offsets, the
    child's key column (None under a leaf, whose sums are degrees) and the
    edge's slot map."""

    csr: SortedIndex
    compactions: int
    offsets: IntArray
    keys: Optional[np.ndarray]
    slots: IntArray


#: no rows (read-only)
_NONE: IntArray = np.zeros(0, dtype=np.intp)
_NONE.setflags(write=False)


def _factor(key_sums: np.ndarray, slots: IntArray) -> np.ndarray:
    """Each parent row's factor: its slot's key sum, 0 where it joins none."""
    if key_sums.size == 0:
        return np.zeros(len(slots), dtype=float)
    return np.where(slots >= 0, key_sums[np.maximum(slots, 0)], 0.0)


def _moved(before: np.ndarray, after: np.ndarray) -> IntArray:
    """The positions where two arrays differ, those past the shorter one
    included (none when they are one object)."""
    if before is after:
        return _NONE
    m = min(len(before), len(after))
    return np.concatenate(
        [np.flatnonzero(before[:m] != after[:m]), np.arange(m, max(len(before), len(after)))]
    )


def _ones(n: int, last: Optional[np.ndarray]) -> np.ndarray:
    """``n`` leaf weights of 1: a prefix of the read-only buffer behind the
    leaf's ``last`` weights while it is long enough, else a new one with
    room to grow, so that a leaf's next snapshot allocates nothing."""
    if last is None:
        return np.ones(n, dtype=float)
    buffer = last if last.base is None else last.base
    if len(buffer) < n:
        buffer = np.ones(n + n // 8 + 16, dtype=float)
        buffer.setflags(write=False)
    return buffer[:n]


class ExactWeightFunction(WeightFunction):
    """Exact per-row join-result counts (the paper's **EW** instantiation).

    ``weight(v, t)`` equals the exact number of results of the subtree rooted
    at relation ``v`` that use row ``t``; the total weight equals the exact
    size of the (skeleton) join.  Building costs one bottom-up pass with a
    gather per row and child, through the edge's slot map
    (:meth:`~repro.joins.query.JoinQuery.edge_slots`).

    A refresh compares this snapshot's key columns, slot maps and weights
    with what the pass before read (:class:`_EdgeInputs`), level by level,
    and sums and gathers again only the slots and rows that moved, into
    copies of the last arrays: O(rows) vectorized comparisons and copies,
    O(Δ) arithmetic, at any batch size; a node with one child weighs its
    factor, and one with more multiplies its factors whole.  A level whose CSR was
    rebuilt or compacted (slot ids renumbered), or whose inputs were read
    across a mutation, takes the whole-level pass.  Weights are integer
    counts, exact in float64, so a patched array equals the rebuilt one
    byte for byte.
    """

    name = "ew"

    def __init__(self, query: JoinQuery) -> None:
        super().__init__(query)
        self._weights: Dict[str, np.ndarray] = {}
        #: per join edge (parent, child): sum of child weights per CSR key slot
        self._key_sums: Dict[Tuple[str, str], np.ndarray] = {}
        #: per join edge: the parent-row factor (key sums gathered onto rows)
        self._factors: Dict[Tuple[str, str], np.ndarray] = {}
        #: per join edge: what the pass read of it
        self._inputs: Dict[Tuple[str, str], _EdgeInputs] = {}
        #: per child relation: the CSR offsets before and after the last
        #: refresh and the slots it summed again (see :meth:`changed_slots`)
        self._resummed: Dict[str, Tuple[IntArray, IntArray, IntArray]] = {}
        self._compute(dirty=None)

    def _compute(self, dirty: Optional[Set[str]]) -> None:
        """Bottom-up weight computation; ``dirty=None`` means compute all.

        On refresh a node whose inputs are all clean is skipped, and every
        other edge and node is patched from the arrays this function holds
        on entry (which :meth:`successor`'s copy shares with the function
        before): :meth:`_refresh_edge`, :meth:`_products`.
        """
        previous = None if dirty is None else copy.copy(self)
        # Fresh dicts: a copy made by successor() shares the old ones.
        self._weights = dict(self._weights)
        self._key_sums = dict(self._key_sums)
        self._factors = dict(self._factors)
        self._inputs = dict(self._inputs)
        self._resummed = {}
        #: per relation: the rows whose weight moved, rows added or dropped
        #: included (None: unknown); at a leaf none, as its rows all weigh 1
        moved: Dict[str, Optional[IntArray]] = {}
        for node in self.tree.root.post_order():
            name = node.relation
            stale = {
                child.relation
                for child in node.children
                if dirty is None
                or child.relation in dirty
                or (rows := moved[child.relation]) is None
                or rows.size
            }
            if dirty is not None and name not in dirty and not stale:
                moved[name] = _NONE  # every input clean: cached weights stay valid
                continue
            relation = self.query.relation(name)
            last = None if previous is None else previous._weights.get(name)
            if not node.children:
                # A leaf row yields itself: weight 1.  A leaf whose row
                # count held keeps its array; its mutations reach the
                # parent edge through its CSR.
                if last is None or len(last) != len(relation):
                    self._weights[name] = _ones(len(relation), last)
                moved[name] = None if last is None else _NONE
                continue
            factored: Optional[IntArray] = _NONE  # read under one child only
            for child in node.children:
                if dirty is not None and name not in dirty and child.relation not in stale:
                    continue  # neither the slot map nor the key sums moved
                factored = self._refresh_edge(node, child, moved[child.relation], previous)
            self._weights[name], moved[name] = self._products(node, len(relation), last, factored)

    def _refresh_edge(
        self,
        parent: JoinTreeNode,
        child: JoinTreeNode,
        child_moved: Optional[IntArray],
        previous: Optional["ExactWeightFunction"],
    ) -> Optional[IntArray]:
        """Bring one edge's key sums and factor to this snapshot; returns the
        parent rows whose factor moved (None: any may have).

        A key sum moves only where a row holding the key changed key or
        weight (``child_moved``), or came or went (:meth:`_touched_slots`);
        a factor only where its row's slot moved or that slot's sum did.
        """
        edge = (parent.relation, child.relation)
        child_rel = self.query.relation(child.relation)
        csr = child_rel.sorted_index_on_columns(child.child_attributes)
        keys = child_rel.join_key_array(child.child_attributes) if child.children else None
        slots = self.query.edge_slots(parent.relation, child)
        inputs = self._inputs[edge] = _EdgeInputs(csr, csr.compactions, csr.offsets, keys, slots)
        last = None if previous is None else previous._inputs.get(edge)
        if (
            previous is None
            or last is None
            or last.csr is not csr
            or last.compactions != csr.compactions
        ):  # no pass before, or its slot ids are not these ones
            self._key_sums[edge] = self._whole_sums(child, csr)
            self._factors[edge] = _factor(self._key_sums[edge], slots)
            return None
        last_sums = previous._key_sums[edge]
        touched = self._touched_slots(child, csr, last, inputs, child_moved, previous)
        if touched is None:
            sums = self._whole_sums(child, csr)
            shifted = _moved(last_sums, sums)
        elif touched.size:
            sums = np.zeros(csr.n_keys, dtype=float)
            sums[: len(last_sums)] = last_sums
            before = sums[touched]
            sums[touched] = csr.restricted(touched).segment_sums(self._weights[child.relation])
            shifted = touched[sums[touched] != before]
        else:
            sums, shifted = last_sums, _NONE
        self._key_sums[edge] = sums

        last_factor = previous._factors[edge]
        kept = min(len(slots), len(last.slots))
        moved = last.slots[:kept] != slots[:kept]
        if shifted.size:
            # Or joins a slot whose sum moved (-1 reads the extra entry).
            hit = np.zeros(len(sums) + 1, dtype=bool)
            hit[shifted] = True
            moved |= np.take(hit, slots[:kept])  # twice a fancy index's speed
        rows = np.concatenate([np.flatnonzero(moved), np.arange(kept, len(slots))])
        if not rows.size and len(last_factor) == len(slots):
            self._factors[edge] = last_factor
            return _NONE
        if len(last_factor) != len(last.slots):  # read across a mutation
            self._factors[edge] = _factor(sums, slots)
            return None
        factor = self._factors[edge] = np.empty(len(slots), dtype=float)
        factor[:kept] = last_factor[:kept]
        factor[rows] = _factor(sums, slots[rows])
        return rows

    def _whole_sums(self, child: JoinTreeNode, csr: SortedIndex) -> np.ndarray:
        """Per-key sums of the child weights over the whole CSR.  A leaf's
        sums are its degrees, exactly."""
        if child.children:
            return csr.segment_sums(self._weights[child.relation])
        return csr.degrees().astype(float)

    def _touched_slots(
        self,
        child: JoinTreeNode,
        csr: SortedIndex,
        last: _EdgeInputs,
        inputs: _EdgeInputs,
        child_moved: Optional[IntArray],
        previous: "ExactWeightFunction",
    ) -> Optional[IntArray]:
        """The slots of ``csr`` whose rows or row weights may have moved since
        ``last`` (sorted, and recorded for :meth:`changed_slots`); None when
        a whole-level sum is due instead.

        Under a leaf: none while the CSR held, else None (degrees are one
        O(keys) pass).  Otherwise the slots of the keys that the moved rows
        and the rows whose key changed held before and hold now, looked up
        in one batch (:meth:`~repro.relational.index.SortedIndex.key_slots`).
        """
        if inputs.offsets is last.offsets and child_moved is not None and not child_moved.size:
            if child.children:  # neither a row nor a weight moved
                self._resummed[child.relation] = (last.offsets, inputs.offsets, _NONE)
            return _NONE
        if last.keys is None or inputs.keys is None or child_moved is None:
            return None
        weights, last_weights = self._weights[child.relation], previous._weights[child.relation]
        if len(inputs.keys) != len(weights) or len(last.keys) != len(last_weights):
            return None  # the keys were read across a mutation
        rows = np.concatenate([child_moved, _moved(last.keys, inputs.keys)])
        touched = distinct(
            csr.key_slots(
                np.concatenate(
                    [last.keys[rows[rows < len(last.keys)]], inputs.keys[rows[rows < len(inputs.keys)]]]
                )
            )
        )
        if touched.size and touched[0] < 0:
            return None  # a key the index lacks: read across a mutation
        self._resummed[child.relation] = (last.offsets, inputs.offsets, touched)
        return touched

    def _products(
        self, node: JoinTreeNode, n: int, last: Optional[np.ndarray], rows: Optional[IntArray]
    ) -> Tuple[np.ndarray, Optional[IntArray]]:
        """The weights of ``node``'s ``n`` rows, the product of their child
        factors, and the rows whose weight moved since ``last`` (None:
        unknown).  Under one child the weights are its factor (``1 * f`` is
        ``f``), shared, and only ``rows``, whose factor moved, and rows added
        are compared; under more, one O(rows) product and comparison."""
        factors = [self._factors[(node.relation, child.relation)] for child in node.children]
        weights = factors[0]
        for factor in factors[1:]:
            weights = weights * factor
        if last is None:
            return weights, None
        if rows is None or len(factors) > 1:
            return weights, _moved(last, weights)
        kept = min(len(last), n)
        inside = rows[rows < kept]
        return weights, np.concatenate(
            [inside[weights[inside] != last[inside]], np.arange(kept, max(len(last), n))]
        )

    def _refresh(self, dirty: Set[str]) -> None:
        self._compute(dirty)

    def changed_slots(
        self, node: JoinTreeNode, before: IntArray, after: IntArray
    ) -> Optional[IntArray]:
        resummed = self._resummed.get(node.relation)
        if resummed is None or resummed[0] is not before or resummed[1] is not after:
            return None
        return resummed[2]

    @property
    def total_weight(self) -> float:
        return float(self._weights[self.tree.root.relation].sum())

    def root_weights(self) -> np.ndarray:
        return self._weights[self.tree.root.relation]

    def weight(self, node: JoinTreeNode, position: int) -> float:
        return float(self._weights[node.relation][position])

    def weights_for(self, node: JoinTreeNode, positions: Sequence[int]) -> np.ndarray:
        """Vectorized weight lookup for several row positions.

        A row appended after the pass that computed these weights (a mutation
        landing during a refresh, while the descent lays its plans out over
        the live index) is not in their snapshot and weighs 0; the next
        refresh recomputes its relation.
        """
        weights = self._weights[node.relation]
        positions = np.asarray(positions, dtype=np.intp)
        try:
            return np.take(weights, positions)  # twice a fancy index's speed
        except IndexError:
            covered = np.zeros(int(positions.max()) + 1)
            covered[: len(weights)] = weights
            return covered[positions]

    def constant_weight(self, node: JoinTreeNode) -> Optional[float]:
        """1 on a leaf, unless the leaf grew past this snapshot: a row
        appended since weighs 0 (see :meth:`weights_for`)."""
        if node.children:
            return None
        if len(self.query.relation(node.relation)) > len(self._weights[node.relation]):
            return None
        return 1.0

    def acceptance_bound(self, node: JoinTreeNode) -> Optional[float]:
        return None  # exact weights never reject


class ExtendedOlkenWeightFunction(WeightFunction):
    """Maximum-degree weights (the paper's **EO** instantiation).

    Every row of relation ``v`` gets the same weight ``cap(v)``:

        cap(leaf) = 1
        cap(v)    = Π_{c child of v} M_key(c) · cap(c)

    so the total weight is the extended Olken bound.  With
    ``prune_dangling=True`` (the paper's modification for non key–foreign-key
    joins) root rows with no joinable partner in some child get weight zero,
    which tightens the bound without affecting uniformity.
    """

    name = "eo"

    def __init__(self, query: JoinQuery, prune_dangling: bool = True) -> None:
        super().__init__(query)
        self.prune_dangling = prune_dangling
        self._cap: Dict[str, float] = {}
        self._max_degree: Dict[str, float] = {}
        self._compute_caps()
        self._root_weights = self._compute_root_weights()

    def _refresh(self, dirty: Set[str]) -> None:
        # Caps are a handful of maintained max-degree lookups and the root
        # weights one vectorized slot gather, so EO recomputes both wholesale
        # (the delta-maintained statistics make this O(#relations + |root|)).
        self._cap = {}
        self._max_degree = {}
        self._compute_caps()
        self._root_weights = self._compute_root_weights()

    def _compute_caps(self) -> None:
        for node in self.tree.root.post_order():
            cap = 1.0
            for child in node.children:
                child_rel = self.query.relation(child.relation)
                stats = child_rel.statistics_on_columns(child.child_attributes)
                self._max_degree[child.relation] = float(stats.max_degree)
                cap *= float(stats.max_degree) * self._cap[child.relation]
            self._cap[node.relation] = cap

    def _compute_root_weights(self) -> np.ndarray:
        root = self.tree.root
        relation = self.query.relation(root.relation)
        weights = np.full(len(relation), self._cap[root.relation], dtype=float)
        if not self.prune_dangling:
            return weights
        for child in root.children:
            weights[self.query.edge_slots(root.relation, child) < 0] = 0.0
        return weights

    @property
    def total_weight(self) -> float:
        return float(self._root_weights.sum())

    def root_weights(self) -> np.ndarray:
        return self._root_weights

    def weight(self, node: JoinTreeNode, position: int) -> float:
        if node.is_root:
            return float(self._root_weights[position])
        return self._cap[node.relation]

    def weights_for(self, node: JoinTreeNode, positions: Sequence[int]) -> np.ndarray:
        """Vectorized weight lookup (constant ``cap`` below the root)."""
        if node.is_root:
            return self._root_weights[np.asarray(positions, dtype=np.intp)]
        return np.full(len(positions), self._cap[node.relation], dtype=float)

    def constant_weight(self, node: JoinTreeNode) -> Optional[float]:
        """``cap`` on every level below the root."""
        return None if node.is_root else self._cap[node.relation]

    def cap(self, relation: str) -> float:
        """Per-node constant ``cap`` (bound on any row's subtree result count)."""
        return self._cap[relation]

    def acceptance_bound(self, node: JoinTreeNode) -> Optional[float]:
        return self._max_degree[node.relation] * self._cap[node.relation]


_KINDS = {
    "ew": "ew", "exact": "ew", "exact_weight": "ew",
    "eo": "eo", "olken": "eo", "extended_olken": "eo",
}


def weight_kind(method: str) -> str:
    """The kind (``"ew"`` or ``"eo"``) a method name or alias stands for."""
    try:
        return _KINDS[method.lower()]
    except KeyError:
        raise ValueError(
            f"unknown weight method {method!r}; expected 'ew' or 'eo'"
        ) from None


def make_weight_function(method: str, query: JoinQuery) -> WeightFunction:
    """Factory: ``"ew"``/``"exact"`` or ``"eo"``/``"olken"`` -> weight function."""
    if weight_kind(method) == "ew":
        return ExactWeightFunction(query)
    return ExtendedOlkenWeightFunction(query)


__all__ = [
    "WeightFunction",
    "ExactWeightFunction",
    "ExtendedOlkenWeightFunction",
    "make_weight_function",
    "weight_kind",
]
