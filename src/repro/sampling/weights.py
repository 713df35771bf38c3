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
  bottom-up; sampling never rejects (the ground truth for weights);
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
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.joins.join_tree import JoinTreeNode
from repro.joins.query import JoinQuery


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


class ExactWeightFunction(WeightFunction):
    """Exact per-row join-result counts (the paper's **EW** instantiation).

    ``weight(v, t)`` equals the exact number of results of the subtree rooted
    at relation ``v`` that use row ``t``; the total weight equals the exact
    size of the (skeleton) join.  Building costs one bottom-up pass with a
    gather per row and child, through the edge's slot map
    (:meth:`~repro.joins.query.JoinQuery.edge_slots`).
    """

    name = "ew"

    def __init__(self, query: JoinQuery) -> None:
        super().__init__(query)
        self._weights: Dict[str, np.ndarray] = {}
        #: per join edge (parent, child): sum of child weights per CSR key slot
        self._key_sums: Dict[Tuple[str, str], np.ndarray] = {}
        #: per join edge: the parent-row factor (key sums gathered onto rows)
        self._factors: Dict[Tuple[str, str], np.ndarray] = {}
        self._compute(dirty=None)

    def _compute(self, dirty: Optional[Set[str]]) -> None:
        """Bottom-up weight computation; ``dirty=None`` means compute all.

        On refresh only the segments the dirty relations can influence are
        patched: an edge's key sums are recomputed when its child subtree
        changed, an edge's factor when additionally the parent's own rows
        changed, and a node whose inputs are all clean is skipped entirely —
        including the root, whose weight array is the product of per-child
        factor segments rather than a whole-tree recomputation.
        """
        recomputed: Set[str] = set()
        # Fresh dicts: a copy made by successor() shares the old ones.
        self._weights = dict(self._weights)
        self._key_sums = dict(self._key_sums)
        self._factors = dict(self._factors)

        def changed(relation_name: str) -> bool:
            return (
                dirty is None
                or relation_name in dirty
                or relation_name in recomputed
            )

        for node in self.tree.root.post_order():
            name = node.relation
            node_dirty = dirty is None or name in dirty
            if not node_dirty and not any(changed(c.relation) for c in node.children):
                continue  # every input clean: cached weights stay valid
            relation = self.query.relation(name)
            if not node.children:
                # A leaf row yields itself: weight 1.  A leaf whose row
                # count held keeps its array; its dirtiness reaches the
                # parent edge through ``dirty``.
                previous = self._weights.get(name)
                if previous is None or len(previous) != len(relation):
                    self._weights[name] = np.ones(len(relation), dtype=float)
                    recomputed.add(name)
                continue
            weights = np.ones(len(relation), dtype=float)
            for child in node.children:
                edge = (name, child.relation)
                if changed(child.relation) or edge not in self._key_sums:
                    child_rel = self.query.relation(child.relation)
                    csr = child_rel.sorted_index_on_columns(child.child_attributes)
                    # Per-key sums of the child weights, then one gather per
                    # parent row: weight(parent) *= sum of joinable child
                    # weights.  A leaf's sums are its degrees, exactly.
                    self._key_sums[edge] = (
                        csr.segment_sums(self._weights[child.relation])
                        if child.children
                        else csr.degrees().astype(float)
                    )
                    self._factors.pop(edge, None)
                if node_dirty or edge not in self._factors:
                    key_sums = self._key_sums[edge]
                    if key_sums.size == 0:
                        factor = np.zeros(len(relation), dtype=float)
                    else:
                        slots = self.query.edge_slots(name, child)
                        factor = np.where(
                            slots >= 0, key_sums[np.maximum(slots, 0)], 0.0
                        )
                    self._factors[edge] = factor
                weights = weights * self._factors[edge]
            previous = self._weights.get(name)
            if (
                previous is None
                or previous.shape != weights.shape
                or not np.array_equal(previous, weights)
            ):
                recomputed.add(name)
            self._weights[name] = weights

    def _refresh(self, dirty: Set[str]) -> None:
        self._compute(dirty)

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
            return weights[positions]
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
