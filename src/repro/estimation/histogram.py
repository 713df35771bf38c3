"""Histogram-based overlap and union-size estimation (paper §5 and §8).

This is the *decentralized* instantiation of the warm-up phase: it only needs
column statistics (value-frequency histograms on join attributes and maximum
degrees), never the data itself, which makes it suitable for data markets or
web sources where tuple access is expensive.

Estimation proceeds in two modes:

* **direct** (§5.1) — when the joins in Δ are chains of the same length whose
  relations correspond positionally (the UQ1 / UQ2 shape), the overlap bound is
  built stage by stage:

      K(1) = Σ_v  min_j { d_{A_1}(v, R_{j,1}) · d_{A_1}(v, R_{j,2}) }
      K(i) = K(i-1) · min_j { M_{A_i}(R_{j,i+1}) }          (or average degree)

* **split** (§5.2, §8.1) — otherwise every join is rewritten against a shared
  standard template into a base chain of two-attribute relations (see
  :mod:`repro.joins.splitting`), fake joins contribute a factor of 1, and the
  same recurrence is applied to the derived chains (Theorem 4).

Join sizes themselves can be instantiated with the Extended Olken bound
(``"eo"``) or with exact weights (``"ew"``), mirroring the paper's evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.estimation.base import UnionSizeEstimator
from repro.joins.query import JoinQuery, JoinType
from repro.joins.splitting import SplitChain, build_split_chains
from repro.joins.template import Template, find_standard_template
from repro.sampling.olken import olken_upper_bound
from repro.sampling.weights import ExactWeightFunction


class HistogramUnionEstimator(UnionSizeEstimator):
    """Warm-up phase instantiation based on histograms and degree statistics.

    Parameters
    ----------
    queries:
        The joins of the union.
    join_size_method:
        ``"eo"`` — extended Olken upper bound (cheapest, loosest) or
        ``"ew"`` — exact weights (the ground-truth weight instantiation used
        in the paper's evaluation).
    refinement:
        ``"max"`` uses maximum degrees (guaranteed upper bound, §5.1) while
        ``"average"`` uses average degrees (tighter but no longer a bound).
    mode:
        ``"auto"`` (default) picks the direct recurrence when all joins in Δ
        are positionally aligned chains and falls back to splitting otherwise;
        ``"direct"`` / ``"split"`` force one path.
    template / zero_distance_weight:
        Standard template for the split path; searched automatically when not
        supplied (see :func:`repro.joins.template.find_standard_template`).
    exact_join_sizes:
        Optional exact sizes ``|J_j|`` that replace ``join_size_method`` for
        the joins they name (a caller that already holds exact-weight
        samplers knows them for free); the histograms then supply only the
        overlap bounds.
    """

    method = "histogram"

    def __init__(
        self,
        queries: Sequence[JoinQuery],
        join_size_method: str = "eo",
        refinement: str = "max",
        mode: str = "auto",
        template: Optional[Template] = None,
        zero_distance_weight: float = 0.0,
        exact_join_sizes: Optional[Mapping[str, float]] = None,
    ) -> None:
        super().__init__(queries)
        if join_size_method not in ("eo", "ew"):
            raise ValueError("join_size_method must be 'eo' or 'ew'")
        if refinement not in ("max", "average"):
            raise ValueError("refinement must be 'max' or 'average'")
        if mode not in ("auto", "direct", "split"):
            raise ValueError("mode must be 'auto', 'direct' or 'split'")
        self.join_size_method = join_size_method
        self.refinement = refinement
        self.mode = mode
        self.zero_distance_weight = zero_distance_weight
        self._template = template
        self._split_chains: Optional[Dict[str, SplitChain]] = None
        self._join_size_cache: Dict[str, float] = {
            name: float(size) for name, size in (exact_join_sizes or {}).items()
        }

    # ----------------------------------------------------------------- sizes
    def join_size(self, query: JoinQuery) -> float:
        if query.name not in self._join_size_cache:
            if self.join_size_method == "ew":
                size = ExactWeightFunction(query).total_weight
            else:
                size = olken_upper_bound(query)
            self._join_size_cache[query.name] = float(size)
        return self._join_size_cache[query.name]

    # ---------------------------------------------------------------- overlap
    def overlap(self, queries: Sequence[JoinQuery]) -> float:
        if len(queries) == 1:
            return self.join_size(queries[0])
        if self.mode == "direct" or (self.mode == "auto" and self._directly_alignable(queries)):
            bound = self._direct_overlap(queries)
        else:
            bound = self._split_overlap(queries)
        # An overlap can never exceed the smallest participating join.
        return min(bound, min(self.join_size(q) for q in queries))

    # ------------------------------------------------------------ direct mode
    def _directly_alignable(self, queries: Sequence[JoinQuery]) -> bool:
        """True when all joins are chains with the same number of relations."""
        lengths = set()
        for query in queries:
            if query.join_type is not JoinType.CHAIN:
                return False
            lengths.add(len(query.relation_names))
        return len(lengths) == 1

    def _direct_overlap(self, queries: Sequence[JoinQuery]) -> float:
        """The §5.1 recurrence over positionally corresponding chain relations."""
        stage_degrees: List[Tuple[Mapping[object, float], ...]] = []
        per_query_stages = []
        for query in queries:
            tree = query.join_tree()
            chain = tree.chain_relations()
            edges = []
            node = tree.root
            while node.children:
                child = node.children[0]
                edges.append((node.relation, child.relation, child))
                node = child
            per_query_stages.append((query, chain, edges))

        length = len(per_query_stages[0][1])
        if any(len(chain) != length for _, chain, _ in per_query_stages):
            raise ValueError("direct overlap estimation requires equal-length chains")
        if length == 1:
            return min(float(len(q.relation(chain[0]))) for q, chain, _ in per_query_stages)

        # Stage 1: per-value pair bound between the first two relations.
        first_histograms = []
        for query, chain, edges in per_query_stages:
            parent_name, child_name, child_node = edges[0]
            parent_rel = query.relation(parent_name)
            child_rel = query.relation(child_name)
            d_parent = parent_rel.statistics_on_columns(child_node.parent_attributes)
            d_child = child_rel.statistics_on_columns(child_node.child_attributes)
            first_histograms.append((d_parent.frequencies(), d_child.frequencies()))

        smallest = min(first_histograms, key=lambda pair: len(pair[0]))[0]
        k_value = 0.0
        for value in smallest:
            per_join = []
            for d_parent, d_child in first_histograms:
                pairs = float(d_parent.get(value, 0)) * float(d_child.get(value, 0))
                per_join.append(pairs)
            k_value += min(per_join)

        # Stages 2..n-1: multiply by the minimum degree bound of the next hop.
        for stage in range(1, length - 1):
            factors = []
            for query, chain, edges in per_query_stages:
                _, child_name, child_node = edges[stage]
                stats = query.relation(child_name).statistics_on_columns(
                    child_node.child_attributes
                )
                if self.refinement == "max":
                    factors.append(float(stats.max_degree))
                else:
                    factors.append(float(stats.average_degree))
            k_value *= min(factors)
            if k_value == 0.0:
                return 0.0
        return k_value

    # ------------------------------------------------------------- split mode
    @property
    def template(self) -> Template:
        """The standard template used by the split path (computed lazily)."""
        if self._template is None:
            self._template = find_standard_template(
                self.queries, zero_distance_weight=self.zero_distance_weight
            )
        return self._template

    def _chains(self) -> Dict[str, SplitChain]:
        if self._split_chains is None:
            chains = build_split_chains(self.queries, template=self.template)
            self._split_chains = {c.query_name: c for c in chains}
        return self._split_chains

    def _split_overlap(self, queries: Sequence[JoinQuery]) -> float:
        """Theorem 4 over the base chains derived from the shared template."""
        chains = [self._chains()[q.name] for q in queries]
        length = len(chains[0])
        if any(len(c) != length for c in chains):
            raise AssertionError("split chains built from one template must align")
        if length == 0:
            return 0.0
        if length == 1:
            return min(c.relations[0].size_bound for c in chains)

        join_attr = chains[0].relations[0].second
        smallest = min(
            (c.relations[0].degrees(join_attr) for c in chains), key=len
        )
        k_value = 0.0
        for value in smallest:
            per_join = []
            for chain in chains:
                first, second = chain.relations[0], chain.relations[1]
                if chain.fake_joins[0]:
                    pairs = first.degree(join_attr, value)
                else:
                    pairs = first.degree(join_attr, value) * second.degree(join_attr, value)
                per_join.append(pairs)
            k_value += min(per_join)

        for hop in range(1, length - 1):
            factors = []
            for chain in chains:
                if chain.fake_joins[hop]:
                    factors.append(1.0)
                    continue
                nxt = chain.relations[hop + 1]
                shared = nxt.first
                if self.refinement == "max":
                    factors.append(nxt.max_degree(shared))
                else:
                    factors.append(nxt.average_degree(shared))
            k_value *= min(factors)
            if k_value == 0.0:
                return 0.0
        return k_value


__all__ = ["HistogramUnionEstimator"]
