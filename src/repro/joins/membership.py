"""Membership probing: can a join produce a given output value?

The random-walk overlap estimator (paper §6.2) checks, for a result tuple
sampled from one join, whether every other join in the overlap set Δ also
contains it.  The paper performs this with keyed hash-table queries over the
other joins' relations — ``(N-1)×(M-1)`` key lookups.

:class:`JoinMembershipProber` implements the check as a backtracking search
over the join tree.  At every relation it intersects two constraints:

* the output-attribute values that the candidate tuple fixes in this relation,
* the equi-join key with the already-bound parent row,

and verifies residual (cycle-breaking) conditions once all relations are
bound.  Indexes make each step a hash lookup, so the probe never scans a
relation unless the tuple fixes no attribute of it at the root.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.joins.join_tree import JoinTree, JoinTreeNode, build_join_tree
from repro.joins.query import JoinQuery


class JoinMembershipProber:
    """Answers ``value ∈ J`` for output values of a union-compatible join."""

    def __init__(self, query: JoinQuery, tree: Optional[JoinTree] = None) -> None:
        self.query = query
        self.tree = tree or build_join_tree(query)
        #: relation name -> list of (attribute, output position) constraints
        self._constraints: Dict[str, List[Tuple[str, int]]] = {}
        for position, out in enumerate(query.output_attributes):
            self._constraints.setdefault(out.relation, []).append((out.attribute, position))
        #: pre-order list of (node, parent relation name or None)
        self._order: List[Tuple[JoinTreeNode, Optional[str]]] = []
        self._collect_order(self.tree.root, None)
        self.probe_count = 0
        self.lookup_count = 0

    def _collect_order(self, node: JoinTreeNode, parent: Optional[str]) -> None:
        self._order.append((node, parent))
        for child in node.children:
            self._collect_order(child, node.relation)

    # ------------------------------------------------------------------ public
    def contains(self, value: Sequence) -> bool:
        """True when the join can produce the output value ``value``."""
        if len(value) != len(self.query.output_attributes):
            raise ValueError(
                f"value has {len(value)} fields but query {self.query.name!r} "
                f"produces {len(self.query.output_attributes)}"
            )
        self.probe_count += 1
        return self._search(tuple(value), {}, 0)

    def count_containing(self, values: Iterable[Sequence]) -> int:
        """Number of the given values contained in the join."""
        return sum(1 for v in values if self.contains(v))

    # ---------------------------------------------------------------- internal
    def _candidate_rows(
        self,
        relation_name: str,
        value: Tuple,
        key_attrs: Tuple[str, ...],
        key: Tuple,
    ) -> List[int]:
        """Row positions of ``relation_name`` matching the join key and the
        output-value constraints that fall on this relation."""
        relation = self.query.relation(relation_name)
        constraints = self._constraints.get(relation_name, [])
        self.lookup_count += 1
        if key_attrs:
            index = relation.index_on_columns(key_attrs)
            lookup = key if len(key) > 1 else key[0]
            positions: Iterable[int] = index.positions(lookup).tolist()
        elif constraints:
            # No join key (root): seed the search from an output constraint
            # instead of scanning the relation.
            attr, out_pos = constraints[0]
            positions = relation.index_on(attr).positions(value[out_pos]).tolist()
        else:
            positions = range(len(relation))
        if not constraints:
            return list(positions)
        matched = []
        for pos in positions:
            if all(
                relation.value(pos, attr) == value[out_pos] for attr, out_pos in constraints
            ):
                matched.append(pos)
        return matched

    def _search(self, value: Tuple, assignment: Dict[str, int], depth: int) -> bool:
        if depth == len(self._order):
            return self.tree.residual_satisfied(assignment)
        node, parent = self._order[depth]
        if parent is None:
            key_attrs: Tuple[str, ...] = ()
            key: Tuple = ()
        else:
            parent_rel = self.query.relation(parent)
            key_attrs = node.child_attributes
            key = tuple(
                parent_rel.value(assignment[parent], attr) for attr in node.parent_attributes
            )
        for pos in self._candidate_rows(node.relation, value, key_attrs, key):
            assignment[node.relation] = pos
            if self._search(value, assignment, depth + 1):
                return True
            del assignment[node.relation]
        return False


class UnionMembershipIndex:
    """Membership probers for every join in a union, plus owner resolution.

    The *owner* of a value is the first join (in declaration order) that
    contains it — exactly the cover assignment used by the set-union sampling
    algorithms.
    """

    def __init__(self, queries: Sequence[JoinQuery]) -> None:
        self.queries = list(queries)
        self.probers = {q.name: JoinMembershipProber(q) for q in self.queries}

    def contains(self, query_name: str, value: Sequence) -> bool:
        return self.probers[query_name].contains(value)

    def owner(self, value: Sequence) -> Optional[str]:
        """Name of the first join containing ``value`` (None when absent from all)."""
        for query in self.queries:
            if self.probers[query.name].contains(value):
                return query.name
        return None

    def containing_joins(self, value: Sequence) -> List[str]:
        """Names of all joins containing ``value``."""
        return [q.name for q in self.queries if self.probers[q.name].contains(value)]


__all__ = ["JoinMembershipProber", "UnionMembershipIndex"]
