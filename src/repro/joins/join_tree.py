"""Join trees: rooted tree decomposition of a join query.

Every algorithm in the framework — exact-weight computation, Olken bounds,
accept/reject sampling, wander-join random walks, the full-join executor and
the membership prober — operates over a rooted *join tree*:

* for chain joins the tree is a path rooted at the first relation;
* for acyclic joins the tree is a spanning tree of the join graph (which is
  already a tree);
* for cyclic joins we break cycles by selecting a spanning tree (the
  *skeleton*, §8.2) and keeping the removed equi-join conditions as *residual*
  conditions that are checked once a candidate result is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.joins.conditions import JoinCondition
from repro.joins.query import JoinQuery, JoinType
from repro.relational.columnar import equal_values


@dataclass
class JoinTreeNode:
    """One relation in a rooted join tree.

    Attributes
    ----------
    relation:
        Relation name.
    parent_attributes / child_attributes:
        The attribute lists forming the (possibly composite) equi-join key
        with the parent: ``parent.parent_attributes == child.child_attributes``
        component-wise.  Empty for the root.
    children:
        Child nodes.
    """

    relation: str
    parent_attributes: Tuple[str, ...] = ()
    child_attributes: Tuple[str, ...] = ()
    children: List["JoinTreeNode"] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return not self.parent_attributes

    def walk(self) -> Iterator["JoinTreeNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.walk()

    def post_order(self) -> Iterator["JoinTreeNode"]:
        """Post-order traversal (children before parents)."""
        for child in self.children:
            yield from child.post_order()
        yield self


@dataclass
class JoinTree:
    """A rooted join tree plus any residual (cycle-breaking) conditions."""

    query: JoinQuery
    root: JoinTreeNode
    residual_conditions: Tuple[JoinCondition, ...] = ()

    # --------------------------------------------------------------- structure
    def nodes(self) -> List[JoinTreeNode]:
        return list(self.root.walk())

    def node_for(self, relation: str) -> JoinTreeNode:
        for node in self.root.walk():
            if node.relation == relation:
                return node
        raise KeyError(f"relation {relation!r} not in join tree")

    def descent(self) -> List[Tuple[JoinTreeNode, Optional[JoinTreeNode]]]:
        """``(node, parent)`` pairs in pre-order: the order in which a
        root-to-leaf walk binds relations (the root's parent is None)."""
        pairs: List[Tuple[JoinTreeNode, Optional[JoinTreeNode]]] = []

        def visit(node: JoinTreeNode, parent: Optional[JoinTreeNode]) -> None:
            pairs.append((node, parent))
            for child in node.children:
                visit(child, node)

        visit(self.root, None)
        return pairs

    def shape(self) -> Tuple[object, ...]:
        """A hashable identity of the tree's structure: two trees of one
        query with equal shapes bind the same relations on the same keys in
        the same order and check the same residual conditions."""
        edges = tuple(
            (node.relation, parent and parent.relation, node.parent_attributes,
             node.child_attributes)
            for node, parent in self.descent()
        )
        return edges, self.residual_conditions

    def relation_order(self) -> List[str]:
        """Relations in pre-order (root first)."""
        return [n.relation for n in self.root.walk()]

    @property
    def is_path(self) -> bool:
        """True when every node has at most one child (chain shape)."""
        return all(len(n.children) <= 1 for n in self.root.walk())

    def depth(self) -> int:
        def _depth(node: JoinTreeNode) -> int:
            if not node.children:
                return 1
            return 1 + max(_depth(c) for c in node.children)

        return _depth(self.root)

    def chain_relations(self) -> List[str]:
        """Relations in chain order; raises if the tree is not a path."""
        if not self.is_path:
            raise ValueError("join tree is not a chain")
        order = []
        node: Optional[JoinTreeNode] = self.root
        while node is not None:
            order.append(node.relation)
            node = node.children[0] if node.children else None
        return order

    # ------------------------------------------------------------- residuals
    @property
    def has_residuals(self) -> bool:
        return bool(self.residual_conditions)

    def residual_satisfied(self, assignment: Dict[str, int]) -> bool:
        """Whether a complete row assignment satisfies all residual conditions."""
        for cond in self.residual_conditions:
            left = self.query.relation(cond.left_relation)
            right = self.query.relation(cond.right_relation)
            lv = left.value(assignment[cond.left_relation], cond.left_attribute)
            rv = right.value(assignment[cond.right_relation], cond.right_attribute)
            if lv != rv:
                return False
        return True

    def residual_mask(self, assignments: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized :meth:`residual_satisfied` over a batch of assignments.

        ``assignments`` maps every relation name to an array of row positions
        (one entry per walk); the result marks the walks whose assembled rows
        satisfy all residual conditions.
        """
        sizes = {len(a) for a in assignments.values()}
        if len(sizes) != 1:
            raise ValueError("assignment arrays must share one batch size")
        (size,) = sizes
        ok = np.ones(size, dtype=bool)
        for cond in self.residual_conditions:
            left = self.query.relation(cond.left_relation)
            right = self.query.relation(cond.right_relation)
            left_values = left.column_array(cond.left_attribute)[
                assignments[cond.left_relation]
            ]
            right_values = right.column_array(cond.right_attribute)[
                assignments[cond.right_relation]
            ]
            ok &= equal_values(left_values, right_values)
        return ok


def build_join_tree(query: JoinQuery, root: Optional[str] = None) -> JoinTree:
    """Build a rooted join tree (skeleton) for ``query``.

    The tree is a BFS spanning tree of the join graph rooted at ``root``
    (default: the query's first relation).  Conditions between a node and a
    relation already in the tree that is *not* its parent become residual
    conditions — for chain and acyclic joins this set is empty, for cyclic
    joins it contains the cycle-breaking conditions of §8.2.

    The cycle-breaking heuristic follows Zhao et al.: prefer keeping tree
    edges with *small* maximum degree on the child side, which keeps the
    skeleton's Olken bound (and hence the rejection rate) low.
    """
    root_name = root or query.root_relation
    if root_name not in query.relations:
        raise KeyError(f"root relation {root_name!r} not in query {query.name!r}")
    adjacency = query.adjacency()

    nodes: Dict[str, JoinTreeNode] = {root_name: JoinTreeNode(root_name)}
    used_pairs: set[frozenset] = set()
    frontier = [root_name]
    while frontier:
        current = frontier.pop(0)
        # Deterministic, bound-friendly expansion order: smaller max degree first.
        neighbours = sorted(
            adjacency[current].items(),
            key=lambda item: (_edge_bound(query, current, item[0], item[1]), item[0]),
        )
        for neighbour, conditions in neighbours:
            if neighbour in nodes:
                continue
            parent_attrs = tuple(c.attribute_for(current) for c in conditions)
            child_attrs = tuple(c.attribute_for(neighbour) for c in conditions)
            child_node = JoinTreeNode(neighbour, parent_attrs, child_attrs)
            nodes[current].children.append(child_node)
            nodes[neighbour] = child_node
            used_pairs.add(frozenset((current, neighbour)))
            frontier.append(neighbour)

    if len(nodes) != len(query.relation_names):
        missing = set(query.relation_names) - set(nodes)
        raise ValueError(f"join graph of {query.name!r} is disconnected; missing {missing}")

    residuals = tuple(
        cond
        for cond in query.conditions
        if frozenset(cond.relations()) not in used_pairs
    )
    tree = JoinTree(query, nodes[root_name], residuals)
    if query.join_type is not JoinType.CYCLIC and residuals:
        raise AssertionError(
            f"non-cyclic query {query.name!r} produced residual conditions {residuals}"
        )
    return tree


def _edge_bound(
    query: JoinQuery, parent: str, child: str, conditions: Sequence[JoinCondition]
) -> int:
    """Max degree of the child-side join key: the per-hop Olken factor."""
    child_rel = query.relation(child)
    child_attrs = tuple(c.attribute_for(child) for c in conditions)
    return child_rel.statistics_on_columns(child_attrs).max_degree


__all__ = ["JoinTree", "JoinTreeNode", "build_join_tree"]
