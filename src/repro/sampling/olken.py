"""Olken-style join size upper bounds.

The paper (§3.2) extends Olken's classic two-relation bound to joins of an
arbitrary number of relations: for a chain join ``J = R_1 ⋈ ... ⋈ R_n``,

    |J| ≤ |R_1| · Π_{i=1}^{n-1} M_{A_i}(R_{i+1})

where ``M_{A_i}(R_{i+1})`` is the maximum value frequency of the join
attribute in the next relation.  Over a join tree the product runs over every
non-root node's (possibly composite) join key with its parent, which also
covers acyclic joins; for cyclic joins the bound over the skeleton is still an
upper bound because residual conditions only filter results.
"""

from __future__ import annotations

from repro.joins.join_tree import JoinTree
from repro.joins.query import JoinQuery


def node_max_degree(query: JoinQuery, tree: JoinTree, relation: str) -> int:
    """Maximum degree of ``relation``'s join key with its parent in the tree."""
    node = tree.node_for(relation)
    if node.is_root:
        raise ValueError(f"{relation!r} is the root of the join tree; it has no join key")
    stats = query.relation(relation).statistics_on_columns(node.child_attributes)
    return stats.max_degree


def olken_upper_bound(query: JoinQuery) -> float:
    """Extended Olken upper bound on the join size of ``query``.

    Returns 0.0 when any relation is empty or any hop has no joinable values
    at all (maximum degree 0).
    """
    tree = query.join_tree()
    root_rel = query.relation(tree.root.relation)
    bound = float(len(root_rel))
    for node in tree.root.walk():
        if node.is_root:
            continue
        stats = query.relation(node.relation).statistics_on_columns(node.child_attributes)
        bound *= float(stats.max_degree)
        if bound == 0.0:
            return 0.0
    return bound


def olken_refined_bound(query: JoinQuery) -> float:
    """Refinement of the Olken bound using *average* degrees instead of maxima.

    This is no longer a guaranteed upper bound; it is the cheap unbiased-ish
    estimate the paper mentions as the refinement available when full
    histograms exist for all join attributes (§5.1).
    """
    tree = query.join_tree()
    root_rel = query.relation(tree.root.relation)
    estimate = float(len(root_rel))
    for node in tree.root.walk():
        if node.is_root:
            continue
        stats = query.relation(node.relation).statistics_on_columns(node.child_attributes)
        estimate *= float(stats.average_degree)
    return estimate


__all__ = ["olken_upper_bound", "olken_refined_bound", "node_max_degree"]
