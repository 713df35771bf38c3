"""Ground-truth execution of join queries.

The sampling framework never needs full joins; this executor exists to provide
the *exact* baseline the paper calls ``FullJoinUnion``: exact join sizes,
exact overlap sizes, exact union sizes, and materialized result sets used to
validate uniformity in tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.joins.join_tree import JoinTreeNode
from repro.joins.query import JoinQuery, check_union_compatible

ResultValue = Tuple


def iterate_join_assignments(query: JoinQuery) -> Iterator[Dict[str, int]]:
    """Yield every complete row assignment (relation -> row position) of the join.

    Assignments are produced by a depth-first walk of the join tree guided by
    hash indexes; residual (cycle-breaking) conditions are verified before an
    assignment is emitted, and a row that fails a predicate the query did not
    push down (§8.3, second alternative) is never bound.  Each yielded dict is
    an independent copy.
    """
    tree = query.join_tree()
    root_rel = query.relation(tree.root.relation)
    filtered = query.unpushed_predicates
    assignment: Dict[str, int] = {}

    def bind_subtree(node: JoinTreeNode) -> Iterator[None]:
        """Yield once per way of binding every descendant of ``node``.

        Precondition: ``node.relation`` is already bound in ``assignment``.
        Bindings are written into ``assignment`` in place and removed on
        backtracking.
        """

        def bind_children(idx: int) -> Iterator[None]:
            if idx == len(node.children):
                yield None
                return
            child = node.children[idx]
            parent_rel = query.relation(node.relation)
            child_rel = query.relation(child.relation)
            key = parent_rel.project_row(assignment[node.relation], child.parent_attributes)
            lookup = key if len(key) > 1 else key[0]
            index = child_rel.index_on_columns(child.child_attributes)
            for pos in index.positions(lookup).tolist():
                if child.relation in filtered and not query.admits_row(child.relation, pos):
                    continue
                assignment[child.relation] = pos
                for _ in bind_subtree(child):
                    yield from bind_children(idx + 1)
                del assignment[child.relation]

        yield from bind_children(0)

    for root_pos in range(len(root_rel)):
        if tree.root.relation in filtered and not query.admits_row(tree.root.relation, root_pos):
            continue
        assignment.clear()
        assignment[tree.root.relation] = root_pos
        for _ in bind_subtree(tree.root):
            if tree.residual_satisfied(assignment):
                yield dict(assignment)


def execute_join(query: JoinQuery) -> List[ResultValue]:
    """Materialize the join and return the list of output values (``t.val``).

    Duplicate values are preserved (the multiset of join results projected
    onto the output attributes).  The values are gathered column by column
    once every assignment is known.
    """
    outputs = query.output_attributes
    positions: Dict[str, List[int]] = {out.relation: [] for out in outputs}
    for assignment in iterate_join_assignments(query):
        for name, bound in positions.items():
            bound.append(assignment[name])
    columns = [
        query.relation(out.relation).column_array(out.attribute)[positions[out.relation]].tolist()
        for out in outputs
    ]
    return list(zip(*columns))


def join_result_set(query: JoinQuery) -> Set[ResultValue]:
    """The *set* of distinct output values produced by the join."""
    return set(execute_join(query))


def exact_join_size(query: JoinQuery, distinct: bool = True) -> int:
    """Exact join size.

    With ``distinct=True`` (default) this is the number of distinct output
    values, which is the size the union framework reasons about (the paper
    assumes joins contain no duplicate tuples, §3).  With ``distinct=False``
    it is the raw number of join results.
    """
    results = execute_join(query)
    return len(set(results)) if distinct else len(results)


def exact_overlap_size(queries: Sequence[JoinQuery]) -> int:
    """Exact size of the overlap ``|O_Δ|`` of the given joins."""
    if not queries:
        return 0
    check_union_compatible(list(queries))
    common: Optional[Set[ResultValue]] = None
    for query in queries:
        values = join_result_set(query)
        common = values if common is None else (common & values)
        if not common:
            return 0
    return len(common) if common else 0


def exact_union_size(queries: Sequence[JoinQuery]) -> int:
    """Exact size of the set union ``|J_1 ∪ ... ∪ J_n|``."""
    check_union_compatible(list(queries))
    union: Set[ResultValue] = set()
    for query in queries:
        union |= join_result_set(query)
    return len(union)


def exact_disjoint_union_size(queries: Sequence[JoinQuery]) -> int:
    """Exact size of the disjoint (bag) union ``|J_1| + ... + |J_n|``."""
    check_union_compatible(list(queries))
    return sum(exact_join_size(q, distinct=True) for q in queries)


__all__ = [
    "ResultValue",
    "iterate_join_assignments",
    "execute_join",
    "join_result_set",
    "exact_join_size",
    "exact_overlap_size",
    "exact_union_size",
    "exact_disjoint_union_size",
]
