"""The enumerated join as the tests' one oracle for the block engines.

Every sampler, walk, probe and aggregate of ``repro`` is checked against what
``repro.joins.executor`` enumerates (``iterate_join_assignments``,
``execute_join``, ``join_result_set``, ``exact_aggregate``), never against a
second copy of the same algorithm over the same weights and indexes.  The
helpers here read that enumeration the way a test needs it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.joins.executor import iterate_join_assignments
from repro.joins.query import JoinQuery
from repro.relational.columnar import as_column_array


def project(query: JoinQuery, assignment: Mapping[str, int]) -> Tuple:
    """The output value of a complete row assignment, read row by row."""
    return tuple(
        query.relation(out.relation).value(assignment[out.relation], out.attribute)
        for out in query.output_attributes
    )


def enumerated_assignments(query: JoinQuery) -> Dict[Tuple, Tuple]:
    """Every assignment of the join (as sorted ``(relation, row)`` items)
    with its output value."""
    return {
        tuple(sorted(assignment.items())): project(query, assignment)
        for assignment in iterate_join_assignments(query)
    }


def walk_probability(query: JoinQuery, assignment: Mapping[str, int]) -> float:
    """``1/|R_1| · Π 1/d``: the chance that a wander-join walk produces the
    assignment, each ``d`` counted by scanning the child relation for the
    rows that join the bound parent row."""
    tree = query.join_tree()
    probability = 1.0 / len(query.relation(tree.root.relation))
    for node, parent in tree.descent():
        if parent is None:
            continue
        parent_rel, child_rel = query.relation(parent.relation), query.relation(node.relation)
        key = parent_rel.project_row(assignment[parent.relation], node.parent_attributes)
        degree = sum(
            child_rel.project_row(row, node.child_attributes) == key
            for row in range(len(child_rel))
        )
        probability /= degree
    return probability


def walk_success_probability(query: JoinQuery) -> float:
    """``Σ p(t)`` over the enumerated join: the chance that one wander-join
    walk succeeds."""
    return sum(walk_probability(query, a) for a in iterate_join_assignments(query))


def ingest_rows(
    accumulator, rows: Sequence[Tuple], attempts: int, **weighting
) -> None:
    """``accumulator.ingest_block`` over value tuples, transposed here into
    one column per output attribute."""
    width = len(accumulator.schema)
    columns = [as_column_array(column) for column in zip(*rows)] or [np.empty(0)] * width
    accumulator.ingest_block(columns, attempts=attempts, **weighting)


__all__ = [
    "enumerated_assignments",
    "ingest_rows",
    "project",
    "walk_probability",
    "walk_success_probability",
]
