"""Physical operators for the in-memory engine.

These operators exist to provide *ground truth* for the sampling framework:
``FullJoinUnion`` in the paper executes the full joins and unions the results
to obtain exact join, overlap, and union sizes.  They are deliberately simple
(hash joins, list materialization) — their purpose is correctness, not speed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.relational.predicates import Predicate
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema


def hash_join(
    left: Relation,
    right: Relation,
    left_attr: str,
    right_attr: str,
    name: Optional[str] = None,
) -> Relation:
    """Equi-join ``left`` and ``right`` on ``left_attr == right_attr``.

    The output schema is the concatenation of both schemas, with the right
    relation's attributes renamed ``<right.name>.<attr>`` when a name clash
    would otherwise occur.  The join attribute from the right side is kept
    (renamed if clashing) so downstream joins can still reference it.
    """
    left_names = set(left.schema.names)
    renamed_attrs: List[Attribute] = []
    rename_map: Dict[str, str] = {}
    for attr in right.schema:
        if attr.name in left_names:
            new_name = f"{right.name}.{attr.name}"
            rename_map[attr.name] = new_name
            renamed_attrs.append(Attribute(new_name, attr.dtype))
        else:
            renamed_attrs.append(attr)
    out_schema = Schema(list(left.schema.attributes) + renamed_attrs)

    index = right.index_on(right_attr)
    left_pos = left.schema.position(left_attr)
    out_rows: List[Row] = []
    for lrow in left:
        for rpos in index.positions(lrow[left_pos]).tolist():
            out_rows.append(lrow + right.row(rpos))
    return Relation(name or f"{left.name}_join_{right.name}", out_schema, out_rows)


def natural_join(left: Relation, right: Relation, name: Optional[str] = None) -> Relation:
    """Join on all attributes the two schemas share (at least one required)."""
    common = [a for a in left.schema.names if a in right.schema.names]
    if not common:
        raise ValueError(
            f"relations {left.name!r} and {right.name!r} share no attributes"
        )
    left_positions = left.schema.positions(common)
    right_positions = right.schema.positions(common)
    keep_right = [a for a in right.schema.names if a not in common]
    keep_right_positions = right.schema.positions(keep_right)
    out_schema = Schema(
        list(left.schema.attributes) + [right.schema.attribute(a) for a in keep_right]
    )
    buckets: Dict[Tuple, List[int]] = defaultdict(list)
    for i, rrow in enumerate(right):
        buckets[tuple(rrow[p] for p in right_positions)].append(i)
    out_rows: List[Row] = []
    for lrow in left:
        key = tuple(lrow[p] for p in left_positions)
        for i in buckets.get(key, ()):
            rrow = right.row(i)
            out_rows.append(lrow + tuple(rrow[p] for p in keep_right_positions))
    return Relation(name or f"{left.name}_njoin_{right.name}", out_schema, out_rows)


def selection(relation: Relation, predicate: Predicate, name: Optional[str] = None) -> Relation:
    """Rows of ``relation`` satisfying ``predicate`` (see relational.predicates)."""
    return relation.select(predicate, name=name)


def projection(
    relation: Relation, attributes: Sequence[str], name: Optional[str] = None
) -> Relation:
    """Projection onto ``attributes`` (bag semantics — duplicates preserved)."""
    return relation.project(attributes, name=name)


def set_union(relations: Sequence[Relation], name: str = "union") -> Relation:
    """Set union: duplicate rows across (and within) inputs removed.

    All inputs must have aligned schemas (same attribute names, same order).
    """
    _check_aligned(relations)
    seen: set[Row] = set()
    rows: List[Row] = []
    for rel in relations:
        for row in rel:
            if row not in seen:
                seen.add(row)
                rows.append(row)
    schema = relations[0].schema if relations else Schema([])
    return Relation(name, schema, rows)


def disjoint_union(relations: Sequence[Relation], name: str = "disjoint_union") -> Relation:
    """Disjoint (bag) union: all rows kept, duplicates included."""
    _check_aligned(relations)
    rows: List[Row] = []
    for rel in relations:
        rows.extend(rel.rows)
    schema = relations[0].schema if relations else Schema([])
    return Relation(name, schema, rows)


def intersection(relations: Sequence[Relation], name: str = "intersection") -> Relation:
    """Set intersection of several aligned relations."""
    _check_aligned(relations)
    if not relations:
        return Relation(name, Schema([]), [])
    common: set[Row] = set(relations[0].rows)
    for rel in relations[1:]:
        common &= set(rel.rows)
    # Preserve first-relation order for determinism.
    rows = [r for r in dict.fromkeys(relations[0].rows) if r in common]
    return Relation(name, relations[0].schema, rows)


def difference(left: Relation, right: Relation, name: str = "difference") -> Relation:
    """Set difference ``left - right`` over aligned schemas."""
    _check_aligned([left, right])
    right_rows = set(right.rows)
    rows = [r for r in dict.fromkeys(left.rows) if r not in right_rows]
    return Relation(name, left.schema, rows)


def _check_aligned(relations: Sequence[Relation]) -> None:
    if not relations:
        return
    base = relations[0].schema
    for rel in relations[1:]:
        if not base.aligns_with(rel.schema):
            raise ValueError(
                "relations are not union-compatible: "
                f"{base.names} vs {rel.schema.names} ({rel.name})"
            )


__all__ = [
    "hash_join",
    "natural_join",
    "selection",
    "projection",
    "set_union",
    "disjoint_union",
    "intersection",
    "difference",
]
