"""Membership probing: can a join produce a given output value?

The random-walk overlap estimator (paper §6.2) checks, for a result tuple
sampled from one join, whether every other join in the overlap set Δ also
contains it.  The paper performs this with keyed hash-table queries over the
other joins' relations — ``(N-1)×(M-1)`` key lookups.

:class:`JoinMembershipProber` answers the question two ways, over the same
join tree and the same structures (no index is built for either that the
other would not build):

* :meth:`~JoinMembershipProber.contains` — one value, a backtracking search.
  At every relation it intersects the output-attribute values the candidate
  fixes in this relation with the equi-join key of the already-bound parent
  row, and verifies residual (cycle-breaking) conditions once all relations
  are bound.  Each step is one lookup in the key index, so the probe never
  scans a relation unless the tuple fixes no attribute of it at the root.
  It reads row tuples and stops at the first witness.  This is the reference
  oracle (as ``JoinSampler.try_sample`` is for the block engine).
* :meth:`~JoinMembershipProber.contains_many` — a block of values at once, a
  level-by-level *frontier expansion* in struct-of-arrays form.  The frontier
  is one array of value ids plus one array of row positions per bound
  relation that a later level still reads.  The root level seeds it from the
  CSR of ``index_on(attr)`` for the first output attribute of the root; every
  further level gathers the parents' join keys
  (``join_key_array(parent_attrs)[positions]``), resolves them to slots of
  the child's join-key CSR (``SortedIndex.slots_for``) and expands each
  frontier row into its slot's segment (``offsets`` + ``row_positions``,
  ``np.repeat``/``np.arange``); the output constraints of the level's
  relation then keep the rows with ``column_array(attr)[positions] ==
  field[value id]``, one constraint at a time so that the first (usually a
  key) shrinks what the rest compare.  ``JoinTree.residual_mask`` finishes;
  a value is contained iff a frontier row carrying its id survives the last
  level.  Nothing but the frontier is allocated: when an expansion would
  exceed :data:`ROW_BUDGET` rows the value block is halved and each half
  probed on its own, and a single value whose expansion is still too large is
  answered by the scalar search, which holds one path at a time.

Predicates that were not pushed down (§8.3, second alternative) are checked
on every bound row by both, so the answer is membership in what the sampler
can produce.

:class:`UnionMembershipIndex` holds one prober per join of a union and the
``(join, value) -> bool`` memo that the random-walk estimator and the online
sampler share (:meth:`~UnionMembershipIndex.recall_many`).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.joins.join_tree import JoinTreeNode
from repro.joins.query import JoinQuery
from repro.relational.columnar import as_column_array
from repro.relational.index import SortedIndex

Value = Tuple[Any, ...]
BoolArray = npt.NDArray[np.bool_]
PositionArray = npt.NDArray[np.intp]

#: Most frontier rows one expansion of :meth:`JoinMembershipProber.contains_many`
#: may produce for a block of several values (a few arrays of this length are
#: alive at a time: ~2 MiB at five relations).
ROW_BUDGET = 1 << 16


def _equal(left: npt.NDArray[Any], right: npt.NDArray[Any]) -> BoolArray:
    """Elementwise ``left[i] == right[i]`` with Python's meaning of ``==``.

    Typed arrays of one kind (or both numeric) compare natively; anything
    else — object columns, a string field against a numeric column — compares
    element by element, as the scalar probe does.
    """
    kinds = left.dtype.kind + right.dtype.kind
    if "O" not in kinds and (kinds[0] == kinds[1] or all(k in "biuf" for k in kinds)):
        return np.asarray(left == right, dtype=bool)
    return np.fromiter(
        (bool(a == b) for a, b in zip(left.tolist(), right.tolist())),
        dtype=bool,
        count=len(left),
    )


class JoinMembershipProber:
    """Answers ``value ∈ J`` for output values of a union-compatible join."""

    def __init__(self, query: JoinQuery) -> None:
        self.query = query
        self.tree = query.join_tree()
        #: relation name -> list of (attribute, output position) constraints
        self._constraints: Dict[str, List[Tuple[str, int]]] = {}
        for position, out in enumerate(query.output_attributes):
            self._constraints.setdefault(out.relation, []).append((out.attribute, position))
        #: pre-order list of (node, parent relation name or None)
        self._order: List[Tuple[JoinTreeNode, Optional[str]]] = [
            (node, None if parent is None else parent.relation)
            for node, parent in self.tree.descent()
        ]
        #: per level, the relations whose bound rows a later level (as a
        #: parent) or a residual condition still reads
        residual = {name for cond in self.tree.residual_conditions for name in cond.relations()}
        self._live_after: List[FrozenSet[str]] = [
            frozenset(residual | {p for _, p in self._order[depth + 1 :] if p is not None})
            for depth in range(len(self._order))
        ]
        self.probe_count = 0
        self.lookup_count = 0

    def _check_width(self, value: Sequence[object]) -> None:
        if len(value) != len(self.query.output_attributes):
            raise ValueError(
                f"value has {len(value)} fields but query {self.query.name!r} "
                f"produces {len(self.query.output_attributes)}"
            )

    # ------------------------------------------------------------------ public
    def contains(self, value: Sequence[object]) -> bool:
        """True when the join can produce the output value ``value``."""
        self._check_width(value)
        self.probe_count += 1
        return self._search(tuple(value), {}, 0)

    def contains_many(self, values: Sequence[Sequence[object]]) -> BoolArray:
        """``[contains(v) for v in values]`` as one bool array, computed a
        level at a time for the whole block (see the module docstring)."""
        block: List[Value] = [tuple(value) for value in values]
        for value in block:
            self._check_width(value)
        self.probe_count += len(block)
        found = np.zeros(len(block), dtype=bool)
        if block:
            fields = [
                as_column_array([value[i] for value in block])
                for i in range(len(self.query.output_attributes))
            ]
            self._probe_block(block, fields, np.arange(len(block), dtype=np.intp), found)
        return found

    def count_containing(self, values: Iterable[Sequence[object]]) -> int:
        """Number of the given values contained in the join."""
        return sum(1 for v in values if self.contains(v))

    # ------------------------------------------------------- scalar (reference)
    def _candidate_rows(
        self,
        relation_name: str,
        value: Value,
        key_attrs: Tuple[str, ...],
        key: Value,
    ) -> List[int]:
        """Row positions of ``relation_name`` matching the join key, the
        output-value constraints that fall on this relation, and its
        predicate when that was not pushed down."""
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
        if relation_name in self.query.unpushed_predicates:
            positions = [p for p in positions if self.query.admits_row(relation_name, p)]
        if not constraints:
            return list(positions)
        matched = []
        for pos in positions:
            if all(
                relation.value(pos, attr) == value[out_pos] for attr, out_pos in constraints
            ):
                matched.append(pos)
        return matched

    def _search(self, value: Value, assignment: Dict[str, int], depth: int) -> bool:
        if depth == len(self._order):
            return self.tree.residual_satisfied(assignment)
        node, parent = self._order[depth]
        if parent is None:
            key_attrs: Tuple[str, ...] = ()
            key: Value = ()
        else:
            parent_rel = self.query.relation(parent)
            key_attrs = node.child_attributes
            key = parent_rel.project_row(assignment[parent], node.parent_attributes)
        for pos in self._candidate_rows(node.relation, value, key_attrs, key):
            assignment[node.relation] = pos
            if self._search(value, assignment, depth + 1):
                return True
            del assignment[node.relation]
        return False

    # ------------------------------------------------------ batched (frontier)
    def _probe_block(
        self,
        block: List[Value],
        fields: List[npt.NDArray[Any]],
        ids: PositionArray,
        found: BoolArray,
    ) -> None:
        """Set ``found[i]`` for the contained values among ``block[ids]``."""
        survivors = self._expand(fields, ids)
        if survivors is not None:
            found[survivors] = True
        elif len(ids) > 1:
            middle = len(ids) // 2
            self._probe_block(block, fields, ids[:middle], found)
            self._probe_block(block, fields, ids[middle:], found)
        else:
            found[ids[0]] = self._search(block[ids[0]], {}, 0)

    def _expand(
        self, fields: List[npt.NDArray[Any]], ids: PositionArray
    ) -> Optional[PositionArray]:
        """Value ids (repeats allowed) whose frontier survives every level;
        None when a level would expand past :data:`ROW_BUDGET` rows."""
        query = self.query
        value_ids = ids
        bound: Dict[str, PositionArray] = {}
        for depth, (node, parent) in enumerate(self._order):
            relation = query.relation(node.relation)
            constraints = self._constraints.get(node.relation, [])
            self.lookup_count += len(value_ids)
            if parent is not None:
                index: Optional[SortedIndex] = relation.index_on_columns(node.child_attributes)
                keys = query.relation(parent).join_key_array(node.parent_attributes)
                slots = index.slots_for(keys[bound[parent]])
            elif constraints:
                # Root: seed from the first output constraint, through the
                # index's dict so that equality means what it means to the
                # scalar probe whatever the field's dtype.
                attr, out_pos = constraints[0]
                index = relation.index_on(attr)
                slots = index.slots_for(fields[out_pos][value_ids].tolist())
            else:
                # Root without an output attribute: every row is a candidate,
                # i.e. one segment holding the whole relation in row order.
                index = None
                slots = np.zeros(len(value_ids), dtype=np.intp)
            offsets = np.array([0, len(relation)]) if index is None else index.offsets
            origin = np.flatnonzero(slots >= 0)
            slots = slots[origin]
            starts = offsets[slots].astype(np.intp)
            counts = offsets[slots + 1] - starts
            ends = np.cumsum(counts)
            total = int(ends[-1]) if len(ends) else 0
            if total > ROW_BUDGET:
                return None
            # Frontier row i of this level continues frontier row origin[i] of
            # the previous one, at the i-th entry of its CSR segment.
            origin = np.repeat(origin, counts)
            positions = np.arange(total, dtype=np.intp) + np.repeat(starts - (ends - counts), counts)
            if index is not None:
                positions = index.row_positions[positions]
            for attr, out_pos in constraints:
                keep = _equal(
                    relation.column_array(attr)[positions], fields[out_pos][value_ids[origin]]
                )
                origin, positions = origin[keep], positions[keep]
            if node.relation in query.unpushed_predicates:
                rows, row_of = np.unique(positions, return_inverse=True)
                admitted = np.fromiter(
                    (query.admits_row(node.relation, p) for p in rows.tolist()),
                    dtype=bool,
                    count=len(rows),
                )
                keep = admitted[row_of]
                origin, positions = origin[keep], positions[keep]
            if len(origin) == 0:
                return origin
            value_ids = value_ids[origin]
            live = self._live_after[depth]
            bound = {name: rows[origin] for name, rows in bound.items() if name in live}
            if node.relation in live:
                bound[node.relation] = positions
        if self.tree.has_residuals:
            value_ids = value_ids[self.tree.residual_mask(bound)]
        return value_ids


class UnionMembershipIndex:
    """Membership probers for every join in a union, plus owner resolution.

    The *owner* of a value is the first join (in declaration order) that
    contains it — exactly the cover assignment used by the set-union sampling
    algorithms.
    """

    def __init__(self, queries: Sequence[JoinQuery]) -> None:
        self.queries = list(queries)
        self.probers = {q.name: JoinMembershipProber(q) for q in self.queries}
        #: ``(join name, value) -> contained`` as answered by
        #: :meth:`recall_many`.  True for one database snapshot: whoever reads
        #: through it clears it when a relation mutates.
        self.memo: Dict[Tuple[str, Value], bool] = {}

    def contains(self, query_name: str, value: Sequence[object]) -> bool:
        return self.probers[query_name].contains(value)

    def contains_many(self, query_name: str, values: Sequence[Sequence[object]]) -> BoolArray:
        """Batched :meth:`contains` (see :meth:`JoinMembershipProber.contains_many`)."""
        return self.probers[query_name].contains_many(values)

    def recall_many(self, query_name: str, values: Sequence[Value]) -> BoolArray:
        """:meth:`contains_many` behind the memo: the values it has not
        answered for this join yet are probed as one block and remembered."""
        memo = self.memo
        unknown = list(dict.fromkeys(v for v in values if (query_name, v) not in memo))
        if unknown:
            answers = self.probers[query_name].contains_many(unknown).tolist()
            memo.update(zip(((query_name, v) for v in unknown), answers))
        return np.fromiter(
            (memo[query_name, v] for v in values), dtype=bool, count=len(values)
        )

    def owner(self, value: Sequence[object]) -> Optional[str]:
        """Name of the first join containing ``value`` (None when absent from all)."""
        for query in self.queries:
            if self.probers[query.name].contains(value):
                return query.name
        return None

    def containing_joins(self, value: Sequence[object]) -> List[str]:
        """Names of all joins containing ``value``."""
        return [q.name for q in self.queries if self.probers[q.name].contains(value)]


__all__ = ["JoinMembershipProber", "UnionMembershipIndex"]
