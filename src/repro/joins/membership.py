"""Membership probing: can a join produce a given output value?

The random-walk overlap estimator (paper §6.2) checks, for a result tuple
sampled from one join, whether every other join in the overlap set Δ also
contains it.  The paper performs this with keyed hash-table queries over the
other joins' relations — ``(N-1)×(M-1)`` key lookups.

:class:`JoinMembershipProber` answers the question two ways, over the same
join tree and the same key indexes:

* :meth:`~JoinMembershipProber.contains` — one value, a backtracking search.
  At every relation it intersects the output-attribute values the candidate
  fixes in this relation with the equi-join key of the already-bound parent
  row, and verifies residual (cycle-breaking) conditions once all relations
  are bound.  Each step is one lookup in the key index, so the probe never
  scans a relation unless the tuple fixes no attribute of it at the root.
  It reads row tuples and stops at the first witness.  This is the reference
  oracle (as ``JoinSampler.try_sample`` is for the block engine).
* :meth:`~JoinMembershipProber.contains_columns` — a block of values given
  as one array per output attribute, answered by a level-by-level *frontier
  expansion* in struct-of-arrays form (:meth:`~JoinMembershipProber.
  contains_many` takes value tuples, transposes them once and calls it).
  The frontier is one array of value ids plus one array of row positions
  per bound relation that a later level still reads.  Each level *seeds*
  its candidates from whichever index has the shorter mean segment (rows
  per key): the CSR of ``index_on(attr)`` for the level's first output
  attribute, looked up with the values' field, or the child's join-key
  CSR, reached from the bound parents through the edge's per-snapshot slot
  map (``query.edge_slots(parent, node)[positions]``, no key lookup).  The
  root always seeds from its first output attribute.  A field-seeded level
  under a parent keeps the candidates whose join-key slot (a per-snapshot
  row → slot map of the child CSR) equals the parent row's slot in the
  edge map.  Field lookups go through ``SortedIndex.slots_for`` — a direct
  table or ``searchsorted`` when the field and the index keys share a
  dtype kind, the index's dict otherwise, so ``1 == 1.0 == True`` keep
  Python's meaning.
  Every seed expands each frontier row into its CSR segment (``offsets`` +
  ``row_positions``, ``np.repeat``/``np.arange``); the level's other output
  constraints then keep the rows with ``column_array(attr)[positions] ==
  field[value id]`` (:func:`~repro.relational.columnar.equal_values`), one
  at a time.  ``JoinTree.residual_mask`` finishes; a value is contained iff
  a frontier row carrying its id survives the last level.  Nothing but the
  frontier is allocated per call: when an expansion would exceed
  :data:`ROW_BUDGET` rows the value block is halved and each half probed on
  its own, and a single value whose expansion is still too large is
  answered by the scalar search, which holds one path at a time.

The seed choices, edge maps, row → slot maps and constraint columns of every
level form the query's :class:`ProbePlan`, a ``query.derived`` tenant built
once per snapshot (:func:`probe_plan`): a level whose relation and parent did
not mutate is carried into the next snapshot's plan as it is.

Predicates that were not pushed down (§8.3, second alternative) are checked
on every bound row by both, through the query's per-snapshot row masks
(``JoinQuery.row_masks``), so the answer is membership in what the sampler
can produce.

:class:`UnionMembershipIndex` holds one prober per join of a union and the
``(join, value) -> bool`` memo that the random-walk estimator and the online
sampler share (:meth:`~UnionMembershipIndex.recall_many`).
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.joins.join_tree import JoinTree, JoinTreeNode
from repro.joins.query import JoinQuery
from repro.relational.columnar import as_column_array, concat_column_arrays, equal_values
from repro.relational.index import IntArray, SortedIndex, smallest_index_dtype
from repro.relational.relation import Relation

Value = Tuple[Any, ...]
BoolArray = npt.NDArray[np.bool_]
PositionArray = npt.NDArray[np.intp]
#: a value block as one array per output attribute (value ``j`` is
#: ``tuple(field[j] for field in fields)``)
Fields = Sequence[npt.NDArray[Any]]

#: Most frontier rows one expansion of :meth:`JoinMembershipProber.contains_columns`
#: may produce for a block of several values (a few arrays of this length are
#: alive at a time: ~2 MiB at five relations).
ROW_BUDGET = 1 << 16


class ProbeLevel(NamedTuple):
    """How the frontier binds one relation of the join tree, for one snapshot."""

    node: JoinTreeNode
    parent: Optional[str]
    relation: Relation
    #: the CSR whose segments the level expands (None: every row, in order)
    seed: Optional[SortedIndex]
    #: every segment of ``seed`` holds exactly one row
    unit: bool
    #: output position whose field keys ``seed``; -1 when the parent's edge does
    seed_field: int
    #: parent row -> slot in this relation's join-key CSR (None at the root)
    edge: Optional[IntArray]
    #: row -> its join-key slot, for a field-seeded level under a parent: a
    #: candidate joins its parent row iff ``row_slot[row] == edge[parent row]``
    row_slot: Optional[IntArray]
    #: (column, output position) for the constraints the seed leaves to check
    checks: Tuple[Tuple[npt.NDArray[Any], int], ...]
    #: which rows pass the relation's unpushed predicate (None: no predicate;
    #: the query's per-snapshot row mask, see ``JoinQuery.row_masks``)
    admitted: Optional[BoolArray]
    #: relations whose bound rows a later level or a residual condition reads
    live: FrozenSet[str]
    #: the (relation, parent) versions the level was built under
    versions: Tuple[int, int]


def _level_key(
    node: JoinTreeNode, parent: Optional[str], live: FrozenSet[str], versions: Tuple[int, int]
) -> Tuple[object, ...]:
    """What a level must share with another snapshot's to be reused."""
    return (node.relation, parent, node.parent_attributes, node.child_attributes, live, versions)


class ProbePlan(NamedTuple):
    """The frontier engine's per-snapshot plan of one query."""

    tree: JoinTree
    levels: Tuple[ProbeLevel, ...]


def probe_plan(query: JoinQuery) -> ProbePlan:
    """The probe plan of ``query``'s current snapshot, built once per snapshot
    (:meth:`~repro.joins.query.JoinQuery.derived`); the next snapshot's plan
    keeps every level of this one whose relation and parent did not mutate."""
    return query.derived(
        ("probe_plan",), lambda: _build_plan(query), patch=lambda last: _build_plan(query, last)
    )


def _output_constraints(query: JoinQuery) -> Dict[str, List[Tuple[str, int]]]:
    """Relation name -> its (attribute, output position) constraints."""
    constraints: Dict[str, List[Tuple[str, int]]] = {}
    for position, out in enumerate(query.output_attributes):
        constraints.setdefault(out.relation, []).append((out.attribute, position))
    return constraints


def _mean_run(relation: Relation, attribute: str) -> float:
    """The mean segment ``index_on(attribute)`` would have, counted from the
    column, so that an index that would lose to the join key is never built."""
    column = relation.column_array(attribute)
    if column.dtype == object:
        distinct = len(set(column.tolist()))
    else:
        distinct = len(np.unique(column))
    return len(column) / max(distinct, 1)


def _build_plan(query: JoinQuery, last: Optional[ProbePlan] = None) -> ProbePlan:
    tree = query.join_tree()
    order = tree.descent()
    constraints = _output_constraints(query)
    residual = {name for cond in tree.residual_conditions for name in cond.relations()}
    kept = {} if last is None else {
        _level_key(level.node, level.parent, level.live, level.versions): level
        for level in last.levels
    }
    levels = []
    for depth, (node, parent_node) in enumerate(order):
        parent = None if parent_node is None else parent_node.relation
        live = frozenset(residual | {p.relation for _, p in order[depth + 1 :] if p is not None})
        versions = (
            query.relation(node.relation).version,
            -1 if parent is None else query.relation(parent).version,
        )
        level = kept.get(_level_key(node, parent, live, versions))
        if level is None:
            level = _build_level(
                query, node, parent, constraints.get(node.relation, []), live, versions
            )
        levels.append(level)
    return ProbePlan(tree, tuple(levels))


def _build_level(
    query: JoinQuery,
    node: JoinTreeNode,
    parent: Optional[str],
    constraints: List[Tuple[str, int]],
    live: FrozenSet[str],
    versions: Tuple[int, int],
) -> ProbeLevel:
    relation = query.relation(node.relation)
    seed: Optional[SortedIndex] = None
    seed_field = -1
    edge: Optional[IntArray] = None
    row_slot: Optional[IntArray] = None
    checks = list(constraints)
    if parent is not None:
        seed = relation.index_on_columns(node.child_attributes)
        edge = query.edge_slots(parent, node)
    if constraints:
        attr, position = constraints[0]
        if seed is None or _mean_run(relation, attr) < seed.total_rows / max(seed.n_keys, 1):
            if seed is not None:
                row_slot = _row_slots(seed, len(relation))
            seed, seed_field, checks = relation.index_on(attr), position, checks[1:]
    return ProbeLevel(
        node=node,
        parent=parent,
        relation=relation,
        seed=seed,
        unit=seed is not None and bool((seed.degrees() == 1).all()),
        seed_field=seed_field,
        edge=edge,
        row_slot=row_slot,
        checks=tuple((relation.column_array(attr), position) for attr, position in checks),
        admitted=query.row_masks().get(node.relation),
        live=live,
        versions=versions,
    )


def _row_slots(csr: SortedIndex, rows: int) -> IntArray:
    """Row -> slot of its key in ``csr`` (every row of an index has one)."""
    slots = np.empty(rows, dtype=smallest_index_dtype(csr.n_keys))
    slots[csr.row_positions] = np.repeat(np.arange(csr.n_keys), csr.degrees())
    slots.setflags(write=False)
    return slots


class JoinMembershipProber:
    """Answers ``value ∈ J`` for output values of a union-compatible join."""

    def __init__(self, query: JoinQuery) -> None:
        self.query = query
        #: relation name -> list of (attribute, output position) constraints
        self._constraints = _output_constraints(query)
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
        return self._search(probe_plan(self.query), tuple(value), {}, 0)

    def contains_many(self, values: Sequence[Sequence[object]]) -> BoolArray:
        """``[contains(v) for v in values]`` as one bool array: the values
        transposed once into columns for :meth:`contains_columns`."""
        width = len(self.query.output_attributes)
        if set(map(len, values)) - {width}:
            self._check_width(next(value for value in values if len(value) != width))
        if not len(values):
            return np.zeros(0, dtype=bool)
        return self.contains_columns([as_column_array(column) for column in zip(*values)])

    def contains_columns(self, fields: Fields) -> BoolArray:
        """Membership of a block of values given as one array per output
        attribute, computed a level at a time for the whole block (see the
        module docstring): the engine every batched probe goes through."""
        if len(fields) != len(self.query.output_attributes):
            self._check_width(fields)
        count = len(fields[0])
        if any(len(field) != count for field in fields):
            raise ValueError("the fields of a value block differ in length")
        self.probe_count += count
        found = np.zeros(count, dtype=bool)
        if count:
            plan = probe_plan(self.query)
            self._probe_block(plan, fields, np.arange(count, dtype=np.intp), found)
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
        admitted = self.query.row_masks().get(relation_name)
        if admitted is not None:
            positions = [p for p in positions if admitted[p]]
        if not constraints:
            return list(positions)
        matched = []
        for pos in positions:
            if all(
                relation.value(pos, attr) == value[out_pos] for attr, out_pos in constraints
            ):
                matched.append(pos)
        return matched

    def _search(
        self, plan: ProbePlan, value: Value, assignment: Dict[str, int], depth: int
    ) -> bool:
        if depth == len(plan.levels):
            return plan.tree.residual_satisfied(assignment)
        level = plan.levels[depth]
        node = level.node
        if level.parent is None:
            key_attrs: Tuple[str, ...] = ()
            key: Value = ()
        else:
            parent_rel = self.query.relation(level.parent)
            key_attrs = node.child_attributes
            key = parent_rel.project_row(assignment[level.parent], node.parent_attributes)
        for pos in self._candidate_rows(node.relation, value, key_attrs, key):
            assignment[node.relation] = pos
            if self._search(plan, value, assignment, depth + 1):
                return True
            del assignment[node.relation]
        return False

    # ------------------------------------------------------ batched (frontier)
    def _probe_block(
        self, plan: ProbePlan, fields: Fields, ids: PositionArray, found: BoolArray
    ) -> None:
        """Set ``found[i]`` for the contained values among the values ``ids``."""
        survivors = self._expand(plan, fields, ids)
        if survivors is not None:
            found[survivors] = True
        elif len(ids) > 1:
            middle = len(ids) // 2
            self._probe_block(plan, fields, ids[:middle], found)
            self._probe_block(plan, fields, ids[middle:], found)
        else:
            at = int(ids[0])
            value = tuple(field[at : at + 1].tolist()[0] for field in fields)
            found[at] = self._search(plan, value, {}, 0)

    def _expand(
        self, plan: ProbePlan, fields: Fields, ids: PositionArray
    ) -> Optional[PositionArray]:
        """Value ids (repeats allowed) whose frontier survives every level;
        None when a level would expand past :data:`ROW_BUDGET` rows."""
        value_ids = ids
        bound: Dict[str, PositionArray] = {}
        for level in plan.levels:
            seed = level.seed
            self.lookup_count += len(value_ids)
            if seed is None:
                # Root without an output attribute: every row is a candidate,
                # i.e. one segment holding the whole relation in row order.
                slots: npt.NDArray[np.signedinteger[Any]] = np.zeros(len(value_ids), np.intp)
                offsets = np.array([0, len(level.relation)])
            elif level.seed_field >= 0:
                slots = seed.slots_for(fields[level.seed_field][value_ids])
                offsets = seed.offsets
            else:
                assert level.edge is not None and level.parent is not None
                slots = level.edge[bound[level.parent]]
                offsets = seed.offsets
            origin = np.flatnonzero(slots >= 0)
            slots = slots[origin]
            if level.unit:
                # One row per segment: slot i's row is row_positions[i].
                assert seed is not None
                if len(slots) > ROW_BUDGET:
                    return None
                positions = seed.row_positions[slots]
            else:
                starts = offsets[slots].astype(np.intp)
                counts = offsets[slots + 1] - starts
                ends = np.cumsum(counts)
                total = int(ends[-1]) if len(ends) else 0
                if total > ROW_BUDGET:
                    return None
                # Frontier row i of this level continues frontier row
                # origin[i] of the previous one, at the i-th entry of its
                # CSR segment.
                origin = np.repeat(origin, counts)
                positions = np.arange(total, dtype=np.intp) + np.repeat(
                    starts - (ends - counts), counts
                )
                if seed is not None:
                    positions = seed.row_positions[positions]
            if level.row_slot is not None:
                assert level.edge is not None and level.parent is not None
                keep = level.row_slot[positions] == level.edge[bound[level.parent][origin]]
                origin, positions = origin[keep], positions[keep]
            for column, out_pos in level.checks:
                keep = equal_values(column[positions], fields[out_pos][value_ids[origin]])
                origin, positions = origin[keep], positions[keep]
            if level.admitted is not None:
                keep = level.admitted[positions]
                origin, positions = origin[keep], positions[keep]
            if len(origin) == 0:
                return origin
            value_ids = value_ids[origin]
            bound = {name: rows[origin] for name, rows in bound.items() if name in level.live}
            if level.node.relation in level.live:
                bound[level.node.relation] = positions
        if plan.tree.has_residuals:
            value_ids = value_ids[plan.tree.residual_mask(bound)]
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

    def contained_in_any(self, query_names: Sequence[str], fields: Fields) -> BoolArray:
        """Per value of a column block, whether one of ``query_names`` contains
        it: one probe per join, of the values no join before it claimed."""
        found = np.zeros(len(fields[0]), dtype=bool)
        for name in query_names:
            free = np.flatnonzero(~found)
            found[free] = self.probers[name].contains_columns([field[free] for field in fields])
        return found

    def recall_many(
        self, query_name: str, values: Sequence[Value], fields: Optional[Fields] = None
    ) -> BoolArray:
        """:meth:`contains_many` behind the memo: the values it has not
        answered for this join yet are probed as one block and remembered.
        A caller that holds the values as columns too passes them as
        ``fields`` (aligned with ``values``); the block is then gathered
        from them instead of transposed from the tuples."""
        memo = self.memo
        fresh: Dict[Value, int] = {}
        for position, value in enumerate(values):
            if (query_name, value) not in memo:
                fresh.setdefault(value, position)
        if fresh:
            prober = self.probers[query_name]
            if fields is None:
                answers = prober.contains_many(list(fresh))
            else:
                at = np.fromiter(fresh.values(), dtype=np.intp, count=len(fresh))
                answers = prober.contains_columns([field[at] for field in fields])
            memo.update(zip(((query_name, v) for v in fresh), answers.tolist()))
        return np.fromiter(
            (memo[query_name, v] for v in values), dtype=bool, count=len(values)
        )

    def recall_blocks(
        self,
        query_name: str,
        blocks: Sequence[Sequence[Value]],
        fields: Optional[Sequence[Fields]] = None,
    ) -> List[BoolArray]:
        """:meth:`recall_many` over several value blocks at once — one probe
        of the join at most — with the answers split back per block;
        ``fields`` holds each block's columns when the caller has them."""
        values = [value for block in blocks for value in block]
        joined: Optional[List[npt.NDArray[Any]]] = None
        if fields is not None:
            joined = [reduce(concat_column_arrays, columns) for columns in zip(*fields)]
        answers = self.recall_many(query_name, values, joined)
        return np.split(answers, np.cumsum([len(block) for block in blocks[:-1]]))

    def owner(self, value: Sequence[object]) -> Optional[str]:
        """Name of the first join containing ``value`` (None when absent from all)."""
        for query in self.queries:
            if self.probers[query.name].contains(value):
                return query.name
        return None

    def containing_joins(self, value: Sequence[object]) -> List[str]:
        """Names of all joins containing ``value``."""
        return [q.name for q in self.queries if self.probers[q.name].contains(value)]


__all__ = ["JoinMembershipProber", "ProbeLevel", "ProbePlan", "UnionMembershipIndex", "probe_plan"]
