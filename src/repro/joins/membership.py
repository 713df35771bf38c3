"""Membership probing: can a join produce a given output value?

The random-walk overlap estimator (paper §6.2) checks, for a result tuple
sampled from one join, whether every other join in the overlap set Δ also
contains it.  The paper performs this with keyed hash-table queries over the
other joins' relations — ``(N-1)×(M-1)`` key lookups.

:class:`JoinMembershipProber` answers it for a block of values given as one
array per output attribute (:meth:`~JoinMembershipProber.contains_columns`;
:meth:`~JoinMembershipProber.contains_many` takes value tuples and transposes
them once, :meth:`~JoinMembershipProber.contains` is a block of one), by a
level-by-level *frontier expansion* in struct-of-arrays form.  The frontier
is one array of value ids plus one array of row positions per bound relation
that a later level still reads.  Each level *seeds* its candidates from
whichever index has the shorter mean segment (rows per key): the CSR of
``index_on(attr)`` for the level's first output attribute, looked up with the
values' field, or the child's join-key CSR, reached from the bound parents
through the edge's per-snapshot slot map (``query.edge_slots(parent,
node)[positions]``, no key lookup).  The root always seeds from its first
output attribute.  A field-seeded level under a parent keeps the candidates
whose join-key slot (a per-snapshot row → slot map of the child CSR) equals
the parent row's slot in the edge map.  Field lookups go through
``SortedIndex.slots_for`` — a direct table or ``searchsorted`` when the field
and the index keys share a dtype kind, the index's dict otherwise, so
``1 == 1.0 == True`` keep Python's meaning.
Every seed expands each frontier row into its CSR segment (``offsets`` +
``row_positions``, ``np.repeat``/``np.arange``); the level's other output
constraints then keep the rows with ``column_array(attr)[positions] ==
field[value id]`` (:func:`~repro.relational.columnar.equal_values`), one at a
time.  ``JoinTree.residual_mask`` finishes; a value is contained iff a
frontier row carrying its id survives the last level.  Nothing but the
frontier is allocated per call: a level whose expansion would pass
:data:`ROW_BUDGET` rows is expanded in windows of that many of its entries,
each window's survivors going on down before the next window is cut, so a
probe holds at most one window per level and no level runs twice — a single
value whose segment outgrows the budget is just more windows.

The oracle the engine is tested against is the enumerated join
(:func:`~repro.joins.executor.join_result_set`), not a second search over the
same indexes.

The seed choices, edge maps, row → slot maps and constraint columns of every
level form the query's :class:`ProbePlan`, a ``query.derived`` tenant built
once per snapshot (:func:`probe_plan`): a level whose relation and parent did
not mutate is carried into the next snapshot's plan as it is.

Predicates that were not pushed down (§8.3, second alternative) are checked
on every bound row, through the query's per-snapshot row masks
(``JoinQuery.row_masks``), so the answer is membership in what the sampler
can produce.

:class:`UnionMembershipIndex` holds one prober per join of a union and the
``(join, value) -> bool`` memo that the random-walk estimator and the online
sampler share (:meth:`~UnionMembershipIndex.recall_many`).
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

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


def _level_key(
    node: JoinTreeNode, parent: Optional[str], live: FrozenSet[str]
) -> Tuple[object, ...]:
    """What a level must share with another snapshot's to be reused."""
    return (node.relation, parent, node.parent_attributes, node.child_attributes, live)


class ProbePlan(NamedTuple):
    """The frontier engine's per-snapshot plan of one query."""

    tree: JoinTree
    levels: Tuple[ProbeLevel, ...]


def probe_plan(query: JoinQuery) -> ProbePlan:
    """The probe plan of ``query``'s current snapshot, built once per snapshot
    (:meth:`~repro.joins.query.JoinQuery.derived`); the next snapshot's plan
    keeps every level of this one whose relation and parent did not mutate."""
    def patch(last: ProbePlan, changed: FrozenSet[str]) -> ProbePlan:
        return _build_plan(
            query,
            [level for level in last.levels if not changed & {level.node.relation, level.parent}],
        )

    return query.derived(("probe_plan",), lambda: _build_plan(query), patch)


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


def _build_plan(query: JoinQuery, unchanged: Optional[List[ProbeLevel]] = None) -> ProbePlan:
    """The current snapshot's plan, keeping each level of ``unchanged`` (the
    last snapshot's levels whose relation and parent did not mutate) that
    the current tree binds the same way."""
    tree = query.join_tree()
    order = tree.descent()
    constraints = _output_constraints(query)
    residual = {name for cond in tree.residual_conditions for name in cond.relations()}
    kept = {_level_key(level.node, level.parent, level.live): level for level in unchanged or ()}
    levels = []
    for depth, (node, parent_node) in enumerate(order):
        parent = None if parent_node is None else parent_node.relation
        live = frozenset(residual | {p.relation for _, p in order[depth + 1 :] if p is not None})
        level = kept.get(_level_key(node, parent, live))
        if level is None:
            level = _build_level(query, node, parent, constraints.get(node.relation, []), live)
        levels.append(level)
    return ProbePlan(tree, tuple(levels))


def _build_level(
    query: JoinQuery,
    node: JoinTreeNode,
    parent: Optional[str],
    constraints: List[Tuple[str, int]],
    live: FrozenSet[str],
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
    )


def _row_slots(csr: SortedIndex, rows: int) -> IntArray:
    """Row -> slot of its key in ``csr`` (every row of an index has one)."""
    slots = np.empty(rows, dtype=smallest_index_dtype(csr.n_keys))
    slots[csr.row_positions] = np.repeat(np.arange(csr.n_keys), csr.degrees())
    slots.setflags(write=False)
    return slots


class _Window(NamedTuple):
    """A level whose expansion passes :data:`ROW_BUDGET` rows, expanded from
    its ``low``-th entry on: frontier row ``origin[k]`` reaches entries
    ``[ends[k] - counts[k], ends[k])`` of the level, which are ``counts[k]``
    consecutive entries of the seed from ``starts[k]``."""

    origin: PositionArray
    starts: PositionArray
    counts: PositionArray
    ends: PositionArray
    low: int


class _Frontier(NamedTuple):
    """Frontier rows about to enter level ``depth``: each row's value id and,
    per live bound relation, its row position; ``window`` when that level's
    expansion is already known and only partly done."""

    depth: int
    value_ids: PositionArray
    bound: Dict[str, PositionArray]
    window: Optional[_Window]


def _filter(
    level: ProbeLevel,
    fields: Fields,
    value_ids: PositionArray,
    bound: Dict[str, PositionArray],
    origin: PositionArray,
    positions: PositionArray,
) -> Tuple[PositionArray, PositionArray]:
    """The candidates ``(origin, positions)`` of ``level`` (frontier row,
    relation row) that join their parent row, meet the level's other output
    constraints and pass its unpushed predicate."""
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
    return origin, positions


class JoinMembershipProber:
    """Answers ``value ∈ J`` for output values of a union-compatible join."""

    def __init__(self, query: JoinQuery) -> None:
        self.query = query
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
        """True when the join can produce the output value ``value``: a
        one-value :meth:`contains_many`."""
        return bool(self.contains_many([value])[0])

    def contains_many(self, values: Sequence[Sequence[object]]) -> BoolArray:
        """Membership of each value tuple, as one bool array: the values
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
        module docstring): the engine every probe goes through."""
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

    # --------------------------------------------------------------- frontier
    def _probe_block(
        self, plan: ProbePlan, fields: Fields, ids: PositionArray, found: BoolArray
    ) -> None:
        """Set ``found[i]`` for the contained values among the values ``ids``.

        One loop over the levels, fed from a stack of frontiers.  A level
        whose expansion passes :data:`ROW_BUDGET` rows is expanded a window
        of that many entries at a time: the rest of the level goes on the
        stack, with its expansion, while the window's survivors go on down.
        So no level runs twice and at most one window per level is alive."""
        levels = plan.levels
        stack = [_Frontier(0, ids, {}, None)]
        while stack:
            depth, value_ids, bound, window = stack.pop()
            while depth < len(levels):
                level = levels[depth]
                seed = level.seed
                if window is None:
                    self.lookup_count += len(value_ids)
                    if seed is None:
                        # Root without an output attribute: every row is a
                        # candidate, i.e. one segment holding the whole
                        # relation in row order.
                        slots: npt.NDArray[np.signedinteger[Any]] = np.zeros(
                            len(value_ids), np.intp
                        )
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
                        if len(slots) <= ROW_BUDGET:
                            positions = seed.row_positions[slots]
                        else:
                            window = _Window(
                                origin,
                                slots.astype(np.intp),
                                np.ones(len(slots), np.intp),
                                np.arange(1, len(slots) + 1, dtype=np.intp),
                                0,
                            )
                    else:
                        starts = offsets[slots].astype(np.intp)
                        counts = offsets[slots + 1] - starts
                        ends = np.cumsum(counts)
                        total = int(ends[-1]) if len(ends) else 0
                        if total <= ROW_BUDGET:
                            # Frontier row i of this level continues frontier
                            # row origin[i] of the previous one, at the i-th
                            # entry of its CSR segment.
                            origin = np.repeat(origin, counts)
                            positions = np.arange(total, dtype=np.intp) + np.repeat(
                                starts - (ends - counts), counts
                            )
                            if seed is not None:
                                positions = seed.row_positions[positions]
                        else:
                            window = _Window(origin, starts, counts, ends, 0)
                if window is not None:
                    low, total = window.low, int(window.ends[-1])
                    high = min(low + ROW_BUDGET, total)
                    if high < total:
                        rest = window._replace(low=high)
                        stack.append(_Frontier(depth, value_ids, bound, rest))
                    entries = np.arange(low, high, dtype=np.intp)
                    k = np.searchsorted(window.ends, entries, "right")
                    origin = window.origin[k]
                    positions = window.starts[k] + entries - (window.ends[k] - window.counts[k])
                    if seed is not None:
                        positions = seed.row_positions[positions]
                    window = None
                origin, positions = _filter(level, fields, value_ids, bound, origin, positions)
                if len(origin) == 0:
                    break
                value_ids = value_ids[origin]
                bound = {name: rows[origin] for name, rows in bound.items() if name in level.live}
                if level.node.relation in level.live:
                    bound[level.node.relation] = positions
                depth += 1
            else:
                if plan.tree.has_residuals:
                    value_ids = value_ids[plan.tree.residual_mask(bound)]
                found[value_ids] = True


class UnionMembershipIndex:
    """Membership probers for every join in a union, and their shared memo."""

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


__all__ = ["JoinMembershipProber", "ProbeLevel", "ProbePlan", "UnionMembershipIndex", "probe_plan"]
