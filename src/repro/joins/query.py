"""Join queries.

A :class:`JoinQuery` bundles base relations, equi-join conditions, optional
pushed-down selection predicates, and an output-attribute mapping.  It is the
unit the union-sampling framework operates on: the set ``S = {J_1, ..., J_n}``
of the paper is a list of :class:`JoinQuery` objects with aligned output
schemas.

The query classifies itself as *chain*, *acyclic*, or *cyclic* from its join
graph, matching the three join classes handled by the paper.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.relational.index import IntArray, smallest_index_dtype
from repro.relational.predicates import BoolArray, Predicate
from repro.relational.relation import Relation

if TYPE_CHECKING:
    from repro.joins.join_tree import JoinTree, JoinTreeNode

T = TypeVar("T")


class JoinType(str, Enum):
    """The structural class of a join query."""

    CHAIN = "chain"
    ACYCLIC = "acyclic"
    CYCLIC = "cyclic"


class JoinQuery:
    """A multi-way equi-join over named base relations.

    Parameters
    ----------
    name:
        Query name (``J_1`` ... in the paper); must be unique within a union.
    relations:
        The base relations, in declaration order.  The first relation is the
        default root for join trees, matching the paper's convention for chain
        joins (``R_{j,1}`` is the sampling root).
    conditions:
        Equi-join conditions referencing the relations by name.  Self-joins are
        expressed by registering the same underlying data twice under two
        aliases (the paper's ``Orders1_W`` / ``Orders2_W``).
    output_attributes:
        Mapping of the standardized output schema onto source
        ``(relation, attribute)`` pairs.  Join results are identified by their
        projection onto these attributes (``t.val`` in the paper).
    predicates:
        Optional per-relation selection predicates.  By default they are pushed
        down (the relation is filtered up front, §8.3 first alternative).
    """

    def __init__(
        self,
        name: str,
        relations: Sequence[Relation],
        conditions: Sequence[JoinCondition],
        output_attributes: Sequence[OutputAttribute],
        predicates: Optional[Mapping[str, Predicate]] = None,
        push_down_predicates: bool = True,
    ) -> None:
        if not name:
            raise ValueError("join query name must be non-empty")
        if not relations:
            raise ValueError("a join query needs at least one relation")
        names = [r.name for r in relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names in query {name!r}: {names}")
        self.name = name
        self.predicates: Dict[str, Predicate] = dict(predicates or {})
        self.push_down_predicates = push_down_predicates

        if push_down_predicates and self.predicates:
            relations = [
                rel.select(self.predicates[rel.name], name=rel.name)
                if rel.name in self.predicates
                else rel
                for rel in relations
            ]
        self._relations: Dict[str, Relation] = {r.name: r for r in relations}
        self.relation_order: Tuple[str, ...] = tuple(r.name for r in relations)

        self.conditions: Tuple[JoinCondition, ...] = tuple(conditions)
        for cond in self.conditions:
            for rel_name in cond.relations():
                if rel_name not in self._relations:
                    raise ValueError(
                        f"condition {cond} references unknown relation {rel_name!r}"
                    )
            left = self._relations[cond.left_relation]
            right = self._relations[cond.right_relation]
            if cond.left_attribute not in left.schema:
                raise ValueError(f"{cond}: {cond.left_attribute!r} not in {left.name!r}")
            if cond.right_attribute not in right.schema:
                raise ValueError(f"{cond}: {cond.right_attribute!r} not in {right.name!r}")

        self.output_attributes: Tuple[OutputAttribute, ...] = tuple(output_attributes)
        if not self.output_attributes:
            raise ValueError(f"query {name!r} declares no output attributes")
        out_names = [a.name for a in self.output_attributes]
        if len(set(out_names)) != len(out_names):
            raise ValueError(f"duplicate output attribute names in query {name!r}")
        for out in self.output_attributes:
            if out.relation not in self._relations:
                raise ValueError(
                    f"output attribute {out} references unknown relation {out.relation!r}"
                )
            if out.attribute not in self._relations[out.relation].schema:
                raise ValueError(
                    f"output attribute {out}: {out.attribute!r} not in {out.relation!r}"
                )

        if len(self._relations) > 1 and not self.conditions:
            raise ValueError(f"query {name!r} has multiple relations but no join conditions")

        self._join_type: Optional[JoinType] = None
        #: the snapshot memo behind :meth:`derived`: the version vector it
        #: was filled under, key -> value, and the vector and entries of the
        #: snapshot before it (the entries no ``patch`` has consumed yet)
        self._derived: Tuple[
            Tuple[int, ...], Dict[Hashable, Any], Tuple[int, ...], Dict[Hashable, Any]
        ] = ((), {}, (), {})
        #: serializes :meth:`derived`, so a snapshot publishes one value per
        #: key however many threads reach it first (re-entrant: a build may
        #: itself fetch another entry, e.g. the join tree)
        self._derived_lock = threading.RLock()

    def __getstate__(self) -> Dict[str, object]:
        # The memo is a cache: a copy rebuilds what it uses, on its side.
        state = dict(self.__dict__)
        state["_derived"] = ((), {}, (), {})
        del state["_derived_lock"]  # locks do not pickle; a copy gets its own
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._derived_lock = threading.RLock()

    # ------------------------------------------------------------------ access
    @property
    def relations(self) -> Dict[str, Relation]:
        """Name -> relation map (after predicate push-down, if enabled)."""
        return self._relations

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"query {self.name!r} has no relation {name!r}") from None

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return self.relation_order

    @property
    def root_relation(self) -> str:
        """Default sampling root (the first declared relation)."""
        return self.relation_order[0]

    @property
    def output_schema(self) -> Tuple[str, ...]:
        """Names of the standardized output attributes, in order."""
        return tuple(a.name for a in self.output_attributes)

    def output_sources(self) -> Dict[str, Tuple[str, str]]:
        """Output name -> (relation, attribute) source map."""
        return {a.name: (a.relation, a.attribute) for a in self.output_attributes}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JoinQuery({self.name!r}, relations={list(self.relation_order)}, "
            f"type={self.join_type.value})"
        )

    # --------------------------------------------------------- snapshot memo
    def derived(
        self,
        key: Hashable,
        build: Callable[[], T],
        patch: Optional[Callable[[T, FrozenSet[str]], T]] = None,
    ) -> T:
        """``build()``, memoized under ``key`` for the current snapshot.

        An entry is valid exactly while :func:`observed_versions` of this
        query reads the same: the first call after any base relation mutates
        retires every entry, and each key is rebuilt once on its next use.
        With ``patch``, the rebuild is ``patch(last, changed)`` when the
        snapshot before held an entry ``last`` under the key, ``changed``
        naming the relations whose versions moved since: a tenant that can
        bring itself up to date from its own last value does so, and keeps
        no version pin of its own (``patch`` must not write ``last``, which
        samplers of that snapshot may still read).
        Retired entries live until the next snapshot change.  An entry built
        while a mutation lands is filed under the vector read before the
        build, so it is never served on the new snapshot.  Calls are
        serialized per query: threads that reach a new snapshot together
        share one build (or one patch) per key.
        """
        with self._derived_lock:
            versions = observed_versions((self,))
            memo_versions, entries, previous_versions, previous = self._derived
            if memo_versions != versions:
                previous_versions, previous, entries = memo_versions, entries, {}
                self._derived = (versions, entries, previous_versions, previous)
            if key not in entries:
                last = previous.pop(key, None) if patch is not None else None
                if last is None:
                    entries[key] = build()
                else:
                    changed = frozenset(
                        name
                        for name, old, new in zip(self._relations, previous_versions, versions)
                        if old != new
                    )
                    entries[key] = patch(last, changed)
            return entries[key]

    def join_tree(self) -> "JoinTree":
        """The rooted join tree of the current snapshot, built once per
        snapshot (the child order and the cyclic skeleton follow live max
        degrees, so a mutation can change the tree)."""
        from repro.joins.join_tree import build_join_tree

        return self.derived("join_tree", lambda: build_join_tree(self))

    def edge_slots(self, parent: str, node: JoinTreeNode) -> IntArray:
        """Joinability of one join-tree edge, resolved for every parent row.

        ``slots[p]`` is the slot of parent row ``p``'s join key in the join-key
        CSR of ``node``'s relation, or -1 when no row of it holds the key.
        Every batched consumer of the edge (the samplers' descent, wander
        join, membership frontiers, the weight and pricing passes) gathers
        from this map instead of looking keys up.  One ``slots_for`` pass over
        the parent's key column builds it; it is kept per snapshot under the
        edge (:meth:`derived`), read-only and in the smallest signed dtype,
        and survives a mutation of neither of its two relations by reference.
        """
        parent_rel, child_rel = self.relation(parent), self.relation(node.relation)

        def build() -> IntArray:
            csr = child_rel.index_on_columns(node.child_attributes)
            slots = csr.slots_for(parent_rel.join_key_array(node.parent_attributes))
            slots = slots.astype(smallest_index_dtype(csr.n_keys))
            slots.setflags(write=False)
            return slots

        def patch(last: IntArray, changed: FrozenSet[str]) -> IntArray:
            return build() if parent in changed or node.relation in changed else last

        key = ("edge_slots", parent, node.relation, node.parent_attributes, node.child_attributes)
        return self.derived(key, build, patch)

    # -------------------------------------------------------------- structure
    def adjacency(self) -> Dict[str, Dict[str, List[JoinCondition]]]:
        """Adjacency map of the join graph: rel -> neighbour -> conditions."""
        adj: Dict[str, Dict[str, List[JoinCondition]]] = {
            name: {} for name in self.relation_order
        }
        for cond in self.conditions:
            a, b = cond.relations()
            adj[a].setdefault(b, []).append(cond)
            adj[b].setdefault(a, []).append(cond.reversed())
        return adj

    @property
    def join_type(self) -> JoinType:
        """Chain / acyclic / cyclic classification of the join graph.

        * *chain*: the graph (collapsing parallel conditions) is a simple path;
        * *acyclic*: the graph is a tree (or forest collapsed to one component);
        * *cyclic*: the graph has at least one cycle.
        """
        if self._join_type is None:
            self._join_type = self._classify()
        return self._join_type

    def _classify(self) -> JoinType:
        names = list(self.relation_order)
        if len(names) == 1:
            return JoinType.CHAIN
        adj = self.adjacency()
        # Connectivity check (a disconnected join would be a cross product).
        seen = {names[0]}
        stack = [names[0]]
        while stack:
            node = stack.pop()
            for neighbour in adj[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        if len(seen) != len(names):
            raise ValueError(
                f"query {self.name!r} is disconnected (cross products are not supported)"
            )
        edge_count = len({frozenset(c.relations()) for c in self.conditions})
        if edge_count > len(names) - 1:
            return JoinType.CYCLIC
        degrees = {name: len(adj[name]) for name in names}
        # A chain join is a path graph declared in chain order: the first
        # relation must be an endpoint so that the default join tree (rooted at
        # the first relation) is itself a path.
        if all(d <= 2 for d in degrees.values()) and degrees[names[0]] <= 1:
            return JoinType.CHAIN
        return JoinType.ACYCLIC

    @property
    def is_chain(self) -> bool:
        return self.join_type is JoinType.CHAIN

    @property
    def is_cyclic(self) -> bool:
        return self.join_type is JoinType.CYCLIC

    # -------------------------------------------------------------- tuple ops
    def project_assignment(self, assignment: Mapping[str, int]) -> Tuple:
        """Output value (``t.val``) of a complete row assignment.

        ``assignment`` maps relation name -> row position in that relation.
        """
        values = []
        for out in self.output_attributes:
            rel = self._relations[out.relation]
            values.append(rel.value(assignment[out.relation], out.attribute))
        return tuple(values)

    def row_masks(self) -> Dict[str, BoolArray]:
        """Relation name -> which of its rows pass its predicate, for the
        predicates left to check on bound rows (§8.3, second alternative):
        all of them when they were not pushed down, else none.

        Every such check (samplers, membership probes, executor) gathers
        ``mask[positions]`` from these.  Each is one ``Predicate.mask`` over
        the relation's columns, kept read-only per snapshot (:meth:`derived`)
        and across mutations of other relations.
        """
        if self.push_down_predicates:
            return {}
        return {name: self._row_mask(name) for name in self.predicates}

    def _row_mask(self, name: str) -> BoolArray:
        relation = self._relations[name]

        def build() -> BoolArray:
            mask = relation.mask(self.predicates[name])
            mask.setflags(write=False)
            return mask

        def patch(last: BoolArray, changed: FrozenSet[str]) -> BoolArray:
            return build() if name in changed else last

        return self.derived(("row_mask", name), build, patch)

    def aligns_with(self, other: "JoinQuery") -> bool:
        """True when both queries produce the same standardized output schema."""
        return self.output_schema == other.output_schema


def check_union_compatible(queries: Sequence[JoinQuery]) -> None:
    """Raise ``ValueError`` unless all queries share the same output schema
    and have distinct names (requirement of Definition 1/2 in the paper)."""
    if not queries:
        raise ValueError("a union needs at least one join query")
    names = [q.name for q in queries]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate join query names: {names}")
    base = queries[0]
    for q in queries[1:]:
        if not base.aligns_with(q):
            raise ValueError(
                "join queries are not union-compatible: "
                f"{base.name}:{base.output_schema} vs {q.name}:{q.output_schema}"
            )


def observed_versions(queries: Iterable[JoinQuery]) -> Tuple[int, ...]:
    """Version counters of every base relation, in query/declaration order.

    The snapshot pin of everything derived from the relations' contents:
    state computed under one version vector is valid exactly while the
    vector reads the same.
    """
    return tuple(r.version for query in queries for r in query.relations.values())


__all__ = ["JoinQuery", "JoinType", "check_union_compatible", "observed_versions"]
