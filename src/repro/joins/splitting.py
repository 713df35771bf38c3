"""The splitting method: rewriting joins into base chains of 2-attribute relations.

Section 5.2 of the paper generalizes the equi-length chain overlap bound to
joins of arbitrary length and schema by *splitting*: every join is rewritten as
a chain of derived relations with exactly two attributes each, all following
one :class:`~repro.joins.template.Template`.  The derived joins are lossless
(they generate the same result) and positionally aligned across joins, which is
exactly what the degree-comparison bound of §5.1 needs.

Two kinds of derived relations appear:

* **materializable** split relations whose two attributes already co-occur in
  one original relation — their degree statistics are read directly from that
  relation; the join between two consecutive split relations coming from the
  same original relation is a *fake join* (its per-hop blow-up factor is 1);
* **estimated** split relations whose attributes live in different original
  relations — producing the pair requires a sub-join along the path between
  those relations, so degrees, maximum degrees and sizes are *upper bounds*
  obtained by multiplying per-hop maximum degrees (§8.1.2).

The classes here only carry statistics; they never materialize derived rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.joins.query import JoinQuery
from repro.joins.template import Template, find_standard_template


@dataclass
class SplitRelation:
    """Statistics of one derived two-attribute relation ``(first, second)``.

    Attribute names are the *standardized output names*; ``sources`` records
    which original relations the derived relation spans (a single name for
    materializable split relations, the whole path for estimated ones).
    """

    query_name: str
    first: str
    second: str
    sources: Tuple[str, ...]
    size_bound: float
    #: per-attribute degree histograms (value -> upper bound on frequency)
    _degrees: Dict[str, Dict[object, float]] = field(default_factory=dict, repr=False)
    #: per-attribute maximum/average degree upper bounds
    _max_degrees: Dict[str, float] = field(default_factory=dict, repr=False)
    _avg_degrees: Dict[str, float] = field(default_factory=dict, repr=False)

    @property
    def is_materializable(self) -> bool:
        """True when both attributes come from one original relation."""
        return len(self.sources) == 1

    def degree(self, attribute: str, value: object) -> float:
        """Upper bound on the frequency of ``value`` in ``attribute``."""
        self._check(attribute)
        return self._degrees[attribute].get(value, 0.0)

    def degrees(self, attribute: str) -> Dict[object, float]:
        """Full degree histogram of ``attribute`` (value -> bound)."""
        self._check(attribute)
        return self._degrees[attribute]

    def max_degree(self, attribute: str) -> float:
        self._check(attribute)
        return self._max_degrees[attribute]

    def average_degree(self, attribute: str) -> float:
        self._check(attribute)
        return self._avg_degrees[attribute]

    def _check(self, attribute: str) -> None:
        if attribute not in (self.first, self.second):
            raise KeyError(
                f"split relation ({self.first}, {self.second}) has no attribute {attribute!r}"
            )


@dataclass
class SplitChain:
    """The base-chain rewriting of one join query under a template.

    ``relations[i]`` holds attributes ``(A_i, A_{i+1})`` of the template;
    consecutive split relations join on the shared attribute, and
    ``fake_joins[i]`` says whether the join between ``relations[i]`` and
    ``relations[i+1]`` is fake (both derived from the same original relation).
    """

    query_name: str
    template: Template
    relations: List[SplitRelation]
    fake_joins: List[bool]

    def __len__(self) -> int:
        return len(self.relations)

    def join_attribute(self, hop: int) -> str:
        """The shared attribute between split relations ``hop`` and ``hop + 1``."""
        return self.relations[hop].second


def build_split_chain(query: JoinQuery, template: Template) -> SplitChain:
    """Rewrite ``query`` as a base chain aligned to ``template``."""
    attrs = template.attributes
    missing = [a for a in attrs if a not in query.output_schema]
    if missing:
        raise ValueError(
            f"template attributes {missing} are not produced by query {query.name!r}"
        )
    relations = [
        _build_split_relation(query, attrs[i], attrs[i + 1]) for i in range(len(attrs) - 1)
    ]
    fake_joins = []
    for left, right in zip(relations, relations[1:]):
        fake = (
            left.is_materializable
            and right.is_materializable
            and left.sources[0] == right.sources[0]
        )
        fake_joins.append(fake)
    return SplitChain(query.name, template, relations, fake_joins)


def build_split_chains(
    queries: Sequence[JoinQuery],
    template: Optional[Template] = None,
    zero_distance_weight: float = 0.0,
) -> List[SplitChain]:
    """Split every query in a union against one shared template.

    When ``template`` is omitted, the standard template is searched with
    :func:`~repro.joins.template.find_standard_template`.
    """
    if template is None:
        template = find_standard_template(queries, zero_distance_weight=zero_distance_weight)
    return [build_split_chain(q, template) for q in queries]


# --------------------------------------------------------------------------- helpers
def _shortest_path(query: JoinQuery, source: str, target: str) -> List[str]:
    """Shortest relation path between two relations in the join graph."""
    if source == target:
        return [source]
    adjacency = query.adjacency()
    previous: Dict[str, str] = {}
    frontier = [source]
    seen = {source}
    while frontier:
        nxt: List[str] = []
        for node in frontier:
            for neighbour in adjacency[node]:
                if neighbour in seen:
                    continue
                seen.add(neighbour)
                previous[neighbour] = node
                if neighbour == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(previous[path[-1]])
                    path.reverse()
                    return path
                nxt.append(neighbour)
        frontier = nxt
    raise ValueError(f"no path between {source!r} and {target!r} in query {query.name!r}")


def _hop_max_degree(query: JoinQuery, parent: str, child: str) -> float:
    """Maximum degree of the join key on the ``child`` side of the hop."""
    adjacency = query.adjacency()
    conditions = adjacency[parent][child]
    child_attrs = tuple(c.attribute_for(child) for c in conditions)
    return float(query.relation(child).statistics_on_columns(child_attrs).max_degree)


def _build_split_relation(query: JoinQuery, first: str, second: str) -> SplitRelation:
    sources = query.output_sources()
    first_rel, first_attr = sources[first]
    second_rel, second_attr = sources[second]

    if first_rel == second_rel:
        relation = query.relation(first_rel)
        split = SplitRelation(
            query_name=query.name,
            first=first,
            second=second,
            sources=(first_rel,),
            size_bound=float(len(relation)),
        )
        for out_name, attr in ((first, first_attr), (second, second_attr)):
            stats = relation.statistics_on(attr)
            split._degrees[out_name] = {v: float(c) for v, c in stats.frequencies().items()}
            split._max_degrees[out_name] = float(stats.max_degree)
            split._avg_degrees[out_name] = float(stats.average_degree)
        return split

    # Estimated split relation: the pair requires a sub-join along the path
    # between the two source relations.  Degrees and sizes are upper bounds
    # obtained by multiplying per-hop maximum degrees (§8.1.2).
    path = _shortest_path(query, first_rel, second_rel)
    hop_factor = 1.0
    for parent, child in zip(path, path[1:]):
        hop_factor *= max(_hop_max_degree(query, parent, child), 0.0)

    split = SplitRelation(
        query_name=query.name,
        first=first,
        second=second,
        sources=tuple(path),
        size_bound=float(len(query.relation(first_rel))) * hop_factor,
    )

    for out_name, attr, own_rel, other_rel in (
        (first, first_attr, first_rel, second_rel),
        (second, second_attr, second_rel, first_rel),
    ):
        relation = query.relation(own_rel)
        stats = relation.statistics_on(attr)
        own_path = _shortest_path(query, own_rel, other_rel)
        blow_up = 1.0
        for parent, child in zip(own_path, own_path[1:]):
            blow_up *= max(_hop_max_degree(query, parent, child), 0.0)
        split._degrees[out_name] = {
            v: float(c) * blow_up for v, c in stats.frequencies().items()
        }
        split._max_degrees[out_name] = float(stats.max_degree) * blow_up
        split._avg_degrees[out_name] = float(stats.average_degree) * blow_up
    return split


__all__ = ["SplitRelation", "SplitChain", "build_split_chain", "build_split_chains"]
