"""In-memory relational engine substrate.

Provides relations, schemas, key indexes, column statistics, selection
predicates, and the physical operators needed both by the sampling framework
(index lookups, degree statistics) and by the exact ``FullJoinUnion`` ground
truth (hash joins, set/disjoint union).
"""

from repro.relational.columnar import (
    as_column_array,
    concat_column_arrays,
    tuple_key_array,
)
from repro.relational.delta import RelationDelta
from repro.relational.index import SortedIndex
from repro.relational.operators import (
    difference,
    disjoint_union,
    hash_join,
    intersection,
    natural_join,
    projection,
    selection,
    set_union,
)
from repro.relational.predicates import (
    And,
    Between,
    Comparison,
    InSet,
    Not,
    Or,
    Predicate,
    TruePredicate,
    selectivity,
)
from repro.relational.relation import Relation, Row
from repro.relational.schema import ATTRIBUTE_TYPES, Attribute, Schema
from repro.relational.statistics import (
    ColumnStatistics,
    EquiWidthHistogram,
    HistogramBucket,
    merge_statistics,
)

__all__ = [
    "Attribute",
    "Schema",
    "ATTRIBUTE_TYPES",
    "Relation",
    "RelationDelta",
    "Row",
    "SortedIndex",
    "as_column_array",
    "concat_column_arrays",
    "tuple_key_array",
    "ColumnStatistics",
    "EquiWidthHistogram",
    "HistogramBucket",
    "merge_statistics",
    "Predicate",
    "TruePredicate",
    "Comparison",
    "InSet",
    "Between",
    "And",
    "Or",
    "Not",
    "selectivity",
    "hash_join",
    "natural_join",
    "selection",
    "projection",
    "set_union",
    "disjoint_union",
    "intersection",
    "difference",
]
