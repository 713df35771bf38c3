"""Selection predicates.

Paper §8.3 supports selection predicates either by pushing them down into
base relations before sampling, or by checking them during sampling with an
extra rejection factor.  Both paths need a small predicate algebra, which this
module provides: comparisons, membership, range, conjunction, disjunction and
negation.  :meth:`Predicate.mask` is the one evaluator: over a block of rows
given as one array per attribute it names and the block's row count, one
bool per row.  A comparison is one NumPy operation when the column's dtype
kind is the constant's; otherwise (object columns, mixed kinds, ints past
int64, NUL-suffixed strings, which ``<U`` arrays strip) Python's operator
runs per element, as in ``SortedIndex.slots_for``, so ``1 == 1.0 == True``
keeps Python's meaning.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Tuple

import numpy as np
import numpy.typing as npt

Column = npt.NDArray[Any]
BoolArray = npt.NDArray[np.bool_]
#: attribute name -> one array per attribute, all of one length
Columns = Mapping[str, Column]

_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: the column dtype kind a constant of each Python type compares natively with
_NATIVE_KIND = {int: "i", float: "f", bool: "b", str: "U", bytes: "S"}


def _native_kind(value: Any) -> Optional[str]:
    """The column dtype kind ``value`` compares with natively, if any."""
    kind = _NATIVE_KIND.get(type(value))
    if kind == "i" and not -(2**63) <= value < 2**63:
        return None
    if kind == "U" and value.endswith("\x00") or kind == "S" and value.endswith(b"\x00"):
        return None
    return kind


def _compare(column: Column, op: str, value: object) -> BoolArray:
    """``column[i] <op> value`` for every row, with Python's meaning."""
    compare = _COMPARATORS[op]
    if column.dtype.kind == _native_kind(value):
        return np.asarray(compare(column, value), dtype=bool)
    return np.fromiter(
        (bool(compare(item, value)) for item in column.tolist()), dtype=bool, count=len(column)
    )


class Predicate(ABC):
    """Base class for all selection predicates."""

    @abstractmethod
    def mask(self, columns: Columns, rows: int) -> BoolArray:
        """Per row of a block of ``rows`` rows, given as ``columns`` (at least
        the attributes the predicate names), whether it satisfies the
        predicate; one that names none reads only ``rows``."""

    @abstractmethod
    def attributes(self) -> Tuple[str, ...]:
        """Attribute names referenced by this predicate."""

    # Allow composing predicates with ``&``, ``|`` and ``~``.
    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Predicate that accepts every row (neutral element for conjunction)."""

    def mask(self, columns: Columns, rows: int) -> BoolArray:
        return np.ones(rows, dtype=bool)

    def attributes(self) -> Tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class Comparison(Predicate):
    """``attribute <op> constant`` with ``op`` in ==, !=, <, <=, >, >=."""

    attribute: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def mask(self, columns: Columns, rows: int) -> BoolArray:
        return _compare(columns[self.attribute], self.op, self.value)

    def attributes(self) -> Tuple[str, ...]:
        return (self.attribute,)


@dataclass(frozen=True)
class InSet(Predicate):
    """``attribute IN (v1, v2, ...)``."""

    attribute: str
    values: frozenset

    def __init__(self, attribute: str, values: Iterable[object]) -> None:
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", frozenset(values))

    def mask(self, columns: Columns, rows: int) -> BoolArray:
        column, values = columns[self.attribute], self.values
        if all(_native_kind(v) == column.dtype.kind for v in values):
            return np.isin(column, list(values))
        return np.fromiter((item in values for item in column.tolist()), bool, len(column))

    def attributes(self) -> Tuple[str, ...]:
        return (self.attribute,)


@dataclass(frozen=True)
class Between(Predicate):
    """``low <= attribute <= high`` (inclusive range)."""

    attribute: str
    low: object
    high: object

    def mask(self, columns: Columns, rows: int) -> BoolArray:
        column = columns[self.attribute]
        return _compare(column, ">=", self.low) & _compare(column, "<=", self.high)

    def attributes(self) -> Tuple[str, ...]:
        return (self.attribute,)


class _Connective(Predicate):
    """The children of an ``And`` (``_all``) or an ``Or``."""

    _all = True

    def __init__(self, children: Iterable[Predicate]) -> None:
        self.children = tuple(children)

    def mask(self, columns: Columns, rows: int) -> BoolArray:
        fold = np.logical_and if self._all else np.logical_or
        out = np.full(rows, self._all)
        for child in self.children:
            out = fold(out, child.mask(columns, rows))
        return out

    def attributes(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(name for c in self.children for name in c.attributes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({list(self.children)!r})"


class And(_Connective):
    """Conjunction of predicates (true when all children are true)."""


class Or(_Connective):
    """Disjunction of predicates (true when any child is true)."""

    _all = False


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    child: Predicate

    def mask(self, columns: Columns, rows: int) -> BoolArray:
        return ~self.child.mask(columns, rows)

    def attributes(self) -> Tuple[str, ...]:
        return self.child.attributes()


def selectivity(predicate: Predicate, relation) -> float:
    """Fraction of rows of ``relation`` that satisfy ``predicate``.

    Used by the enforce-during-sampling strategy of §8.3 to reason about the
    extra rejection factor a predicate introduces.
    """
    if len(relation) == 0:
        return 0.0
    return float(relation.mask(predicate).mean())


__all__ = [
    "Predicate",
    "TruePredicate",
    "Comparison",
    "InSet",
    "Between",
    "And",
    "Or",
    "Not",
    "selectivity",
]
