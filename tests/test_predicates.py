"""Tests for repro.relational.predicates.

The property test compares :meth:`Predicate.mask` with an oracle written
here: Python's own ``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=`` and ``in``
applied to each row's values, as ``column.tolist()`` hands them out.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.relational.predicates import (
    And,
    Between,
    Comparison,
    InSet,
    Not,
    Or,
    TruePredicate,
    selectivity,
)
from repro.relational.relation import Relation


ROW = (30, "rome")


def holds(predicate, row=ROW):
    """The predicate's verdict on one ``(age, city)`` row."""
    columns = {"age": np.array([row[0]]), "city": np.array([row[1]])}
    (verdict,) = predicate.mask(columns, 1).tolist()
    return verdict


class TestComparison:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("==", 30, True),
            ("!=", 30, False),
            ("<", 40, True),
            ("<=", 30, True),
            (">", 30, False),
            (">=", 31, False),
        ],
    )
    def test_operators(self, op, value, expected):
        assert holds(Comparison("age", op, value)) is expected

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Comparison("age", "~", 1)

    def test_attributes(self):
        assert Comparison("age", "<", 5).attributes() == ("age",)

    def test_mixed_kinds_keep_python_equality(self):
        column = {"x": np.array([1, 2, 2**53 + 1])}
        assert Comparison("x", "==", 1.0).mask(column, 3).tolist() == [True, False, False]
        assert Comparison("x", "==", True).mask(column, 3).tolist() == [True, False, False]
        assert Comparison("x", "==", 2.0**53).mask(column, 3).tolist() == [False] * 3

    def test_nul_suffixed_constant_is_not_stripped(self):
        column = {"s": np.array(["a", "b"])}
        assert Comparison("s", "==", "a\x00").mask(column, 2).tolist() == [False, False]
        assert InSet("s", ["a\x00"]).mask(column, 2).tolist() == [False, False]


class TestOtherPredicates:
    def test_in_set(self):
        assert holds(InSet("city", ["rome", "oslo"]))
        assert not holds(InSet("city", ["lima"]))

    def test_between_inclusive(self):
        assert holds(Between("age", 30, 40))
        assert holds(Between("age", 20, 30))
        assert not holds(Between("age", 31, 40))

    def test_true_predicate(self):
        assert holds(TruePredicate())
        assert TruePredicate().attributes() == ()

    @pytest.mark.parametrize(
        "predicate,verdict",
        [(TruePredicate(), True), (And([]), True), (Or([]), False), (Not(TruePredicate()), False)],
    )
    def test_a_constant_mask_has_the_block_length_without_columns(self, predicate, verdict):
        """A predicate naming no attribute is handed no column, and still
        answers once per row of the block."""
        assert predicate.attributes() == ()
        assert predicate.mask({}, 5).tolist() == [verdict] * 5

    def test_not(self):
        assert holds(Not(Comparison("age", ">", 100)))


class TestComposition:
    def test_and_or_via_operators(self):
        p = Comparison("age", ">=", 18) & InSet("city", ["rome"])
        q = Comparison("age", ">", 100) | InSet("city", ["rome"])
        assert holds(p)
        assert holds(q)
        assert holds(~p) is False

    def test_composite_attributes_deduplicated(self):
        p = And([Comparison("age", ">", 1), Comparison("age", "<", 99), InSet("city", ["x"])])
        assert p.attributes() == ("age", "city")

    def test_or_false_when_all_children_false(self):
        p = Or([Comparison("age", ">", 100), Comparison("city", "==", "lima")])
        assert not holds(p)


class TestSelectivity:
    def test_selectivity_fraction(self):
        rel = Relation("r", ["age", "city"], [(10, "a"), (20, "a"), (30, "b"), (40, "b")])
        assert selectivity(Comparison("age", ">=", 30), rel) == 0.5

    def test_selectivity_empty_relation(self):
        rel = Relation("r", ["age", "city"], [])
        assert selectivity(TruePredicate(), rel) == 0.0


class TestEmptyRelation:
    @pytest.mark.parametrize(
        "predicate",
        [
            TruePredicate(),
            Comparison("age", "<", 3),
            InSet("city", ["a"]),
            Between("age", 1, 2),
            And([]),
            Or([Comparison("age", "==", 1)]),
            Not(InSet("city", [])),
        ],
    )
    def test_every_node_selects_nothing_from_nothing(self, predicate):
        rel = Relation("r", ["age", "city"], [])
        assert len(rel.select(predicate)) == 0
        assert rel.mask(predicate).shape == (0,)


# ------------------------------------------------------------- the property
OPERATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: numbers of every kind a row may hold: small ints, ints at 2**53 ± 1 and
#: at the int64 edges, floats with NaN and infinities, bools
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(
        [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 2**63, 2**64]
    ),
    st.floats(-4, 4),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 2.0**53, 2.0**53 + 2, -0.0]),
    st.booleans(),
)
#: strings, some of them ending in NUL
TEXTS = st.text(alphabet="ab\x00", max_size=3)


def object_array(values):
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


@st.composite
def numeric_columns(draw, size):
    layout = draw(st.sampled_from(["int16", "int64", "float64", "bool", "object"]))
    if layout == "int16":
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)),
                        dtype=np.int16)
    if layout == "int64":
        ints = st.integers(-3, 3) | st.sampled_from(
            [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
        )
        return np.array(draw(st.lists(ints, min_size=size, max_size=size)), dtype=np.int64)
    if layout == "float64":
        floats = st.floats(-4, 4) | st.sampled_from([float("nan"), float("inf"), 2.0**53])
        return np.array(draw(st.lists(floats, min_size=size, max_size=size)), dtype=np.float64)
    if layout == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    return object_array(draw(st.lists(NUMBERS, min_size=size, max_size=size)))


@st.composite
def text_columns(draw, size):
    values = draw(st.lists(TEXTS, min_size=size, max_size=size))
    if draw(st.booleans()):
        return object_array(values)
    # a <U column strips trailing NULs: its rows hold what tolist() returns
    return np.array(values, dtype=f"<U{max([1, *map(len, values)])}")


#: per column, the constants it is ordered against (its own family) and
#: the ones it is tested for equality or membership with (any family)
ORDERED = {"x": NUMBERS, "s": TEXTS}
ANY = NUMBERS | TEXTS


def leaves(attribute):
    ordered = ORDERED[attribute]
    return st.one_of(
        st.just(TruePredicate()),
        st.builds(Comparison, st.just(attribute), st.sampled_from(["==", "!="]), ANY),
        st.builds(Comparison, st.just(attribute), st.sampled_from(["<", "<=", ">", ">="]),
                  ordered),
        st.builds(InSet, st.just(attribute), st.lists(ANY, max_size=4)),
        st.builds(Between, st.just(attribute), ordered, ordered),
    )


PREDICATES = st.recursive(
    leaves("x") | leaves("s"),
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(And),
        st.lists(children, max_size=3).map(Or),
        children.map(Not),
    ),
    max_leaves=6,
)


def expected(predicate, row):
    """Python's verdict on one row (a dict of the row's values)."""
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, Comparison):
        return bool(OPERATORS[predicate.op](row[predicate.attribute], predicate.value))
    if isinstance(predicate, InSet):
        return row[predicate.attribute] in predicate.values
    if isinstance(predicate, Between):
        return bool(predicate.low <= row[predicate.attribute] <= predicate.high)
    if isinstance(predicate, And):
        return all(expected(child, row) for child in predicate.children)
    if isinstance(predicate, Or):
        return any(expected(child, row) for child in predicate.children)
    assert isinstance(predicate, Not)
    return not expected(predicate.child, row)


@st.composite
def column_blocks(draw):
    size = draw(st.integers(0, 6))
    return {"x": draw(numeric_columns(size)), "s": draw(text_columns(size))}


def block(x, s):
    return {"x": x, "s": np.array(s) if all(s) else object_array(s)}


class TestMaskMatchesPython:
    @settings(max_examples=400, deadline=None)
    @given(columns=column_blocks(), predicate=PREDICATES)
    @example(block(np.array([2**53 + 1, 2**53]), ["a", "b"]), Comparison("x", "==", 2.0**53))
    @example(block(np.array([2.0**53, 1.0]), ["a", "b"]), Comparison("x", ">=", 2**53 + 1))
    @example(block(np.array([2**53 + 1, 1]), ["a", "b"]), InSet("x", [2.0**53, True]))
    @example(block(np.array([True, False]), ["a", "b"]), Comparison("x", "==", 1))
    @example(block(np.array([1, 2]), ["a\x00", "a"]), Comparison("s", "!=", "a"))
    @example(block(np.array([1, 2]), ["a", "b"]), Between("s", "a\x00", "b"))
    @example(block(np.array([np.nan, 1.0]), ["a", "b"]), Not(Comparison("x", "<", np.inf)))
    def test_mask_is_python_row_by_row(self, columns, predicate):
        values = {name: column.tolist() for name, column in columns.items()}
        rows = [dict(zip(values, row)) for row in zip(*values.values())]
        mask = predicate.mask(columns, len(rows))
        assert mask.dtype == bool and mask.shape == (len(rows),)
        assert mask.tolist() == [expected(predicate, row) for row in rows]
