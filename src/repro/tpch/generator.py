"""Seeded TPC-H style data generator, built a column at a time.

A deterministic, pure-NumPy replacement for ``dbgen``: it produces the eight
TPC-H relations with the official cardinality ratios, valid primary and
foreign keys, and mildly skewed numeric columns, at any (small) scale factor.
The generator is the data substrate for every experiment; the workload
builders in :mod:`repro.tpch.workloads` derive the UQ1/UQ2/UQ3 union queries
from its output.

Every relation is built from NumPy column arrays under its typed schema.
The relations are *defined* by a row-at-a-time program (kept as the test
oracle, ``tests/tpch_oracle.py``): supplier, customer, part and orders draw
sized arrays, while partsupp and lineitem make scalar ``rng.integers(lo,
hi)`` and ``rng.uniform(a, b)`` calls interleaved row by row.  Those two are
replayed here from the generator's raw 64-bit words (:class:`_WordStream`),
so the relations and the generator state left for the callers that keep
drawing from it are bit-identical to the scalar calls.  The replay rests on
how NumPy's ``Generator`` over ``PCG64`` draws:

* a bounded integer with a range below 2**32 takes one 32-bit half: the low
  half of a fresh word, whose high half stays pending for the next 32-bit
  draw (``state["has_uint32"]``/``state["uinteger"]``);
* a uniform takes one whole word ``x`` and is ``a + (b - a) * ((x >> 11) *
  2**-53)``; it leaves a pending half pending;
* the integer is Lemire's: with ``m = half * span``, the draw is rejected
  (and the next half drawn) while ``m mod 2**32 < (2**32 - span) % span``,
  and is ``lo + (m >> 32)`` otherwise;
* Python's ``round(v, 2)`` is correctly rounded, which ``np.rint(v * 100) /
  100`` matches everywhere but near a .5 tie of ``v * 100``.

Rows are replayed in bounded chunks.  A chunk stops before the first order
(or part) holding a rejected draw; that one unit runs through the scalar
calls and the replay resumes after it.  docs/performance.md ("Data
generation") walks through the layout.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.relational.relation import Relation
from repro.tpch import schema as tpch_schema
from repro.utils.rng import RandomState, ensure_rng

Words = npt.NDArray[np.uint64]
Ints = npt.NDArray[np.int64]
Floats = npt.NDArray[np.float64]
Mask = npt.NDArray[np.bool_]
#: one call's draws: ints (``rng.integers``) or floats (``rng.uniform``)
Draws = npt.NDArray[Any]
#: scalar calls in call order: ``(low, high)`` of ints is
#: ``rng.integers(low, high)``, of floats ``rng.uniform(low, high)``
Calls = Sequence[Tuple[float, float]]
#: replays up to ``n`` units from a word buffer (see :meth:`_WordStream.run`)
Replayer = Callable[[Words, bool, int], Tuple[int, int, Optional[int]]]
#: draws one unit through the generator's own scalar calls
ScalarUnit = Callable[[np.random.Generator], None]

#: orders (lineitem) or parts (partsupp) replayed per chunk: bounds the
#: raw-word buffer and the per-line temporaries
CHUNK_UNITS = 4_096
SUPPLIERS_PER_PART = 4
#: the calls of one partsupp row: availqty, supplycost
PARTSUPP_CALLS: Calls = [(1, 10_000), (1.0, 1000.0)]

_LOW_HALF = np.uint64(0xFFFF_FFFF)
_HALF_BITS = np.uint64(32)


class TPCHGenerator:
    """Generate the TPC-H relations at a given scale factor.

    Parameters
    ----------
    scale_factor:
        Fraction of the official SF-1 cardinalities (e.g. ``0.002`` produces
        roughly 3,000 orders and 12,000 lineitems).
    seed:
        Seed or generator; the same seed always produces identical relations.
        A generator must run on ``PCG64`` (what :mod:`repro.utils.rng`
        makes); it is left exactly where the row-at-a-time definition
        leaves it.
    """

    def __init__(self, scale_factor: float = 0.002, seed: RandomState = 0) -> None:
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.rng = _pcg64(ensure_rng(seed))

    # ------------------------------------------------------------------ public
    def generate(self) -> Dict[str, Relation]:
        """Generate every table and return them keyed by table name."""
        region = self._region()
        nation = self._nation()
        supplier = self._supplier()
        customer = self._customer()
        part = self._part()
        partsupp = self._partsupp(part, supplier)
        orders = self._orders(customer)
        lineitem = self._lineitem(orders, part, supplier)
        return {
            "region": region,
            "nation": nation,
            "supplier": supplier,
            "customer": customer,
            "part": part,
            "partsupp": partsupp,
            "orders": orders,
            "lineitem": lineitem,
        }

    def rows(self, table: str) -> int:
        return tpch_schema.rows_at_scale(table, self.scale_factor)

    # ------------------------------------------------------------------ tables
    def _region(self) -> Relation:
        keys = np.arange(self.rows("region"))
        return _relation("region", keys, _pick(tpch_schema.REGION_NAMES, keys))

    def _nation(self) -> Relation:
        keys = np.arange(self.rows("nation"))
        return _relation(
            "nation",
            keys,
            _pick(tpch_schema.NATION_NAMES, keys),
            keys % self.rows("region"),
        )

    def _supplier(self) -> Relation:
        count = self.rows("supplier")
        nations = self.rng.integers(0, self.rows("nation"), size=count)
        balances = np.round(self.rng.uniform(-999.99, 9999.99, size=count), 2)
        keys = np.arange(1, count + 1)
        return _relation("supplier", keys, _labels("Supplier#", keys), nations, balances)

    def _customer(self) -> Relation:
        count = self.rows("customer")
        nations = self.rng.integers(0, self.rows("nation"), size=count)
        segments = self.rng.integers(0, len(tpch_schema.MKT_SEGMENTS), size=count)
        balances = np.round(self.rng.uniform(-999.99, 9999.99, size=count), 2)
        keys = np.arange(1, count + 1)
        return _relation(
            "customer",
            keys,
            _labels("Customer#", keys),
            nations,
            _pick(tpch_schema.MKT_SEGMENTS, segments),
            balances,
        )

    def _part(self) -> Relation:
        count = self.rows("part")
        sizes = self.rng.integers(1, 51, size=count)
        types = self.rng.integers(0, len(tpch_schema.PART_TYPES), size=count)
        brands = self.rng.integers(1, 6, size=count)
        prices = np.round(900.0 + (np.arange(count) % 1000) + sizes * 0.1, 2)
        keys = np.arange(1, count + 1)
        return _relation(
            "part",
            keys,
            _labels("Part#", keys),
            _pick([f"Brand#{b}{b}" for b in range(6)], brands),
            _pick(tpch_schema.PART_TYPES, types),
            sizes,
            prices,
        )

    def _partsupp(self, part: Relation, supplier: Relation) -> Relation:
        supplier_count = len(supplier)
        partkeys = np.repeat(part.column_array("partkey").astype(np.int64), SUPPLIERS_PER_PART)
        shifts = np.arange(SUPPLIERS_PER_PART) * (supplier_count // SUPPLIERS_PER_PART + 1)
        suppkeys = (partkeys + np.tile(shifts, len(part))) % supplier_count + 1
        # per part, SUPPLIERS_PER_PART times: availqty, then supplycost
        draws = replay_calls(self.rng, PARTSUPP_CALLS * SUPPLIERS_PER_PART, len(part))
        return _relation(
            "partsupp",
            partkeys,
            suppkeys,
            np.stack(draws[0::2], axis=1).ravel(),
            _round2(np.stack(draws[1::2], axis=1).ravel()),
        )

    def _orders(self, customer: Relation) -> Relation:
        count = self.rows("orders")
        customer_count = len(customer)
        # Uniform over all customers (dbgen leaves a third of them orderless).
        cust_positions = self.rng.integers(0, customer_count, size=count)
        statuses = self.rng.integers(0, len(tpch_schema.ORDER_STATUSES), size=count)
        priorities = self.rng.integers(0, len(tpch_schema.ORDER_PRIORITIES), size=count)
        prices = np.round(self.rng.uniform(850.0, 500_000.0, size=count), 2)
        dates = self.rng.integers(8_035, 10_591, size=count)  # days: 1992-01-01..1998-12-31
        custkeys = customer.column_array("custkey").astype(np.int64)[cust_positions]
        return _relation(
            "orders",
            np.arange(1, count + 1),
            custkeys,
            _pick(tpch_schema.ORDER_STATUSES, statuses),
            prices,
            dates,
            _pick(tpch_schema.ORDER_PRIORITIES, priorities),
        )

    def _lineitem(self, orders: Relation, part: Relation, supplier: Relation) -> Relation:
        order_count = len(orders)
        most_lines = 2 * max(self.rows("lineitem") // max(order_count, 1), 1)
        # one line: partkey, suppkey, quantity, price, discount, shipdate offset
        calls: Calls = [
            (1, len(part) + 1), (1, len(supplier) + 1), (1, 51),
            (900.0, 2000.0), (0.0, 0.1), (1, 122),
        ]
        line_words = _words(calls)
        counts: List[Ints] = []
        draws: List[List[Draws]] = [[] for _ in calls]  # per call, its chunks

        def replay(words: Words, pending: bool, units: int) -> Tuple[int, int, Optional[int]]:
            lines, halves = _line_counts(words, pending, units, most_lines, line_words)
            # An order's lines start on the word after its count's half; when
            # the count took a low half, they open on its pending high half.
            index, highs = _line_positions(
                calls,
                np.repeat(halves[:-1] // 2 + 1, lines) + line_words * _ranks(lines),
                np.repeat(halves[:-1] % 2 == 0, lines),
            )
            values, rejected = _draws(calls, words, index, highs)
            kept = len(lines)
            if rejected.any():
                # stop before the order holding the first rejected draw
                kept = int(np.searchsorted(np.cumsum(lines), np.argmax(rejected), side="right"))
            kept_lines = int(lines[:kept].sum())
            counts.append(lines[:kept])
            for column, drawn in zip(draws, values):
                column.append(drawn[:kept_lines])
            # the next order's count half: a high one is pending in the last
            # word used, a low one opens the first word not used
            half = int(halves[kept])
            used = (half - 1) // 2
            return kept, used, used if half % 2 else None

        def scalar(rng: np.random.Generator) -> None:
            lines = int(rng.integers(1, most_lines + 1))
            rows = [[_call(rng, call) for call in calls] for _ in range(lines)]
            counts.append(np.array([lines], dtype=np.int64))
            for column, drawn in zip(draws, zip(*rows)):
                column.append(np.array(drawn))

        _WordStream(self.rng).run(order_count, 1 + line_words * most_lines, replay, scalar)
        lines = _joined(counts)
        partkeys, suppkeys, quantities, prices, discounts, offsets = map(_joined, draws)
        orderdates = orders.column_array("orderdate").astype(np.int64)
        return _relation(
            "lineitem",
            np.repeat(orders.column_array("orderkey"), lines),
            partkeys,
            suppkeys,
            _ranks(lines) + 1,
            quantities,
            _round2(quantities * prices),
            _round2(discounts),
            np.repeat(orderdates, lines) + offsets,
        )


def replay_calls(rng: np.random.Generator, calls: Calls, units: int) -> List[Draws]:
    """``units`` runs of the scalar calls ``calls``, replayed column-wise.

    A call ``(low, high)`` of ints is ``rng.integers(low, high)`` (``high -
    low`` in ``[2, 2**32]``), of floats ``rng.uniform(low, high)``.  Returns
    one array per call, holding its draw in each run, and leaves ``rng``
    where ``units`` runs of the calls, one after another, leave it.  A run
    must make an even number of integer calls, so that every run reads the
    same layout.
    """
    if sum(map(_is_integer, calls)) % 2:
        raise ValueError("a run must make an even number of integer calls")
    columns: List[List[Draws]] = [[] for _ in calls]
    width = _words(calls)

    def replay(words: Words, pending: bool, count: int) -> Tuple[int, int, Optional[int]]:
        first, highs, left = _layout(calls, -1 if pending else None)
        rest = _layout(calls, None if left is None else left - width)[0]
        index = 1 + width * np.arange(count, dtype=np.int64)[:, None] + np.array(rest)
        index[0] = 1 + np.array(first)
        values, rejected = _draws(calls, words, index, np.array(highs))
        kept = int(np.argmax(rejected)) if rejected.any() else count
        for column, drawn in zip(columns, values):
            column.append(drawn[:kept])
        if left is None:
            return kept, kept * width, None
        if left < 0 or not kept:  # the half pending before is pending still
            return kept, kept * width, 0
        return kept, kept * width, width * (kept - 1) + 1 + left

    def scalar(rng: np.random.Generator) -> None:
        for column, call in zip(columns, calls):
            column.append(np.array([_call(rng, call)]))

    _WordStream(rng).run(units, width, replay, scalar)
    return [_joined(column) for column in columns]


# ------------------------------------------------------------------ the replay
class _WordStream:
    """A PCG64 generator read as its raw 64-bit words.

    ``words[1:]`` buffers the next fresh words; ``words[0]`` is a slot whose
    high half holds the pending 32-bit half, if ``pending``.  Reading moves
    the bit generator past the words it buffers; :meth:`_settle` puts it
    back where the draws replayed so far leave it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = _pcg64(rng)
        self._bits = rng.bit_generator
        self._rebase()

    def _rebase(self) -> None:
        """Count words from the generator's current state."""
        state = self._bits.state
        self._origin = state
        self._used = 0
        self.pending = bool(state["has_uint32"])
        self.words: Words = np.array([int(state["uinteger"]) << 32], dtype=np.uint64)

    def _reserve(self, count: int) -> Words:
        """The buffer, holding at least ``count`` fresh words."""
        short = count + 1 - len(self.words)
        if short > 0:
            fresh = self._bits.random_raw(short)
            self.words = np.concatenate([self.words, fresh])
        return self.words

    def _consume(self, count: int, source: Optional[int]) -> None:
        """Drop ``count`` fresh words: the draws read from them are final.

        ``source`` is the buffer index of the word whose high half is left
        pending (None: no half is); the slot takes it over.
        """
        half = None if source is None else self.words[source] >> _HALF_BITS
        self.words = self.words[count:]  # words[0]: the last consumed word
        self._used += count
        self.pending = half is not None
        if half is not None:
            self.words[0] = half << _HALF_BITS

    def _settle(self) -> np.random.Generator:
        """Leave the generator exactly where the consumed draws leave it."""
        self._bits.state = self._origin
        self._bits.advance(self._used)
        state = self._bits.state
        state["has_uint32"] = int(self.pending)
        state["uinteger"] = int(self.words[0] >> _HALF_BITS) if self.pending else 0
        self._bits.state = state
        return self._rng

    def run(self, units: int, most_words: int, replay: Replayer, scalar: ScalarUnit) -> None:
        """Replay ``units`` units of draws in chunks, then settle.

        ``replay(words, pending, n)`` reads up to ``n`` units from the
        buffer and returns how many it kept, the fresh words they used and
        the index of the word whose high half they leave pending (None if
        none is).  It keeps fewer than ``n`` only when the next unit holds a
        rejected draw, which ``scalar(rng)`` then draws through the
        generator itself.  ``most_words`` bounds one unit's fresh words.
        """
        done = 0
        while done < units:
            chunk = min(CHUNK_UNITS, units - done)
            kept, used, source = replay(self._reserve(chunk * most_words), self.pending, chunk)
            self._consume(used, source)
            done += kept
            if kept < chunk:
                scalar(self._settle())
                self._rebase()
                done += 1
        self._settle()


def _pcg64(rng: np.random.Generator) -> np.random.Generator:
    """``rng``, which must run on PCG64: the replay knows no other layout."""
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ValueError(
            "the TPC-H generator replays PCG64 draws; got a "
            f"{type(rng.bit_generator).__name__} bit generator"
        )
    return rng


def _is_integer(call: Tuple[float, float]) -> bool:
    return isinstance(call[0], int)


def _call(rng: np.random.Generator, call: Tuple[float, float]) -> float:
    """Make one scalar call through the generator itself."""
    low, high = call
    if _is_integer(call):
        return int(rng.integers(low, high))
    return float(rng.uniform(low, high))


def _words(calls: Calls) -> int:
    """Fresh words one run of ``calls`` reads, when its integers pair up."""
    integers = sum(map(_is_integer, calls))
    return integers // 2 + len(calls) - integers


def _layout(calls: Calls, pending_at: Optional[int]) -> Tuple[List[int], List[bool], Optional[int]]:
    """Where each call of one run reads, counting fresh words from 0.

    ``pending_at`` is the offset of the word whose high half is pending
    (None: no half is).  Returns each call's word offset, whether it reads
    a high half (a uniform reads a whole word: False) and the offset of the
    word whose high half the run leaves pending.
    """
    offsets: List[int] = []
    highs: List[bool] = []
    fresh = 0
    for call in calls:
        if not _is_integer(call):
            offsets.append(fresh)
            highs.append(False)
            fresh += 1
        elif pending_at is not None:
            offsets.append(pending_at)
            highs.append(True)
            pending_at = None
        else:
            offsets.append(fresh)
            highs.append(False)
            pending_at = fresh
            fresh += 1
    return offsets, highs, pending_at


def _draws(calls: Calls, words: Words, index: Ints, highs: Mask) -> Tuple[List[Draws], Mask]:
    """Each call's draw in every run, and whether a run holds a rejected one.

    ``index[r, c]`` is the buffer index of the word call ``c`` of run ``r``
    reads, and ``highs[..., c]`` whether it reads the high half.
    """
    values: List[Draws] = []
    rejected = np.zeros(len(index), dtype=bool)
    halves = _halves(words)
    for c, (low, high) in enumerate(calls):
        if _is_integer(calls[c]):
            drawn, bad = _bounded(halves[2 * index[:, c] + highs[..., c]], int(low), int(high))
            rejected |= bad
            values.append(drawn)
        else:
            values.append(_uniform(words[index[:, c]], low, high))
    return values, rejected


def _line_counts(
    words: Words, pending: bool, units: int, most_lines: int, line_words: int
) -> Tuple[Ints, Ints]:
    """Each order's line count and the half it draws the count from.

    The one sequential step: where an order begins follows from the line
    counts before it.  Number the 32-bit halves of the buffer ``2w`` (low)
    and ``2w + 1`` (high).  An order draws its count from half ``h`` (the
    first is ``1``, the slot's pending half, or ``2``), and its lines read
    ``line_words`` words each, so the next order draws from half
    ``h + 1 + 2 * line_words * count`` whichever half it was.  Stops before
    an order whose count is rejected.  Returns the counts and the count
    halves, one more than the counts (the last is the next order's).
    """
    half = _halves(words).item
    span = most_lines  # rng.integers(1, most_lines + 1): _bounded's rule, one half at a time
    threshold = (2**32 - span) % span
    step = 2 * line_words
    counts: List[int] = []
    at = first = 1 if pending else 2
    for _ in range(units):
        product = half(at) * span
        if product & 0xFFFF_FFFF < threshold:
            break
        counts.append((product >> 32) + 1)
        at += 1 + step * counts[-1]
    lines = np.array(counts, dtype=np.int64)
    return lines, first + np.concatenate([[0], np.cumsum(1 + step * lines)])


def _line_positions(calls: Calls, starts: Ints, pending: Mask) -> Tuple[Ints, Mask]:
    """Buffer index and half of each call of each line.

    A line reads the same number of words whichever way it opens: on a
    pending half (the layout's ``-1`` is the word before it) or not.
    """
    offsets, highs = zip(*(_layout(calls, -1 if opens else None)[:2] for opens in (False, True)))
    way = pending.astype(np.intp)
    return starts[:, None] + np.array(offsets)[way], np.array(highs)[way]


def _joined(parts: List[Draws]) -> Draws:
    """The parts as one array; the list lets go of them."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _ranks(counts: Ints) -> Ints:
    """0, 1, ..., count - 1 for each count, concatenated."""
    firsts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(int(counts.sum()), dtype=np.int64) - firsts


def _halves(words: Words) -> npt.NDArray[np.uint32]:
    """The words' 32-bit halves, low before high: half ``2w + 1`` is the high
    half of word ``w`` (a view on little-endian hosts)."""
    return words.astype("<u8", copy=False).view("<u4")


def _bounded(halves: npt.NDArray[np.uint32], low: int, high: int) -> Tuple[Ints, Mask]:
    """``rng.integers(low, high)`` for each 32-bit half, and which halves it
    rejects.

    Lemire's rule: the draw is ``low + floor(half * span / 2**32)`` unless
    ``half * span mod 2**32`` falls below ``(2**32 - span) % span``.
    """
    span = np.uint64(high - low)
    product = halves.astype(np.uint64) * span
    values = (product >> _HALF_BITS).astype(np.int64) + low
    return values, (product & _LOW_HALF) < (2**32 - int(span)) % int(span)


def _uniform(words: Words, low: float, high: float) -> Floats:
    """``rng.uniform(low, high)`` for each word."""
    unit: Floats = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return low + (high - low) * unit


def _round2(values: Floats) -> Floats:
    """Python's ``round(v, 2)`` for each value.

    ``np.rint(v * 100) / 100`` is that rounding wherever the product's own
    rounding cannot cross a .5 tie; the few values within a few ulps of one
    take Python's ``round``.
    """
    scaled = values * 100.0
    rounded: Floats = np.rint(scaled) / 100.0
    near_tie = np.abs(scaled - np.floor(scaled) - 0.5) <= 8 * np.spacing(np.abs(scaled))
    for i in np.flatnonzero(near_tie).tolist():
        rounded[i] = round(float(values[i]), 2)
    return rounded


# ------------------------------------------------------------------ columns
def _pick(choices: Sequence[str], index: Ints) -> npt.NDArray[np.str_]:
    """``choices[i]`` for each index."""
    return np.array(choices)[index]


def _labels(prefix: str, keys: Ints) -> npt.NDArray[np.str_]:
    """``f"{prefix}{key:09d}"`` for each key."""
    return np.char.add(prefix, np.char.zfill(keys.astype(str), 9))


def _relation(name: str, *columns: npt.NDArray[Any]) -> Relation:
    """The relation ``name`` over its columns, in schema order."""
    schema = tpch_schema.SCHEMAS[name]
    return Relation.from_columns(name, dict(zip(schema.names, columns)), schema)


def generate_tpch(
    scale_factor: float = 0.002, seed: RandomState = 0
) -> Dict[str, Relation]:
    """Convenience wrapper: generate all TPC-H relations at ``scale_factor``."""
    return TPCHGenerator(scale_factor, seed).generate()


__all__ = ["TPCHGenerator", "generate_tpch"]
