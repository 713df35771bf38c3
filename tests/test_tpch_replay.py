"""The column generator against its row-at-a-time definition.

``TPCHGenerator`` replays the scalar ``rng.integers``/``rng.uniform`` calls
of ``partsupp`` and ``lineitem`` from the generator's raw words.  These
tests hold it to the oracle (``tests/tpch_oracle.py``): the same relations
byte for byte and the same generator state afterwards, at every scale the
suite uses, through chunk boundaries and the scalar fallback, and for the
UQ workloads that keep drawing from the generator.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.tpch import generator, workloads
from repro.tpch.generator import TPCHGenerator, generate_tpch, replay_calls

from tests.tpch_oracle import RowTPCHGenerator, generate_tpch_rows


def state_of(rng):
    """The generator state that decides every later draw."""
    state = rng.bit_generator.state
    pending = state["has_uint32"]
    return state["state"], pending, state["uinteger"] if pending else None


def assert_same_tables(tables, oracle):
    assert list(tables) == list(oracle)
    for name, relation in oracle.items():
        assert tables[name].schema == relation.schema
        for attribute in relation.schema.names:
            expected = relation.column_array(attribute)
            got = tables[name].column_array(attribute)
            assert got.dtype == expected.dtype, (name, attribute)
            assert got.tobytes() == expected.tobytes(), (name, attribute)


def paired(seed, pending):
    """Two generators in one state, optionally entered with a pending half."""
    pair = [np.random.default_rng(seed), np.random.default_rng(seed)]
    if pending:
        for rng in pair:
            rng.integers(0, 7)
    return pair


INTEGER_SPANS = [2, 3, 7, 50, 121, 9_999, 10_000, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32]

integer_calls = st.tuples(
    st.integers(-(2**31), 2**31), st.sampled_from(INTEGER_SPANS)
).map(lambda call: (call[0], call[0] + call[1]))
uniform_calls = st.tuples(
    st.floats(-1e6, 1e6), st.floats(0.0, 1e6)
).map(lambda call: (call[0], call[0] + call[1]))


class TestReplayedCalls:
    @settings(max_examples=60, deadline=None)
    @given(
        calls=st.lists(st.one_of(integer_calls, uniform_calls), min_size=1, max_size=7),
        units=st.integers(1, 40),
        seed=st.integers(0, 2**32),
        pending=st.booleans(),
        chunk=st.integers(1, 16),
    )
    # uniforms alone leave a pending half where it was, chunk after chunk
    @example(calls=[(0.0, 1.0)], units=5, seed=0, pending=True, chunk=2)
    @example(calls=[(0, 2**31 + 1)] * 2, units=30, seed=1, pending=True, chunk=4)
    def test_equal_to_the_scalar_calls(self, calls, units, seed, pending, chunk):
        if sum(isinstance(low, int) for low, _ in calls) % 2:
            calls = calls + [(0, 2**31 + 1)]
        replayed, called = paired(seed, pending)
        with mock.patch.object(generator, "CHUNK_UNITS", chunk):
            columns = replay_calls(replayed, calls, units)
        for unit in range(units):
            for column, (low, high) in zip(columns, calls):
                if isinstance(low, int):
                    expected = int(called.integers(low, high))
                else:
                    expected = float(called.uniform(low, high))
                assert column[unit] == expected
                assert type(column[unit].item()) is type(expected)
        assert state_of(replayed) == state_of(called)
        assert replayed.integers(0, 2**32, size=3).tolist() == called.integers(
            0, 2**32, size=3
        ).tolist()

    def test_odd_integer_calls_are_refused(self):
        with pytest.raises(ValueError, match="even"):
            replay_calls(np.random.default_rng(0), [(0, 10)], 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=50))
    def test_rounding_is_pythons(self, values):
        ties = [int(v * 100) / 100 + 0.005 for v in values]
        array = np.array(values + ties)
        rounded = generator._round2(array)
        assert [float(v) for v in rounded] == [round(float(v), 2) for v in array]


class TestOracleGrid:
    @pytest.mark.parametrize("scale_factor", [0.0005, 0.001, 0.002, 0.005, 0.01])
    @pytest.mark.parametrize("seed", [0, 7, 2023])
    def test_relations_and_state_match(self, scale_factor, seed):
        columns, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        tables = TPCHGenerator(scale_factor, columns).generate()
        assert_same_tables(tables, RowTPCHGenerator(scale_factor, rows).generate())
        assert state_of(columns) == state_of(rows)

    @pytest.mark.parametrize("pending", [False, True])
    def test_chunk_boundaries(self, pending):
        columns, rows = paired(11, pending)
        with mock.patch.object(generator, "CHUNK_UNITS", 7):
            tables = TPCHGenerator(0.001, columns).generate()
        assert_same_tables(tables, RowTPCHGenerator(0.001, rows).generate())
        assert state_of(columns) == state_of(rows)

    def test_scalar_fallback(self):
        """Units the replay gives up on are drawn by the scalar calls.

        Real rejections are rare at test scales (the first at SF 0.05 comes
        with seed 7), so every draw and every line count read from a half
        that is a multiple of 61 is flagged as rejected: the flagged orders
        and parts go through the fallback, the rest through the replay, and
        the whole must still equal the oracle.
        """
        bounded, line_counts = generator._bounded, generator._line_counts

        def flag_draws(halves, low, high):
            values, rejected = bounded(halves, low, high)
            return values, rejected | (halves % 61 == 0)

        def flag_counts(words, *args):
            lines, halves = line_counts(words, *args)
            flagged = np.flatnonzero(generator._halves(words)[halves[:-1]] % 61 == 0)
            if len(flagged):  # stop before the first flagged order
                return lines[: flagged[0]], halves[: flagged[0] + 1]
            return lines, halves

        columns, rows = paired(5, True)
        with mock.patch.object(generator, "_bounded", flag_draws), \
                mock.patch.object(generator, "_line_counts", flag_counts), \
                mock.patch.object(generator, "CHUNK_UNITS", 64):
            tables = TPCHGenerator(0.001, columns).generate()
        assert_same_tables(tables, RowTPCHGenerator(0.001, rows).generate())
        assert state_of(columns) == state_of(rows)

    def test_a_rejected_line_count_stops_the_chase(self):
        # rng.integers(1, 7) rejects a half h when (6h mod 2**32) < 4
        words = np.zeros(8, dtype=np.uint64)
        words[1] = 1 << 30  # half 2: 6 * 2**30 = 1.5 * 2**32, so 2 lines
        lines, halves = generator._line_counts(words, False, 3, 6, 1)
        # two one-word lines later the next count is half 2 + 1 + 4 = 7: 0, rejected
        assert lines.tolist() == [2]
        assert halves.tolist() == [2, 7]

    def test_generate_tpch_is_the_generator(self):
        assert_same_tables(generate_tpch(0.0005, seed=3), generate_tpch_rows(0.0005, seed=3))

    def test_non_pcg64_generators_are_refused(self):
        with pytest.raises(ValueError, match="PCG64"):
            TPCHGenerator(0.001, seed=np.random.Generator(np.random.MT19937(0)))
        with pytest.raises(ValueError, match="PCG64"):
            replay_calls(np.random.Generator(np.random.MT19937(0)), [(0, 9), (0, 9)], 2)


def fingerprint(workload):
    """Every relation of every query, byte for byte, and the metadata."""
    return workload.name, workload.metadata, [
        (
            query.name,
            [
                (
                    name,
                    [
                        (attribute, relation.column_array(attribute).dtype.str,
                         relation.column_array(attribute).tobytes())
                        for attribute in relation.schema.names
                    ],
                )
                for name, relation in query.relations.items()
            ],
        )
        for query in workload.queries
    ]


class TestWorkloadsOverTheReplay:
    """The builders keep drawing from the generator the tables came from."""

    @pytest.mark.parametrize(
        "build, options",
        [
            (workloads.build_uq1, {"overlap_scale": 0.3, "n_joins": 3}),
            (workloads.build_uq2, {}),
            (workloads.build_uq3, {"overlap_scale": 0.3}),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 42])
    def test_same_queries_as_the_oracle(self, monkeypatch, build, options, seed):
        built = fingerprint(build(scale_factor=0.001, seed=seed, **options))
        monkeypatch.setattr(workloads, "generate_tpch", generate_tpch_rows)
        assert built == fingerprint(build(scale_factor=0.001, seed=seed, **options))
