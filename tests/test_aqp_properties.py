"""Property-based tests (hypothesis) for the AQP layer.

Two invariants are pinned here:

* **planner capability**: whatever the query shape — chain, star, cyclic,
  predicates pushed down or not, unions of several joins — the cost-based
  planner only ever hands out a backend that can actually sample that shape
  (e.g. wander join is never selected for cyclic templates or non-pushed
  predicates, and unions always get the online union sampler);
* **merge law**: an :class:`~repro.aqp.AggregateAccumulator` fed one stream
  in chunks, with the partial accumulators merged back in *any* order,
  produces bit-identical estimates and confidence intervals to a single
  accumulator fed the whole stream (exactly-rounded summation);
* **exact totals ≡ fsum**: the accumulator's incremental exact totals give
  bit for bit what the scalar formula — one ``math.fsum`` generator pass per
  sum over every contribution — gives, non-finite values included;
* **codes path ≡ value path**: a sampled block ingested through
  ``ingest_sample_block`` (reads-only gathers, GROUP BY over per-snapshot
  codes) stores what ``ingest_block`` over its value columns stores;
* **parallel determinism**: the parallel sampling service built on that
  merge law answers bit-identically for any worker count — same query, same
  seed, same shard plan ⇒ same merged estimate and CI bounds whether 1, 2,
  3, or 7 workers executed the shards.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aqp import (
    AggregateAccumulator,
    AggregateSpec,
    SamplerPlanner,
    supported_backends,
)
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.query import JoinQuery
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.sampling.wander_join import z_value
from repro.utils.rng import ensure_rng

from tests.join_oracle import ingest_rows

# --------------------------------------------------------------------- shapes
rows_ab = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 3)), min_size=1, max_size=10
)
rows_bc = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 6)), min_size=1, max_size=10
)
rows_ca = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=10
)


def _chain(rows_r, rows_s, predicates, push_down):
    return JoinQuery(
        "chain",
        [Relation("R", ["a", "b"], rows_r), Relation("S", ["b", "c"], rows_s)],
        [JoinCondition("R", "b", "S", "b")],
        [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
        predicates=predicates,
        push_down_predicates=push_down,
    )


def _star(rows_r, rows_s, rows_t):
    return JoinQuery(
        "star",
        [
            Relation("C", ["a", "b"], rows_r),
            Relation("D", ["a", "y"], [(a, y) for a, y in rows_s]),
            Relation("E", ["a", "z"], [(a, z) for a, z in rows_t]),
        ],
        [JoinCondition("C", "a", "D", "a"), JoinCondition("C", "a", "E", "a")],
        [OutputAttribute("b", "C", "b"), OutputAttribute("y", "D", "y")],
    )


def _triangle(rows_r, rows_s, rows_t):
    return JoinQuery(
        "triangle",
        [
            Relation("R", ["a", "b"], rows_r),
            Relation("S", ["b", "c"], rows_s),
            Relation("T", ["c", "a"], rows_t),
        ],
        [
            JoinCondition("R", "b", "S", "b"),
            JoinCondition("S", "c", "T", "c"),
            JoinCondition("T", "a", "R", "a"),
        ],
        [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
    )


@st.composite
def query_shapes(draw):
    """A random single query (chain / star / cyclic, predicates or not)."""
    shape = draw(st.sampled_from(["chain", "chain-pred", "star", "triangle"]))
    if shape == "triangle":
        return _triangle(draw(rows_ab), draw(rows_bc), draw(rows_ca))
    if shape == "star":
        return _star(draw(rows_ab), draw(rows_ab), draw(rows_ab))
    predicates = None
    push_down = True
    if shape == "chain-pred":
        threshold = draw(st.integers(0, 6))
        predicates = {"R": Comparison("a", ">=", threshold)}
        push_down = draw(st.booleans())
    rows_r = draw(rows_ab)
    if predicates is not None and push_down:
        # Keep the pushed-down relation non-trivial (JoinQuery filters it).
        rows_r = rows_r + [(6, 0)]
    return _chain(rows_r, draw(rows_bc), predicates, push_down)


@st.composite
def union_shapes(draw):
    """2-3 union-compatible chain joins."""
    count = draw(st.integers(2, 3))
    return [
        JoinQuery(
            f"J{i}",
            [
                Relation("R", ["a", "b"], draw(rows_ab)),
                Relation("S", ["b", "c"], draw(rows_bc)),
            ],
            [JoinCondition("R", "b", "S", "b")],
            [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
        )
        for i in range(count)
    ]


class TestPlannerCapability:
    @given(query=query_shapes(), target=st.integers(1, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_backend_always_supported(self, query, target):
        plan = SamplerPlanner(query, target_samples=target).plan()
        assert plan.backend in supported_backends(query)
        assert plan.batch_size >= 1

    @given(query=query_shapes(), target=st.integers(1, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_wander_join_never_on_unsupported_shapes(self, query, target):
        plan = SamplerPlanner(query, target_samples=target).plan()
        if query.is_cyclic or (query.predicates and not query.push_down_predicates):
            assert plan.backend != "wander-join"
            assert "wander-join" not in supported_backends(query)

    @given(queries=union_shapes(), target=st.integers(1, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_unions_always_get_the_union_sampler(self, queries, target):
        assert supported_backends(queries) == ("online-union",)
        plan = SamplerPlanner(queries, target_samples=target).plan()
        assert plan.backend == "online-union"


# ------------------------------------------------------------------- merge law
sample_values = st.lists(
    st.tuples(
        st.integers(-2, 2),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=40,
)

specs = st.sampled_from(
    [
        AggregateSpec("count"),
        AggregateSpec("sum", attribute="x"),
        AggregateSpec("avg", attribute="x"),
        AggregateSpec("sum", attribute="x", group_by="k"),
        AggregateSpec("avg", attribute="x", group_by="k"),
    ]
)


@st.composite
def chunked_streams(draw):
    """A sample stream, a partition into chunks, and a merge order."""
    values = draw(sample_values)
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(0, len(values)), min_size=0, max_size=4
            )
        )
    )
    chunks = []
    previous = 0
    for b in boundaries + [len(values)]:
        chunks.append(values[previous:b])
        previous = b
    extras = [draw(st.integers(0, 5)) for _ in chunks]
    order = draw(st.permutations(range(len(chunks))))
    return values, chunks, extras, order


class TestMergeLaw:
    SCHEMA = ("k", "x")

    @given(spec=specs, stream=chunked_streams(), weight=st.floats(0.5, 1e4))
    @settings(max_examples=150, deadline=None)
    def test_any_chunking_order_gives_identical_estimates(self, spec, stream, weight):
        values, chunks, extras, order = stream
        total_attempts = sum(len(c) + e for c, e in zip(chunks, extras))

        whole = AggregateAccumulator(spec, self.SCHEMA)
        ingest_rows(whole, values, attempts=total_attempts, weight=weight)

        partials = []
        for chunk, extra in zip(chunks, extras):
            acc = AggregateAccumulator(spec, self.SCHEMA)
            ingest_rows(acc, chunk, attempts=len(chunk) + extra, weight=weight)
            partials.append(acc)
        merged = partials[order[0]]
        for i in order[1:]:
            merged.merge(partials[i])

        assert merged.attempts == whole.attempts
        assert merged.accepted == whole.accepted
        a, b = whole.estimate(), merged.estimate()
        assert set(a.estimates) == set(b.estimates)
        for group in a.estimates:
            ea, eb = a.estimates[group], b.estimates[group]
            assert _same(ea.estimate, eb.estimate), (group, ea, eb)
            assert _same(ea.ci_low, eb.ci_low), (group, ea, eb)
            assert _same(ea.ci_high, eb.ci_high), (group, ea, eb)

    @given(stream=chunked_streams())
    @settings(max_examples=80, deadline=None)
    def test_merge_law_with_per_sample_weights(self, stream):
        values, chunks, extras, order = stream
        spec = AggregateSpec("sum", attribute="x")
        total_attempts = sum(len(c) + e for c, e in zip(chunks, extras))

        def weights_for(chunk):
            return [1.0 + (abs(hash(v)) % 97) for v in chunk]

        whole = AggregateAccumulator(spec, self.SCHEMA)
        ingest_rows(whole, values, attempts=total_attempts, weights=weights_for(values))
        partials = []
        for chunk, extra in zip(chunks, extras):
            acc = AggregateAccumulator(spec, self.SCHEMA)
            ingest_rows(acc, chunk, attempts=len(chunk) + extra, weights=weights_for(chunk))
            partials.append(acc)
        merged = partials[order[0]]
        for i in order[1:]:
            merged.merge(partials[i])
        assert _same(whole.estimate().overall.estimate, merged.estimate().overall.estimate)

    def test_merge_rejects_mismatched_specs(self):
        a = AggregateAccumulator(AggregateSpec("count"), self.SCHEMA)
        b = AggregateAccumulator(AggregateSpec("sum", attribute="x"), self.SCHEMA)
        try:
            a.merge(b)
        except ValueError as err:
            assert "identical spec" in str(err)
        else:  # pragma: no cover - defended by the assert
            raise AssertionError("merge of mismatched specs must fail")


def _same(x: float, y: float) -> bool:
    """Bit-identical comparison that treats NaN == NaN (empty AVG groups)."""
    if math.isnan(x) and math.isnan(y):
        return True
    return x == y


# ------------------------------------------------ exact totals ≡ fsum oracle
def fsum_point_and_clt(weights, values, m, kind, confidence=0.95):
    """Point estimate and CLT half-width by the scalar formula: one
    ``math.fsum`` generator pass per sum over every contribution."""
    if m == 0:
        return 0.0, float("inf")
    z = z_value(confidence)
    if kind == "avg":
        sum_w = math.fsum(weights)
        if sum_w <= 0:
            return float("nan"), float("inf")
        ratio = math.fsum(w * g for w, g in zip(weights, values)) / sum_w
        if m < 2:
            return ratio, float("inf")
        ss = math.fsum((w * (g - ratio)) ** 2 for w, g in zip(weights, values))
        return ratio, z * math.sqrt(ss / (m - 1) / m) / (sum_w / m)
    if kind == "count":
        s1 = math.fsum(weights)
        s2 = math.fsum(w * w for w in weights)
    else:
        s1 = math.fsum(w * g for w, g in zip(weights, values))
        s2 = math.fsum((w * g) ** 2 for w, g in zip(weights, values))
    if m < 2:
        return s1 / m, float("inf")
    return s1 / m, z * math.sqrt(max(s2 - s1 * s1 / m, 0.0) / (m - 1) / m)


def fsum_bootstrap(weights, values, m, kind, confidence, replicates, rng):
    """The percentile bootstrap over contribution lists."""
    w, g, n = np.asarray(weights, dtype=float), np.asarray(values, dtype=float), len(weights)
    stats = []
    for k in rng.binomial(m, n / m, size=replicates):
        if k == 0:
            stats.append(0.0 if kind != "avg" else float("nan"))
            continue
        idx = rng.integers(0, n, size=int(k))
        if kind == "count":
            stats.append(float(w[idx].sum()) / m)
        elif kind == "sum":
            stats.append(float((w[idx] * g[idx]).sum()) / m)
        else:
            denom = float(w[idx].sum())
            stats.append(float((w[idx] * g[idx]).sum()) / denom if denom > 0 else float("nan"))
    arr = np.asarray([s for s in stats if not math.isnan(s)], dtype=float)
    alpha = (1.0 - confidence) / 2.0
    return float(np.quantile(arr, alpha)), float(np.quantile(arr, 1.0 - alpha))


#: w ∈ [1e5, 1e6] and g ∈ [900, 5e5]: where ``(w*g) ** 2 != (w*g) * (w*g)``
#: for about one product in a thousand.
big_weights = st.floats(1e5, 1e6)
wide_values = st.one_of(
    st.floats(900, 5e5), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
)


@st.composite
def contribution_chunks(draw):
    """Chunks of ``(k, x)`` rows, each with a shared weight or per-sample
    weights, and each ingested as typed columns or as transposed tuples."""
    chunks = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.lists(st.tuples(st.integers(-2, 2), wide_values), max_size=30))
        if draw(st.booleans()):
            weights = draw(big_weights)
        else:
            weights = draw(st.lists(big_weights, min_size=len(rows), max_size=len(rows)))
        chunks.append((rows, weights, draw(st.integers(0, 5)), draw(st.booleans())))
    return chunks


ORACLE_SPECS = [
    AggregateSpec("count"),
    AggregateSpec("sum", attribute="x"),
    AggregateSpec("avg", attribute="x"),
    AggregateSpec("count", group_by="k"),
    AggregateSpec("sum", attribute="x", group_by="k"),
    AggregateSpec("avg", attribute="x", group_by="k"),
    AggregateSpec("sum", attribute="x", group_by=("k", "x")),
    AggregateSpec("sum", attribute="x", where=lambda row: row["k"] >= 0),
]


class TestExactTotalsMatchTheFsumOracle:
    SCHEMA = ("k", "x")

    def feed(self, spec, chunks):
        accumulator = AggregateAccumulator(spec, self.SCHEMA)
        for rows, weights, extra, via_block in chunks:
            weighting = {"weight": weights} if isinstance(weights, float) else {"weights": weights}
            if via_block:
                columns = [
                    np.array([k for k, _ in rows], dtype=np.int64),
                    np.array([x for _, x in rows], dtype=float),
                ]
                accumulator.ingest_block(columns, attempts=len(rows) + extra, **weighting)
            else:
                ingest_rows(accumulator, rows, attempts=len(rows) + extra, **weighting)
        return accumulator

    def contributions(self, spec, chunks):
        """Per-group ``(weights, values)`` lists in stream order."""
        groups = {}
        for rows, weights, _, _ in chunks:
            for i, row in enumerate(rows):
                named = dict(zip(self.SCHEMA, row))
                if spec.where is not None and not spec.where(named):
                    continue
                key = tuple(named[a] for a in spec.group_attributes)
                ws, gs = groups.setdefault(key, ([], []))
                ws.append(weights if isinstance(weights, float) else weights[i])
                gs.append(1.0 if spec.attribute is None else float(row[1]))
        return groups or {(): ([], [])}

    def assert_matches_oracle(self, spec, chunks):
        m = sum(len(rows) + extra for rows, _, extra, _ in chunks)
        report = self.feed(spec, chunks).estimate()
        expected = self.contributions(spec, chunks)
        assert set(report.estimates) == set(expected)
        for key, (ws, gs) in expected.items():
            point, half = fsum_point_and_clt(ws, gs, m, spec.kind)
            got = report.estimates[key]
            assert got.accepted == len(ws)
            assert _same(got.estimate, point), (key, got, point)
            assert _same(got.ci_low, point - half), (key, got, half)
            assert _same(got.ci_high, point + half), (key, got, half)

    @given(spec=st.sampled_from(ORACLE_SPECS), chunks=contribution_chunks())
    @settings(max_examples=200, deadline=None)
    def test_estimates_are_bit_identical_to_the_fsum_formula(self, spec, chunks):
        self.assert_matches_oracle(spec, chunks)

    @pytest.mark.parametrize("kind", ["count", "sum", "avg"])
    def test_large_streams_where_squares_round_differently(self, kind):
        """20k products in the regime where ``x ** 2`` (libm pow) and
        ``x * x`` disagree in the last bit for some of them."""
        rng = np.random.default_rng(11)
        w, x = rng.uniform(1e5, 1e6, 20_000), rng.uniform(900, 5e5, 20_000)
        products = (w * x).tolist()
        assert any(p ** 2 != p * p for p in products)
        rows = [(0, v) for v in x.tolist()]
        chunks = [(rows[:7_000], w[:7_000].tolist(), 3, True),
                  (rows[7_000:], w[7_000:].tolist(), 0, False)]
        spec = AggregateSpec(kind, attribute=None if kind == "count" else "x")
        self.assert_matches_oracle(spec, chunks)

    @pytest.mark.parametrize("via_block", [True, False])
    def test_single_products_whose_square_rounds_differently(self, via_block):
        """One contribution per accumulator, so Σ(wg)² is that one square
        and the interval shows its last bit."""
        rng = np.random.default_rng(13)
        w, x = rng.uniform(1e5, 1e6, 5_000), rng.uniform(900, 5e5, 5_000)
        odd = [(wi, xi) for wi, xi in zip(w.tolist(), x.tolist())
               if (wi * xi) ** 2 != (wi * xi) * (wi * xi)]
        assert len(odd) >= 2
        for wi, xi in odd:
            self.assert_matches_oracle(
                AggregateSpec("sum", attribute="x"), [([(0, xi)], [wi], 999, via_block)]
            )

    @pytest.mark.parametrize("kind", ["sum", "avg"])
    @pytest.mark.parametrize(
        "values",
        [[1.0, math.inf, 2.0], [math.nan, 3.0], [math.inf, math.nan], [-math.inf, 4.0]],
    )
    def test_non_finite_values_behave_as_fsum_does(self, kind, values):
        rows = [(0, v) for v in values]
        chunks = [(rows[:1], 2.0, 1, True), (rows[1:], 2.0, 0, False)]
        self.assert_matches_oracle(AggregateSpec(kind, attribute="x"), chunks)

    @pytest.mark.parametrize("kind", ["sum", "avg"])
    def test_inf_plus_minus_inf_raises_as_fsum_does(self, kind):
        chunks = [([(0, math.inf)], 2.0, 0, True), ([(0, -math.inf)], 2.0, 0, False)]
        with pytest.raises(ValueError):
            fsum_point_and_clt([2.0, 2.0], [math.inf, -math.inf], 2, kind)
        with pytest.raises(ValueError):
            self.feed(AggregateSpec(kind, attribute="x"), chunks).estimate()

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_empty_groups(self, spec):
        self.assert_matches_oracle(spec, [([], 5.0, 0, True)])
        self.assert_matches_oracle(spec, [([], 5.0, 4, False)])
        self.assert_matches_oracle(spec, [([(-1, 7.0)], 5.0, 4, False)])

    @pytest.mark.parametrize("spec", ORACLE_SPECS[:6])
    def test_bootstrap_interval_under_a_fixed_seed(self, spec):
        rng = np.random.default_rng(5)
        rows = [(int(k), float(x)) for k, x in zip(rng.integers(0, 3, 300),
                                                   rng.uniform(900, 5e5, 300))]
        chunks = [(rows[:120], 3e5, 40, True), (rows[120:], rng.uniform(1e5, 1e6, 180).tolist(), 0, False)]
        m = 340
        report = self.feed(spec, chunks).estimate(ci_method="bootstrap", seed=9)
        expected = self.contributions(spec, chunks)
        oracle_rng = ensure_rng(9)
        for key, got in report.estimates.items():
            ws, gs = expected[key]
            low, high = fsum_bootstrap(ws, gs, m, spec.kind, 0.95, 200, oracle_rng)
            assert (got.ci_low, got.ci_high) == (low, high)


# -------------------------------------------------------- parallel determinism
class TestParallelWorkerInvariance:
    """Worker count is an execution knob, never part of the answer.

    The parallel service plans a fixed shard list from (query, seed, shards)
    and merges shard accumulators through the merge law pinned above, so any
    worker count must reproduce the single-worker report bit for bit.
    """

    @given(
        workers=st.sampled_from([1, 2, 3, 7]),
        shards=st.integers(1, 6),
        seed=st.integers(0, 2**20),
        count=st.integers(0, 48),
        rows_r=rows_ab,
        rows_s=rows_bc,
    )
    @settings(max_examples=25, deadline=None)
    def test_any_worker_count_gives_identical_reports(
        self, workers, shards, seed, count, rows_r, rows_s
    ):
        from repro.parallel import parallel_aggregate

        query = _chain(rows_r, rows_s, None, True)
        spec = AggregateSpec("sum", attribute="c")
        kwargs = dict(
            seed=seed,
            shards=shards,
            method="exact-weight",
            execution="thread",
            max_attempts=10_000,
        )
        reference = parallel_aggregate(query, spec, count, workers=1, **kwargs)
        run = parallel_aggregate(query, spec, count, workers=workers, **kwargs)
        assert run.attempts == reference.attempts
        assert run.accepted == reference.accepted
        assert set(run.estimates) == set(reference.estimates)
        for group in reference.estimates:
            expected, observed = reference.estimates[group], run.estimates[group]
            assert _same(expected.estimate, observed.estimate)
            assert _same(expected.ci_low, observed.ci_low)
            assert _same(expected.ci_high, observed.ci_high)


# ------------------------------------------------- codes path ≡ value path
def _group_pool(kind, distinct):
    """``distinct`` Python values of one column kind, edge values first."""
    if kind == "U":
        return (["", "a\x00b"] + ["g" * (i % 5) + str(i) for i in range(distinct)])[:distinct]
    if kind == "S":
        return [value.encode() for value in _group_pool("U", distinct)]
    if kind == "i":
        edges = [2**53 + 1, 2**53, -(2**53) - 1, -1]
        return (edges + list(range(distinct)))[:distinct]
    if kind == "u":
        return ([2**63 + 5, 2**64 - 1] + list(range(distinct)))[:distinct]
    return [False, True][:distinct]


def _fresh_value(kind, wide):
    """A value of one column kind outside every pool (wider than the pool's
    strings when ``wide``: the column changes dtype)."""
    width = 40 if wide else 1
    return {"U": "~" * width, "S": b"~" * width, "i": -(2**62) - wide,
            "u": 2**63 + 7 + wide, "b": True}[kind]


_CODES_SPECS = [
    AggregateSpec("count"),
    AggregateSpec("count", group_by="g"),
    AggregateSpec("sum", attribute="v", group_by="g"),
    AggregateSpec("avg", attribute="v", group_by="g", where=Comparison("v", ">", 3)),
    AggregateSpec("sum", attribute="v", group_by="g", where=Comparison("a", "<", 5)),
    AggregateSpec("sum", attribute="v", group_by="g", where=Comparison("v", ">", 10**9)),
    AggregateSpec("count", group_by="g", where=lambda row: row["v"] % 3 != 0),
    AggregateSpec("sum", attribute="v", group_by=("g", "a")),
]


class TestCodesPathEqualsValuePath:
    """``ingest_sample_block`` (reads-only gathers, GROUP BY over per-snapshot
    codes) stores what ``ingest_block`` over the block's value columns
    stores: group creation order, per-group contribution arrays, exact
    totals and estimates, across mutations of the coded relation."""

    @given(
        kind=st.sampled_from("USiub"),
        distinct=st.integers(1, 600),
        nul_suffixed=st.booleans(),
        spec=st.sampled_from(_CODES_SPECS),
        seed=st.integers(0, 2**16),
        blocks=st.lists(
            st.tuples(
                st.integers(0, 1200), st.booleans(), st.sampled_from(["", "S", "N", "W", "R"])
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @example(kind="i", distinct=600, nul_suffixed=False, spec=_CODES_SPECS[2], seed=1,
             blocks=[(1200, False, ""), (400, True, "S"), (0, False, "R")])
    @example(kind="U", distinct=3, nul_suffixed=False, spec=_CODES_SPECS[1], seed=2,
             blocks=[(50, False, "N"), (50, True, "W"), (20, False, "S"), (20, False, "N")])
    @settings(max_examples=60, deadline=None)
    def test_sample_blocks_match_their_value_columns(
        self, kind, distinct, nul_suffixed, spec, seed, blocks
    ):
        from repro.sampling.blocks import CODED_KINDS, SampleBlock, column_codes

        rng = np.random.default_rng(seed)
        pool = _group_pool(kind, distinct)
        if nul_suffixed and kind in "US":
            pool[-1] = pool[-1] + ("\x00" if kind == "U" else b"\x00")  # an object column

        def rows_s(count):
            return [(int(a), pool[j]) for a, j in zip(rng.integers(0, 9, count),
                                                       rng.integers(0, len(pool), count))]

        r = Relation("R", ["a", "v"], [(int(a), int(a) * 7 % 11) for a in range(9)])
        s = Relation("S", ["a", "g"], rows_s(2 * distinct + 5))
        query = JoinQuery(
            "coded",
            [r, s],
            [JoinCondition("R", "a", "S", "a")],
            [OutputAttribute("v", "R", "v"), OutputAttribute("g", "S", "g"),
             OutputAttribute("a", "R", "a")],
        )
        coded, plain = (AggregateAccumulator(spec, query.output_schema) for _ in range(2))
        first_chunk_groups = None
        for size, per_sample, mutate in blocks:
            is_coded = s.column_array("g").dtype.kind in CODED_KINDS
            before = column_codes(query, "S", "g") if is_coded else None
            if mutate == "S":
                s.update_rows(rng.integers(0, len(s), 3).tolist(), {"g": pool[0]})
                s.extend(rows_s(4))
                s.delete_rows([0])
            elif mutate in ("N", "W"):  # a value the codes have not seen
                if mutate == "N":  # few rows left: values may outnumber them
                    s.delete_rows(range(3, len(s)))
                s.extend([(1, _fresh_value(kind, mutate == "W"))])
            elif mutate == "R":
                r.update_rows([1], {"v": 5})
            if is_coded:
                after = column_codes(query, "S", "g")
                assert (after is before) == (mutate in ("", "R"))
                values = after.values.tolist()
                assert all(x < y for x, y in zip(values, values[1:]))
                assert after.values[after.codes].tolist() == s.column_array("g").tolist()
            positions = {"R": rng.integers(0, len(r), size), "S": rng.integers(0, len(s), size)}
            block = SampleBlock(("R", "S"), positions, attempts=size + 3, weight=2.5)
            if per_sample:
                block.weights = rng.uniform(0.5, 4.0, size)
            coded.ingest_sample_block(block, query)
            weighting = {"weight": 2.5} if block.weights is None else {"weights": block.weights}
            plain.ingest_block(block.value_columns(query), attempts=block.attempts, **weighting)
            if first_chunk_groups is None:
                first_chunk_groups = len(coded._groups)
        if (kind, distinct, blocks[0][0]) == ("i", 600, 1200):
            assert first_chunk_groups > 256  # the example: the sort's uint16 copy

        assert (coded.attempts, coded.accepted) == (plain.attempts, plain.accepted)
        assert repr(list(coded._groups)) == repr(list(plain._groups))
        for key, mine in coded._groups.items():
            theirs = plain._groups[key]
            assert mine.count == theirs.count
            assert mine.weights.tobytes() == theirs.weights.tobytes()
            assert mine.values.tobytes() == theirs.values.tobytes()
            for a, b in ((mine.first, theirs.first), (mine.second, theirs.second)):
                assert (a.total, repr(a.special)) == (b.total, repr(b.special))
        assert repr(coded.estimate().to_dict()) == repr(plain.estimate().to_dict())
