"""The vectorized sampling engine against the enumerated join.

The batched descent (`JoinSampler.sample_block`, `WanderJoin.walk_batch`) must
produce what the enumerated join predicts: the acceptance rate ``|J| / W``,
uniformity over the join result, walk probabilities ``1/|R_1| · Π 1/d`` and
the walk success rate ``Σ p(t)`` — on chain, acyclic, cyclic, and
composite-key joins.
"""

import numpy as np
import pytest

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.executor import execute_join, join_result_set
from repro.joins.query import JoinQuery
from repro.relational.columnar import as_column_array, tuple_key_array
from repro.relational.index import SortedIndex
from repro.relational.relation import Relation
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import WanderJoin
from repro.utils.rng import BatchedCategorical, ensure_rng

from tests.join_oracle import (
    enumerated_assignments,
    project,
    walk_probability,
    walk_success_probability,
)
from tests.stat_helpers import assert_uniform


@pytest.fixture
def composite_query() -> JoinQuery:
    """R ⋈ S on the composite key (k1, k2), with skewed key degrees."""
    r_rows = [
        (1, 10, "x"), (2, 10, "x"), (3, 10, "y"),
        (4, 20, "x"), (5, 20, "y"), (6, 30, "z"),
    ]
    s_rows = [
        (10, "x", 100), (10, "x", 101), (10, "x", 102),
        (10, "y", 200),
        (20, "x", 300), (20, "y", 400), (20, "y", 401),
        (40, "z", 900),
    ]
    return JoinQuery(
        "composite",
        [Relation("R", ["a", "k1", "k2"], r_rows), Relation("S", ["k1", "k2", "c"], s_rows)],
        [JoinCondition("R", "k1", "S", "k1"), JoinCondition("R", "k2", "S", "k2")],
        [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
    )


@pytest.fixture
def string_key_query() -> JoinQuery:
    """Chain join whose join attribute is a string column (typed '<U' arrays)."""
    r = Relation("R", ["a", "b"], [(i, "k%d" % (i % 3)) for i in range(9)])
    s = Relation("S", ["b", "c"], [("k0", 1), ("k0", 2), ("k1", 3), ("k2", 4), ("k2", 5)])
    return JoinQuery(
        "stringkeys",
        [r, s],
        [JoinCondition("R", "b", "S", "b")],
        [OutputAttribute("a", "R", "a"), OutputAttribute("c", "S", "c")],
    )


class TestSortedIndex:
    def test_csr_layout_groups_positions_by_key(self):
        values = [10, 20, 10, 30, 10]
        csr = SortedIndex.build(values, "a")
        assert csr.total_rows == 5
        assert csr.n_keys == 3
        for value in (10, 20, 30, 99):
            expected = [p for p, v in enumerate(values) if v == value]
            assert csr.positions(value).tolist() == expected
            assert csr.degree(value) == len(expected)

    def test_slots_for_numeric_fast_path(self):
        csr = SortedIndex.build([5, 7, 5, 9], "a")
        values = np.asarray([5, 9, 6, 7, 11])
        slots = csr.slots_for(values)
        assert slots[2] == -1 and slots[4] == -1
        assert csr.row_positions[csr.offsets[slots[0]]] in (0, 2)

    def test_slots_for_object_fallback(self):
        csr = SortedIndex.build([(1, "a"), (2, "b"), (1, "a")], "k")
        slots = csr.slots_for(tuple_key_array([as_column_array([1, 2, 3]),
                                               as_column_array(["a", "b", "a"])]))
        assert slots[2] == -1
        assert sorted(csr.positions((1, "a")).tolist()) == [0, 2]

    def test_segment_sums(self):
        csr = SortedIndex.build([1, 2, 1, 2, 2], "a")
        row_values = np.asarray([1.0, 10.0, 2.0, 20.0, 30.0])
        sums = csr.segment_sums(row_values)
        assert sums[csr.slot(1)] == pytest.approx(3.0)
        assert sums[csr.slot(2)] == pytest.approx(60.0)

    def test_empty_index(self):
        csr = SortedIndex.build([], "a")
        assert csr.n_keys == 0 and csr.total_rows == 0
        assert csr.positions(1).size == 0
        assert csr.segment_sums(np.zeros(0)).size == 0


class TestColumnarRelation:
    def test_column_array_matches_rows_and_invalidates(self):
        rel = Relation("R", ["a", "b"], [(1, "x"), (2, "y")])
        assert rel.column_array("a").tolist() == [1, 2]
        rel.append((3, "z"))
        assert rel.column_array("a").tolist() == [1, 2, 3]
        rel.extend([(4, "w")])
        assert rel.column_array("b").tolist() == ["x", "y", "z", "w"]

    def test_join_key_array_composite(self):
        rel = Relation("R", ["a", "b"], [(1, "x"), (2, "y")])
        keys = rel.join_key_array(["a", "b"])
        assert keys.tolist() == [(1, "x"), (2, "y")]

    def test_extend_validates_before_mutating(self):
        rel = Relation("R", ["a", "b"], [(1, 2)])
        with pytest.raises(ValueError):
            rel.extend([(3, 4), (5,)])
        assert len(rel) == 1  # the valid prefix must not be half-applied

    def test_sorted_index_cached_and_maintained(self):
        """Mutations patch the cached CSR in place (and bump the version)
        instead of throwing it away — the incremental maintenance contract."""
        rel = Relation("R", ["a"], [(1,), (1,), (2,)])
        csr = rel.sorted_index_on_columns(["a"])
        assert rel.sorted_index_on_columns(["a"]) is csr
        version = rel.version
        rel.append((2,))
        assert rel.version == version + 1
        maintained = rel.sorted_index_on_columns(["a"])
        assert maintained is csr
        assert sorted(maintained.positions(2).tolist()) == [2, 3]
        rel.delete_rows([0])  # swap-remove: the last row fills position 0
        assert rel.rows == [(2,), (1,), (2,)]
        assert sorted(rel.sorted_index_on_columns(["a"]).positions(1).tolist()) == [1]
        assert sorted(rel.sorted_index_on_columns(["a"]).positions(2).tolist()) == [0, 2]


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_acceptance_rate_matches_scalar(self, chain_query, weights):
        """The acceptance rate is the enumerated join's size over the total
        weight (exactly 1 under exact weights)."""
        batched = JoinSampler(chain_query, weights=weights, seed=202)
        batched.sample_many(2000)
        expected = len(execute_join(chain_query)) / batched.size_bound
        assert batched.stats.acceptance_rate == pytest.approx(expected, abs=0.05)
        if weights == "ew":
            assert batched.stats.acceptance_rate == expected == 1.0

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_chain_uniformity(self, chain_query, weights):
        sampler = JoinSampler(chain_query, weights=weights, seed=31)
        population = sorted(join_result_set(chain_query))
        draws = sampler.sample_many(1500)
        assert_uniform([d.value for d in draws], population)

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_acyclic_uniformity(self, acyclic_query, weights):
        sampler = JoinSampler(acyclic_query, weights=weights, seed=37)
        population = sorted(join_result_set(acyclic_query))
        draws = sampler.sample_many(1200)
        assert_uniform([d.value for d in draws], population)

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_cyclic_uniformity(self, cyclic_query, weights):
        sampler = JoinSampler(cyclic_query, weights=weights, seed=41)
        population = sorted(join_result_set(cyclic_query))
        draws = sampler.sample_many(900)
        assert_uniform([d.value for d in draws], population)
        assert sampler.stats.rejected_residual > 0

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_composite_key_uniformity(self, composite_query, weights):
        sampler = JoinSampler(composite_query, weights=weights, seed=43)
        population = sorted(join_result_set(composite_query))
        assert population  # fixture sanity: the composite join is non-empty
        draws = sampler.sample_many(1500)
        assert_uniform([d.value for d in draws], population)

    def test_mixed_type_key_column_keeps_all_results(self):
        """A join-key column mixing ints and strings must not be stringified
        by the columnar layer (np.asarray([1, 'x']) -> ['1', 'x']), which
        would silently drop the integer-keyed join results."""
        r = Relation("R", ["k", "a"], [(1, 10), ("x", 20)])
        s = Relation("S", ["k", "b"], [(1, 100), ("x", 200)])
        query = JoinQuery(
            "mixed",
            [r, s],
            [JoinCondition("R", "k", "S", "k")],
            [OutputAttribute("a", "R", "a"), OutputAttribute("b", "S", "b")],
        )
        sampler = JoinSampler(query, weights="ew", seed=67)
        assert sampler.size_bound == 2.0
        values = {d.value for d in sampler.sample_many(100)}
        assert values == {(10, 100), (20, 200)}

    def test_string_key_uniformity(self, string_key_query):
        sampler = JoinSampler(string_key_query, weights="eo", seed=47)
        population = sorted(join_result_set(string_key_query))
        draws = sampler.sample_many(1200)
        assert_uniform([d.value for d in draws], population)

    def test_assignments_are_consistent(self, chain_query):
        joined = enumerated_assignments(chain_query)
        sampler = JoinSampler(chain_query, seed=53)
        for draw in sampler.sample_many(50):
            assert joined[tuple(sorted(draw.assignment.items()))] == draw.value

    def test_values_are_python_typed(self, chain_query):
        draw = JoinSampler(chain_query, seed=59).sample_many(1)[0]
        assert all(not isinstance(v, np.generic) for v in draw.value)
        assert all(isinstance(p, int) for p in draw.assignment.values())

    def test_buffer_refill_preserves_counts(self, chain_query):
        sampler = JoinSampler(chain_query, seed=61)
        # one at a time: every call after a refill is served from the buffer
        values = [sampler.sample_block(1).values(chain_query)[0] for _ in range(300)]
        assert len(values) == 300
        assert sampler.stats.accepted >= 300

    def test_empty_join_raises(self):
        from tests.conftest import make_chain_query

        query = make_chain_query("empty", r_rows=[(1, 99)], s_rows=[(10, 100)])
        sampler = JoinSampler(query, weights="ew", seed=0)
        with pytest.raises(RuntimeError):
            sampler.sample_many(1, max_attempts=64)


class TestWanderJoinBatch:
    @pytest.mark.parametrize("fixture", ["chain_query", "acyclic_query", "cyclic_query"])
    def test_batch_walks_match_scalar_statistics(self, fixture, request):
        """The success rate is Σ p(t) over the enumerated join."""
        query = request.getfixturevalue(fixture)
        results = WanderJoin(query, seed=72).walks(4000)
        assert len(results) == 4000
        successes = sum(1 for w in results if w.success)
        expected = walk_success_probability(query)
        assert 0 < expected <= 1
        # five standard deviations of a binomial rate over 4000 walks
        assert abs(successes / 4000 - expected) <= 5 * (expected * (1 - expected) / 4000) ** 0.5

    def test_batch_walk_values_and_probabilities(self, chain_query):
        population = join_result_set(chain_query)
        walker = WanderJoin(chain_query, seed=73)
        ht = []
        for walk in walker.walks(1500):
            if walk.success:
                assert walk.value in population
                assert walk.probability == pytest.approx(
                    walk_probability(chain_query, walk.assignment)
                )
                assert project(chain_query, walk.assignment) == walk.value
            ht.append(walk.inverse_probability)
        estimate = sum(ht) / len(ht)
        assert estimate == pytest.approx(len(population), rel=0.25)

    def test_cyclic_batch_walks_respect_residuals(self, cyclic_query):
        walker = WanderJoin(cyclic_query, seed=79)
        population = join_result_set(cyclic_query)
        for walk in walker.walks(600):
            if walk.success:
                assert walk.value in population


class TestBatchedCategorical:
    def test_distribution(self):
        rng = ensure_rng(7)
        selector = BatchedCategorical(rng, ["a", "b"], [3.0, 1.0], batch_size=64)
        draws = [selector.draw() for _ in range(4000)]
        assert draws.count("a") / 4000 == pytest.approx(0.75, abs=0.04)

    def test_uniform_fallback_on_zero_weights(self):
        rng = ensure_rng(8)
        selector = BatchedCategorical(rng, ["a", "b", "c"], [0.0, 0.0, 0.0])
        draws = {selector.draw() for _ in range(300)}
        assert draws == {"a", "b", "c"}

    def test_rejects_bad_arguments(self):
        rng = ensure_rng(9)
        with pytest.raises(ValueError):
            BatchedCategorical(rng, [], [])
        with pytest.raises(ValueError):
            BatchedCategorical(rng, ["a"], [1.0, 2.0])


# ------------------------------------------- draws depend on seed and snapshot
def _order_chain(name, tables, predicates=None):
    """customer ⋈ orders ⋈ lineitem over the base tables the refresh churns."""
    return JoinQuery(
        name,
        [tables["customer"], tables["orders"], tables["lineitem"]],
        [
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ],
        [
            OutputAttribute("custkey", "customer", "custkey"),
            OutputAttribute("orderkey", "orders", "orderkey"),
            OutputAttribute("linenumber", "lineitem", "linenumber"),
        ],
        predicates=predicates,
        push_down_predicates=False,
    )


def _digest(parts) -> str:
    import hashlib

    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


def _block_parts(block):
    return [block.positions[name] for name in block.relation_order]


def _draw(surface, weights, queries, seed):
    """Position digest of what sampler(s) of ``seed`` draw through ``surface``."""
    from repro.core import OnlineUnionSampler

    query = queries[0]
    if surface == "sample_block":
        sampler = JoinSampler(query, weights=weights, seed=seed)
        return _digest(p for size in (64, 900, 4000)
                       for p in _block_parts(sampler.sample_block(size)))
    if surface == "split":
        sampler = JoinSampler(query, weights=weights, seed=seed)
        parts = [p for shard in sampler.split(2) for size in (50, 2000)
                 for p in _block_parts(shard.sample_block(size))]
        for shard in sampler.split(2, seed=seed + 1, share_plans=True):
            parts += _block_parts(shard.sample_block(500))
        return _digest(parts)
    union = OnlineUnionSampler(queries, seed=seed, join_weights=weights, walks_per_join=50)
    return _digest((s.value, s.source_join, s.iteration) for s in union.sample(400).samples)


@pytest.mark.parametrize("weights", ["ew", "eo"])
@pytest.mark.parametrize("surface", ["sample_block", "split", "union"])
def test_draws_depend_only_on_seed_and_snapshot(surface, weights, tpch_order_tables):
    """Sampler B draws the same whether another sampler of the same query
    drew first, a warm prototype exists, or neither — before an RF batch,
    and for a sampler created after it."""
    import pickle

    from repro.dynamic import TPCHRefreshStream, apply_batch
    from repro.relational.predicates import Comparison

    def run(scenario):
        tables = pickle.loads(pickle.dumps(tpch_order_tables))  # a fresh database
        queries = [
            _order_chain("all", tables),
            _order_chain("small", tables, {"lineitem": Comparison("quantity", "<", 25)}),
        ]
        stream = TPCHRefreshStream(tables, seed=5, orders_per_batch=48)
        digests = []
        for _ in range(2):
            if scenario == "other_first":
                _draw(surface, weights, queries, seed=1)
                JoinSampler(queries[0], weights=weights, seed=3).sample_block(20_000)
            elif scenario == "warm_prototype":
                for query in queries:
                    JoinSampler(query, weights=weights, seed=0).warm()
            digests.append(_draw(surface, weights, queries, seed=2))
            apply_batch(tables, stream.batch())
        return digests

    alone = run("neither")
    assert run("other_first") == alone
    assert run("warm_prototype") == alone


@pytest.fixture(scope="module")
def tpch_order_tables():
    from repro.tpch import generate_tpch

    return generate_tpch(0.002, seed=3)
