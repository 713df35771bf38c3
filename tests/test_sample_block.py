"""The zero-object SampleBlock pipeline: block/batch equivalence end to end.

The contract of the columnar pipeline is that boxing is a *view*: for a
fixed seed, :meth:`JoinSampler.sample_block` and :meth:`JoinSampler.sample_many`
describe the identical draw sequence (pinned bit-exactly, Hypothesis-driven,
under both EW and EO backends), and :meth:`AggregateAccumulator.ingest_block`
over block columns stores bit-identical estimator state to
:meth:`AggregateAccumulator.observe` over the boxed equivalents — so the
exactly-rounded merge law survives the zero-object rewiring, sequential and
parallel alike.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aqp import AggregateAccumulator, AggregateSpec
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.executor import join_result_set
from repro.joins.query import JoinQuery
from repro.parallel import ParallelSamplerPool, sequential_reference
from repro.relational.relation import Relation
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import WanderJoin

from tests.conftest import make_chain_query


def fresh_chain():
    """A small skewed chain join, rebuilt per example (relations cache state)."""
    return make_chain_query(
        "chain",
        r_rows=[(1, 10), (2, 10), (3, 20), (4, 20), (5, 20), (6, 30)],
        s_rows=[(10, 100), (10, 101), (10, 102), (20, 200), (30, 300), (30, 301)],
    )


# ------------------------------------------------------------------ property
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 60),
    weights=st.sampled_from(["ew", "eo"]),
)
def test_block_and_batch_are_bit_identical(seed, count, weights):
    """Same seed ⇒ sample_block and sample_many describe the same draws."""
    query = fresh_chain()
    block = JoinSampler(query, weights=weights, seed=seed).sample_block(count)
    draws = JoinSampler(query, weights=weights, seed=seed).sample_many(count)
    assert len(block) == count == len(draws)
    assert block.values(query) == [d.value for d in draws]
    for i, draw in enumerate(draws):
        for name in block.relation_order:
            assert int(block.positions[name][i]) == draw.assignment[name]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 40))
def test_ingest_block_matches_observe_bit_exactly(seed, count):
    """observe(boxed) and ingest_block(columns) store identical state."""
    query = fresh_chain()
    spec = AggregateSpec("avg", attribute="c", group_by="a")
    sampler = JoinSampler(query, weights="ew", seed=seed)
    block = sampler.sample_block(count)

    boxed = AggregateAccumulator(spec, query.output_schema)
    boxed.observe(block.values(query), attempts=block.attempts, weight=block.weight)
    columnar = AggregateAccumulator(spec, query.output_schema)
    columnar.ingest_block(
        block.value_columns(query), attempts=block.attempts, weight=block.weight
    )

    boxed_report = boxed.estimate()
    columnar_report = columnar.estimate()
    assert set(boxed_report.estimates) == set(columnar_report.estimates)
    for group, estimate in boxed_report.estimates.items():
        assert columnar_report.estimates[group] == estimate


# --------------------------------------------------------------- block basics
class TestSampleBlock:
    def test_concat_split_roundtrip(self, chain_query):
        sampler = JoinSampler(chain_query, seed=3)
        a = sampler.sample_block(5)
        b = sampler.sample_block(7)
        merged = SampleBlock.concat([a, b])
        assert len(merged) == 12
        assert merged.attempts == a.attempts + b.attempts
        head, tail = merged.split(5)
        assert len(head) == 5 and len(tail) == 7
        assert head.attempts == merged.attempts and tail.attempts == 0
        assert merged.values(chain_query) == head.values(chain_query) + tail.values(
            chain_query
        )

    def test_block_values_are_join_members(self, chain_query):
        population = join_result_set(chain_query)
        block = JoinSampler(chain_query, seed=5).sample_block(50)
        assert set(block.values(chain_query)) <= population

    def test_empty_block(self, chain_query):
        sampler = JoinSampler(chain_query, seed=5)
        state = sampler.rng.bit_generator.state
        block = sampler.sample_block(0)
        assert len(block) == 0 and block.attempts == 0
        assert sampler.rng.bit_generator.state == state
        assert block.values(chain_query) == []

    def test_blocks_pickle_cheaply(self, chain_query):
        block = JoinSampler(chain_query, seed=7).sample_block(64)
        payload = pickle.dumps(block)
        restored = pickle.loads(payload)
        assert restored.values(chain_query) == block.values(chain_query)
        # A boxed equivalent drags dicts and tuples through pickle; the
        # struct-of-arrays payload must stay well under it.
        boxed = pickle.dumps(block.to_draws(chain_query))
        assert len(payload) < len(boxed)

    def test_block_weight_is_total_weight(self, chain_query):
        sampler = JoinSampler(chain_query, weights="ew", seed=9)
        block = sampler.sample_block(10)
        assert block.weight == sampler.weight_function.total_weight


class TestWanderWalkBlock:
    def test_walk_block_matches_walk_batch(self, chain_query):
        batch_walker = WanderJoin(chain_query, seed=21)
        results = batch_walker.walk_batch(400)
        block_walker = WanderJoin(chain_query, seed=21)
        block = block_walker.walk_block(400)
        successes = [r for r in results if r.success]
        assert len(block) == len(successes)
        assert block.attempts == 400
        assert block.values(chain_query) == [r.value for r in successes]
        assert np.allclose(
            block.weights, [1.0 / r.probability for r in successes]
        )
        assert block_walker.walk_count == batch_walker.walk_count
        assert block_walker.success_count == batch_walker.success_count

    def test_walk_block_empty_root(self):
        query = make_chain_query("empty", r_rows=[], s_rows=[(10, 100)])
        block = WanderJoin(query, seed=1).walk_block(25)
        assert len(block) == 0 and block.attempts == 25
        assert block.weights is not None and len(block.weights) == 0


class TestParallelBlockShipping:
    def test_sampling_shards_ship_blocks(self, chain_query):
        pool = ParallelSamplerPool(workers=2, execution="thread")
        tasks = pool.plan_tasks(chain_query, 24, seed=5, method="exact-weight", shards=4)
        results = sequential_reference(tasks)
        assert all(r.block is not None for r in results if r.attempts)
        report = pool.sample(chain_query, 24, seed=5, method="exact-weight", shards=4)
        assert len(report.values) == 24
        merged = []
        for result in results:
            merged.extend(result.block.values(chain_query))
        assert report.values == merged

    def test_process_shard_results_cross_the_boundary(self, chain_query):
        """Blocks (and their projections) survive spawn-pickling round trips."""
        pool = ParallelSamplerPool(workers=2, execution="process", job_timeout=120)
        report = pool.sample(chain_query, 16, seed=5, method="exact-weight", shards=4)
        reference = ParallelSamplerPool(workers=1, execution="thread").sample(
            chain_query, 16, seed=5, method="exact-weight", shards=4
        )
        assert report.values == reference.values
        assert report.sources == reference.sources


class TestColumnarWhere:
    def test_columnar_where_protocol_matches_row_fallback(self, chain_query):
        sampler = JoinSampler(chain_query, seed=11)
        block = sampler.sample_block(200)

        class Predicate:
            def __call__(self, row):
                return row["c"] >= 200

            def columnar(self, columns):
                return np.asarray(columns["c"]) >= 200

        row_only = AggregateAccumulator(
            AggregateSpec("count", where=lambda row: row["c"] >= 200),
            chain_query.output_schema,
        )
        row_only.ingest_block(
            block.value_columns(chain_query), attempts=block.attempts, weight=block.weight
        )
        vectorized = AggregateAccumulator(
            AggregateSpec("count", where=Predicate()), chain_query.output_schema
        )
        vectorized.ingest_block(
            block.value_columns(chain_query), attempts=block.attempts, weight=block.weight
        )
        row_report = row_only.estimate()
        vec_report = vectorized.estimate()
        assert row_report.overall.estimate == vec_report.overall.estimate
        assert row_report.overall.ci_low == vec_report.overall.ci_low

    def test_ingest_block_validates_inputs(self, chain_query):
        accumulator = AggregateAccumulator(
            AggregateSpec("count"), chain_query.output_schema
        )
        with pytest.raises(ValueError, match="columns"):
            accumulator.ingest_block([np.ones(3)], attempts=3, weight=1.0)
        cols = [np.ones(3) for _ in chain_query.output_schema]
        with pytest.raises(ValueError, match="attempts"):
            accumulator.ingest_block(cols, attempts=2, weight=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            accumulator.ingest_block(cols, attempts=3)
        with pytest.raises(ValueError, match="align"):
            accumulator.ingest_block(cols, attempts=3, weights=[1.0])


class TestEpochPlanPatching:
    """refresh() re-syncs level plans per edge, not wholesale."""

    def test_descendant_delta_patches_segments_instead_of_rebuilding(self, chain_query):
        sampler = JoinSampler(chain_query, weights="ew", seed=3)
        sampler.sample_block(50)
        plans_before = sampler._plans
        assert plans_before is not None
        top = plans_before[0]  # R -> S edge: endpoints untouched below
        assert top.parent.relation == "R" and top.node.relation == "S"
        built_before = top.alias._built.copy()
        assert built_before.all()  # 50 cold draws >= S's rows: the table built itself

        # Mutate the leaf T only: the R->S edge keeps its CSR/keys/alias by
        # reference; S's weights summarize T, so the dirtied segments must be
        # invalidated (drawn cold) while untouched segments stay built.
        chain_query.relation("T").extend([(100, 77), (100, 78)])
        assert sampler.refresh()
        plans_after = sampler._plans
        assert plans_after is not None
        assert plans_after[0] is top  # edge object survived the epoch
        assert plans_after[0].csr is top.csr
        # The S rows joining the new T rows gained weight: their key segments
        # went unbuilt (drawn cold), while untouched segments stayed built.
        assert not top.alias._built.all()
        # The S->T edge's own child mutated: that plan was rebuilt fresh.
        assert plans_after[1] is not plans_before[1]

        # Correctness after the patch: the sample support matches the join.
        population = join_result_set(chain_query)
        assert set(sampler.sample_block(400).values(chain_query)) == population

    def test_unbuilt_plans_stay_unbuilt_on_refresh(self, chain_query):
        sampler = JoinSampler(chain_query, weights="ew", seed=3)
        assert sampler._plans is None
        chain_query.relation("T").append((100, 79))
        sampler.refresh()
        assert sampler._plans is None


# ---------------------------------------------------------------- dtype audit
class TestDtypeAudit:
    def test_csr_arrays_shrink_to_small_dtypes(self):
        rel = Relation("R", ["k"], [(i % 50,) for i in range(1000)])
        csr = rel.sorted_index_on_columns(["k"])
        assert csr.row_positions.dtype == np.int16
        assert csr.offsets.dtype == np.int16
        assert csr.nbytes == csr.row_positions.nbytes + csr.offsets.nbytes

    def test_csr_delta_maintenance_keeps_small_dtype_and_correctness(self):
        rel = Relation("R", ["k"], [(i % 10,) for i in range(200)])
        csr = rel.sorted_index_on_columns(["k"])
        rel.extend([(3,), (99,)])
        rel.delete_rows([0, 5])
        csr = rel.sorted_index_on_columns(["k"])
        assert csr.row_positions.dtype == np.int16
        for key in list(range(10)) + [99]:
            expected = [p for p, row in enumerate(rel.rows) if row[0] == key]
            assert sorted(csr.positions(key).tolist()) == expected

    def test_integer_columns_shrink(self):
        rel = Relation("R", ["small", "big"], [(i, i * 10**7) for i in range(300)])
        assert rel.column_array("small").dtype == np.int16
        assert rel.column_array("big").dtype == np.int64
        sizes = rel.cache_nbytes()
        assert sizes["columns"] == 300 * 2 + 300 * 8

    def test_shrunk_columns_widen_on_concat(self):
        rel = Relation("R", ["a"], [(1,), (2,)])
        assert rel.column_array("a").dtype == np.int16
        rel.extend([(2**40,)])
        assert rel.column_array("a").tolist() == [1, 2, 2**40]

    def test_shrunk_join_keys_still_sample_correctly(self):
        query = make_chain_query(
            "shrunk",
            r_rows=[(i, i % 7) for i in range(500)],
            s_rows=[(k, 100 + k) for k in range(7)],
        )
        sampler = JoinSampler(query, weights="ew", seed=3)
        population = join_result_set(query)
        assert set(sampler.sample_block(400).values(query)) <= population
        assert sampler.stats.acceptance_rate == pytest.approx(1.0)
