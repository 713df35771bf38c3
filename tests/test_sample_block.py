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
        plans_before = sampler._descent.plans()
        top = plans_before[0]  # R -> S edge: endpoints untouched below
        assert top.parent.relation == "R" and top.node.relation == "S"
        assert sampler._views[0]._built.all()  # every S segment is uniform

        # Mutate the leaf T only: the R->S edge keeps its CSR and parent keys
        # by reference; S's weights summarize T, so the dirtied segments must
        # be invalidated (drawn cold) while untouched segments stay built.
        chain_query.relation("T").extend([(100, 77), (100, 78)])
        assert sampler.refresh()
        plans_after = sampler._descent.plans()
        assert plans_after[0].csr is top.csr
        assert plans_after[0].parent_keys is top.parent_keys
        # The S rows joining the new T rows gained weight: their key segment
        # went unbuilt, in the shared tables and in this sampler's view,
        # while the untouched segment stayed built.
        dirty = top.tables.changed_segments(plans_after[0].tables.weights)
        assert dirty.any() and not dirty.all()
        for built in (plans_after[0].tables.built, sampler._views[0]._built):
            assert not built[dirty].any() and built[~dirty].all()
        # The S->T edge's own child mutated: that plan was rebuilt fresh.
        assert plans_after[1].csr is chain_query.relation("T").sorted_index_on_columns(["c"])
        assert plans_after[1].tables is not plans_before[1].tables

        # Correctness after the patch: the sample support matches the join.
        population = join_result_set(chain_query)
        assert set(sampler.sample_block(400).values(chain_query)) == population

    def test_unbuilt_plans_stay_unbuilt_on_refresh(self, chain_query):
        sampler = JoinSampler(chain_query, weights="ew", seed=3)
        assert sampler._views is None and sampler._descent._plans is None
        chain_query.relation("T").append((100, 79))
        sampler.refresh()
        assert sampler._views is None and sampler._descent._plans is None


class TestOneDescentPerSnapshot:
    """Every sampler of a snapshot shares one descent, and a mutation never
    writes the one that was published."""

    def test_no_array_of_a_published_snapshot_is_written(self, chain_query):
        prototype = JoinSampler(chain_query, weights="ew", seed=0).warm()
        clone = prototype.split(1, seed=1, share_plans=True)[0]
        top, view = clone._descent.plans()[0], clone._views[0]
        assert top.node.relation == "S"
        held = {name: getattr(top.tables, name).copy()
                for name in ("weights", "prob", "alias", "segment_totals", "built")}
        view_built = view._built.copy()
        chain_query.relation("T").extend([(100, 77), (100, 78), (200, 79)])
        assert prototype.refresh()
        assert prototype._descent.plans()[0].tables is not top.tables
        for name, before in held.items():
            assert getattr(top.tables, name).tobytes() == before.tobytes(), name
        assert view._built.tobytes() == view_built.tobytes()
        assert clone._descent.plans()[0] is top

    def test_a_callers_weight_function_gets_its_own_descent(self, chain_query):
        from repro.sampling.weights import ExactWeightFunction

        weights = ExactWeightFunction(chain_query)
        own = JoinSampler(chain_query, weights=weights, seed=1)
        shared = JoinSampler(chain_query, weights="ew", seed=1)
        assert own.weight_function is weights
        assert own._descent is not shared._descent
        assert own.split(1)[0]._descent is own._descent
        own.sample_block(30)
        chain_query.relation("S").extend([(10, 300), (20, 200)])
        weights.refresh()  # the caller refreshes its function in place
        assert set(own.sample_block(300).values(chain_query)) == join_result_set(chain_query)

    def test_ten_samplers_build_once_and_a_delete_patches_once(self, chain_query, monkeypatch):
        from repro.sampling import alias, join_sampler, weights

        calls = {"full": 0, "patch": 0, "root_alias": 0}
        segment_builds = []
        compute = weights.ExactWeightFunction._compute
        patched = join_sampler._Descent.patched
        root_alias = alias.AliasTable.__init__
        build_segment = alias.SegmentTables._build_segment

        def spy_compute(self, dirty):
            calls["full"] += dirty is None
            return compute(self, dirty)

        def spy_patched(self):
            calls["patch"] += 1
            return patched(self)

        def spy_root_alias(self, root_weights):
            calls["root_alias"] += 1
            return root_alias(self, root_weights)

        def spy_build_segment(self, slot):
            segment_builds.append((id(self), slot))
            return build_segment(self, slot)

        monkeypatch.setattr(weights.ExactWeightFunction, "_compute", spy_compute)
        monkeypatch.setattr(join_sampler._Descent, "patched", spy_patched)
        monkeypatch.setattr(alias.AliasTable, "__init__", spy_root_alias)
        monkeypatch.setattr(alias.SegmentTables, "_build_segment", spy_build_segment)
        chain_query.relation("S").extend([(10, 300), (10, 100), (10, 100), (20, 100)])
        samplers = [JoinSampler(chain_query, weights="ew", seed=k) for k in range(10)]
        for k, sampler in enumerate(samplers):
            sampler.sample_block(40 + k)
            if k % 3 == 0:
                sampler.warm()
        assert calls == {"full": 1, "patch": 0, "root_alias": 1}
        assert segment_builds and len(segment_builds) == len(set(segment_builds))
        assert len({id(s._descent) for s in samplers}) == 1

        chain_query.relation("R").delete_rows([0])
        for sampler in samplers:
            sampler.sample_block(20)
        late = JoinSampler(chain_query, weights="ew", seed=99)
        late.sample_block(20)
        assert calls["full"] == 1 and calls["patch"] == 1
        assert len({id(s._descent) for s in samplers + [late]}) == 1
        assert set(late.sample_block(200).values(chain_query)) == join_result_set(chain_query)

    def test_threads_reaching_a_snapshot_together_publish_one_descent(
        self, chain_query, monkeypatch
    ):
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        from repro.sampling import join_sampler, weights

        calls = {"full": 0, "patch": 0}
        compute = weights.ExactWeightFunction._compute
        patched = join_sampler._Descent.patched

        def spy_compute(self, dirty):
            calls["full"] += dirty is None
            time.sleep(0.02)  # a window two unserialized misses would share
            return compute(self, dirty)

        def spy_patched(self):
            calls["patch"] += 1
            time.sleep(0.02)
            return patched(self)

        monkeypatch.setattr(weights.ExactWeightFunction, "_compute", spy_compute)
        monkeypatch.setattr(join_sampler._Descent, "patched", spy_patched)
        workers = 8
        barrier = threading.Barrier(workers)

        def construct(seed):
            barrier.wait()
            sampler = JoinSampler(chain_query, weights="ew", seed=seed)
            sampler.sample_block(10)
            return sampler

        def all_at_once():
            with ThreadPoolExecutor(workers) as pool:
                return list(pool.map(construct, range(workers)))

        first = all_at_once()
        assert calls == {"full": 1, "patch": 0}
        assert len({id(s._descent) for s in first}) == 1
        chain_query.relation("T").append((100, 79))
        second = all_at_once()
        assert calls == {"full": 1, "patch": 1}
        assert len({id(s._descent) for s in second}) == 1


class TestBrokenDescentChains:
    """A sampler refreshed onto a descent that does not descend, patch by
    patch, from the one it built its tables in still draws what it would
    have drawn alone, and draws it uniformly."""

    @staticmethod
    def _query():
        # S's segment b=10 is non-uniform under EW (weights 3 and 1), and no
        # mutation below touches it; the mutations move segment b=20 or
        # move b=10's weights and back.
        return make_chain_query(
            "chain",
            r_rows=[(1, 10), (2, 20)],
            s_rows=[(10, 100), (10, 101), (20, 200), (20, 201)],
            t_rows=[(100, 1), (100, 2), (100, 3), (101, 4), (200, 5), (201, 6)],
            output=("a", "c", "d"),
        )

    @staticmethod
    def _run(weights, gap, intervene):
        query = TestBrokenDescentChains._query()
        sampler = JoinSampler(query, weights=weights, seed=1)
        sampler.sample_block(200)
        sampler.warm()
        leaf = query.relation("T")
        if gap == "retired":
            # A snapshot in between fetches only the join tree, which
            # retires the descent the next one would have been patched from.
            leaf.append((200, 7))
            if intervene:
                query.join_tree()
            leaf.append((201, 8))
        else:
            # b=10's weights move and come back: the middle snapshot's
            # descent resets that segment, and so does the one patched next.
            leaf.append((100, 7))
            if intervene:
                JoinSampler(query, weights=weights, seed=5).warm()
            leaf.delete_rows([len(leaf) - 1])
        JoinSampler(query, weights=weights, seed=9)  # fetches the descent only
        block = sampler.sample_block(8000)
        digest = b"".join(block.positions[name].tobytes() for name in block.relation_order)
        return query, block, digest

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    @pytest.mark.parametrize("gap", ["retired", "round_trip"])
    def test_draws_match_the_unbroken_chain_and_stay_uniform(self, weights, gap):
        from collections import Counter

        from repro.joins.executor import execute_join

        _, _, alone = self._run(weights, gap, intervene=False)
        query, block, digest = self._run(weights, gap, intervene=True)
        assert digest == alone
        population = execute_join(query)
        counts = Counter(block.values(query))
        assert set(counts) == set(population)
        expected = len(block) / len(population)
        assert all(abs(n - expected) < 0.15 * expected for n in counts.values()), counts


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
