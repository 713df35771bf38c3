"""The zero-object SampleBlock pipeline: block/batch equivalence end to end.

The contract of the columnar pipeline is that boxing is a *view*: for a
fixed seed, :meth:`JoinSampler.sample_block` and :meth:`JoinSampler.sample_many`
describe the identical draw sequence (pinned bit-exactly, Hypothesis-driven,
under both EW and EO backends), and :meth:`AggregateAccumulator.ingest_block`
of the whole enumerated join answers exactly what ``exact_aggregate``
computes — so the exactly-rounded totals survive the zero-object pipeline,
sequential and parallel alike.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aqp import AggregateAccumulator, AggregateSpec
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.aqp.estimators import exact_aggregate
from repro.joins.executor import execute_join, join_result_set
from repro.joins.query import JoinQuery
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import WanderJoin

from tests.conftest import make_chain_query
from tests.join_oracle import ingest_rows


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


@pytest.mark.parametrize(
    "spec",
    [
        AggregateSpec("count"),
        AggregateSpec("sum", attribute="c"),
        AggregateSpec("avg", attribute="c", group_by="a"),
        AggregateSpec("sum", attribute="c", group_by="a", where=Comparison("c", ">=", 101)),
    ],
    ids=["count", "sum", "avg-by-a", "sum-by-a-where"],
)
def test_ingest_block_of_the_enumerated_join_is_the_exact_aggregate(spec):
    """ingest_block of the whole enumerated bag, every result one attempt of
    inverse weight |J|, answers exactly what exact_aggregate computes."""
    query = fresh_chain()
    values = execute_join(query)
    accumulator = AggregateAccumulator(spec, query.output_schema)
    ingest_rows(accumulator, values, attempts=len(values), weight=float(len(values)))
    report = accumulator.estimate()
    truth = exact_aggregate(values, spec, query.output_schema)
    assert {group: e.estimate for group, e in report.estimates.items()} == truth


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


class TestColumnarWhere:
    def test_predicate_where_matches_row_callable(self, chain_query):
        sampler = JoinSampler(chain_query, seed=11)
        block = sampler.sample_block(200)
        row_only = AggregateAccumulator(
            AggregateSpec("count", where=lambda row: row["c"] >= 200),
            chain_query.output_schema,
        )
        row_only.ingest_block(
            block.value_columns(chain_query), attempts=block.attempts, weight=block.weight
        )
        vectorized = AggregateAccumulator(
            AggregateSpec("count", where=Comparison("c", ">=", 200)), chain_query.output_schema
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

        # Mutate the leaf T only: the R->S edge keeps its CSR and slot map
        # by reference; S's weights summarize T, so the dirtied segments must
        # be invalidated (drawn cold) while untouched segments stay built.
        chain_query.relation("T").extend([(100, 77), (100, 78)])
        assert sampler.refresh()
        plans_after = sampler._descent.plans()
        assert plans_after[0].csr is top.csr
        assert plans_after[0].parent_slots is top.parent_slots
        # The S rows joining the new T rows gained weight: their key segment
        # went unbuilt, in the shared tables and in this sampler's view,
        # while the untouched segment stayed built.
        dirty = top.tables.changed_segments(plans_after[0].tables.weights)
        assert dirty.any() and not dirty.all()
        for built in (plans_after[0].tables.built, sampler._views[0]._built):
            assert not built[dirty].any() and built[~dirty].all()
        # The S->T edge's own child mutated: it got a new plan, its tables
        # reshaped over T's grown CSR.
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

    def test_building_plans_while_the_next_snapshot_patches_them_does_not_deadlock(
        self, chain_query, monkeypatch
    ):
        """A descent's first ``plans()`` fetches edge maps from the query's
        memo while a refresh, holding the memo's lock, patches that very
        descent: neither may wait on the other's lock."""
        import threading
        import time

        from repro.sampling import join_sampler

        patching = threading.Event()
        patched = join_sampler._Descent.patched

        def slow_patched(self):
            patching.set()
            time.sleep(0.1)  # the memo's lock is held; the builder starts now
            return patched(self)

        monkeypatch.setattr(join_sampler._Descent, "patched", slow_patched)
        builder = JoinSampler(chain_query, weights="eo", seed=1)
        refresher = JoinSampler(chain_query, weights="eo", seed=2)
        descent = builder._descent
        assert descent._plans is None
        chain_query.relation("T").append((100, 79))

        def build_plans():
            patching.wait(timeout=10)
            descent.plans()

        threads = [
            threading.Thread(target=refresher.refresh, daemon=True),
            threading.Thread(target=build_plans, daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert descent._plans is not None and refresher._descent is not descent


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


class TestRefreshBatchesReshape:
    """An RF batch widens the key lookup and reshapes the dirty edges'
    tables instead of rebuilding them (constant-weight levels take uniform
    tables from the offsets); the blocks drawn after each batch are byte
    for byte those that rebuilt lookups and fresh tables give."""

    @staticmethod
    def _digests(weights, batches=5):
        from repro.dynamic import apply_batch, build_order_stream_scenario

        tables, query, stream = build_order_stream_scenario(0.001, seed=13, orders_per_batch=24)
        sampler = JoinSampler(query, weights=weights, seed=19)
        sampler.sample_block(1000)
        digests = []
        for _ in range(batches):
            apply_batch(tables, stream.batch())
            block = sampler.sample_block(1000)
            digests.append(b"".join(block.positions[n].tobytes() for n in block.relation_order))
        return digests

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_blocks_after_rf_batches_match_fresh_tables(self, weights, monkeypatch):
        from repro.relational.index import SortedIndex
        from repro.sampling.alias import SegmentTables

        reshapes = []
        reshaped = SegmentTables.reshaped

        def spy(tables, *args):
            reshapes.append(tables)
            return reshaped(tables, *args)

        monkeypatch.setattr(SegmentTables, "reshaped", spy)
        maintained = self._digests(weights)
        # Every batch reshapes the levels whose weights vary: EW's orders
        # level.  Constant-weight levels (EW's leaf, every EO level) are laid
        # out from the offsets instead.
        assert len(reshapes) == {"ew": 5, "eo": 0}[weights]
        monkeypatch.setattr(
            SegmentTables, "reshaped", lambda _, w, offsets: SegmentTables(w, offsets)
        )
        monkeypatch.setattr(SortedIndex, "_extended_lookup", lambda index, keys: None)
        assert self._digests(weights) == maintained


class TestMaintainedDescentEqualsBuilt:
    """After every RF batch the refreshed descent is, field for field, the
    one a full weight pass and fresh plans give: weights, key sums, factors,
    root weights and every level's tables — also when a leaf empties
    entirely, slots drop to degree zero, and EO's ``cap`` moves with a max
    degree."""

    @staticmethod
    def _assert_same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def _assert_tables_equal(self, a, b):
        for field in ("offsets", "weights", "segment_totals", "uniform", "built", "prob", "alias"):
            self._assert_same(getattr(a, field), getattr(b, field))
        assert a.complete == b.complete

    def _assert_descents_equal(self, maintained, built):
        from repro.sampling.alias import SegmentTables

        ours, theirs = maintained.weight_function, built.weight_function
        if ours.name == "ew":
            for field in ("_weights", "_key_sums", "_factors"):
                mine, fresh = getattr(ours, field), getattr(theirs, field)
                assert mine.keys() == fresh.keys()
                for key in fresh:
                    self._assert_same(mine[key], fresh[key])
        else:
            assert ours._cap == theirs._cap and ours._max_degree == theirs._max_degree
            self._assert_same(ours._root_weights, theirs._root_weights)
        self._assert_same(maintained.root_weights, built.root_weights)
        for plan, fresh in zip(maintained.plans(), built.plans(), strict=True):
            assert (plan.node, plan.parent, plan.csr) == (fresh.node, fresh.parent, fresh.csr)
            assert (plan.bound, plan.constant, plan.compactions) == (
                fresh.bound, fresh.constant, fresh.compactions
            )
            self._assert_same(plan.parent_slots, fresh.parent_slots)
            self._assert_tables_equal(plan.tables, fresh.tables)
            # ... and the tables of the per-row weight gather.
            gathered = theirs.weights_for(plan.node, plan.csr.row_positions)
            self._assert_tables_equal(
                plan.tables, SegmentTables(np.asarray(gathered, dtype=float), plan.csr.offsets)
            )

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_every_batch_leaves_the_built_descent(self, weights):
        from repro.dynamic import apply_batch, build_order_stream_scenario
        from repro.sampling.join_sampler import _Descent

        tables, query, stream = build_order_stream_scenario(0.001, seed=29, orders_per_batch=16)
        lineitem = tables["lineitem"]
        sampler = JoinSampler(query, weights=weights, seed=31)
        sampler.sample_block(200)  # the level plans exist from here on
        caps = []

        def check():
            assert sampler.refresh()
            self._assert_descents_equal(sampler._descent, _Descent.built(weights, query))
            caps.append(lineitem.statistics_on("orderkey").max_degree)

        for _ in range(5):
            apply_batch(tables, stream.batch())
            check()
        # One order outgrows every other: the max degree, and with it EO's
        # cap of the orders level, moves while the customer -> orders edge
        # stays untouched.
        lineitem.extend([lineitem.row(0)] * 12)
        check()
        # Emptied by maintained deletes (at most half the rows a batch):
        # slots drop to degree zero, compactions run, the leaf ends empty.
        while len(lineitem):
            lineitem.delete_rows(range(min(len(lineitem), max(64, len(lineitem) // 2))))
            check()
        for _ in range(2):
            apply_batch(tables, stream.batch())
            check()
        assert caps[5] > caps[4] and 0 in caps


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
