"""Tests for the incremental update engine and the repro.dynamic layer.

Covers the epoch/staleness protocol end to end: relations mutate under live
samplers, the samplers detect the version change, patch their weights and
plans, and keep producing uniform samples over the *new* join result — on
chain, acyclic (star), and cyclic (triangle) joins — plus the streaming
scenario driver and the TPC-H refresh stream.
"""

import numpy as np
import pytest

from repro.core.online_sampler import OnlineUnionSampler
from repro.dynamic import (
    DeleteEvent,
    InsertEvent,
    StreamingScenario,
    TPCHRefreshStream,
    apply_batch,
    apply_event,
    build_order_stream_scenario,
)
from repro.dynamic.stream import UpdateBatch
from repro.joins.executor import exact_join_size, join_result_set
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import WanderJoin
from repro.sampling.weights import ExactWeightFunction, ExtendedOlkenWeightFunction

from tests.stat_helpers import assert_uniform


# ------------------------------------------------------------------ mutations
class TestRelationMutations:
    def test_delete_where_returns_count_and_keeps_density(self):
        rel = Relation("R", ["a", "b"], [(i, i % 3) for i in range(9)])
        removed = rel.delete_where(Comparison("b", "==", 1))
        assert removed == 3
        assert len(rel) == 6
        assert sorted(rel.column("a")) == [0, 2, 3, 5, 6, 8]

    def test_update_where_changes_matching_rows(self):
        rel = Relation("R", ["a", "b"], [(1, 10), (2, 20), (3, 10)])
        changed = rel.update(
            Comparison("b", "==", 10),
            {"b": lambda old: old + 5},
        )
        assert changed == 2
        assert rel.column("b") == [15, 20, 15]

    def test_delete_out_of_range_raises(self):
        rel = Relation("R", ["a"], [(1,)])
        with pytest.raises(IndexError):
            rel.delete_rows([5])

    def test_maintained_caches_match_rebuild_after_interleaving(self, stat_rng):
        rel = Relation("R", ["a", "b"], [(int(stat_rng.integers(0, 6)), i) for i in range(30)])
        rel.index_on("a"), rel.sorted_index_on_columns(["a"])
        rel.statistics_on("a"), rel.column_array("a")
        for _ in range(60):
            op = int(stat_rng.integers(0, 3))
            if op == 0:
                rel.append((int(stat_rng.integers(0, 6)), int(stat_rng.integers(0, 100))))
            elif op == 1 and len(rel):
                count = int(stat_rng.integers(1, 4))
                positions = stat_rng.choice(len(rel), size=min(count, len(rel)), replace=False)
                rel.delete_rows(positions.tolist())
            elif len(rel):
                rel.update_rows(
                    [int(stat_rng.integers(0, len(rel)))],
                    {"a": int(stat_rng.integers(0, 6))},
                )
        fresh = Relation("F", rel.schema, rel.rows)
        maintained, rebuilt = rel.index_on("a"), fresh.index_on("a")
        assert maintained.total_rows == rebuilt.total_rows
        assert maintained.max_degree == rebuilt.max_degree
        for value in rebuilt.frequencies():
            assert sorted(maintained.positions(value).tolist()) == rebuilt.positions(value).tolist()
        assert rel.statistics_on("a").frequencies() == fresh.statistics_on("a").frequencies()
        assert rel.column_array("a").tolist() == fresh.column_array("a").tolist()


# ----------------------------------------------------------- weight staleness
class TestWeightRefresh:
    @pytest.mark.parametrize("factory", [ExactWeightFunction, ExtendedOlkenWeightFunction])
    def test_successor_matches_fresh_build(self, chain_query, factory):
        weights = factory(chain_query)
        held = weights.root_weights().copy()
        relation = chain_query.relation("S")
        relation.extend([(10, 500), (20, 600)])
        relation.delete_where(Comparison("c", "==", 100))
        successor = weights.successor({"S"})
        fresh = factory(chain_query)
        assert np.allclose(successor.root_weights(), fresh.root_weights())
        assert successor.total_weight == pytest.approx(fresh.total_weight)
        assert np.array_equal(weights.root_weights(), held)  # the last snapshot's value

    def test_ew_total_tracks_exact_size_under_churn(self, chain_query):
        weights = ExactWeightFunction(chain_query)
        for relation_name, row in (("R", (9, 10)), ("T", (100, 11)), ("S", (20, 100))):
            chain_query.relation(relation_name).append(row)
            weights = weights.successor({relation_name})
            assert weights.total_weight == pytest.approx(
                exact_join_size(chain_query, distinct=False)
            )


# ------------------------------------------------- a mutation mid weight pass
class TestMutationDuringTheWeightPass:
    """A refresh's descent records the versions it read *before* its weight
    pass: a mutation landing during the pass counts as not included, and
    the next refresh recomputes what it touched."""

    @pytest.mark.parametrize("factory", [ExactWeightFunction, ExtendedOlkenWeightFunction])
    def test_the_next_refresh_recomputes_it(self, chain_query, factory, monkeypatch):
        sampler = JoinSampler(chain_query, weights=factory.name, seed=7)
        chain_query.relation("S").append((10, 300))
        refresh, landed = factory._refresh, []

        def refresh_then_mutate(weights, dirty):
            refresh(weights, dirty)
            if not landed:  # once, right after the pass
                landed.append(True)
                chain_query.relation("T").append((300, 11))

        monkeypatch.setattr(factory, "_refresh", refresh_then_mutate)
        assert sampler.refresh() and landed
        assert sampler.refresh()
        fresh = factory(chain_query)
        assert sampler.size_bound == fresh.total_weight
        assert np.array_equal(sampler._descent.root_weights, fresh.root_weights())
        if factory is ExactWeightFunction:
            assert sampler.exact_size() == exact_join_size(chain_query, distinct=False) == 13
        drawn = set(sampler.sample_block(2000).values(chain_query))
        assert drawn == join_result_set(chain_query)


# ----------------------------------------------------- sampling under updates
class TestSamplingUnderUpdates:
    """Acceptance criterion: uniformity (via the shared harness) after an
    interleaved insert/delete sequence, on acyclic and cyclic joins."""

    @staticmethod
    def _churn_acyclic(query) -> None:
        center = query.relation("C")
        d = query.relation("D")
        e = query.relation("E")
        center.append((3, 7))            # new center row
        d.extend([(3, "d4"), (2, "d5"), (1, "d6")])
        e.extend([(7, "e4"), (7, "e5")])
        d.delete_where(Comparison("y", "==", "d1"))
        e.delete_where(Comparison("z", "==", "e3"))
        center.update(Comparison("k", "==", 2), {"x": 5})

    @staticmethod
    def _churn_cyclic(query) -> None:
        r = query.relation("R")
        s = query.relation("S")
        t = query.relation("T")
        r.extend([(9, 2), (9, 3)])
        s.append((3, 4))
        t.extend([(4, 9), (5, 1)])
        r.delete_where(Comparison("a", "==", 7))
        t.delete_where(Comparison("c", "==", 5) & Comparison("a", "==", 9))

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_acyclic_uniform_after_interleaved_updates(self, acyclic_query, weights):
        sampler = JoinSampler(acyclic_query, weights=weights, seed=101)
        sampler.sample_many(200)  # warm caches and buffer on the old epoch
        self._churn_acyclic(acyclic_query)
        population = sorted(join_result_set(acyclic_query))
        assert population
        draws = sampler.sample_many(1500)
        assert_uniform([d.value for d in draws], population)

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_cyclic_uniform_after_interleaved_updates(self, cyclic_query, weights):
        sampler = JoinSampler(cyclic_query, weights=weights, seed=103)
        sampler.sample_many(100)
        self._churn_cyclic(cyclic_query)
        population = sorted(join_result_set(cyclic_query))
        assert population
        draws = sampler.sample_many(1200)
        assert_uniform([d.value for d in draws], population)

    def test_scalar_path_agrees_after_updates(self, acyclic_query):
        sampler = JoinSampler(acyclic_query, weights="ew", seed=107)
        sampler.try_sample()
        self._churn_acyclic(acyclic_query)
        population = join_result_set(acyclic_query)
        draws = [sampler.try_sample() for _ in range(800)]
        values = {d.value for d in draws if d is not None}
        assert values == population

    def test_stale_buffer_is_discarded(self, chain_query):
        sampler = JoinSampler(chain_query, weights="ew", seed=109, max_batch_size=64)
        sampler.sample_many(10)  # leaves surplus accepted draws buffered
        assert sampler._block_buffer
        chain_query.relation("S").delete_where(Comparison("b", "==", 10))
        draws = sampler.sample_many(50)
        population = join_result_set(chain_query)
        assert {d.value for d in draws} <= population
        assert not sampler.refresh()  # the draw synced with the delete

    def test_wander_join_tracks_updates(self, chain_query):
        walker = WanderJoin(chain_query, seed=113)
        walker.walks(200)
        chain_query.relation("S").append((20, 700))
        chain_query.relation("T").extend([(700, 12), (700, 13)])
        population = join_result_set(chain_query)
        for walk in walker.walks(600):
            if walk.success:
                assert walk.value in population
        estimate = walker.estimate_size(max_walks=4000)
        assert estimate.estimate == pytest.approx(len(population), rel=0.35)


# ------------------------------------------------------------ streams/scenario
class TestRefreshStream:
    def test_batches_are_deterministic(self):
        def stream_for(seed):
            tables = {"orders": _orders_fixture(), "lineitem": _lineitem_fixture()}
            return TPCHRefreshStream(tables, seed=seed, orders_per_batch=8)

        a = [b.events for b in stream_for(5).batches(3)]
        b = [b.events for b in stream_for(5).batches(3)]
        assert a == b

    def test_apply_event_routes_deletes_through_index(self):
        orders = _orders_fixture()
        tables = {"orders": orders, "lineitem": _lineitem_fixture()}
        deleted = apply_event(tables, DeleteEvent("orders", "orderkey", 2))
        assert deleted == 1
        assert 2 not in orders.column("orderkey")
        inserted = apply_event(
            tables, InsertEvent("orders", ((99, 1, "O", 10.0, 9000, "5-LOW"),))
        )
        assert inserted == 1 and 99 in orders.column("orderkey")

    def test_apply_batch_groups_deletions(self):
        tables = {"orders": _orders_fixture(), "lineitem": _lineitem_fixture()}
        version_before = tables["lineitem"].version
        batch = UpdateBatch(
            sequence=1,
            events=(
                DeleteEvent("lineitem", "orderkey", 1),
                DeleteEvent("lineitem", "orderkey", 2),
                DeleteEvent("orders", "orderkey", 1),
                DeleteEvent("orders", "orderkey", 2),
            ),
        )
        counts = apply_batch(tables, batch)
        # orderkey 1 carries 2 lineitems, orderkey 2 carries 3, plus 2 orders
        assert counts == {"inserted": 0, "deleted": 7}
        # all lineitem deletions applied as ONE delta (one version bump)
        assert tables["lineitem"].version == version_before + 1

    def test_apply_batch_leaves_no_insert_for_the_next_refresh(self, monkeypatch):
        """The batch pays for its own trailing inserts: a refresh after it
        applies no queued insert delta."""
        tables, query, stream = build_order_stream_scenario(
            scale_factor=0.0005, seed=21, orders_per_batch=12
        )
        sampler = JoinSampler(query, seed=4)
        sampler.sample_block(100)
        counts = apply_batch(tables, stream.batch())
        assert counts["inserted"] > 0
        flushed = []
        flush = Relation._flush_pending
        monkeypatch.setattr(
            Relation, "_flush_pending", lambda rel: (flushed.append(rel.name), flush(rel))[1]
        )
        assert sampler.refresh()
        sampler.sample_block(100)
        assert flushed == []

    def test_stream_conserves_live_orderkeys(self):
        tables = {"orders": _orders_fixture(), "lineitem": _lineitem_fixture()}
        stream = TPCHRefreshStream(tables, seed=3, orders_per_batch=16)
        for batch in stream.batches(10):
            apply_batch(tables, batch)
        assert sorted(set(tables["orders"].column("orderkey"))) == sorted(
            stream._live_orderkeys
        )


class TestStreamingScenario:
    def test_scenario_runs_and_samples_stay_members(self):
        tables, query, stream = build_order_stream_scenario(
            scale_factor=0.0005, seed=21, orders_per_batch=12
        )
        scenario = StreamingScenario(
            tables,
            stream,
            {
                "join": JoinSampler(query, weights="ew", seed=1),
                "wander": WanderJoin(query, seed=2),
            },
            samples_per_epoch=40,
        )
        reports = scenario.run(4)
        assert [r.epoch for r in reports] == [1, 2, 3, 4]
        population = join_result_set(query)
        for value in reports[-1].samples["join"]:
            assert value in population
        for value in reports[-1].samples["wander"]:
            assert value in population

    def test_online_union_sampler_refresh(self, union_pair):
        sampler = OnlineUnionSampler(union_pair, seed=9, walks_per_join=100)
        sampler.sample(50)
        assert not sampler.refresh()  # nothing mutated: no-op
        union_pair[0].relation("S").append((10, 900))
        assert sampler.refresh()
        assert sampler._ledger.live == 0  # old-epoch bookkeeping dropped
        result = sampler.sample(80)
        universe = set()
        for query in union_pair:
            universe |= join_result_set(query)
        assert {s.value for s in result.samples} <= universe
        assert (1, 900) in universe  # the inserted row joined into the union

    def test_membership_memo_dies_with_the_snapshot(self, union_pair):
        """A probed value that leaves the earlier join is, next epoch, the
        later join's: neither the shared memo nor a parked value queue may
        answer for the database that no longer exists."""
        j1, j2 = union_pair
        value = (1, 100)  # in both joins
        sampler = OnlineUnionSampler(union_pair, seed=12, walks_per_join=100, phi=5)
        assert any(s.value == value for s in sampler.sample(400).samples)
        assert sampler.stats.backtrack_rounds > 0
        assert sampler.membership.memo["J1", value] is True
        assert any(sampler._value_queues.values()), "no parked values to go stale"

        j1.relation("S").delete_where(Comparison("b", "==", 10) & Comparison("c", "==", 100))
        assert value not in join_result_set(j1) and value in join_result_set(j2)
        result = sampler.sample(60)
        sources = {s.source_join for s in result.samples if s.value == value}
        assert sources == {"J2"}
        assert sampler.membership.memo.get(("J1", value)) is not True
        assert {s.value for s in result.samples} <= (
            join_result_set(j1) | join_result_set(j2)
        )

    def test_rejects_unknown_sampler_type(self):
        tables, query, stream = build_order_stream_scenario(
            scale_factor=0.0005, seed=22, orders_per_batch=4
        )
        scenario = StreamingScenario(tables, stream, {"bad": object()}, samples_per_epoch=4)
        with pytest.raises(TypeError):
            scenario.run_epoch()


# ---------------------------------------------------------------------- utils
def _orders_fixture() -> Relation:
    from repro.tpch.schema import ORDERS_SCHEMA

    rows = [
        (key, (key % 3) + 1, "O", 100.0 * key, 9000 + key, "5-LOW")
        for key in range(1, 9)
    ]
    return Relation("orders", ORDERS_SCHEMA, rows)


def _lineitem_fixture() -> Relation:
    from repro.tpch.schema import LINEITEM_SCHEMA

    rows = []
    for orderkey in range(1, 9):
        for line in range(1, (orderkey % 3) + 2):
            rows.append((orderkey, line, 1, line, 5, 50.0, 0.05, 9100 + orderkey))
    return Relation("lineitem", LINEITEM_SCHEMA, rows)
