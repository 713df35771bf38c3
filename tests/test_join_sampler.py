"""Tests for repro.sampling.join_sampler: uniform single-join sampling."""

import pytest

from repro.joins.executor import execute_join, join_result_set
from repro.joins.query import JoinQuery
from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.relational.predicates import Comparison
from repro.relational.relation import Relation
from repro.sampling.join_sampler import JoinSampler

from tests.join_oracle import enumerated_assignments
from tests.stat_helpers import assert_uniform


class TestBasicSampling:
    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_samples_are_members_of_the_join(self, chain_query, weights):
        sampler = JoinSampler(chain_query, weights=weights, seed=1)
        results = join_result_set(chain_query)
        for draw in sampler.sample_many(50):
            assert draw.value in results

    def test_sample_many_count(self, chain_query):
        sampler = JoinSampler(chain_query, seed=2)
        assert len(sampler.sample_many(10)) == 10
        with pytest.raises(ValueError):
            sampler.sample_many(-1)

    def test_assignment_consistent_with_value(self, chain_query):
        sampler = JoinSampler(chain_query, seed=3)
        (draw,) = sampler.sample_many(1)
        joined = enumerated_assignments(chain_query)
        assert joined[tuple(sorted(draw.assignment.items()))] == draw.value

    def test_empty_join_raises(self):
        from tests.conftest import make_chain_query

        query = make_chain_query("empty", r_rows=[(1, 99)], s_rows=[(10, 100)])
        sampler = JoinSampler(query, weights="ew", seed=0)
        with pytest.raises(RuntimeError):
            sampler.sample_many(1, max_attempts=50)

    def test_size_bound_matches_weight_function(self, chain_query):
        ew = JoinSampler(chain_query, weights="ew", seed=0)
        eo = JoinSampler(chain_query, weights="eo", seed=0)
        assert ew.size_bound == 6.0
        assert ew.exact_size() == 6.0
        assert eo.exact_size() is None
        assert eo.size_bound >= ew.size_bound


class TestUniformity:
    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_chain_join_uniformity(self, chain_query, weights):
        sampler = JoinSampler(chain_query, weights=weights, seed=7)
        population = sorted(join_result_set(chain_query))
        samples = [d.value for d in sampler.sample_many(1200)]
        assert_uniform(samples, population)

    def test_acyclic_join_uniformity(self, acyclic_query):
        sampler = JoinSampler(acyclic_query, weights="eo", seed=11)
        population = sorted(join_result_set(acyclic_query))
        samples = [d.value for d in sampler.sample_many(1000)]
        assert_uniform(samples, population)

    def test_cyclic_join_uniformity(self, cyclic_query):
        sampler = JoinSampler(cyclic_query, weights="ew", seed=13)
        population = sorted(join_result_set(cyclic_query))
        samples = [d.value for d in sampler.sample_many(600)]
        assert_uniform(samples, population)

    def test_skewed_join_uniformity_with_eo(self):
        """A value with much higher degree must not be oversampled under EO."""
        from tests.conftest import make_chain_query

        r_rows = [(i, 10) for i in range(6)] + [(100, 20)]
        s_rows = [(10, 1000)] + [(20, 2000 + i) for i in range(8)]
        query = make_chain_query("skewed", r_rows=r_rows, s_rows=s_rows)
        sampler = JoinSampler(query, weights="eo", seed=17)
        population = sorted(join_result_set(query))
        samples = [d.value for d in sampler.sample_many(1400)]
        assert_uniform(samples, population)


class TestRejectionAccounting:
    def test_exact_weights_never_reject_on_weights(self, chain_query):
        sampler = JoinSampler(chain_query, weights="ew", seed=5)
        sampler.sample_many(100)
        assert sampler.stats.rejected_weight == 0
        assert sampler.stats.acceptance_rate == 1.0

    def test_eo_acceptance_rate_close_to_size_over_bound(self, chain_query):
        sampler = JoinSampler(chain_query, weights="eo", seed=5)
        sampler.sample_many(400)
        expected = 6.0 / sampler.size_bound
        assert sampler.stats.acceptance_rate == pytest.approx(expected, rel=0.25)

    def test_cyclic_rejections_counted_as_residual(self, cyclic_query):
        sampler = JoinSampler(cyclic_query, weights="ew", seed=5)
        sampler.sample_many(100)
        assert sampler.stats.rejected_residual > 0

    def test_attempt_block_makes_exactly_size_walks(self, cyclic_query):
        """Batched by max_batch_size, every walk counted once, the accepted
        ones returned whole; the surplus buffer is left alone."""
        sampler = JoinSampler(cyclic_query, weights="ew", seed=5, max_batch_size=64)
        block = sampler.attempt_block(150)
        assert block.attempts == sampler.stats.attempts == 150
        assert len(block) == sampler.stats.accepted
        assert 0 < len(block) < 150  # the residual condition rejects some walks
        assert block.weight == sampler.size_bound
        assert set(block.values(cyclic_query)) <= join_result_set(cyclic_query)
        assert sampler.pop_buffered_blocks() == []
        assert len(sampler.attempt_block(0)) == 0


class TestPredicateEnforcement:
    def _query(self, push_down: bool) -> JoinQuery:
        r = Relation("R", ["a", "b"], [(1, 10), (2, 10), (3, 10)])
        s = Relation("S", ["b", "c"], [(10, 100), (10, 200)])
        return JoinQuery(
            "pred",
            [r, s],
            [JoinCondition("R", "b", "S", "b")],
            [OutputAttribute.direct("R", "a"), OutputAttribute.direct("S", "c")],
            predicates={"R": Comparison("a", "<=", 2)},
            push_down_predicates=push_down,
        )

    def test_enforced_during_sampling_matches_pushed_down(self):
        enforced = self._query(push_down=False)
        pushed = self._query(push_down=True)
        expected = join_result_set(pushed)
        sampler = JoinSampler(enforced, weights="ew", seed=23)
        seen = {d.value for d in sampler.sample_many(300)}
        assert seen == expected
        assert sampler.stats.rejected_predicate > 0


class TestBatchEdgeCases:
    """count=0 / count=1 / exhausted-attempt budgets return cleanly."""

    def test_count_zero_returns_empty_without_consuming_state(self, chain_query):
        sampler = JoinSampler(chain_query, seed=5)
        state_before = sampler.rng.bit_generator.state
        assert sampler.sample_many(0) == []
        assert sampler.rng.bit_generator.state == state_before
        assert sampler.stats.attempts == 0

    def test_count_zero_leaves_buffer_intact(self, chain_query):
        sampler = JoinSampler(chain_query, seed=5)
        sampler.sample_many(1)  # fills the buffer with surplus accepted draws
        buffered = sum(len(b) for b in sampler._block_buffer)
        assert buffered > 0
        assert sampler.sample_many(0) == []
        assert sum(len(b) for b in sampler._block_buffer) == buffered

    def test_count_one(self, chain_query):
        sampler = JoinSampler(chain_query, seed=6)
        draws = sampler.sample_many(1)
        assert len(draws) == 1

    def test_max_attempts_must_be_positive(self, chain_query):
        sampler = JoinSampler(chain_query, seed=7)
        with pytest.raises(ValueError, match="max_attempts"):
            sampler.sample_many(1, max_attempts=0)
        with pytest.raises(ValueError, match="max_attempts"):
            sampler.sample_many(1, max_attempts=-5)

    def test_exhaustion_raises_and_sampler_stays_usable(self):
        from tests.conftest import make_chain_query

        query = make_chain_query("empty", r_rows=[(1, 99)], s_rows=[(10, 100)])
        sampler = JoinSampler(query, weights="ew", seed=0)
        for _ in range(2):  # a second call must fail identically, not corrupt
            with pytest.raises(RuntimeError, match="failed to accept"):
                sampler.sample_many(3, max_attempts=40)
        assert sampler.pop_buffered_blocks() == []

    def test_exhaustion_raises_and_a_larger_budget_succeeds(self, chain_query, monkeypatch):
        """One accepted walk, then a 150-walk drought: a 100-walk budget
        raises and drops that walk (it is not served later); a 1 000-walk
        budget outlasts the drought."""
        sampler = JoinSampler(chain_query, seed=8)
        real_attempt = sampler._attempt_block
        dry = {"accepted": False, "walks": 0}

        def one_accept_then_dry(size):
            if not dry["accepted"]:
                dry["accepted"] = True
                return real_attempt(size).split(1)[0]
            if dry["walks"] < 150:
                dry["walks"] += size
                return real_attempt(size).split(0)[0]  # size walks, none accepted
            return real_attempt(size)

        monkeypatch.setattr(sampler, "_attempt_block", one_accept_then_dry)
        with pytest.raises(RuntimeError, match="failed to accept"):
            sampler.sample_many(5, max_attempts=100)
        assert sampler.pop_buffered_blocks() == []
        block = sampler.sample_block(5, max_attempts=1_000)
        assert len(block) == 5
        assert block.attempts >= 5 + 50

    @pytest.mark.parametrize("weights", ["ew", "eo"])
    def test_every_block_counts_the_walks_that_drew_it(self, chain_query, weights):
        """A call never serves an earlier call's surplus: across repeated
        sample_block/sample_many calls every returned block has
        ``attempts >= len``, and the blocks account no walk twice."""
        sampler = JoinSampler(chain_query, weights=weights, seed=12)
        blocks = []
        for size in (1, 3, 2, 40, 1, 7, 5, 200, 1, 1):
            sampler.sample_many(size)  # leaves a surplus behind
            block = sampler.sample_block(size)
            assert len(block) == size
            assert block.attempts >= size
            blocks.append(block)
        assert sum(block.attempts for block in blocks) <= sampler.stats.attempts


class TestSplit:
    def test_split_shards_share_weight_function(self, chain_query):
        sampler = JoinSampler(chain_query, seed=11)
        shards = sampler.split(3)
        assert len(shards) == 3
        for shard in shards:
            assert shard.weight_function is sampler.weight_function
            assert shard.tree is sampler.tree
        with pytest.raises(ValueError):
            sampler.split(0)

    def test_split_shards_draw_distinct_sequences(self, chain_query):
        sampler = JoinSampler(chain_query, seed=11)
        a, b = sampler.split(2)
        draws_a = [d.value for d in a.sample_many(20)]
        draws_b = [d.value for d in b.sample_many(20)]
        assert draws_a != draws_b  # aliased streams would repeat verbatim
