"""Tests for repro.sampling.wander_join, against the enumerated join."""

import pytest

from repro.joins.executor import exact_join_size, join_result_set
from repro.sampling.wander_join import RunningEstimator, WanderJoin, z_value

from tests.join_oracle import walk_probability, walk_success_probability


def ht_size(query, walks, seed):
    """The HT join-size estimate of ``walks`` walks (``walk_block``)."""
    block = WanderJoin(query, seed=seed).walk_block(walks)
    return float(block.weights.sum()) / block.attempts


def running_estimate(query, walks, seed):
    """A :class:`RunningEstimator` fed the HT contributions of ``walks`` walks."""
    estimator = RunningEstimator()
    for walk in WanderJoin(query, seed=seed).walks(walks):
        estimator.add(walk.inverse_probability)
    return estimator.estimate()


class TestWalks:
    def test_walk_probability_matches_hand_computation(self, chain_query):
        """Every successful walk's probability must equal the product of
        1/|R| and 1/(joinable count) along its own path (Example 6)."""
        wj = WanderJoin(chain_query, seed=3)
        r = chain_query.relation("R")
        s = chain_query.relation("S")
        t = chain_query.relation("T")
        successes = [walk for walk in wj.walks(200) if walk.success]
        assert successes
        for walk in successes:
            assignment = walk.assignment
            b_value = r.value(assignment["R"], "b")
            c_value = s.value(assignment["S"], "c")
            expected = (
                1.0
                / len(r)
                / s.index_on("b").degree(b_value)
                / t.index_on("c").degree(c_value)
            )
            assert walk.probability == pytest.approx(expected)
            assert walk.probability == pytest.approx(walk_probability(chain_query, assignment))

    def test_walk_values_are_join_members(self, acyclic_query):
        wj = WanderJoin(acyclic_query, seed=5)
        results = join_result_set(acyclic_query)
        for walk in wj.walks(200):
            if walk.success:
                assert walk.value in results

    def test_cyclic_walk_respects_residual(self, cyclic_query):
        wj = WanderJoin(cyclic_query, seed=7)
        results = join_result_set(cyclic_query)
        successes = [w for w in wj.walks(400) if w.success]
        assert successes, "expected at least one successful walk"
        for walk in successes:
            assert walk.value in results

    def test_failed_walk_has_zero_inverse_probability(self):
        from tests.conftest import make_chain_query

        query = make_chain_query("sparse", r_rows=[(1, 10), (2, 99)], s_rows=[(10, 100)])
        wj = WanderJoin(query, seed=1)
        failures = [w for w in wj.walks(100) if not w.success]
        assert failures
        assert all(w.inverse_probability == 0.0 for w in failures)

    def test_empty_root_relation(self):
        from tests.conftest import make_chain_query

        query = make_chain_query("void", r_rows=[], s_rows=[(10, 100)])
        wj = WanderJoin(query, seed=1)
        assert not any(walk.success for walk in wj.walks(5))
        assert wj.walk_block(5).attempts == 5

    def test_negative_walk_count_rejected(self, chain_query):
        with pytest.raises(ValueError):
            WanderJoin(chain_query, seed=0).walks(-1)


class TestSizeEstimation:
    @pytest.mark.parametrize("fixture", ["chain_query", "acyclic_query", "cyclic_query"])
    def test_ht_estimate_close_to_exact(self, fixture, request):
        query = request.getfixturevalue(fixture)
        exact = exact_join_size(query, distinct=False)
        assert ht_size(query, 4000, seed=11) == pytest.approx(exact, rel=0.1)

    def test_estimate_on_tpch_join(self, uq1_small):
        query = uq1_small.queries[0]
        exact = exact_join_size(query, distinct=False)
        assert ht_size(query, 3000, seed=13) == pytest.approx(exact, rel=0.35)

    def test_confidence_interval_shrinks_with_more_walks(self, chain_query):
        few = running_estimate(chain_query, 50, seed=17)
        many = running_estimate(chain_query, 2000, seed=17)
        assert many.half_width <= few.half_width
        exact = exact_join_size(chain_query, distinct=False)
        assert abs(many.estimate - exact) <= many.half_width * 5 / z_value(0.9)

    def test_success_rate_reported(self, chain_query):
        estimate = running_estimate(chain_query, 2000, seed=19)
        expected = walk_success_probability(chain_query)
        assert 0.0 < expected < 1.0
        assert estimate.success_rate == pytest.approx(expected, abs=0.05)


class TestRunningEstimator:
    def test_incremental_mean_matches_batch_mean(self):
        estimator = RunningEstimator()
        values = [10.0, 0.0, 20.0, 10.0, 5.0]
        for v in values:
            estimator.add(v)
        assert estimator.mean == pytest.approx(sum(values) / len(values))
        assert estimator.successes == 4

    def test_variance_matches_textbook_formula(self):
        estimator = RunningEstimator()
        values = [1.0, 3.0, 5.0]
        for v in values:
            estimator.add(v)
        mean = sum(values) / 3
        expected = sum((v - mean) ** 2 for v in values) / 2
        assert estimator.variance == pytest.approx(expected)

    def test_estimate_before_two_samples_has_zero_half_width(self):
        estimator = RunningEstimator()
        estimator.add(5.0)
        assert estimator.estimate().half_width == 0.0


class TestZValue:
    def test_common_quantiles(self):
        assert z_value(0.90) == pytest.approx(1.6449, abs=1e-3)
        assert z_value(0.95) == pytest.approx(1.9600, abs=1e-3)
        assert z_value(0.99) == pytest.approx(2.5758, abs=1e-3)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            z_value(1.5)
        with pytest.raises(ValueError):
            z_value(0.0)
