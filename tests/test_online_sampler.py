"""Tests for repro.core.online_sampler (Algorithm 2: reuse + backtracking)."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from scipy.stats import chi2_contingency

from repro.aqp import AggregateSpec, OnlineAggregator, exact_aggregate
from repro.core.online_sampler import OnlineUnionSampler, _Record
from repro.estimation.random_walk import RandomWalkUnionEstimator
from repro.joins.executor import exact_join_size, join_result_set
from repro.parallel import parallel_aggregate
from repro.tpch.workloads import build_uq1, build_uq2

from tests.stat_helpers import assert_no_catastrophic_bias

REPO_ROOT = Path(__file__).resolve().parents[1]


def union_values(queries):
    union = set()
    for query in queries:
        union |= join_result_set(query)
    return sorted(union)


class TestConstruction:
    def test_invalid_options_rejected(self, union_pair):
        with pytest.raises(ValueError):
            OnlineUnionSampler(union_pair, warmup="magic")
        with pytest.raises(ValueError):
            OnlineUnionSampler(union_pair, phi=0)
        with pytest.raises(ValueError):
            OnlineUnionSampler(union_pair, gamma=0.0)

    def test_histogram_warmup_has_empty_pools(self, union_pair):
        sampler = OnlineUnionSampler(union_pair, warmup="histogram", seed=1)
        assert all(not pool for pool in sampler._pools.values())

    def test_random_walk_warmup_fills_pools(self, union_pair):
        sampler = OnlineUnionSampler(
            union_pair, warmup="random-walk", walks_per_join=100, seed=2
        )
        assert any(pool for pool in sampler._pools.values())

    def test_reuse_disabled_keeps_pools_empty(self, union_pair):
        sampler = OnlineUnionSampler(
            union_pair, warmup="random-walk", walks_per_join=100, seed=3, reuse=False
        )
        assert all(not pool for pool in sampler._pools.values())

    def test_prebuilt_warmup_estimator(self, union_pair):
        estimator = RandomWalkUnionEstimator(union_pair, walks_per_join=100, seed=4)
        sampler = OnlineUnionSampler(union_pair, warmup_estimator=estimator, seed=4)
        assert len(sampler.sample(20)) == 20


def union_sum(queries, spec):
    """The enumerated union's exact aggregate: the truth, not another run."""
    return exact_aggregate(union_values(queries), spec, queries[0].output_schema)[()]


REFINE_A_TIE = """
import json
from repro.core.online_sampler import OnlineUnionSampler, _Record
from tests.conftest import make_chain_query

j1 = make_chain_query("J1", r_rows=[(1, 10), (2, 20)], s_rows=[(10, 100), (10, 200), (20, 300)])
j2 = make_chain_query("J2", r_rows=[(1, 10), (3, 30)], s_rows=[(10, 100), (10, 200), (30, 400)])
sampler = OnlineUnionSampler([j1, j2], warmup="histogram", seed=1)
sampler._records["J1"] = [_Record(v, 3.0) for v in [(1, 100), (2, 300)] * 5]
sampler._records["J2"] = [_Record(v, 3.0) for v in [(1, 100)] + [(3, 400)] * 4] * 2
refined = sampler._refine_parameters(sampler.parameters)
overlaps = sorted([sorted(k), v] for k, v in refined.overlaps.items())
print(json.dumps([refined.union_size, refined.cover_sizes, overlaps]))
"""


def refined_under_hash_seed(hash_seed):
    """The refined parameters of :data:`REFINE_A_TIE`, in a fresh process."""
    env = {
        **os.environ,
        "PYTHONHASHSEED": str(hash_seed),
        "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    }
    return subprocess.run(
        [sys.executable, "-c", REFINE_A_TIE], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, check=True,
    ).stdout


class TestJoinSizesAreExact:
    """The histogram warm-up and ``refresh()`` take ``|J_j|`` from the exact-
    weight samplers the object already holds; refinement re-estimates
    overlaps *relative to* those sizes, so a loose bound here never heals."""

    def test_histogram_warmup_reads_sizes_off_the_samplers(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, warmup="histogram", seed=1)
        for query in union_triple:
            assert sampler.parameters.join_sizes[query.name] == exact_join_size(
                query, distinct=False
            )

    def test_olken_weights_keep_the_olken_bound(self, union_triple):
        sampler = OnlineUnionSampler(
            union_triple, warmup="histogram", join_weights="eo", seed=1
        )
        for query in union_triple:
            assert sampler.parameters.join_sizes[query.name] >= exact_join_size(
                query, distinct=False
            )

    def test_refresh_and_refinement_keep_them_exact(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=2, walks_per_join=100, phi=40)
        sampler.sample(50)
        relation = union_triple[0].relation(union_triple[0].relation_names[-1])
        relation.delete_rows([0])
        sampler.sample(300)
        assert sampler.stats.backtrack_rounds > 0
        assert sampler.parameters.method == "online-refined"
        for query in union_triple:
            assert sampler.parameters.join_sizes[query.name] == exact_join_size(
                query, distinct=False
            )

    def test_no_confidence_before_every_overlap_met_a_record(self, union_triple):
        """The histogram bound says J1 covers everything, so only J1 is drawn
        from at first and the J2/J3 overlap cannot be refined: the round must
        not declare the target confidence reached and stop refining."""
        sampler = OnlineUnionSampler(
            union_triple, warmup="histogram", seed=3, phi=20, gamma=0.5
        )
        sampler._records["J1"] = [_Record(v, 3.0) for v in [(1, 100), (2, 300)] * 30]
        sampler._refine_parameters(sampler.parameters)
        assert sampler.confidence_level == 0.0

    def test_refinement_does_not_depend_on_the_string_hash_seed(self):
        """J1 and J2 hold ten records each, so the pivot of their overlap is
        a tie; J1's records put the overlap at 1.5 and J2's at 0.6.  The tie
        goes to the earlier declared join in every process, whatever
        ``PYTHONHASHSEED`` orders the frozenset of join names."""
        outputs = {refined_under_hash_seed(seed) for seed in range(6)}
        assert len(outputs) == 1, outputs
        union_size, covers, overlaps = json.loads(outputs.pop())
        assert overlaps == [[["J1", "J2"], 1.5]]

    def test_pooled_union_sum_matches_the_enumerated_union(self):
        """Every pooled union shard warms up from histograms (ROADMAP 1(a):
        11.68x the truth with Olken-bound join sizes)."""
        queries = build_uq1(scale_factor=0.001, seed=7).queries
        spec = AggregateSpec("sum", "totalprice")
        report = parallel_aggregate(
            queries, spec, 4000, workers=2, execution="thread", seed=5
        )
        assert report.overall.estimate == pytest.approx(union_sum(queries, spec), rel=0.15)

    def test_union_sum_survives_a_one_row_mutation(self):
        """``refresh()`` re-estimates the parameters after *any* mutation
        (ROADMAP 1(a): 1.02x -> 3.18x the truth across one deleted row)."""
        queries = build_uq2(scale_factor=0.001, seed=7).queries
        spec = AggregateSpec("sum", "supplycost")
        aggregator = OnlineAggregator(queries, spec, seed=5)
        before = aggregator.until(0.03)
        assert before.overall.estimate == pytest.approx(union_sum(queries, spec), rel=0.15)
        partsupp = next(
            q.relation("partsupp") for q in queries if "partsupp" in q.relation_names
        )
        partsupp.delete_rows([0])
        aggregator.step()
        after = aggregator.until(0.03)
        assert aggregator.epochs_restarted == 1
        assert after.overall.estimate == pytest.approx(union_sum(queries, spec), rel=0.15)


class TestSampling:
    def test_samples_belong_to_the_union(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=5, walks_per_join=150)
        result = sampler.sample(200)
        universe = set(union_values(union_triple))
        assert len(result) == 200
        assert all(s.value in universe for s in result.samples)

    def test_reuse_counters_and_flags(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=6, walks_per_join=300)
        result = sampler.sample(150)
        assert result.stats.reused_accepted > 0
        assert any(s.reused for s in result.samples)
        assert result.algorithm.endswith("-reuse")

    def test_without_reuse_no_reused_samples(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=7, walks_per_join=150, reuse=False)
        result = sampler.sample(100)
        assert result.stats.reused_accepted == 0
        assert not any(s.reused for s in result.samples)

    def test_sampling_distribution_not_degenerate(self, union_triple):
        """The online sampler (approximate by design) must still cover the whole
        union and not over-sample any value catastrophically."""
        sampler = OnlineUnionSampler(union_triple, seed=8, walks_per_join=400, phi=100)
        result = sampler.sample(2500)
        values = [s.value for s in result.samples]
        universe = union_values(union_triple)
        # Loose sanity threshold: catastrophic bias (e.g. one value sampled 2x
        # as often as expected) fails the shared harness check.
        assert_no_catastrophic_bias(values, universe, factor=2.0)

    def test_backtracking_rounds_triggered(self, union_triple):
        sampler = OnlineUnionSampler(
            union_triple, seed=9, walks_per_join=100, phi=50, gamma=0.999
        )
        result = sampler.sample(400)
        assert result.stats.backtrack_rounds > 0
        assert sampler.confidence_level > 0.0

    def test_zero_samples(self, union_pair):
        sampler = OnlineUnionSampler(union_pair, seed=10, walks_per_join=50)
        assert len(sampler.sample(0)) == 0

    def test_negative_count_rejected(self, union_pair):
        sampler = OnlineUnionSampler(union_pair, seed=11, walks_per_join=50)
        with pytest.raises(ValueError):
            sampler.sample(-5)


class TestTimeAccounting:
    def test_reuse_phase_time_tracked(self, union_triple):
        sampler = OnlineUnionSampler(union_triple, seed=12, walks_per_join=300)
        result = sampler.sample(200)
        stats = result.stats
        assert stats.timer.get("warmup") > 0
        if stats.reused_accepted:
            assert stats.time_per_accepted("reuse") >= 0.0
        assert stats.time_per_accepted("regular") >= 0.0
        assert stats.time_per_accepted() > 0.0

    def test_estimation_update_time_recorded_when_backtracking(self, union_triple):
        sampler = OnlineUnionSampler(
            union_triple, seed=13, walks_per_join=100, phi=40, gamma=0.999
        )
        result = sampler.sample(300)
        if result.stats.backtrack_rounds:
            assert result.stats.timer.get("estimation_update") > 0

    def test_round_time_is_charged_to_the_phases_pro_rata(self, union_triple, monkeypatch):
        """One clock reading per round, split by how its iterations ended."""
        from repro.core import online_sampler

        sampler = OnlineUnionSampler(union_triple, seed=14, walks_per_join=100, phi=50)
        ticks = iter(range(10**6))
        monkeypatch.setattr(online_sampler.time, "perf_counter", lambda: float(next(ticks)))
        sizes, shares = [], []
        run_round = sampler._round

        def spy(size):
            before = sampler.stats.accepted
            run_round(size)
            sizes.append(size)
            shares.append((sampler.stats.accepted - before) / size)

        monkeypatch.setattr(sampler, "_round", spy)
        timer = sampler.sample(400).stats.timer
        assert len(sizes) > 3  # every round took one tick of the fake clock
        assert timer.get("accepted") == pytest.approx(sum(shares))
        assert timer.get("accepted") + timer.get("rejected") == pytest.approx(len(sizes))
        assert 0 < timer.get("reuse_accepted") < timer.get("accepted")


def scalar_sample(sampler, count):
    """``sample(count)`` one iteration at a time through the ``_iterate``
    oracle, in Algorithm 1's skeleton: guard, count and run the iteration,
    then refine when due."""
    limit = sampler._iteration_limit(count)
    while sampler._ledger.live < count:
        sampler._step(limit, count, count - sampler._ledger.live)
        sampler._maybe_update_parameters()
    return sampler._ledger.live_samples()[:count]


def refinement_record_counts(sampler, monkeypatch):
    """Total recorded draws at each refinement the sampler runs from now on."""
    seen = []
    refine = sampler._refine_parameters

    def spy(old):
        seen.append(sum(len(records) for records in sampler._records.values()))
        return refine(old)

    monkeypatch.setattr(sampler, "_refine_parameters", spy)
    return seen


class TestRoundsAgainstTheScalarOracle:
    """``sample`` runs Algorithm 2 a round at a time; ``_iterate`` is the
    same law one iteration at a time.  Different generator use, same process."""

    SEEDS = range(24)

    def make(self, queries, seed, **options):
        options = {"walks_per_join": 60, "phi": 50, **options}
        return OnlineUnionSampler(queries, seed=seed, **options)

    @pytest.mark.parametrize("fixture", ["union_pair", "union_triple"])
    def test_per_value_frequencies_are_homogeneous(self, fixture, request):
        queries = request.getfixturevalue(fixture)
        universe = union_values(queries)
        rounds, scalar = Counter(), Counter()
        for seed in self.SEEDS:
            rounds.update(s.value for s in self.make(queries, seed).sample(300).samples)
            scalar.update(s.value for s in scalar_sample(self.make(queries, seed), 300))
        table = [[counter[v] for v in universe] for counter in (rounds, scalar)]
        assert min(map(min, table)) > 0
        assert chi2_contingency(table)[1] > 0.001

    def test_every_iteration_is_accounted_for(self, union_triple):
        for seed in self.SEEDS:
            sampler = self.make(union_triple, seed)
            result = sampler.sample(250)
            stats = result.stats
            assert stats.iterations == stats.accepted + stats.rejected_duplicate
            assert len(result) == 250 == sampler._ledger.live
            assert sampler._ledger.live == (
                stats.accepted - stats.revision_removed - stats.backtrack_removed
            )
            recorded = sum(len(records) for records in sampler._records.values())
            assert recorded == stats.iterations  # one recorded draw per iteration
            iterations = [s.iteration for s in result.samples]
            assert iterations == sorted(set(iterations)) and iterations[-1] <= stats.iterations

    def test_refinements_fire_at_the_same_record_counts(self, union_triple, monkeypatch):
        for seed in range(6):
            by_rounds = self.make(union_triple, seed, phi=40, gamma=0.97)
            by_iteration = self.make(union_triple, seed, phi=40, gamma=0.97)
            seen_rounds = refinement_record_counts(by_rounds, monkeypatch)
            seen_scalar = refinement_record_counts(by_iteration, monkeypatch)
            by_rounds.sample(400)
            scalar_sample(by_iteration, 400)
            for seen, sampler in ((seen_rounds, by_rounds), (seen_scalar, by_iteration)):
                assert seen == [40 * (k + 1) for k in range(len(seen))]
                assert len(seen) == sampler.stats.backtrack_rounds > 0

    def test_a_round_never_runs_past_a_due_refinement(self, union_triple, monkeypatch):
        sampler = self.make(union_triple, 3, phi=30, gamma=1.0)  # never confident
        sizes = []
        run_round = sampler._round
        monkeypatch.setattr(sampler, "_round", lambda n: (sizes.append(n), run_round(n))[1])
        sampler.sample(200)
        assert max(sizes) <= 30 and sampler.stats.backtrack_rounds == sum(sizes) // 30

    def test_successive_calls_are_cumulative(self, union_triple):
        sampler = self.make(union_triple, 5)
        first = sampler.sample(80)
        after_first = first.stats.iterations
        second = sampler.sample(200)
        assert len(first) == 80 and len(second) == 200
        early = [s for s in second.samples if s.iteration <= after_first]
        survivors = [s for s in first.samples if s in early]
        assert early[: len(survivors)] == survivors  # kept in place, unless revised away
        assert sampler.sample(200).stats.iterations == second.stats.iterations  # nothing owed

    def test_revisions_still_shrink_the_live_set(self, union_triple):
        revised = 0
        for seed in self.SEEDS:
            sampler = self.make(union_triple, seed, reuse=False)
            result = sampler.sample(120)
            revised += result.stats.revision_removed
            assert len(result) == 120
            assert len({(s.value, s.source_join) for s in result.samples}) <= 5
            owner = {}
            for sample in result.samples:  # one owning join per live value
                assert owner.setdefault(sample.value, sample.source_join) == sample.source_join
        assert revised > 0

    def test_iteration_guard_still_raises(self, union_triple):
        sampler = self.make(union_triple, 1, max_iterations_factor=1)
        with pytest.raises(RuntimeError, match="exceeded 200 iterations"):
            sampler.sample(200)  # duplicates are rejected: 200 iterations cannot do
        assert sampler.stats.iterations == 200

    def test_a_mutation_between_calls_drops_the_queued_leftovers(self, union_triple):
        sampler = self.make(union_triple, 2, reuse=False)
        sampler.sample(60)
        assert any(sampler._value_queues.values())  # a block's surplus stays queued
        gone = (5, 500)
        relation = union_triple[2].relation(union_triple[2].relation_names[-1])
        relation.delete_rows(
            [i for i, row in enumerate(relation.rows) if row[-1] == 500]
        )
        assert gone not in union_values(union_triple)
        result = sampler.sample(150)
        assert gone not in {s.value for s in result.samples}
        assert set(s.value for s in result.samples) == set(union_values(union_triple))
