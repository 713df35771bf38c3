"""Tests for repro.core.union_sampler (disjoint, Bernoulli, set-union)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.uniformity import chi_square_uniformity
from repro.core.result import SamplingStats, UnionSample
from repro.core.union_sampler import (
    BernoulliUnionSampler,
    DisjointUnionSampler,
    RecordLedger,
    SetUnionSampler,
)
from repro.estimation.exact import FullJoinUnionEstimator
from repro.estimation.histogram import HistogramUnionEstimator
from repro.joins.executor import join_result_set

from tests.conftest import make_predicated_pair


@pytest.fixture
def exact_params(union_triple):
    return FullJoinUnionEstimator(union_triple).estimate()


def union_values(queries):
    union = set()
    for query in queries:
        union |= join_result_set(query)
    return sorted(union)


class TestDisjointUnionSampler:
    def test_sample_count_and_membership(self, union_triple, exact_params):
        sampler = DisjointUnionSampler(union_triple, exact_params, seed=1)
        result = sampler.sample(200)
        assert len(result) == 200
        universe = set(union_values(union_triple))
        assert all(s.value in universe for s in result.samples)

    def test_join_selection_proportional_to_sizes(self, union_triple, exact_params):
        sampler = DisjointUnionSampler(union_triple, exact_params, seed=2)
        result = sampler.sample(1500)
        sources = result.sources()
        total = sum(sources.values())
        for query in union_triple:
            expected = exact_params.join_sizes[query.name] / exact_params.disjoint_union_size()
            assert sources[query.name] / total == pytest.approx(expected, abs=0.06)

    def test_disjoint_union_weights_values_by_multiplicity(self, union_triple, exact_params):
        """A value present in k joins must appear ~k times as often as a value
        present in one join (that is what distinguishes disjoint from set union)."""
        sampler = DisjointUnionSampler(union_triple, exact_params, seed=3)
        values = [s.value for s in sampler.sample(4000).samples]
        in_all_three = values.count((1, 100))
        exclusive = values.count((3, 400))
        assert in_all_three > 1.8 * exclusive

    def test_zero_samples(self, union_triple, exact_params):
        assert len(DisjointUnionSampler(union_triple, exact_params, seed=4).sample(0)) == 0

    def test_negative_count_rejected(self, union_triple, exact_params):
        with pytest.raises(ValueError):
            DisjointUnionSampler(union_triple, exact_params, seed=4).sample(-1)


class TestBernoulliUnionSampler:
    def test_uniform_over_set_union(self, union_triple, exact_params):
        sampler = BernoulliUnionSampler(union_triple, exact_params, seed=5)
        result = sampler.sample(3000)
        check = chi_square_uniformity([s.value for s in result.samples],
                                      union_values(union_triple))
        assert not check.rejects_uniformity(alpha=0.001)

    def test_rejects_duplicates_from_later_joins(self, union_triple, exact_params):
        sampler = BernoulliUnionSampler(union_triple, exact_params, seed=6)
        result = sampler.sample(500)
        # (1, 100) is in every join; it must only ever be attributed to J1.
        for sample in result.samples:
            if sample.value == (1, 100):
                assert sample.source_join == "J1"
        assert result.stats.rejected_duplicate > 0

    def test_accepts_estimated_parameters(self, union_triple):
        estimator = HistogramUnionEstimator(union_triple, join_size_method="ew")
        sampler = BernoulliUnionSampler(union_triple, estimator, seed=7)
        assert len(sampler.sample(100)) == 100


class TestSetUnionSamplerStrict:
    def test_uniform_over_set_union(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=8, mode="strict")
        result = sampler.sample(3000)
        check = chi_square_uniformity([s.value for s in result.samples],
                                      union_values(union_triple))
        assert not check.rejects_uniformity(alpha=0.001)

    def test_every_value_attributed_to_its_cover_owner(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=9, mode="strict")
        result = sampler.sample(800)
        # Cover owners: values in J1 belong to J1; (3,400) to J2; (5,500) to J3.
        for sample in result.samples:
            if sample.value in join_result_set(union_triple[0]):
                assert sample.source_join == "J1"
        assert any(s.source_join == "J2" for s in result.samples)
        assert any(s.source_join == "J3" for s in result.samples)


class TestNonPushedPredicates:
    """§8.3, second alternative: the earlier join enforces ``B.y >= 6`` while
    sampling, so it can never produce (10, 5) — which the later join can."""

    @pytest.mark.parametrize("policy", ["strict", "bernoulli"])
    def test_support_is_the_exact_union(self, policy):
        queries = make_predicated_pair(push_down=False)
        exact = FullJoinUnionEstimator(queries).estimate()
        assert exact.join_sizes == {"J1": 2, "J2": 4} and exact.union_size == 4
        if policy == "strict":
            sampler = SetUnionSampler(queries, exact, seed=5, mode="strict")
        else:
            sampler = BernoulliUnionSampler(queries, exact, seed=5)
        result = sampler.sample(400)
        assert {s.value for s in result.samples} == set(union_values(queries))
        owners = {s.value: s.source_join for s in result.samples}
        assert owners[(10, 5)] == "J2" and owners[(10, 7)] == "J1"


class TestSetUnionSamplerRecord:
    def test_samples_come_from_the_union(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=10, mode="record")
        result = sampler.sample(500)
        universe = set(union_values(union_triple))
        assert len(result) == 500
        assert all(s.value in universe for s in result.samples)

    def test_revisions_reassign_ownership_to_earlier_joins(self, union_triple, exact_params):
        # Fixed stream chosen to exercise the revision path (revisions are
        # rare on this tiny workload; not every seed produces one).
        sampler = SetUnionSampler(union_triple, exact_params, seed=16, mode="record")
        result = sampler.sample(1500)
        assert sampler.stats.revisions > 0
        # After enough sampling, overlap values must end up owned by the first
        # join that contains them (the record converges to the cover).
        final_owner = {}
        for sample in result.samples:
            final_owner[sample.value] = sample.source_join
        j1_values = join_result_set(union_triple[0])
        owned_elsewhere = [
            v for v, owner in final_owner.items() if v in j1_values and owner != "J1"
        ]
        # Revision can only leave a non-J1 owner for values whose J1 copy was
        # never drawn; with 1500 draws over 5 values that is vanishingly rare.
        assert not owned_elsewhere

    def test_rejection_and_acceptance_counters_consistent(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=12, mode="record")
        result = sampler.sample(300)
        stats = result.stats
        assert stats.iterations == stats.accepted + stats.rejected_duplicate
        assert stats.accepted >= 300

    def test_invalid_mode_rejected(self, union_triple, exact_params):
        with pytest.raises(ValueError):
            SetUnionSampler(union_triple, exact_params, mode="loose")

    def test_runaway_rejection_raises(self, union_pair):
        """With absurd parameters (union much larger than reality) the sampler
        must give up rather than loop forever."""
        from repro.estimation.parameters import UnionParameters

        bogus = UnionParameters(
            join_order=["J1", "J2"],
            join_sizes={"J1": 3.0, "J2": 3.0},
            cover_sizes={"J1": 0.0, "J2": 0.0},
            union_size=4.0,
        )
        sampler = SetUnionSampler(
            union_pair, bogus, seed=13, mode="record", max_iterations_factor=2
        )
        # Cover sizes of zero fall back to uniform selection, so sampling still
        # works; the guard only trips when nothing can ever be accepted.
        result = sampler.sample(5)
        assert len(result) == 5


class TestTimeAccounting:
    def test_breakdown_has_all_phases(self, union_triple, exact_params):
        sampler = SetUnionSampler(union_triple, exact_params, seed=14, mode="record")
        result = sampler.sample(200)
        breakdown = result.stats.breakdown()
        assert set(breakdown) == {"estimation", "accepted", "rejected"}
        assert breakdown["accepted"] > 0

    def test_warmup_time_recorded_when_estimator_passed(self, union_triple):
        estimator = FullJoinUnionEstimator(union_triple)
        sampler = SetUnionSampler(union_triple, estimator, seed=15)
        assert sampler.stats.warmup_seconds > 0


class TestSnapshotPin:
    """Samplers without ``refresh()`` refuse a mutated database instead of
    serving the snapshot they were built on."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda queries, exact: SetUnionSampler(queries, exact, seed=3, mode="record"),
            lambda queries, exact: SetUnionSampler(queries, exact, seed=3, mode="strict"),
            lambda queries, exact: BernoulliUnionSampler(queries, exact, seed=3),
            lambda queries, exact: DisjointUnionSampler(queries, exact, seed=3),
        ],
        ids=["set-union-record", "set-union-strict", "bernoulli", "disjoint"],
    )
    def test_a_mutation_is_refused_not_served(self, union_pair, make):
        sampler = make(union_pair, FullJoinUnionEstimator(union_pair).estimate())
        assert len(sampler.sample(40)) == 40
        # (2, 300) leaves the union: J1 was its only join.
        union_pair[0].relation("S").delete_where(lambda row, schema: row == (20, 300))
        with pytest.raises(RuntimeError, match="no refresh"):
            sampler.sample(60)


# One ledger operation: offer or keep a value drawn from a join position, or
# retain every live sample except those accepted at the listed iterations.
LEDGER_OPERATIONS = st.one_of(
    st.tuples(st.sampled_from(["offer", "keep"]), st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("retain"), st.frozensets(st.integers(0, 40)), st.just(0)),
)


class TestRecordLedger:
    """The record rule, written once for Algorithms 1 and 2, against a replay
    that recomputes the live samples from scratch after every operation."""

    @given(st.lists(LEDGER_OPERATIONS, max_size=40))
    @example([("keep", 1, 0), ("offer", 1, 2), ("offer", 1, 0)])  # revision drops a kept copy
    @settings(max_examples=300, deadline=None)
    def test_matches_a_naive_replay(self, operations):
        stats = SamplingStats()
        ledger = RecordLedger(stats)
        live, owners = [], {}
        revisions = removed = rejected = 0
        for iteration, (kind, argument, position) in enumerate(operations):
            if kind == "retain":
                asked = []

                def keep(sample, dropped=argument, asked=asked):
                    asked.append(sample)
                    return sample.iteration not in dropped

                survivors = [s for s in live if s.iteration not in argument]
                assert ledger.retain(keep) == len(live) - len(survivors)
                assert asked == live  # once per live sample, in order
                live = survivors
                continue
            value, name = (argument,), f"J{position}"
            sample = UnionSample(value, name, iteration)
            if kind == "keep":
                assert ledger.keep(sample) is sample
                live.append(sample)
                continue
            owner = owners.get(value)
            if owner is not None and owner < position:
                rejected += 1
                assert ledger.offer(value, position, name, iteration) is None
                continue
            if owner is not None and owner > position:
                revisions += 1
                removed += sum(s.value == value for s in live)
                live = [s for s in live if s.value != value]
            owners[value] = position
            live.append(sample)
            assert ledger.offer(value, position, name, iteration) == sample
        assert ledger.live_samples() == live
        assert ledger.live == len(live)
        assert ledger.owners == owners
        assert (stats.revisions, stats.revision_removed, stats.rejected_duplicate) == (
            revisions,
            removed,
            rejected,
        )
