"""Micro-benchmarks of the core primitives.

These are classic pytest-benchmark measurements (many rounds, statistics) of
the inner-loop operations every experiment depends on: single-join sampling
under EW and EO weights, wander-join walks, membership probes, and the
histogram overlap bound.  They are not paper figures but make performance
regressions in the substrate visible.
"""

import pytest

from repro.estimation.histogram import HistogramUnionEstimator
from repro.joins.membership import JoinMembershipProber
from repro.sampling.join_sampler import JoinSampler
from repro.sampling.wander_join import WanderJoin
from repro.tpch.workloads import build_uq2


@pytest.fixture(scope="module")
def workload(config):
    return build_uq2(scale_factor=config.scale_factor, seed=config.seed)


@pytest.fixture(scope="module")
def query(workload):
    return workload.queries[0]


def test_join_sampler_ew_throughput(benchmark, query):
    sampler = JoinSampler(query, weights="ew", seed=1)
    benchmark(lambda: sampler.sample_many(20))


def test_join_sampler_eo_throughput(benchmark, query):
    sampler = JoinSampler(query, weights="eo", seed=1)
    benchmark(lambda: sampler.sample_many(20))


def test_join_sampler_ew_scalar_path_throughput(benchmark, query):
    """Scalar reference path (one walk per call), for batch-vs-scalar ratios."""
    sampler = JoinSampler(query, weights="ew", seed=1)
    benchmark(lambda: [sampler.try_sample() for _ in range(20)])


def test_join_sampler_ew_batch_throughput(benchmark, query):
    sampler = JoinSampler(query, weights="ew", seed=1)
    sampler.sample_many(50)  # build the level plans outside the timing
    benchmark(lambda: sampler.sample_many(1000))


def test_join_sampler_eo_batch_throughput(benchmark, query):
    sampler = JoinSampler(query, weights="eo", seed=1)
    sampler.sample_many(50)
    benchmark(lambda: sampler.sample_many(1000))


def test_wander_join_walk_throughput(benchmark, query):
    walker = WanderJoin(query, seed=1)
    benchmark(lambda: walker.walks(50))


def test_wander_join_batch_walk_throughput(benchmark, query):
    walker = WanderJoin(query, seed=1)
    walker.walk_batch(50)
    benchmark(lambda: walker.walk_batch(1000))


def test_exact_weight_build_throughput(benchmark, query):
    """EW bottom-up weight computation (segment sums over the CSR index)."""
    from repro.sampling.weights import ExactWeightFunction

    benchmark(lambda: ExactWeightFunction(query))


def test_membership_probe_throughput(benchmark, workload, query):
    prober = JoinMembershipProber(workload.queries[1])
    sampler = JoinSampler(query, weights="ew", seed=2)
    values = [draw.value for draw in sampler.sample_many(50)]
    benchmark(lambda: [prober.contains(v) for v in values])


def test_histogram_overlap_bound_throughput(benchmark, workload):
    estimator = HistogramUnionEstimator(workload.queries, join_size_method="eo")
    benchmark(lambda: estimator.overlap(workload.queries[:2]))
