"""Why uniform union samples matter: estimating statistics for model training.

The paper's motivation (§1) is training models on data spread across several
joins: learning theory only needs an i.i.d. sample of the union, but a naive
union of per-join samples is biased toward tuples that appear in many joins.

This example quantifies that bias on the UQ1 workload.  The "label" is a
simple derived quantity (the order's total price); we compare three ways of
building a training sample of N tuples and measure the error of the sample
mean against the true mean over the exact set union:

* ``naive``       — sample each join uniformly and concatenate (the strawman
                     from Example 2 of the paper; overlap tuples are
                     over-represented),
* ``cover``       — the exact cover draw, ``UnionCoverSource`` (uniform over
                     the union),
* ``online``      — Algorithm 2 with random-walk warm-up and sample reuse.

Run:  python examples/ml_training_sample.py
"""

from __future__ import annotations

import statistics

from repro import (
    FullJoinUnionEstimator,
    JoinSampler,
    OnlineUnionSampler,
    UnionCoverSource,
    build_uq1,
)

SCALE_FACTOR = 0.001
OVERLAP_SCALE = 0.6  # heavy overlap makes the naive strategy visibly biased
SAMPLES = 600
TOTALPRICE_POSITION = 7  # position of orders.totalprice in the output schema


def true_mean(estimator: FullJoinUnionEstimator) -> float:
    union = set()
    for query in estimator.queries:
        union |= estimator.result_set(query.name)
    return statistics.fmean(value[TOTALPRICE_POSITION] for value in union)


def naive_union_sample(queries, per_join: int, seed: int) -> list:
    """Uniform samples from each join, concatenated (no uniformity guarantee)."""
    values = []
    for offset, query in enumerate(queries):
        sampler = JoinSampler(query, weights="ew", seed=seed + offset)
        values.extend(draw.value for draw in sampler.sample_many(per_join))
    return values


def main() -> None:
    workload = build_uq1(scale_factor=SCALE_FACTOR, overlap_scale=OVERLAP_SCALE, seed=29)
    queries = workload.queries
    exact = FullJoinUnionEstimator(queries)
    parameters = exact.estimate()
    target = true_mean(exact)
    print(f"UQ1 with overlap scale {OVERLAP_SCALE}: |U| = {parameters.union_size:.0f}, "
          f"Σ|J| = {parameters.disjoint_union_size():.0f}")
    print(f"true mean(totalprice) over the set union = {target:,.2f}\n")

    per_join = SAMPLES // len(queries)
    strategies = {}

    naive_values = naive_union_sample(queries, per_join, seed=31)
    strategies["naive per-join sampling"] = [v[TOTALPRICE_POSITION] for v in naive_values]

    cover = UnionCoverSource(queries, seed=37).take(SAMPLES)
    strategies["exact cover sampling"] = [v[TOTALPRICE_POSITION] for v in cover.rows()]

    online = OnlineUnionSampler(queries, seed=41, walks_per_join=400).sample(SAMPLES)
    strategies["online sampling (Alg. 2)"] = [
        v[TOTALPRICE_POSITION] for v in online.values()
    ]

    print(f"{'strategy':<30} {'sample mean':>14} {'relative error':>15}")
    for label, values in strategies.items():
        mean = statistics.fmean(values)
        error = abs(mean - target) / target
        print(f"{label:<30} {mean:14,.2f} {error:15.3%}")

    print("\nNote: the naive strategy over-weights tuples shared by several joins, so its")
    print("error does not vanish with more samples; the union samplers are unbiased.")


if __name__ == "__main__":
    main()
