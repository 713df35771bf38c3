"""Quickstart: uniform sampling from the set union of two joins.

Builds two tiny overlapping chain joins, estimates the union parameters three
ways (exact, histogram-based, random-walk), draws a uniform sample from the
set union with the exact cover draw (``UnionCoverSource``: each join's
exact-weight walks, a value kept only by the first join that produces it),
and verifies empirically that every tuple of the union is sampled with
probability ~ 1/|U|.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from collections import Counter

from repro import (
    FullJoinUnionEstimator,
    HistogramUnionEstimator,
    JoinCondition,
    JoinQuery,
    OutputAttribute,
    RandomWalkUnionEstimator,
    Relation,
    UnionCoverSource,
    exact_union_size,
)


def build_queries() -> list[JoinQuery]:
    """Two chain joins R ⋈ S with overlapping results (same output schema)."""
    orders_west = Relation(
        "orders", ["order_id", "customer_id"],
        [(1, 10), (2, 10), (3, 20), (4, 30)],
    )
    customers_west = Relation(
        "customers", ["customer_id", "segment"],
        [(10, "retail"), (20, "retail"), (30, "b2b")],
    )
    orders_east = Relation(
        "orders", ["order_id", "customer_id"],
        [(1, 10), (2, 10), (5, 40), (6, 40)],
    )
    customers_east = Relation(
        "customers", ["customer_id", "segment"],
        [(10, "retail"), (40, "b2b")],
    )

    def make(name: str, orders: Relation, customers: Relation) -> JoinQuery:
        return JoinQuery(
            name,
            [orders, customers],
            [JoinCondition("orders", "customer_id", "customers", "customer_id")],
            [
                OutputAttribute.direct("orders", "order_id"),
                OutputAttribute.direct("orders", "customer_id"),
                OutputAttribute.direct("customers", "segment"),
            ],
        )

    return [make("J_west", orders_west, customers_west),
            make("J_east", orders_east, customers_east)]


def main() -> None:
    queries = build_queries()

    print("=== warm-up: estimating union parameters three ways ===")
    exact = FullJoinUnionEstimator(queries).estimate()
    histogram = HistogramUnionEstimator(queries, join_size_method="eo").estimate()
    random_walk = RandomWalkUnionEstimator(queries, walks_per_join=500, seed=1).estimate()
    print(f"exact       |U| = {exact.union_size:.0f}, join sizes = {exact.join_sizes}")
    print(f"histogram   |U| ≈ {histogram.union_size:.1f} (upper-bounded overlaps)")
    print(f"random-walk |U| ≈ {random_walk.union_size:.1f}")
    assert exact.union_size == exact_union_size(queries)

    print("\n=== sampling the set union ===")
    sample = UnionCoverSource(queries, seed=7).take(5000)
    values = sample.rows()
    owners = Counter(queries[owner].name for owner in sample.owners.tolist())
    print(f"drew {len(values)} samples in {sample.attempts} attempts; "
          f"per-join samples = {dict(owners)}")

    counts = Counter(values)
    union_size = int(exact.union_size)
    print(f"\nempirical frequency of each of the {union_size} union tuples "
          f"(uniform would be {1 / union_size:.3f}):")
    for value, count in sorted(counts.items()):
        print(f"  {value}: {count / len(values):.3f}")


if __name__ == "__main__":
    main()
