"""Tests for the TPC-H style generator and the UQ1/UQ2/UQ3 workloads."""

import operator

import numpy as np
import pytest

from repro.joins.executor import exact_overlap_size, exact_union_size, join_result_set
from repro.joins.query import JoinType, check_union_compatible
from repro.relational.predicates import Comparison, InSet, Predicate
from repro.tpch.generator import TPCHGenerator, generate_tpch
from repro.tpch.schema import CARDINALITIES_AT_SF1, MINIMUM_ROWS, rows_at_scale
from repro.tpch.workloads import build_uq1, build_uq2, build_uq3, build_workload


def row_mask(relation, keep):
    """Selection mask of a ``(row, schema) -> bool`` oracle, one row at a time."""
    return np.array([bool(keep(row, relation.schema)) for row in relation.rows], dtype=bool)


class TestSchemaCardinalities:
    def test_rows_at_scale_uses_official_ratios(self):
        assert rows_at_scale("orders", 0.01) == 15_000
        assert rows_at_scale("lineitem", 0.01) == 60_000

    def test_rows_at_scale_floors_at_minimum(self):
        assert rows_at_scale("supplier", 1e-9) == MINIMUM_ROWS["supplier"]

    def test_unknown_table_and_bad_scale(self):
        with pytest.raises(KeyError):
            rows_at_scale("warehouse", 0.1)
        with pytest.raises(ValueError):
            rows_at_scale("orders", 0.0)


class TestGenerator:
    @pytest.fixture(scope="class")
    def tables(self):
        return generate_tpch(scale_factor=0.0005, seed=1)

    def test_all_tables_present(self, tables):
        assert set(tables) == set(CARDINALITIES_AT_SF1)

    def test_cardinalities(self, tables):
        assert len(tables["region"]) == 5
        assert len(tables["nation"]) == 25
        assert len(tables["orders"]) == rows_at_scale("orders", 0.0005)

    def test_primary_keys_unique(self, tables):
        for table, key in [
            ("region", "regionkey"),
            ("nation", "nationkey"),
            ("supplier", "suppkey"),
            ("customer", "custkey"),
            ("part", "partkey"),
            ("orders", "orderkey"),
        ]:
            keys = tables[table].column(key)
            assert len(keys) == len(set(keys)), f"{table}.{key} not unique"

    def test_foreign_keys_valid(self, tables):
        nation_keys = set(tables["nation"].column("nationkey"))
        assert set(tables["supplier"].column("nationkey")) <= nation_keys
        assert set(tables["customer"].column("nationkey")) <= nation_keys
        cust_keys = set(tables["customer"].column("custkey"))
        assert set(tables["orders"].column("custkey")) <= cust_keys
        order_keys = set(tables["orders"].column("orderkey"))
        assert set(tables["lineitem"].column("orderkey")) <= order_keys
        part_keys = set(tables["part"].column("partkey"))
        assert set(tables["partsupp"].column("partkey")) <= part_keys
        supp_keys = set(tables["supplier"].column("suppkey"))
        assert set(tables["partsupp"].column("suppkey")) <= supp_keys

    def test_determinism(self):
        a = generate_tpch(scale_factor=0.0005, seed=9)
        b = generate_tpch(scale_factor=0.0005, seed=9)
        for name in a:
            assert a[name].rows == b[name].rows

    def test_different_seeds_differ(self):
        a = generate_tpch(scale_factor=0.0005, seed=1)
        b = generate_tpch(scale_factor=0.0005, seed=2)
        assert a["orders"].rows != b["orders"].rows

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            TPCHGenerator(scale_factor=0)


class TestUQ1:
    def test_structure(self, uq1_small):
        assert len(uq1_small.queries) == 3
        check_union_compatible(uq1_small.queries)
        for query in uq1_small.queries:
            assert query.join_type is JoinType.CHAIN
            assert len(query.relation_names) == 5

    def test_overlap_scale_monotonicity(self):
        low = build_uq1(scale_factor=0.0005, overlap_scale=0.05, n_joins=3, seed=5)
        high = build_uq1(scale_factor=0.0005, overlap_scale=0.9, n_joins=3, seed=5)

        def overlap_ratio(workload):
            union = exact_union_size(workload.queries)
            if union == 0:
                return 0.0
            overlap = exact_overlap_size(workload.queries)
            return overlap / union

        assert overlap_ratio(high) > overlap_ratio(low)

    def test_joins_are_nonempty(self, uq1_small):
        for query in uq1_small.queries:
            assert len(join_result_set(query)) > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_uq1(overlap_scale=1.5)
        with pytest.raises(ValueError):
            build_uq1(n_joins=0)


class TestUQ2:
    def test_structure(self, uq2_small):
        assert len(uq2_small.queries) == 3
        check_union_compatible(uq2_small.queries)
        for query in uq2_small.queries:
            assert query.join_type is JoinType.CHAIN

    def test_heavy_overlap(self, uq2_small):
        """UQ2 joins share the same data modulo predicates, so pairwise overlap
        is a large fraction of the smaller join."""
        union = exact_union_size(uq2_small.queries)
        overlap = exact_overlap_size(uq2_small.queries[:2])
        sizes = [len(join_result_set(q)) for q in uq2_small.queries[:2]]
        assert overlap > 0.3 * min(sizes)
        assert union > 0

    def test_predicates_actually_filter(self, uq2_small):
        base_sizes = {q.name: len(join_result_set(q)) for q in uq2_small.queries}
        assert len(set(base_sizes.values())) >= 2 or all(v > 0 for v in base_sizes.values())


class TestUQ3:
    def test_structure(self, uq3_small):
        assert len(uq3_small.queries) == 3
        check_union_compatible(uq3_small.queries)
        types = {q.name: q.join_type for q in uq3_small.queries}
        assert types["UQ3_JA"] is JoinType.ACYCLIC
        assert types["UQ3_JB"] is JoinType.CHAIN
        assert types["UQ3_JC"] is JoinType.CHAIN
        lengths = {len(q.relation_names) for q in uq3_small.queries}
        assert len(lengths) > 1, "UQ3 joins must have different lengths"

    def test_equivalent_customers_produce_overlap(self, uq3_small):
        overlap = exact_overlap_size(uq3_small.queries)
        assert overlap > 0

    def test_vertical_split_is_lossless(self, uq3_small):
        """J_A and J_B cover the same logical join; restricted to the shared
        customer group their result sets must intersect heavily."""
        results_a = join_result_set(uq3_small.query("UQ3_JA"))
        results_b = join_result_set(uq3_small.query("UQ3_JB"))
        shared = results_a & results_b
        assert shared  # the shared customer group is non-empty at this seed

    def test_invalid_overlap_scale(self):
        with pytest.raises(ValueError):
            build_uq3(overlap_scale=-0.1)


class TestBuildWorkload:
    def test_dispatch(self):
        assert build_workload("uq1", scale_factor=0.0005, seed=1).name == "UQ1"
        assert build_workload("UQ2", scale_factor=0.0005, seed=1).name == "UQ2"
        assert build_workload("uq3", scale_factor=0.0005, seed=1).name == "UQ3"

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            build_workload("UQ9")

    def test_workload_query_lookup(self, uq1_small):
        assert uq1_small.query(uq1_small.query_names[0]).name == uq1_small.query_names[0]
        with pytest.raises(KeyError):
            uq1_small.query("nope")


class TestMaskSelections:
    """The builders select through column masks; every workload relation
    holds exactly the rows the row-predicate form selects."""

    SCALE = 0.002

    @pytest.fixture(scope="class")
    def tables(self):
        return generate_tpch(self.SCALE, seed=5)

    @staticmethod
    def _assert_selects(relation, base, predicate):
        if not isinstance(predicate, Predicate):
            predicate = row_mask(base, predicate)
        expected = base.select(predicate)
        assert relation.rows == expected.rows
        assert relation.schema == base.schema

    def test_uq1(self, tables):
        workload = build_uq1(self.SCALE, 0.3, seed=6, tables=tables)
        groups = workload.metadata["nation_groups"]
        customer, orders = tables["customer"], tables["orders"]
        cust_nation = dict(zip(customer.column("custkey"), customer.column("nationkey")))
        order_cust = dict(zip(orders.column("orderkey"), orders.column("custkey")))
        for variant, query in enumerate(workload.queries, start=1):
            allowed = {0, variant}

            def keep_nation(row, schema):
                return groups[row[schema.position("nationkey")]] in allowed

            def keep_order(row, schema):
                return groups[cust_nation[row[schema.position("custkey")]]] in allowed

            def keep_lineitem(row, schema):
                custkey = order_cust.get(row[schema.position("orderkey")])
                return custkey is not None and groups[cust_nation[custkey]] in allowed

            for name, predicate in (("nation", keep_nation), ("supplier", keep_nation),
                                    ("customer", keep_nation), ("orders", keep_order),
                                    ("lineitem", keep_lineitem)):
                self._assert_selects(query.relation(name), tables[name], predicate)

    @staticmethod
    def _row_oracle(predicate):
        """``predicate`` evaluated row by row in plain Python."""
        if isinstance(predicate, InSet):
            return lambda row, schema: row[schema.position(predicate.attribute)] in predicate.values
        assert isinstance(predicate, Comparison), predicate
        compare = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                   "<=": operator.le, ">": operator.gt, ">=": operator.ge}[predicate.op]
        return lambda row, schema: compare(
            row[schema.position(predicate.attribute)], predicate.value
        )

    def test_uq2(self, tables):
        for query in build_uq2(self.SCALE, seed=6, tables=tables).queries:
            for name, relation in query.relations.items():
                if name in query.predicates:
                    oracle = self._row_oracle(query.predicates[name])
                    self._assert_selects(relation, tables[name], oracle)
                else:
                    assert relation is tables[name]

    def test_uq3(self, tables):
        from repro.relational.operators import hash_join

        workload = build_uq3(self.SCALE, 0.3, seed=6, tables=tables)
        groups = workload.metadata["customer_groups"]
        customer, orders, supplier = tables["customer"], tables["orders"], tables["supplier"]
        for variant, query in enumerate(workload.queries, start=1):
            allowed = {0, variant}

            def keep(row, schema):
                return groups.get(row[schema.position("custkey")], -1) in allowed

            self._assert_selects(query.relation("orders"), orders, keep)
            customers = customer.select(row_mask(customer, keep))
            if variant == 1:
                assert query.relation("customer").rows == customers.rows
            elif variant == 2:
                for part in ("cust_part1", "cust_part2"):
                    relation = query.relation(part)
                    assert relation.rows == customers.project(relation.schema.names).rows
            else:
                custsupp = query.relation("custsupp")
                joined = hash_join(customers, supplier, "nationkey", "nationkey")
                assert custsupp.rows == joined.project(custsupp.schema.names).rows

    def test_cyclic(self, tables):
        from repro.tpch.cyclic import build_cyclic_bundle_workload

        workload = build_cyclic_bundle_workload(self.SCALE, 0.3, seed=6, tables=tables)
        groups = workload.metadata["customer_groups"]
        for variant, query in enumerate(workload.queries, start=1):
            allowed = {0, variant}

            def keep(row, schema):
                return groups.get(row[schema.position("custkey")], -1) in allowed

            for name in ("customer", "orders"):
                self._assert_selects(query.relation(name), tables[name], keep)
        aliases = workload.queries[0].relations
        assert aliases["lineitem_a"].rows == aliases["lineitem_b"].rows == tables["lineitem"].rows
