"""Seeded TPC-H style data generator.

A deterministic, pure-Python/numpy replacement for ``dbgen``: it produces the
eight TPC-H relations with the official cardinality ratios, valid primary and
foreign keys, and mildly skewed numeric columns, at any (small) scale factor.
The generator is the data substrate for every experiment; the workload
builders in :mod:`repro.tpch.workloads` derive the UQ1/UQ2/UQ3 union queries
from its output.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.relational.relation import Relation
from repro.tpch import schema as tpch_schema
from repro.utils.rng import RandomState, ensure_rng


class TPCHGenerator:
    """Generate the TPC-H relations at a given scale factor.

    Parameters
    ----------
    scale_factor:
        Fraction of the official SF-1 cardinalities (e.g. ``0.002`` produces
        roughly 3,000 orders and 12,000 lineitems).
    seed:
        Seed or generator; the same seed always produces identical relations.
    """

    def __init__(self, scale_factor: float = 0.002, seed: RandomState = 0) -> None:
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.rng = ensure_rng(seed)

    # ------------------------------------------------------------------ public
    def generate(self) -> Dict[str, Relation]:
        """Generate every table and return them keyed by table name."""
        region = self._region()
        nation = self._nation()
        supplier = self._supplier()
        customer = self._customer()
        part = self._part()
        partsupp = self._partsupp(part, supplier)
        orders = self._orders(customer)
        lineitem = self._lineitem(orders, part, supplier)
        return {
            "region": region,
            "nation": nation,
            "supplier": supplier,
            "customer": customer,
            "part": part,
            "partsupp": partsupp,
            "orders": orders,
            "lineitem": lineitem,
        }

    def rows(self, table: str) -> int:
        return tpch_schema.rows_at_scale(table, self.scale_factor)

    # ------------------------------------------------------------------ tables
    def _region(self) -> Relation:
        rows = [
            (key, tpch_schema.REGION_NAMES[key % len(tpch_schema.REGION_NAMES)])
            for key in range(self.rows("region"))
        ]
        return Relation("region", tpch_schema.REGION_SCHEMA, rows)

    def _nation(self) -> Relation:
        count = self.rows("nation")
        region_count = self.rows("region")
        rows = [
            (
                key,
                tpch_schema.NATION_NAMES[key % len(tpch_schema.NATION_NAMES)],
                key % region_count,
            )
            for key in range(count)
        ]
        return Relation("nation", tpch_schema.NATION_SCHEMA, rows)

    def _supplier(self) -> Relation:
        count = self.rows("supplier")
        nations = self.rng.integers(0, self.rows("nation"), size=count)
        balances = np.round(self.rng.uniform(-999.99, 9999.99, size=count), 2)
        rows = [
            (key + 1, f"Supplier#{key + 1:09d}", int(nations[key]), float(balances[key]))
            for key in range(count)
        ]
        return Relation("supplier", tpch_schema.SUPPLIER_SCHEMA, rows)

    def _customer(self) -> Relation:
        count = self.rows("customer")
        nations = self.rng.integers(0, self.rows("nation"), size=count)
        segments = self.rng.integers(0, len(tpch_schema.MKT_SEGMENTS), size=count)
        balances = np.round(self.rng.uniform(-999.99, 9999.99, size=count), 2)
        rows = [
            (
                key + 1,
                f"Customer#{key + 1:09d}",
                int(nations[key]),
                tpch_schema.MKT_SEGMENTS[int(segments[key])],
                float(balances[key]),
            )
            for key in range(count)
        ]
        return Relation("customer", tpch_schema.CUSTOMER_SCHEMA, rows)

    def _part(self) -> Relation:
        count = self.rows("part")
        sizes = self.rng.integers(1, 51, size=count)
        types = self.rng.integers(0, len(tpch_schema.PART_TYPES), size=count)
        brands = self.rng.integers(1, 6, size=count)
        prices = np.round(900.0 + (np.arange(count) % 1000) + sizes * 0.1, 2)
        rows = [
            (
                key + 1,
                f"Part#{key + 1:09d}",
                f"Brand#{int(brands[key])}{int(brands[key])}",
                tpch_schema.PART_TYPES[int(types[key])],
                int(sizes[key]),
                float(prices[key]),
            )
            for key in range(count)
        ]
        return Relation("part", tpch_schema.PART_SCHEMA, rows)

    def _partsupp(self, part: Relation, supplier: Relation) -> Relation:
        suppliers_per_part = 4
        supplier_count = len(supplier)
        rows = []
        for partkey in part.column("partkey"):
            for i in range(suppliers_per_part):
                suppkey = int(((partkey + i * (supplier_count // suppliers_per_part + 1))
                               % supplier_count) + 1)
                availqty = int(self.rng.integers(1, 10_000))
                supplycost = round(float(self.rng.uniform(1.0, 1000.0)), 2)
                rows.append((partkey, suppkey, availqty, supplycost))
        return Relation("partsupp", tpch_schema.PARTSUPP_SCHEMA, rows)

    def _orders(self, customer: Relation) -> Relation:
        count = self.rows("orders")
        customer_count = len(customer)
        # TPC-H only populates 2/3 of customers with orders; keep that skew by
        # drawing customer positions from the first two thirds more often.
        cust_positions = self.rng.integers(0, customer_count, size=count)
        statuses = self.rng.integers(0, len(tpch_schema.ORDER_STATUSES), size=count)
        priorities = self.rng.integers(0, len(tpch_schema.ORDER_PRIORITIES), size=count)
        prices = np.round(self.rng.uniform(850.0, 500_000.0, size=count), 2)
        dates = self.rng.integers(8_035, 10_591, size=count)  # days: 1992-01-01..1998-12-31
        custkeys = customer.column("custkey")
        rows = []
        for key in range(count):
            custkey = custkeys[int(cust_positions[key])]
            rows.append(
                (
                    key + 1,
                    custkey,
                    tpch_schema.ORDER_STATUSES[int(statuses[key])],
                    float(prices[key]),
                    int(dates[key]),
                    tpch_schema.ORDER_PRIORITIES[int(priorities[key])],
                )
            )
        return Relation("orders", tpch_schema.ORDERS_SCHEMA, rows)

    def _lineitem(self, orders: Relation, part: Relation, supplier: Relation) -> Relation:
        target = self.rows("lineitem")
        order_count = len(orders)
        average_lines = max(target // max(order_count, 1), 1)
        part_count = len(part)
        supplier_count = len(supplier)
        rows = []
        for orderkey, orderdate in zip(orders.column("orderkey"), orders.column("orderdate")):
            lines = int(self.rng.integers(1, 2 * average_lines + 1))
            for linenumber in range(1, lines + 1):
                partkey = int(self.rng.integers(1, part_count + 1))
                suppkey = int(self.rng.integers(1, supplier_count + 1))
                quantity = int(self.rng.integers(1, 51))
                extendedprice = round(quantity * float(self.rng.uniform(900.0, 2000.0)), 2)
                discount = round(float(self.rng.uniform(0.0, 0.1)), 2)
                shipdate = int(orderdate) + int(self.rng.integers(1, 122))
                rows.append(
                    (
                        orderkey,
                        partkey,
                        suppkey,
                        linenumber,
                        quantity,
                        extendedprice,
                        discount,
                        shipdate,
                    )
                )
        return Relation("lineitem", tpch_schema.LINEITEM_SCHEMA, rows)


def generate_tpch(
    scale_factor: float = 0.002, seed: RandomState = 0
) -> Dict[str, Relation]:
    """Convenience wrapper: generate all TPC-H relations at ``scale_factor``."""
    return TPCHGenerator(scale_factor, seed).generate()


__all__ = ["TPCHGenerator", "generate_tpch"]
