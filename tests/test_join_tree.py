"""Tests for repro.joins.join_tree."""

import numpy as np
import pytest

from repro.joins.conditions import JoinCondition, OutputAttribute
from repro.joins.join_tree import build_join_tree
from repro.joins.query import JoinQuery, JoinType
from repro.relational.relation import Relation


class TestChainTree:
    def test_chain_is_a_path_rooted_at_first_relation(self, chain_query):
        tree = build_join_tree(chain_query)
        assert tree.root.relation == "R"
        assert tree.is_path
        assert tree.chain_relations() == ["R", "S", "T"]
        assert tree.residual_conditions == ()

    def test_edge_attributes(self, chain_query):
        tree = build_join_tree(chain_query)
        s_node = tree.node_for("S")
        assert s_node.parent_attributes == ("b",)
        assert s_node.child_attributes == ("b",)

    def test_alternate_root(self, chain_query):
        tree = build_join_tree(chain_query, root="T")
        assert tree.root.relation == "T"
        assert tree.chain_relations() == ["T", "S", "R"]

    def test_unknown_root_raises(self, chain_query):
        with pytest.raises(KeyError):
            build_join_tree(chain_query, root="nope")

    def test_depth_and_order(self, chain_query):
        tree = build_join_tree(chain_query)
        assert tree.depth() == 3
        assert tree.relation_order() == ["R", "S", "T"]


class TestAcyclicTree:
    def test_star_tree_structure(self, acyclic_query):
        tree = build_join_tree(acyclic_query)
        assert tree.root.relation == "C"
        assert {c.relation for c in tree.root.children} == {"D", "E"}
        assert not tree.is_path
        assert tree.residual_conditions == ()

    def test_chain_relations_raises_for_non_path(self, acyclic_query):
        tree = build_join_tree(acyclic_query)
        with pytest.raises(ValueError):
            tree.chain_relations()

    def test_node_for_missing_relation(self, acyclic_query):
        tree = build_join_tree(acyclic_query)
        with pytest.raises(KeyError):
            tree.node_for("nope")


class TestCyclicTree:
    def test_cycle_produces_residual_conditions(self, cyclic_query):
        assert cyclic_query.join_type is JoinType.CYCLIC
        tree = build_join_tree(cyclic_query)
        # One edge of the triangle is broken and becomes a residual condition.
        assert len(tree.residual_conditions) == 1
        assert tree.has_residuals
        assert len(tree.nodes()) == 3

    def test_residual_satisfied_matches_direct_evaluation(self, cyclic_query):
        tree = build_join_tree(cyclic_query)
        # Exhaustively compare residual_satisfied against evaluating the
        # residual conditions directly, over every possible full assignment.
        conditions = tree.residual_conditions
        sizes = {name: len(cyclic_query.relation(name)) for name in cyclic_query.relation_names}
        checked_true = checked_false = 0
        for r_pos in range(sizes["R"]):
            for s_pos in range(sizes["S"]):
                for t_pos in range(sizes["T"]):
                    assignment = {"R": r_pos, "S": s_pos, "T": t_pos}
                    expected = all(
                        cyclic_query.relation(c.left_relation).value(
                            assignment[c.left_relation], c.left_attribute
                        )
                        == cyclic_query.relation(c.right_relation).value(
                            assignment[c.right_relation], c.right_attribute
                        )
                        for c in conditions
                    )
                    assert tree.residual_satisfied(assignment) is expected
                    checked_true += expected
                    checked_false += not expected
        # Both outcomes must actually occur for the test to be meaningful.
        assert checked_true > 0 and checked_false > 0

    def test_residual_mask_keeps_ints_past_2_53_exact(self):
        """Every edge of the triangle meets an int past 2**53 with a float
        column: NumPy would round the int and call 2**53 + 1 equal to
        2.0**53, whichever edge is the residual one."""
        big, rounded = 2**53 + 1, float(2**53)
        r = Relation("R", ["x", "z"], [(big, big), (1, 1)])
        s = Relation("S", ["x", "y"], [(rounded, big), (1.0, 1)])
        t = Relation("T", ["y", "z"], [(rounded, rounded), (1.0, 1.0)])
        query = JoinQuery(
            "triangle", [r, s, t],
            [JoinCondition("R", "x", "S", "x"), JoinCondition("S", "y", "T", "y"),
             JoinCondition("T", "z", "R", "z")],
            [OutputAttribute("x", "R", "x")],
        )
        tree = build_join_tree(query)
        assert tree.has_residuals
        for row in (0, 1):
            rows = {name: np.array([row]) for name in query.relation_names}
            assert tree.residual_mask(rows).tolist() == [row == 1]
            assert tree.residual_satisfied({name: row for name in query.relation_names}) is (
                row == 1
            )


class TestTraversals:
    def test_walk_preorder_and_postorder(self, acyclic_query):
        tree = build_join_tree(acyclic_query)
        pre = [n.relation for n in tree.root.walk()]
        post = [n.relation for n in tree.root.post_order()]
        assert pre[0] == "C"
        assert post[-1] == "C"
        assert sorted(pre) == sorted(post) == ["C", "D", "E"]
