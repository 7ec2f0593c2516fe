"""Hierarchy tree construction, node weights, and the grouped row penalty."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaexpert.errors import ContractViolation
from qaexpert.hierarchy import (
    HierarchyTree,
    TreeNode,
    TreePenalty,
    compute_node_weights,
    tree_from_nested,
    weight_penalty,
)


def random_nested(rng, max_depth=3, max_children=3):
    """Random nested-list tree spec; leaves numbered 0.. in appearance order."""
    counter = [0]

    def make(depth):
        if depth >= max_depth or (depth > 0 and rng.random() < 0.3):
            row = counter[0]
            counter[0] += 1
            return row
        n = int(rng.integers(1, max_children + 1))
        return [make(depth + 1) for _ in range(n)]

    spec = [make(1) for _ in range(int(rng.integers(1, max_children + 1)))]
    return spec


def random_tree(rng):
    spec = random_nested(rng)
    sg = {}
    for level in range(4):
        s = float(rng.random())
        sg[level] = (s, 1.0 - s)
    return tree_from_nested(spec, sg_by_level=sg)


def oracle_penalty(U1, tree, lambda_w):
    """Penalty recomputed from scratch: own recursion, explicit double sum."""

    def omega(nid, prod):
        node = tree.nodes[nid]
        out = {nid: prod if node.is_leaf else node.g * prod}
        for cid in node.children:
            out.update(omega(cid, prod * node.s))
        return out

    weights = omega(tree.root_id, 1.0)
    total = 0.0
    for nid, w in weights.items():
        for row in tree.group(nid):
            total += w * float(np.dot(U1[row], U1[row]))
    return 0.5 * lambda_w * total


class TestTreeStructure:
    def test_nested_builder_levels_and_groups(self):
        tree = tree_from_nested([[0, 1], [2]])
        assert tree.n_rows == 3
        assert tree.nodes[tree.root_id].level == 0
        assert tree.level_groups(1) == [frozenset({0, 1}), frozenset({2})]
        assert tree.group(tree.root_id) == frozenset({0, 1, 2})

    def test_single_leaf_root_allowed(self):
        tree = tree_from_nested(0)
        assert tree.n_rows == 1
        assert tree.nodes[tree.root_id].is_leaf

    def test_two_roots_rejected(self):
        nodes = {
            0: TreeNode(0, 0, None, leaf_row=0),
            1: TreeNode(1, 0, None, leaf_row=1),
        }
        with pytest.raises(ContractViolation):
            HierarchyTree(nodes)

    def test_duplicate_leaf_row_rejected(self):
        nodes = {
            0: TreeNode(0, 0, None, children=[1, 2], s=0.5, g=0.5),
            1: TreeNode(1, 1, 0, leaf_row=0),
            2: TreeNode(2, 1, 0, leaf_row=0),
        }
        with pytest.raises(ContractViolation):
            HierarchyTree(nodes)

    def test_weights_must_sum_to_one(self):
        nodes = {
            0: TreeNode(0, 0, None, children=[1], s=0.9, g=0.5),
            1: TreeNode(1, 1, 0, leaf_row=0),
        }
        with pytest.raises(ContractViolation):
            HierarchyTree(nodes)

    def test_internal_node_needs_children(self):
        nodes = {0: TreeNode(0, 0, None, s=0.5, g=0.5)}
        with pytest.raises(ContractViolation):
            HierarchyTree(nodes)

    def test_child_level_must_increment(self):
        nodes = {
            0: TreeNode(0, 0, None, children=[1], s=0.5, g=0.5),
            1: TreeNode(1, 2, 0, leaf_row=0),
        }
        with pytest.raises(ContractViolation):
            HierarchyTree(nodes)

    def test_unreachable_node_rejected(self):
        nodes = {
            0: TreeNode(0, 0, None, children=[1], s=0.5, g=0.5),
            1: TreeNode(1, 1, 0, leaf_row=0),
            7: TreeNode(7, 1, 0, leaf_row=1),
        }
        with pytest.raises(ContractViolation):
            HierarchyTree(nodes)


class TestNodeWeights:
    def test_root_with_two_leaves(self):
        tree = tree_from_nested([0, 1])
        weights = compute_node_weights(tree)
        assert weights[tree.root_id] == 0.5
        for nid in tree.level_nodes(1):
            assert weights[nid] == 0.5

    def test_zero_s_at_root_kills_descendants(self):
        tree = tree_from_nested([0, 1], sg_by_level={0: (0.0, 1.0)})
        weights = compute_node_weights(tree)
        assert weights[tree.root_id] == 1.0
        for nid in tree.level_nodes(1):
            assert weights[nid] == 0.0

    def test_three_level_half_half_exact(self):
        tree = tree_from_nested([[0, 1], [2, 3]])
        weights = compute_node_weights(tree)
        assert weights[tree.root_id] == 0.5
        for nid in tree.level_nodes(1):
            assert weights[nid] == 0.25
        for nid in tree.level_nodes(2):
            assert weights[nid] == 0.25

    def test_all_weights_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = random_tree(rng)
            for w in compute_node_weights(tree).values():
                assert 0.0 <= w <= 1.0


class TestWeightPenalty:
    def test_zero_factor_gives_zero(self):
        tree = tree_from_nested([[0, 1], [2]])
        penalty = TreePenalty(tree, lambda_w=0.7)
        assert weight_penalty(np.zeros((3, 2)), penalty) == 0.0

    def test_single_group_hand_value(self):
        # root (s=0, g=1) over one leaf: only the root group counts, omega 1.
        tree = tree_from_nested([0], sg_by_level={0: (0.0, 1.0)})
        penalty = TreePenalty(tree, lambda_w=2.0)
        U1 = np.array([[1.0, 2.0]])
        assert weight_penalty(U1, penalty) == pytest.approx(5.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ContractViolation):
            TreePenalty(tree_from_nested([0, 1]), lambda_w=-1.0)

    def test_row_count_mismatch_rejected(self):
        penalty = TreePenalty(tree_from_nested([0, 1]), lambda_w=1.0)
        with pytest.raises(ContractViolation):
            weight_penalty(np.zeros((3, 2)), penalty)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            tree = random_tree(rng)
            U1 = rng.standard_normal((tree.n_rows, int(rng.integers(1, 4))))
            lam = float(rng.random() * 2)
            got = weight_penalty(U1, TreePenalty(tree, lambda_w=lam))
            want = oracle_penalty(U1, tree, lam)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(st.floats(-3, 3, allow_nan=False), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_quadratic_scaling(self, c, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng)
        U1 = rng.standard_normal((tree.n_rows, 2))
        penalty = TreePenalty(tree, lambda_w=0.8)
        base = weight_penalty(U1, penalty)
        assert weight_penalty(c * U1, penalty) == pytest.approx(
            c * c * base, rel=1e-9, abs=1e-12
        )

    def test_node_sum_is_monotone_in_coverage(self):
        # Every node contributes a nonnegative term, so summing over any
        # subset of nodes can only undershoot the full penalty.
        rng = np.random.default_rng(13)
        tree = random_tree(rng)
        U1 = rng.standard_normal((tree.n_rows, 3))
        penalty = TreePenalty(tree, lambda_w=1.0)
        full = weight_penalty(U1, penalty)
        row_sq = np.sum(U1 * U1, axis=1)
        running = 0.0
        for nid, omega in penalty.node_weights.items():
            running += 0.5 * omega * float(row_sq[list(tree.group(nid))].sum())
            assert running <= full + 1e-12

    def test_degenerate_tree_is_plain_ridge(self):
        tree = tree_from_nested(0)
        penalty = TreePenalty(tree, lambda_w=3.0)
        U1 = np.array([[2.0, 1.0]])
        assert weight_penalty(U1, penalty) == pytest.approx(1.5 * 5.0)


class TestRowWeights:
    def test_flat_tree_rows_weigh_one(self):
        tree = tree_from_nested([0, 1, 2], sg_by_level={0: (0.0, 1.0)})
        w = TreePenalty(tree, lambda_w=1.0).row_weights
        np.testing.assert_allclose(w, np.ones(3))

    def test_two_level_default_weights(self):
        tree = tree_from_nested([0, 1])
        w = TreePenalty(tree, lambda_w=1.0).row_weights
        np.testing.assert_allclose(w, np.ones(2))

    def test_decomposition_identity(self):
        # The row-weight form weight_penalty evaluates equals the weighted
        # sum of squared group norms, walked group by group.
        rng = np.random.default_rng(17)
        for _ in range(25):
            tree = random_tree(rng)
            penalty = TreePenalty(tree, lambda_w=float(rng.random() + 0.1))
            U1 = rng.standard_normal((tree.n_rows, 2))
            groupwise = 0.0
            for nid, omega in compute_node_weights(tree).items():
                rows = sorted(tree.group(nid))
                groupwise += omega * float(np.sum(U1[rows] ** 2))
            groupwise *= 0.5 * penalty.lambda_w
            assert weight_penalty(U1, penalty) == pytest.approx(
                groupwise, rel=1e-12, abs=1e-12
            )

    def test_row_weights_are_read_only(self):
        penalty = TreePenalty(tree_from_nested([0, 1]), lambda_w=1.0)
        with pytest.raises(ValueError):
            penalty.row_weights[0] = 99.0
        assert penalty.row_weights[0] != 99.0
