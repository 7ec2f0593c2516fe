"""Hierarchy tree construction, node weights, and the grouped row penalty."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaexpert.errors import ContractViolation
from qaexpert.hierarchy import (
    HierarchyTree,
    TreePenalty,
    compute_node_weights,
    weight_penalty,
)

from model_oracles import group, tree_from_nested

NAN = float("nan")


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


def random_spec(rng):
    """A random mixed-depth spec and its per-level ``(s, g)`` pairs."""
    spec = random_nested(rng)
    sg = {}
    for level in range(4):
        s = float(rng.random())
        sg[level] = (s, 1.0 - s)
    return spec, sg


def random_tree(rng):
    spec, sg = random_spec(rng)
    return tree_from_nested(spec, sg_by_level=sg)


def walk_spec(spec, sg_by_level):
    """The tree's quantities by a recursive preorder walk of the nested spec.

    Returns per-node levels, weights and sorted leaf-row groups, in node-id
    order, and per-row weights: each row sums its chain's node weights,
    root first.
    """
    levels, weights, groups, row_weights = [], [], [], {}

    def visit(spec, level, product, chain):
        nid = len(levels)
        levels.append(level)
        groups.append([])
        if isinstance(spec, int):
            weights.append(product)
            groups[nid] = [spec]
            row_weights[spec] = chain + product
            return groups[nid]
        s, g = sg_by_level.get(level, (0.5, 0.5))
        weights.append(g * product)
        for child in spec:
            groups[nid] += visit(child, level + 1, product * s, chain + weights[nid])
        groups[nid].sort()
        return groups[nid]

    visit(spec, 0, 1.0, 0.0)
    rows = np.array([row_weights[r] for r in range(len(row_weights))])
    return levels, weights, groups, rows


def oracle_penalty(U1, spec, sg_by_level, lambda_w):
    """Penalty recomputed from the spec: own recursion, explicit double sum."""
    _, weights, groups, _ = walk_spec(spec, sg_by_level)
    total = 0.0
    for w, rows in zip(weights, groups):
        for row in rows:
            total += w * float(np.dot(U1[row], U1[row]))
    return 0.5 * lambda_w * total


class TestTreeStructure:
    def test_nested_builder_levels_and_groups(self):
        tree = tree_from_nested([[0, 1], [2]])
        assert tree.n_rows == 3
        assert tree.parent.tolist() == [-1, 0, 1, 1, 0, 4]
        assert tree.level.tolist() == [0, 1, 2, 2, 1, 2]
        assert [g.tolist() for g in tree.level_groups(1)] == [[0, 1], [2]]
        assert group(tree, 0).tolist() == [0, 1, 2]

    def test_single_leaf_root_allowed(self):
        tree = tree_from_nested(0)
        assert tree.n_rows == 1
        assert tree.leaf_row.tolist() == [0]
        assert tree.level_groups(1) == []

    def test_arrays_are_read_only(self):
        tree = tree_from_nested([0, 1])
        with pytest.raises(ValueError):
            tree.parent[1] = 2

    @pytest.mark.parametrize("parent, s, g, leaf_row", [
        # two roots
        ([-1, -1], [NAN, NAN], [NAN, NAN], [0, 1]),
        # a duplicate leaf row
        ([-1, 0, 0], [0.5, NAN, NAN], [0.5, NAN, NAN], [-1, 0, 0]),
        # s + g != 1
        ([-1, 0], [0.9, NAN], [0.5, NAN], [-1, 0]),
        # an internal node without children
        ([-1], [0.5], [0.5], [-1]),
        # a parent after its child
        ([-1, 2, 0], [0.5, NAN, 0.5], [0.5, NAN, 0.5], [-1, 0, -1]),
        # a leaf with children
        ([-1, 0, 1], [0.5, NAN, NAN], [0.5, NAN, NAN], [-1, 0, 1]),
        # no weights at an internal node
        ([-1, 0], [NAN, NAN], [NAN, NAN], [-1, 0]),
        # unequal lengths
        ([-1, 0], [0.5], [0.5, NAN], [-1, 0]),
    ])
    def test_rejected(self, parent, s, g, leaf_row):
        with pytest.raises(ContractViolation):
            HierarchyTree(parent, s, g, leaf_row)

    def test_levels_and_ancestors_derived_from_parents(self):
        tree = HierarchyTree([-1, 0, 1, 1, 0], [0.3, 0.5, NAN, NAN, NAN],
                             [0.7, 0.5, NAN, NAN, NAN], [-1, -1, 1, 0, 2])
        assert tree.level.tolist() == [0, 1, 2, 2, 1]
        assert tree.ancestors.tolist() == [[0, 0, 0, 0, 0], [-1, 1, 1, 1, 4],
                                           [-1, -1, 2, 3, -1]]
        assert group(tree, 1).tolist() == [0, 1]


class TestAgainstSpecWalk:
    """Every array pass against a recursive walk of the nested spec."""

    def test_random_mixed_depth_trees(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            spec, sg = random_spec(rng)
            tree = tree_from_nested(spec, sg_by_level=sg)
            levels, weights, groups, rows = walk_spec(spec, sg)
            assert tree.level.tolist() == levels
            assert compute_node_weights(tree).tolist() == weights
            assert [group(tree, v).tolist() for v in range(len(levels))] == groups
            for level in range(max(levels) + 2):
                want = [rows for lv, rows in zip(levels, groups) if lv == level]
                assert [g.tolist() for g in tree.level_groups(level)] == want
            got = TreePenalty(tree, lambda_w=1.0).row_weights
            assert got.tobytes() == rows.tobytes()


class TestNodeWeights:
    def test_root_with_two_leaves(self):
        tree = tree_from_nested([0, 1])
        assert compute_node_weights(tree).tolist() == [0.5, 0.5, 0.5]

    def test_zero_s_at_root_kills_descendants(self):
        tree = tree_from_nested([0, 1], sg_by_level={0: (0.0, 1.0)})
        assert compute_node_weights(tree).tolist() == [1.0, 0.0, 0.0]

    def test_three_level_half_half_exact(self):
        tree = tree_from_nested([[0, 1], [2, 3]])
        weights = compute_node_weights(tree)
        assert weights[tree.level == 0].tolist() == [0.5]
        assert set(weights[tree.level == 1].tolist()) == {0.25}
        assert set(weights[tree.level == 2].tolist()) == {0.25}

    def test_all_weights_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            weights = compute_node_weights(random_tree(rng))
            assert np.all((weights >= 0.0) & (weights <= 1.0))


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

    @pytest.mark.parametrize("value", [NAN, float("inf")])
    def test_non_finite_lambda_rejected(self, value):
        with pytest.raises(ContractViolation, match="^lambda_w must be finite and >= 0$"):
            TreePenalty(tree_from_nested([0, 1]), lambda_w=value)

    def test_row_count_mismatch_rejected(self):
        penalty = TreePenalty(tree_from_nested([0, 1]), lambda_w=1.0)
        with pytest.raises(ContractViolation):
            weight_penalty(np.zeros((3, 2)), penalty)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec, sg = random_spec(rng)
            tree = tree_from_nested(spec, sg_by_level=sg)
            U1 = rng.standard_normal((tree.n_rows, int(rng.integers(1, 4))))
            lam = float(rng.random() * 2)
            got = weight_penalty(U1, TreePenalty(tree, lambda_w=lam))
            want = oracle_penalty(U1, spec, sg, lam)
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
        for nid, omega in enumerate(compute_node_weights(tree).tolist()):
            running += 0.5 * omega * float(row_sq[group(tree, nid)].sum())
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
            for nid, omega in enumerate(compute_node_weights(tree).tolist()):
                groupwise += omega * float(np.sum(U1[group(tree, nid)] ** 2))
            groupwise *= 0.5 * penalty.lambda_w
            assert weight_penalty(U1, penalty) == pytest.approx(
                groupwise, rel=1e-12, abs=1e-12
            )

    def test_row_weights_are_read_only(self):
        penalty = TreePenalty(tree_from_nested([0, 1]), lambda_w=1.0)
        with pytest.raises(ValueError):
            penalty.row_weights[0] = 99.0
        assert penalty.row_weights[0] != 99.0
