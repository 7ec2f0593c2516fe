"""Hierarchy tree over subsites, topics, and questions, with grouped ridge weights.

The tree is four arrays in preorder: node 0 is the root, every node comes
after its parent, and ``parent`` is -1 only at the root.  A leaf holds its
question row in ``leaf_row`` (-1 elsewhere); an internal node holds a pair
``(s, g)`` summing to one (NaN at leaves).  The depth ``level`` and the
ancestor table ``ancestors[d, v]``, the node at depth ``d`` above ``v``, are
derived once, at any depth; everything else is a pass over these arrays.
`HierarchyTree` is the one check of them.  Each check but that of an
empty tree is one of nodes: the first node that breaks it is the ``node``
of the ContractViolation it raises, so that a loader can name its line.

Every node defines a group: the question rows at the leaves beneath it.
A node's weight is its ``g`` (one for leaves) times the product of ``s``
over its strict ancestors.  The penalty on a question-mode factor is the
weighted sum of squared group norms, which decomposes exactly into
per-row ridge weights because the group norms are squared: row ``l``
weighs the summed weights of its ancestor chain.  With s + g = 1 at every
node that sum telescopes to 1, so the penalty is ½·λ_w·‖U1‖² whatever the
weights.  It is evaluated as one dot product.  The group-wise sum it is
checked against, with ``group(tree, node)`` and the nested-list tree
constructor ``tree_from_nested``, lives in ``tests/model_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .sparse_tensor import lex_order, row_changes

__all__ = [
    "HierarchyTree",
    "TreePenalty",
    "compute_node_weights",
    "weight_penalty",
]

_SG_TOL = 1e-9
_HALF = 0.5  # s and g at every internal node of a `HierarchyTree.halved` tree


def _check(bad, message):
    """Raise naming the first node of ``bad``, if any, as its ``node``."""
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        raise ContractViolation(message.format(node), node=node)


def _check_finite_nonnegative(owner, name: str):
    """Raise unless ``owner.<name>`` is finite and >= 0.  NaN fails every
    comparison, so a NaN tolerance would never stop a solver's loop, and a
    NaN or infinite lambda would make its first sweep diverge."""
    if not 0 <= getattr(owner, name) < float("inf"):
        raise ContractViolation(f"{name} must be finite and >= 0")


class HierarchyTree:
    """Validated rooted tree in preorder whose leaves partition the question rows.

    Leaf rows must be exactly ``0 .. n_rows-1``, each appearing once.
    ``s`` and ``g`` are read at internal nodes only.  The arrays are read-only.
    """

    def __init__(self, parent, s, g, leaf_row):
        self.parent, self.leaf_row = (np.array(a, dtype=np.int64) for a in (parent, leaf_row))
        self.s, self.g = (np.array(a, dtype=np.float64) for a in (s, g))
        n = self.parent.size
        if {a.shape for a in (self.parent, self.s, self.g, self.leaf_row)} != {(n,)}:
            raise ContractViolation("parent, s, g and leaf_row must be 1-D and of equal length")
        if n == 0:
            raise ContractViolation("tree must have a root, node 0")
        ids = np.arange(n)
        # node 0, whose parent cannot come before it, is the root
        _check((self.parent >= ids) | (self.parent < -1), "node {} must come after its parent")
        _check((ids > 0) & (self.parent == -1), "node {} is a second root; only node 0 is one")
        leaf = self.leaf_row >= 0
        has_children = np.bincount(self.parent[1:], minlength=n) > 0
        _check(leaf & has_children, "leaf node {} has children")
        _check(~leaf & ~has_children, "internal node {} has no children")
        s, g = self.s, self.g
        in_range = (s >= 0) & (s <= 1) & (g >= 0) & (g <= 1)  # NaN fails too
        _check(~leaf & ~in_range, "(s, g) of node {} must lie in [0, 1]")
        _check(~leaf & (np.abs(s + g - 1.0) > _SG_TOL), "(s, g) of node {} must sum to 1")
        self.leaves = np.flatnonzero(leaf)
        self.n_rows = len(self.leaves)
        # n leaves hold the rows 0..n-1 just where none holds a row past n-1 or
        # one an earlier leaf holds; a stable sort keeps equal rows in leaf order
        rows = self.leaf_row[self.leaves]
        order = np.argsort(rows, kind="stable")
        repeated = np.empty(self.n_rows, dtype=bool)
        repeated[order] = ~row_changes((rows[order],))
        bad = np.zeros(n, dtype=bool)
        bad[self.leaves] = (rows >= self.n_rows) | repeated
        _check(bad, f"leaf node {{}} must hold a row below {self.n_rows}, the leaf count, "
                    "that no earlier leaf holds")

        # up[k, v] is the k-th ancestor of v, -1 above the root.
        up = [ids]
        while (up[-1] >= 0).any():
            up.append(np.where(up[-1] >= 0, self.parent[up[-1]], -1))
        up = np.array(up[:-1])
        self.level = np.count_nonzero(up[1:] >= 0, axis=0)
        d = np.arange(len(up))[:, None]
        self.ancestors = np.where(d <= self.level, up[np.maximum(self.level - d, 0), ids], -1)
        for a in (self.parent, self.s, self.g, self.leaf_row, self.level, self.ancestors):
            a.setflags(write=False)

    @classmethod
    def halved(cls, parent, leaf_row) -> HierarchyTree:
        """The tree of ``parent`` and ``leaf_row`` with s = g = ½ at each internal node."""
        weights = np.where(np.asarray(leaf_row) < 0, _HALF, np.nan)
        return cls(parent, weights, weights, leaf_row)

    def check_halved(self):
        """Raise naming the first internal node that does not weigh s = g = ½."""
        _check((self.leaf_row < 0) & ((self.s != _HALF) | (self.g != _HALF)),
               "internal node {} does not weigh s = g = 1/2")

    def level_groups(self, level: int) -> list[np.ndarray]:
        """Ascending leaf-row groups of the nodes at a depth, in node-id order."""
        if level >= len(self.ancestors):
            return []
        owner = self.ancestors[level, self.leaves]
        rows = self.leaf_row[self.leaves][owner >= 0]
        owner = owner[owner >= 0]
        order = lex_order((owner, rows))
        return np.split(rows[order], np.flatnonzero(row_changes((owner[order],)))[1:])


def compute_node_weights(tree: HierarchyTree) -> np.ndarray:
    """Per-node group weights: ``g`` at the node times ``s`` over its ancestors.

    Leaves take weight one at the node itself, so a leaf's weight is just
    the product of its ancestors' ``s`` values.  All weights lie in [0, 1].
    The product runs root first, one depth at a time.
    """
    product = np.ones(len(tree.parent))
    for d, above in enumerate(tree.ancestors[:-1]):
        product *= np.where(tree.level > d, tree.s[above], 1.0)
    return np.where(tree.leaf_row >= 0, product, tree.g * product)


@dataclass(frozen=True)
class TreePenalty:
    """Hierarchy tree bundled with its regularizer strength and weights.

    ``row_weights[l]`` sums the node weights over every group containing
    leaf ``l`` (its ancestor chain plus itself), root first; it is read-only.
    """

    tree: HierarchyTree
    lambda_w: float
    row_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_finite_nonnegative(self, "lambda_w")
        tree = self.tree
        # Depths below a leaf hold ancestor -1, which reads the appended
        # zero; adding it is exact, so each row sums its chain root first.
        weights = np.append(compute_node_weights(tree), 0.0)
        rows, order = np.zeros(tree.n_rows), tree.leaf_row[tree.leaves]
        for above in tree.ancestors[:, tree.leaves]:
            rows[order] += weights[above]
        rows.setflags(write=False)
        object.__setattr__(self, "row_weights", rows)


def weight_penalty(U1: np.ndarray, penalty: TreePenalty) -> float:
    """Weighted sum of squared group norms of the question-mode factor rows.

    Evaluated as ``lambda_w/2 * sum_l row_weights[l] * ||row l||^2``.
    """
    U1 = np.asarray(U1, dtype=np.float64)
    if U1.ndim != 2 or U1.shape[0] != penalty.tree.n_rows:
        raise ContractViolation(
            f"factor has {U1.shape[0]} rows but the tree leaves cover {penalty.tree.n_rows}"
        )
    row_sq = np.sum(U1 * U1, axis=1)
    return 0.5 * penalty.lambda_w * float(np.dot(penalty.row_weights, row_sq))
