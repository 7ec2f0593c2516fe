"""Hierarchy tree over subsites, topics, and questions, with grouped ridge weights.

Every tree node defines a group: the set of question rows at the leaves
beneath it.  Internal nodes carry a pair ``(s, g)`` summing to one; a
node's weight is its ``g`` (one for leaves) times the product of ``s``
over its strict ancestors.  The penalty on a question-mode factor is the
weighted sum of squared group norms, which decomposes exactly into
per-row ridge weights because the group norms are squared: row ``l``
weighs the summed weights of every group containing it.  The penalty is
evaluated through those row weights, one dot product with no walk over
the tree; the group-wise sum is kept in the tests as the oracle it is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

__all__ = [
    "TreeNode",
    "HierarchyTree",
    "TreePenalty",
    "tree_from_nested",
    "compute_node_weights",
    "weight_penalty",
]

_SG_TOL = 1e-9


@dataclass
class TreeNode:
    node_id: int
    level: int
    parent: int | None
    children: list[int] = field(default_factory=list)
    s: float | None = None
    g: float | None = None
    leaf_row: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_row is not None


class HierarchyTree:
    """Validated rooted tree whose leaves partition the question rows.

    Leaf rows must be exactly ``0 .. n_rows-1``, each appearing once.
    """

    def __init__(self, nodes: dict[int, TreeNode]):
        self.nodes = dict(nodes)
        roots = [n.node_id for n in self.nodes.values() if n.parent is None]
        if len(roots) != 1:
            raise ContractViolation(f"tree must have exactly one root, found {len(roots)}")
        self.root_id = roots[0]
        self._validate()
        self._groups = self._collect_groups()
        self.n_rows = len(self._groups[self.root_id])

    def _validate(self):
        seen = set()
        stack = [self.root_id]
        leaf_rows = []
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise ContractViolation(f"node {nid} reachable twice; not a tree")
            seen.add(nid)
            node = self.nodes[nid]
            for cid in node.children:
                child = self.nodes.get(cid)
                if child is None or child.parent != nid:
                    raise ContractViolation(f"child link {nid}->{cid} is inconsistent")
                if child.level != node.level + 1:
                    raise ContractViolation(f"node {cid} level must be {node.level + 1}")
                stack.append(cid)
            if node.is_leaf:
                if node.children:
                    raise ContractViolation(f"leaf node {nid} has children")
                leaf_rows.append(node.leaf_row)
            else:
                if not node.children:
                    raise ContractViolation(f"internal node {nid} has no children")
                if node.s is None or node.g is None:
                    raise ContractViolation(f"internal node {nid} lacks (s, g) weights")
                if not (0.0 <= node.s <= 1.0 and 0.0 <= node.g <= 1.0):
                    raise ContractViolation(f"(s, g) of node {nid} must lie in [0, 1]")
                if abs(node.s + node.g - 1.0) > _SG_TOL:
                    raise ContractViolation(f"(s, g) of node {nid} must sum to 1")
        if len(seen) != len(self.nodes):
            raise ContractViolation("tree contains unreachable nodes")
        if sorted(leaf_rows) != list(range(len(leaf_rows))):
            raise ContractViolation("leaf rows must be 0..n-1, each exactly once")

    def _collect_groups(self):
        groups: dict[int, frozenset[int]] = {}

        def visit(nid):
            node = self.nodes[nid]
            if node.is_leaf:
                rows = frozenset([node.leaf_row])
            else:
                rows = frozenset().union(*(visit(c) for c in node.children))
            groups[nid] = rows
            return rows

        visit(self.root_id)
        return groups

    def group(self, node_id: int) -> frozenset[int]:
        """Question rows at the leaves beneath ``node_id`` (itself included)."""
        return self._groups[node_id]

    def level_nodes(self, level: int) -> list[int]:
        """Node ids at a depth, in ascending id order."""
        return sorted(n.node_id for n in self.nodes.values() if n.level == level)

    def level_groups(self, level: int) -> list[frozenset[int]]:
        """Leaf-row groups of the nodes at a depth, in node-id order."""
        return [self._groups[nid] for nid in self.level_nodes(level)]


def tree_from_nested(nested, sg_by_level=None) -> HierarchyTree:
    """Build a tree from nested lists whose innermost items are row indices.

    ``[[0, 1], [2]]`` is a root with two internal children holding leaf
    rows ``{0, 1}`` and ``{2}``.  A bare int makes a leaf directly.
    ``sg_by_level`` optionally maps a level to its ``(s, g)`` pair;
    unlisted levels use ``(0.5, 0.5)``.
    """
    sg_by_level = sg_by_level or {}
    nodes: dict[int, TreeNode] = {}
    counter = [0]

    def add(spec, level, parent):
        nid = counter[0]
        counter[0] += 1
        if isinstance(spec, (int, np.integer)):
            nodes[nid] = TreeNode(nid, level, parent, leaf_row=int(spec))
        else:
            s, g = sg_by_level.get(level, (0.5, 0.5))
            node = TreeNode(nid, level, parent, s=float(s), g=float(g))
            nodes[nid] = node
            for child in spec:
                node.children.append(add(child, level + 1, nid))
        return nid

    add(nested, 0, None)
    return HierarchyTree(nodes)


def compute_node_weights(tree: HierarchyTree) -> dict[int, float]:
    """Per-node group weights: ``g`` at the node times ``s`` over its ancestors.

    Leaves take weight one at the node itself, so a leaf's weight is just
    the product of its ancestors' ``s`` values.  All weights lie in [0, 1].
    """
    weights: dict[int, float] = {}

    def visit(nid, ancestor_product):
        node = tree.nodes[nid]
        if node.is_leaf:
            weights[nid] = ancestor_product
            return
        weights[nid] = node.g * ancestor_product
        for cid in node.children:
            visit(cid, ancestor_product * node.s)

    visit(tree.root_id, 1.0)
    return weights


@dataclass(frozen=True)
class TreePenalty:
    """Hierarchy tree bundled with its regularizer strength and weights.

    ``row_weights[l]`` sums the node weights over every group containing
    leaf ``l`` (its ancestor chain plus itself); it is read-only.
    """

    tree: HierarchyTree
    lambda_w: float
    node_weights: dict[int, float] = field(init=False, repr=False)
    row_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.lambda_w < 0:
            raise ContractViolation("lambda_w must be >= 0")
        weights = compute_node_weights(self.tree)
        rows = np.zeros(self.tree.n_rows)
        for nid, omega in weights.items():
            for row in self.tree.group(nid):
                rows[row] += omega
        rows.setflags(write=False)
        object.__setattr__(self, "node_weights", weights)
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
