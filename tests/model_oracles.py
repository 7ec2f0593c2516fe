"""Direct evaluations of the model the solver fits, and test-only constructors.

The solver (`qaexpert.coupled._Descent`) scores every objective term from
products its updates already form.  The functions here evaluate the same
terms directly, one term at a time, from the stored model: the tests
check the engine's histories, the ranking metrics and the tree penalty
against them.  None of them is on the command line's path.

Khatri-Rao convention: in ``khatri_rao(A, B)`` the rows of ``A`` vary
slowly, the rows of ``B`` vary fast, i.e. entry ``(p * B_rows + q, r)``
equals ``A[p, r] * B[q, r]``.  Chains are built highest mode leftmost, so
the lowest mode varies fastest, matching a Fortran-order unfolding.

The constructors build the package's objects from the small literal
forms tests write: a tensor from ``(i, j, k, l, value)`` entries or a
dense array, a tree from nested lists of row indices.
"""

import numpy as np

from qaexpert.coupled import (
    CpModel, JointModel, MembershipMatrix, networks_objective, topic_objective,
)
from qaexpert.errors import ContractViolation
from qaexpert.hierarchy import HierarchyTree, TreePenalty, weight_penalty
from qaexpert.ranking import EvalReport, RankedList, RankingFactors
from qaexpert.sparse_tensor import SparseTensor4, _check_factor, residual_norm


# --- sparse_tensor -----------------------------------------------------------

def tensor_from_entries(dims, entries) -> SparseTensor4:
    """A tensor from ``(i, j, k, l, value)`` entries, canonicalized as
    `SparseTensor4` canonicalizes its index and value arrays."""
    entries = list(entries)
    idx = np.array([e[:4] for e in entries], dtype=np.int64).reshape(-1, 4)
    val = np.array([e[4] for e in entries], dtype=np.float64)
    return SparseTensor4(dims, indices=idx, values=val)


def tensor_from_dense(array) -> SparseTensor4:
    """Build from a small dense 4-d array, keeping nonzero cells."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 4:
        raise ContractViolation("tensor_from_dense expects a 4-d array")
    idx = np.argwhere(arr != 0)
    return SparseTensor4(arr.shape, indices=idx, values=arr[tuple(idx.T)])


def khatri_rao(A, B) -> np.ndarray:
    """Columnwise Kronecker product of two factor matrices.

    Column ``r`` of the result is ``kron(A[:, r], B[:, r])``: the result has
    ``A_rows * B_rows`` rows and entry ``(p * B_rows + q, r)`` equal to
    ``A[p, r] * B[q, r]``.
    """
    A = _check_factor(A, name="A")
    B = _check_factor(B, name="B")
    if A.shape[1] != B.shape[1]:
        raise ContractViolation(
            f"rank mismatch: {A.shape[1]} vs {B.shape[1]} columns"
        )
    return np.repeat(A, B.shape[0], axis=0) * np.tile(B, (A.shape[0], 1))


def reconstruct_entry(factors, norms, index) -> float:
    """Model value at one cell: sum over components of the scaled factor products."""
    norms = np.asarray(norms, dtype=np.float64)
    index = tuple(int(i) for i in index)
    if len(index) != 4:
        raise ContractViolation("index must have four coordinates")
    acc = norms.copy()
    for m, U in enumerate(factors):
        U = np.asarray(U, dtype=np.float64)
        if not 0 <= index[m] < U.shape[0]:
            raise ContractViolation(f"index {index[m]} out of range for mode {m}")
        acc = acc * U[index[m], :]
    return float(acc.sum())


# --- hierarchy ---------------------------------------------------------------

def tree_from_nested(nested, sg_by_level=None) -> HierarchyTree:
    """Build a tree from nested lists whose innermost items are row indices.

    ``[[0, 1], [2]]`` is a root with two internal children holding leaf
    rows ``{0, 1}`` and ``{2}``.  A bare int makes a leaf directly.
    ``sg_by_level`` optionally maps a level to its ``(s, g)`` pair;
    unlisted levels use ``(0.5, 0.5)``.  Nodes are numbered in preorder.
    """
    sg_by_level = sg_by_level or {}
    parent, sg, leaf_row = [], [], []
    stack = [(nested, -1, 0)]
    while stack:
        spec, up, depth = stack.pop()
        parent.append(up)
        if isinstance(spec, (int, np.integer)):
            sg.append((np.nan, np.nan))
            leaf_row.append(int(spec))
        else:
            sg.append(sg_by_level.get(depth, (0.5, 0.5)))
            leaf_row.append(-1)
            stack.extend((child, len(parent) - 1, depth + 1) for child in reversed(spec))
    s, g = np.array(sg, dtype=np.float64).T
    return HierarchyTree(parent, s, g, leaf_row)


def group(tree: HierarchyTree, node: int) -> np.ndarray:
    """Question rows at the leaves beneath ``node`` (itself included), ascending:
    the group whose squared norm the tree penalty weighs by the node's weight."""
    beneath = tree.ancestors[tree.level[node], tree.leaves] == node
    return np.sort(tree.leaf_row[tree.leaves[beneath]])


# --- coupled -----------------------------------------------------------------

def to_dense(M: MembershipMatrix) -> np.ndarray:
    """The membership matrix as a dense 0/1 array."""
    dense = np.zeros((M.rows, M.cols))
    dense[M.indices[:, 0], M.indices[:, 1]] = 1.0
    return dense


def tensor_objective(X: SparseTensor4, model: CpModel, lambda_x: float) -> float:
    """Half squared reconstruction error plus the ridge on the factors.

    The ridge is evaluated on the balanced representation (scale spread
    evenly across modes), the minimal-ridge member of the model's
    rescaling class; this makes the value well defined for a model stored
    as unit columns plus scales.
    """
    res = residual_norm(X, model.factors, model.norms)
    ridge = sum(float(np.sum(U * U)) for U in model.balanced_factors())
    return 0.5 * res * res + 0.5 * lambda_x * ridge


def fit_metric(X: SparseTensor4, model: CpModel) -> float:
    """1 minus the relative residual; 1.0 for an exact fit of a zero tensor."""
    res = residual_norm(X, model.factors, model.norms)
    norm_x = X.norm()
    if norm_x == 0:
        return 1.0 if res == 0 else float("-inf")
    return min(1.0 - res / norm_x, 1.0)


def group_means(U1: np.ndarray, tree: HierarchyTree) -> np.ndarray:
    """Per-subsite mean of the question-factor rows, in subsite node order,
    one group at a time."""
    U1 = np.asarray(U1, dtype=np.float64)
    groups = tree.level_groups(1)
    sums = np.array([U1[rows].sum(axis=0) for rows in groups]).reshape(len(groups), U1.shape[1])
    return sums / np.array([len(rows) for rows in groups])[:, None]


def site_regularizer(S: np.ndarray, U1: np.ndarray, tree: HierarchyTree, lambda_site: float) -> float:
    """Half the summed squared distance of subsite rows to their group means."""
    S = np.asarray(S, dtype=np.float64)
    U1 = np.asarray(U1, dtype=np.float64)
    if U1.shape[0] != tree.n_rows:
        raise ContractViolation(
            f"question factor has {U1.shape[0]} rows, tree covers {tree.n_rows}"
        )
    mu = group_means(U1, tree)
    if S.shape != mu.shape:
        raise ContractViolation(
            f"subsite factor {S.shape} does not match {mu.shape[0]} subsite groups"
        )
    return 0.5 * lambda_site * float(np.sum((S - mu) ** 2))


def joint_objective(
    X: SparseTensor4,
    M: MembershipMatrix,
    N: MembershipMatrix,
    model: JointModel,
    penalty: TreePenalty,
) -> float:
    """Sum of the five objective components for a stored model.

    Evaluated on the balanced factor representation, the same one the
    component operations see individually, so this equals their sum
    exactly.
    """
    lam = model.lambdas
    balanced = model.cp.balanced_factors()
    value = tensor_objective(X, model.cp, lam["lambda_x"])
    value += weight_penalty(balanced[0], penalty)
    value += networks_objective(model.S, model.A, M, lam["lambda_s"])
    value += topic_objective(model.T, model.A, N, lam["lambda_t"])
    value += site_regularizer(model.S, balanced[0], penalty.tree, lam["lambda_site"])
    return value


# --- ranking -----------------------------------------------------------------

def precision_at_k(recommended: RankedList, relevant: set, k: int) -> float:
    """Fraction of the top-k recommendations that are relevant.

    The denominator is min(k, list length) so short lists are not
    penalized for missing padding; an empty list scores 0.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    top = recommended.users()
    if not top:
        return 0.0
    return sum(1 for u in top[:k] if u in relevant) / min(k, len(top))


def mean_reciprocal_rank(per_query_ranks) -> float:
    """Mean of 1/rank over queries; ranks are 1-based positions."""
    ranks = list(per_query_ranks)
    if not ranks:
        raise ContractViolation("rank list must be nonempty")
    if any(r < 1 for r in ranks):
        raise ContractViolation("ranks must be >= 1")
    return sum(1.0 / r for r in ranks) / len(ranks)


def order_by_full_sort(model, topic):
    """Every user index of a topic's ranking by one full `np.lexsort`
    (score descending, then index), with the scores; None when the topic's
    factor row is all zeros."""
    f = RankingFactors.of(model)
    if not f.topic[topic].any():
        return None
    scores = f.expert @ (f.norms * f.topic[topic])
    return np.lexsort((np.arange(len(scores)), -scores)).tolist(), scores


def evaluate_by_full_sort(model, ledger, k_list, topics, users) -> EvalReport:
    """Reference `qaexpert.ranking.evaluate`: a full sort of every user per
    topic, mapped to user ids and scanned for the ledger leader."""
    report = EvalReport()
    per_k_precision = {k: [] for k in k_list}
    reciprocals = []
    for j, tag in enumerate(topics):
        ledger_order = ledger.top_users(tag)
        if not ledger_order:
            report.skipped_topics += 1
            continue
        ranked = order_by_full_sort(model, j)
        order, scores = ranked or ([], None)
        mapped = RankedList(tag, tuple((users[l], float(scores[l])) for l in order))
        position = next((pos for pos, uid in enumerate(mapped.users(), start=1)
                         if uid == ledger_order[0]), None)
        reciprocal = 1.0 / position if position is not None else 0.0
        reciprocals.append(reciprocal)
        for k in k_list:
            prec = precision_at_k(mapped, set(ledger_order[:k]), k)
            per_k_precision[k].append(prec)
            report.rows.append((tag, k, prec, reciprocal, len(mapped.entries)))
        report.evaluated_topics += 1
    if report.evaluated_topics:
        for k in k_list:
            report.summary.append(("ALL", k, sum(per_k_precision[k]) / len(per_k_precision[k]),
                                   sum(reciprocals) / len(reciprocals), report.evaluated_topics))
    return report
