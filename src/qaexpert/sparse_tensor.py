"""Sparse 4th-order tensor storage and the multilinear kernels used by ALS.

A tensor is stored in coordinate (COO) form: an ``(nnz, 4)`` integer index
array plus an ``(nnz,)`` value array, lexicographically sorted with
duplicate coordinates summed at construction.  Factor matrices are plain
``(dim, rank)`` float64 ndarrays; kernels never materialize a dense tensor
or a dense unfolding.

The kernels work on factor rows gathered at the nonzeros in
component-major layout: ``gather_rows(U, X.indices[:, m])`` is an
``(R, nnz)`` array, so each component is one contiguous row for the
elementwise products and for the one ``np.bincount`` per component that
scatters an MTTKRP.  ``mttkrp_from_rows`` takes such rows from a caller
that keeps them across updates and gathers a factor once per update that
changes it, as ``coupled._Descent`` does; ``mttkrp`` is the one-shot
wrapper that gathers them first.  ``residual_norm`` evaluates the model at
every nonzero; a solver that already holds an MTTKRP and its solution
reads the residual off them with ``sq_residual_from_inner`` instead.

Khatri-Rao convention: in ``khatri_rao(A, B)`` the rows of ``A`` vary
slowly, the rows of ``B`` vary fast, i.e. entry ``(p * B_rows + q, r)``
equals ``A[p, r] * B[q, r]``.  Chains are built highest mode leftmost, so
the lowest mode varies fastest, matching a Fortran-order unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

__all__ = [
    "SparseTensor4",
    "khatri_rao",
    "gram_hadamard",
    "mttkrp",
    "reconstruct_entry",
    "residual_norm",
]


@dataclass(frozen=True)
class SparseTensor4:
    """COO-format 4-mode tensor of nonnegative evidence counts.

    Parameters
    ----------
    dims : tuple of 4 positive ints
    indices : (nnz, 4) int array, every column within its dim bound
    values : (nnz,) nonnegative float array

    Entries are canonicalized at construction: sorted lexicographically,
    duplicate coordinates summed, exact zeros dropped.  Entries that come
    in strictly increasing order, as a saved snapshot's do, are not sorted.
    """

    dims: tuple[int, int, int, int]
    indices: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __init__(self, dims, entries=None, indices=None, values=None):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 4 or any(d < 1 for d in dims):
            raise ContractViolation(f"dims must be four positive integers, got {dims}")
        if entries is not None:
            entries = list(entries)
            idx = np.array([e[:4] for e in entries], dtype=np.int64).reshape(-1, 4)
            val = np.array([e[4] for e in entries], dtype=np.float64)
        else:
            idx = np.asarray(indices, dtype=np.int64).reshape(-1, 4)
            val = np.asarray(values, dtype=np.float64).reshape(-1)
        if idx.shape[0] != val.shape[0]:
            raise ContractViolation("index and value counts differ")
        if idx.size:
            if idx.min() < 0 or np.any(idx >= np.asarray(dims, dtype=np.int64)):
                raise ContractViolation("tensor index out of range")
        if np.any(val < 0) or not np.all(np.isfinite(val)):
            raise ContractViolation("tensor values must be finite and nonnegative")
        idx, val = _canonicalize(idx, val)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def nnz(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        """Frobenius norm of the tensor."""
        return float(np.sqrt(np.dot(self.values, self.values)))

    @classmethod
    def from_dense(cls, array) -> "SparseTensor4":
        """Build from a small dense 4-d array, keeping nonzero cells."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 4:
            raise ContractViolation("from_dense expects a 4-d array")
        idx = np.argwhere(arr != 0)
        return cls(arr.shape, indices=idx, values=arr[tuple(idx.T)])


def strictly_increasing(idx) -> bool:
    """Whether the rows of the 2-d ``idx`` strictly increase
    lexicographically: each row's first column that differs from the
    previous row's is larger.  Such rows are sorted and hold no duplicates."""
    step = np.diff(idx, axis=0)
    moved = step != 0
    first = moved.argmax(axis=1)
    return bool(moved.any(axis=1).all() and (step[np.arange(len(step)), first] > 0).all())


def _canonicalize(idx, val):
    """Sort lexicographically, merge duplicate coordinates, drop zeros.
    Rows already in strictly increasing order skip the sort and the merge."""
    if idx.shape[0] == 0:
        return idx.reshape(0, 4), val
    if strictly_increasing(idx):
        keep = val != 0
        return idx[keep], val[keep]
    order = np.lexsort((idx[:, 3], idx[:, 2], idx[:, 1], idx[:, 0]))
    idx, val = idx[order], val[order]
    new_group = np.empty(idx.shape[0], dtype=bool)
    new_group[0] = True
    new_group[1:] = np.any(idx[1:] != idx[:-1], axis=1)
    starts = np.flatnonzero(new_group)
    merged = np.add.reduceat(val, starts)
    idx = idx[starts]
    keep = merged != 0
    return np.ascontiguousarray(idx[keep]), merged[keep]


def _check_factor(U, rows=None, rank=None, name="factor"):
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ContractViolation(f"{name} must be 2-d, got shape {U.shape}")
    if rows is not None and U.shape[0] != rows:
        raise ContractViolation(f"{name} has {U.shape[0]} rows, expected {rows}")
    if rank is not None and U.shape[1] != rank:
        raise ContractViolation(f"{name} has rank {U.shape[1]}, expected {rank}")
    return U


def _check_factors(X: SparseTensor4, factors):
    if len(factors) != 4:
        raise ContractViolation("expected one factor per tensor mode")
    rank = np.asarray(factors[0]).shape[1]
    return [
        _check_factor(U, rows=d, rank=rank, name=f"mode-{m} factor")
        for m, (U, d) in enumerate(zip(factors, X.dims))
    ]


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


def gram_hadamard(factors, skip_mode: int) -> np.ndarray:
    """Hadamard product of the factor Gram matrices, skipping one mode.

    Returns the elementwise product of ``U.T @ U`` over every factor except
    ``factors[skip_mode]``; the result is symmetric positive semidefinite.
    """
    if not 0 <= skip_mode < len(factors):
        raise ContractViolation(f"skip_mode {skip_mode} out of range")
    rank = np.asarray(factors[0]).shape[1]
    checked = [
        _check_factor(U, rank=rank, name=f"mode-{m} factor")
        for m, U in enumerate(factors) if m != skip_mode
    ]
    return hadamard([U.T @ U for U in checked], rank)


def hadamard(grams, rank: int) -> np.ndarray:
    """Elementwise product of ``(rank, rank)`` Gram matrices, in list order."""
    out = np.ones((rank, rank))
    for G in grams:
        out *= G
    return out


def gather_rows(U, index) -> np.ndarray:
    """Rows ``U[index]`` in component-major layout: an ``(R, len(index))``
    array whose row ``r`` is ``U[index, r]``, one ``np.take`` of ``U.T``."""
    return np.take(np.ascontiguousarray(U.T), index, axis=1)


def mttkrp(X: SparseTensor4, factors, mode: int) -> np.ndarray:
    """Matricized tensor times Khatri-Rao product, over nonzeros only.

    Equals the mode-``mode`` unfolding of ``X`` multiplied by the Khatri-Rao
    chain of the remaining factors (highest mode leftmost), computed by
    accumulating ``value * prod_of_other_factor_rows`` per nonzero without
    ever forming the unfolding.
    """
    factors = _check_factors(X, factors)
    if not 0 <= mode < 4:
        raise ContractViolation(f"mode {mode} out of range")
    rows = [None if m == mode else gather_rows(U, X.indices[:, m]) for m, U in enumerate(factors)]
    return mttkrp_from_rows(X, rows, mode, X.indices[:, mode])


def mttkrp_from_rows(X: SparseTensor4, rows, mode: int, index) -> np.ndarray:
    """MTTKRP from the other modes' factor rows gathered at the nonzeros.

    ``rows[m]`` is ``gather_rows(factors[m], X.indices[:, m])`` for every
    ``m != mode``, and ``index`` is ``X.indices[:, mode]``.  Each nonzero's
    value is multiplied by the other rows in mode order.
    """
    others = [rows[m] for m in range(4) if m != mode]
    weighted = X.values * others[0]
    for G in others[1:]:
        weighted *= G
    return scatter_rows(index, weighted, X.dims[mode])


def scatter_rows(index, rows, dim: int) -> np.ndarray:
    """``out[index[k]] += rows[:, k]`` for every k, into a ``(dim, R)`` zero array.

    ``rows`` is component-major, ``(R, len(index))``.  One ``np.bincount``
    per component row; each output cell adds its terms in input order, so
    the result equals ``np.add.at`` bit for bit.
    """
    index = np.ascontiguousarray(index)
    out = np.empty((dim, rows.shape[0]))
    for r, row in enumerate(rows):
        out[:, r] = np.bincount(index, weights=row, minlength=dim)
    return out


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


def _split_sq_residual(stored, model_at_stored, model_sq, fully_stored) -> float:
    """Squared residual: exact over stored cells, plus the model's energy on
    the rest as a difference of totals, clamped at zero and exactly zero when
    every cell is stored (so an exact fit there reports no cancellation noise)."""
    on_stored = float(np.sum((stored - model_at_stored) ** 2))
    if fully_stored:
        return on_stored
    return on_stored + max(model_sq - float(np.dot(model_at_stored, model_at_stored)), 0.0)


def sq_residual_from_inner(norm_sq, inner, grams) -> float:
    """Squared residual ``||X − model||²`` of a unit-scale model, from products
    a solver already holds: ``||X||² − 2⟨X, model⟩ + 1ᵀ(⊛ grams)1``.

    ``grams`` are the factors' Gram matrices ``U.T @ U``: the four tensor
    factors of a CP model, or ``F`` and ``G`` of a matrix model ``F Gᵀ``.
    This is the fit identity of Kolda & Bader (SIAM Review, 2009), as in the
    Tensor Toolbox ``cp_als``.  It is a difference of totals, so it keeps
    fewer digits than :func:`residual_norm` when the residual is small
    against ``||X||``; the result is clamped at zero.
    """
    model_sq = float(np.sum(hadamard(grams, grams[0].shape[0])))
    return max(norm_sq - 2.0 * inner + model_sq, 0.0)


def residual_norm(X: SparseTensor4, factors, norms) -> float:
    """Frobenius norm of (tensor - model) over the full index space, with the
    model evaluated at every nonzero."""
    factors = _check_factors(X, factors)
    norms = np.asarray(norms, dtype=np.float64)
    rows = [gather_rows(U, X.indices[:, m]) for m, U in enumerate(factors)]
    model_sq = float(norms @ hadamard([U.T @ U for U in factors], norms.shape[0]) @ norms)
    total_cells = int(np.prod(np.asarray(X.dims, dtype=np.int64)))
    return float(np.sqrt(_split_sq_residual(
        X.values, model_from_rows(rows, norms), model_sq, X.nnz == total_cells
    )))


def model_from_rows(rows, norms) -> np.ndarray:
    """Model values at the nonzeros from the four factors' gathered rows."""
    product = rows[0] * rows[1]
    product *= rows[2]
    product *= rows[3]
    return norms @ product
