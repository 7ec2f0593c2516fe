"""Sparse 4th-order tensor storage and the multilinear kernels used by ALS.

A tensor is stored in coordinate (COO) form: an ``(nnz, 4)`` integer index
array plus an ``(nnz,)`` value array, lexicographically sorted with
duplicate coordinates summed at construction.  The same canonical order,
from the same bounds check and ``_canonicalize`` pass, serves
``coupled.MembershipMatrix``'s ``(nnz, 2)`` pairs.  Factor matrices are plain
``(dim, rank)`` float64 ndarrays; kernels never materialize a dense tensor
or a dense unfolding.

Every integer table in the package orders its rows, given as columns,
by three primitives that take any int64 values: ``lex_order`` (the
stable sort), ``row_changes`` (where runs of equal rows start) and
``row_increases`` (strict lexicographic order).  ``distinct`` is the
sorted set of one column, one sort and one ``row_changes``.

The MTTKRP kernel works on compressed sparse fibers (Smith & Karypis,
SPLATT, 2015).  A fiber is one run of nonzeros that share their question,
topic and band coordinates ``(i, j, k)``; in the canonical order each run
is contiguous, and :attr:`SparseTensor4.fibers` finds the runs once per
tensor.  Factor rows are gathered in component-major layout,
``gather_rows(U, index)`` being an ``(R, len(index))`` array, so each
component is one contiguous row for the elementwise products and for the
one ``np.bincount`` per component that scatters an MTTKRP.  The three
leading factors are gathered at the fibers, the expert factor at the
nonzeros, and ``fiber_sums`` folds the expert rows into one row per fiber,
``Y[f] = Σ_{nz ∈ f} x · D[l]``.  The modes 0-2 MTTKRPs then each take two
products at fiber level and one scatter; the expert MTTKRP spreads the
fiber product ``A[i]⊙B[j]⊙C[k]`` back to the nonzeros, weighs it by the
values and scatters it by answerer.  ``mttkrp_from_fibers`` takes such rows
from a caller that keeps them across updates, as ``coupled._Descent``
does; ``mttkrp`` is the one-shot wrapper that gathers them first.
``residual_norm`` evaluates the model at every nonzero; a solver that
already holds an MTTKRP and its solution reads the residual off them with
``sq_residual_from_inner`` instead.

Khatri-Rao convention: in ``khatri_rao(A, B)`` the rows of ``A`` vary
slowly, the rows of ``B`` vary fast, i.e. entry ``(p * B_rows + q, r)``
equals ``A[p, r] * B[q, r]``.  Chains are built highest mode leftmost, so
the lowest mode varies fastest, matching a Fortran-order unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        _check_bounds(idx, dims, "tensor index out of range")
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

    @cached_property
    def fibers(self) -> "Fibers":
        """The tensor's (i, j, k) fibers, found on first use."""
        idx = self.indices
        new = row_changes(idx.T[:3])
        starts = np.flatnonzero(new)
        return Fibers(
            coords=tuple(np.ascontiguousarray(idx[starts, m]) for m in range(3)),
            of_nz=np.cumsum(new) - 1,
            expert=np.ascontiguousarray(idx[:, 3]),
        )


@dataclass(frozen=True)
class Fibers:
    """Compressed sparse fibers of a canonical tensor.

    A fiber is a maximal run of nonzeros with one ``(i, j, k)`` prefix; the
    canonical order keeps each run contiguous.  ``coords[m]`` holds every
    fiber's mode-``m`` coordinate (m < 3), ``of_nz`` each nonzero's fiber,
    and ``expert`` each nonzero's mode-3 coordinate.
    """

    coords: tuple[np.ndarray, np.ndarray, np.ndarray]
    of_nz: np.ndarray
    expert: np.ndarray

    @property
    def count(self) -> int:
        return self.coords[0].shape[0]


def _check_bounds(idx, dims, message):
    """A `ContractViolation` with ``message`` unless every column c of the
    2-d ``idx`` lies in ``[0, dims[c])``."""
    for column, d in zip(idx.T, dims):
        if len(column) and (column.min() < 0 or column.max() >= d):
            raise ContractViolation(message)


def lex_order(columns) -> np.ndarray:
    """The stable order that sorts the rows of ``columns``, first column
    most significant: one ``np.argsort`` of the mixed-radix key whose
    digits are the columns less their minima and, last, the row position,
    so every key is distinct.  Where that key could pass int64, as for a
    whole Stack Overflow tensor, ``np.lexsort`` sorts the columns."""
    n = len(columns[0])
    low = [int(column.min()) if n else 0 for column in columns]
    radix = [int(column.max()) - lo + 1 if n else 1 for column, lo in zip(columns, low)]
    if np.prod(radix + [n], dtype=object) > np.iinfo(np.int64).max:
        return np.lexsort(columns[::-1])
    key = np.subtract(columns[0], low[0], dtype=np.int64)
    for column, lo, base in zip(columns[1:], low[1:], radix[1:]):
        key *= base
        key += column  # may wrap; less ``lo``, the digit is back in range
        key -= lo
    key *= n
    key += np.arange(n)
    return np.argsort(key)


def row_changes(columns) -> np.ndarray:
    """Whether each row of ``columns`` differs from the row above it; True
    for the first row, so the True rows start the runs of equal rows."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def distinct(values) -> np.ndarray:
    """The distinct entries of the 1-d ``values``, ascending, by one
    ``np.sort`` and one run split.  NumPy's own ``unique`` gives the same
    but imports ``numpy.ma`` on first use, which no stage needs."""
    values = np.sort(values)
    return values[row_changes((values,))]


def row_increases(columns) -> np.ndarray:
    """Whether each row of ``columns`` is lexicographically above the one
    before, per step: ``(a > b) | ((a == b) & later)`` from the last column."""
    *head, last = columns
    later = last[1:] > last[:-1]
    for column in reversed(head):
        a, b = column[1:], column[:-1]
        later = (a > b) | ((a == b) & later)
    return later


def _canonicalize(idx, val):
    """The rows of the 2-d ``idx``, of any width, sorted lexicographically,
    with the ``val`` of duplicate rows summed and rows whose sum is zero
    dropped.  Rows already in strictly increasing order skip the sort and
    the merge, and are copied only to drop a zero or to make them
    contiguous."""
    if idx.shape[0] == 0:
        return idx, val
    if row_increases(idx.T).all():
        if val.all():
            return np.ascontiguousarray(idx), np.ascontiguousarray(val)
        keep = val != 0
        return idx[keep], val[keep]
    order = lex_order(idx.T)
    idx, val = idx[order], val[order]
    starts = np.flatnonzero(row_changes(idx.T))
    merged = np.add.reduceat(val, starts)
    keep = merged != 0
    return idx[starts[keep]], merged[keep]


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
    chain of the remaining factors (highest mode leftmost), computed over
    the tensor's fibers without ever forming the unfolding.
    """
    factors = _check_factors(X, factors)
    if not 0 <= mode < 4:
        raise ContractViolation(f"mode {mode} out of range")
    fib = X.fibers
    rows = [None if m == mode else gather_rows(U, fib.coords[m]) for m, U in enumerate(factors[:3])]
    sums = None if mode == 3 else fiber_sums(X, gather_rows(factors[3], fib.expert))
    return mttkrp_from_fibers(X, rows, sums, mode)


def fiber_sums(X: SparseTensor4, expert_rows) -> np.ndarray:
    """``Y[:, f] = Σ_{nz ∈ f} x_nz · expert_rows[:, nz]``, an ``(R, fibers)``
    array, from the expert factor's rows gathered at the nonzeros."""
    fib = X.fibers
    out = np.empty((expert_rows.shape[0], fib.count))
    _bincount_rows(out, fib.of_nz, X.values * expert_rows)
    return out


def mttkrp_from_fibers(X: SparseTensor4, rows, sums, mode: int) -> np.ndarray:
    """MTTKRP from factor rows gathered at the fibers.

    ``rows[m]`` is ``gather_rows(factors[m], X.fibers.coords[m])`` for
    every ``m < 3`` other than ``mode``.  For modes 0-2, ``sums`` is
    ``fiber_sums`` of the expert factor's rows: the mode's MTTKRP scatters
    the product of the two other fiber rows, in mode order, times ``sums``.
    For mode 3 ``sums`` is unused: the product of the three fiber rows is
    taken at the nonzeros, weighed by the values and scattered by answerer.
    """
    fib = X.fibers
    if mode == 3:
        fiber_product = rows[0] * rows[1]
        fiber_product *= rows[2]
        weighted = np.take(fiber_product, fib.of_nz, axis=1)
        weighted *= X.values
        return scatter_rows(fib.expert, weighted, X.dims[3])
    first, second = (rows[m] for m in range(3) if m != mode)
    weighted = first * second
    weighted *= sums
    return scatter_rows(fib.coords[mode], weighted, X.dims[mode])


def scatter_rows(index, rows, dim: int) -> np.ndarray:
    """``out[index[k]] += rows[:, k]`` for every k, into a ``(dim, R)`` zero array.

    ``rows`` is component-major, ``(R, len(index))``.  One ``np.bincount``
    per component row; each output cell adds its terms in input order, so
    the result equals ``np.add.at`` bit for bit.
    """
    out = np.empty((dim, rows.shape[0]))
    _bincount_rows(out.T, np.ascontiguousarray(index), rows)
    return out


def _bincount_rows(out, index, rows):
    """``out[r] = bincount(index, weights=rows[r])`` for each component row r."""
    for r, row in enumerate(rows):
        out[r] = np.bincount(index, weights=row, minlength=out.shape[1])


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
