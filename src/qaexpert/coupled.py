"""Tree-regularized CP factorization, alone or coupled with two membership matrices.

One block coordinate descent engine fits both models.  :func:`fit_joint`
factorizes the evidence tensor jointly with the subsite×answerer matrix M
and the topic×answerer matrix N: they share the answerer factor A, and
the subsite factor S is pulled toward the average question-factor row of
each subsite's question group.  :func:`cp_als` sweeps the four tensor
modes alone, with an optional hierarchy penalty on the question mode.
All blocks have closed-form ridge updates, so every sweep decreases the
objective monotonically.  :func:`_ridge_solve` holds the ridge policy of
every block but the question block, whose per-row ridge weights and
subsite coupling are both diagonal in the eigenbasis of its Gram matrix.

Without a hierarchy penalty, :func:`cp_als` ends each sweep by
rebalancing the component scales evenly across modes.  For the plain
ridge objective that rebalancing is itself a descent step (it minimizes
the ridge over the scale-equivalent models), so the recorded history
stays non-increasing.  With a penalty the factors are kept raw during
the iteration and the per-row ridge weights absorb the penalty exactly.

M and N are :class:`MembershipMatrix` pairs, kept in the canonical COO
order of :mod:`.sparse_tensor`, whose bounds check and ``_canonicalize``
pass serve them as they serve the tensor's coordinates.  Zeros in M and N
are observed zeros: the losses are full-matrix Frobenius norms, evaluated
without densifying via the Gram identity
``||F G^T||^2 = trace((F^T F)(G^T G))``.

The engine scores each loss term from products its updates already form,
by ``||X − model||² = ||X||² − 2⟨X, model⟩ + ||model||²``.  ⟨X, model⟩ is
⟨K, U⟩ for the MTTKRP K that a tensor-mode update solved against and its
solution U (for the question block, K before the subsite shift), and
||model||² comes from the cached Gram matrices.  For the membership
losses ||M||² = nnz, as M and N are binary, and ⟨M, S Aᵀ⟩ is read off
``M @ A`` (subsite update) or ``Mᵀ @ S`` (answerer update); likewise
⟨N, T Aᵀ⟩.  Each ridge is half its lambda times the traces of the Gram
matrices.  A difference of totals loses digits when the residual is
small against the data, so a term is clamped at zero.  The tests check
the engine against direct evaluations of every term, which live in
``tests/model_oracles.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, SolverDiverged
from .hierarchy import HierarchyTree, TreePenalty, _check_finite_nonnegative, weight_penalty
# ``mttkrp``, ``gram_hadamard`` and ``residual_norm`` are not called here,
# nor are ``networks_objective`` and ``topic_objective`` below; all five stay
# in this namespace because bench/spans.py wraps them by these names.
from .sparse_tensor import (
    SparseTensor4, _canonicalize, _check_bounds, _split_sq_residual, fiber_sums, gather_rows,
    gram_hadamard, hadamard, mttkrp, mttkrp_from_fibers, residual_norm, scatter_rows,
    sq_residual_from_inner,
)

__all__ = [
    "AlsConfig",
    "CpModel",
    "cp_als",
    "MembershipMatrix",
    "JointConfig",
    "JointModel",
    "networks_objective",
    "topic_objective",
    "fit_joint",
]


@dataclass(frozen=True)
class AlsConfig:
    """Solver settings for :func:`cp_als`.

    ``tolerance`` is relative objective improvement: the loop stops after
    the first sweep that lowers the objective by less than
    ``tolerance * |previous objective|``.
    """

    rank: int
    max_iters: int = 200
    tolerance: float = 1e-6
    lambda_x: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ContractViolation("rank must be >= 1")
        if self.max_iters < 1:
            raise ContractViolation("max_iters must be >= 1")
        for name in ("tolerance", "lambda_x"):
            _check_finite_nonnegative(self, name)


@dataclass
class CpModel:
    """Fitted CP model: unit-column factors, component scales, objective trace.

    ``factors[m][:, r]`` has unit Euclidean norm (zero for dead components)
    and ``norms[r]`` carries the component's full scale, so the model value
    at a cell is ``sum_r norms[r] * prod_m factors[m][i_m, r]``.
    """

    factors: list[np.ndarray]
    norms: np.ndarray
    fit_history: list[float] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return int(self.norms.shape[0])

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(U.shape[0] for U in self.factors)

    def balanced_factors(self) -> list[np.ndarray]:
        """Factors with each component's scale spread evenly over the modes."""
        spread = self.norms ** 0.25
        return [U * spread for U in self.factors]


def _normalize_columns(factors):
    """Pull column norms out of the factors; dead components become all-zero."""
    norms_per_mode = np.stack([np.linalg.norm(U, axis=0) for U in factors])
    lam = np.prod(norms_per_mode, axis=0)
    out = []
    for U, col_norms in zip(factors, norms_per_mode):
        scale = np.divide(1.0, col_norms, out=np.zeros_like(col_norms), where=col_norms > 0)
        out.append(U * scale)
    dead = lam == 0
    if np.any(dead):
        for U in out:
            U[:, dead] = 0.0
    return out, lam


def _ridge_solve(V, rhs, reg):
    """Solve ``rows @ (V + reg*I) = rhs``; pseudo-inverse when unregularized
    or singular.  Every update but the question block's comes here."""
    if reg > 0:
        A = V + reg * np.eye(V.shape[0])
        try:
            return np.linalg.solve(A, rhs.T).T
        except np.linalg.LinAlgError:
            pass
    else:
        A = V
    return rhs @ np.linalg.pinv(A, hermitian=True)


@dataclass(frozen=True)
class MembershipMatrix:
    """Binary sparse matrix: entry (r, c) is 1 when the pair was observed.

    Duplicate pairs collapse to a single entry (presence, not counts), and
    the pairs are kept in (row, col) order, the canonical order of
    :class:`.sparse_tensor.SparseTensor4`; pairs that come in strictly
    increasing order, as a saved snapshot's do, are not sorted.  ``indices``
    is a read-only copy, never the caller's array.
    """

    rows: int
    cols: int
    indices: np.ndarray

    def __init__(self, rows: int, cols: int, pairs):
        if rows < 0 or cols < 0:
            raise ContractViolation("matrix dimensions must be nonnegative")
        idx = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        _check_bounds(idx, (rows, cols), "membership pair out of bounds")
        idx, _ = _canonicalize(idx, np.ones(len(idx)))
        idx.setflags(write=False)
        object.__setattr__(self, "rows", int(rows))
        object.__setattr__(self, "cols", int(cols))
        object.__setattr__(self, "indices", idx)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def matmul(self, F: np.ndarray) -> np.ndarray:
        """Dense product ``M @ F`` accumulated over the stored pairs."""
        F = np.atleast_2d(np.asarray(F, dtype=np.float64))
        if F.shape[0] != self.cols:
            raise ContractViolation(f"operand has {F.shape[0]} rows, need {self.cols}")
        return scatter_rows(self.indices[:, 0], gather_rows(F, self.indices[:, 1]), self.rows)

    def tmatmul(self, F: np.ndarray) -> np.ndarray:
        """Dense product ``M.T @ F``."""
        F = np.atleast_2d(np.asarray(F, dtype=np.float64))
        if F.shape[0] != self.rows:
            raise ContractViolation(f"operand has {F.shape[0]} rows, need {self.rows}")
        return scatter_rows(self.indices[:, 1], gather_rows(F, self.indices[:, 0]), self.cols)


def _half_sq_frobenius(M: MembershipMatrix, F: np.ndarray, G: np.ndarray) -> float:
    """Half of ||M - F G^T||_F^2 over the full (dense) index space."""
    pred = np.sum(F[M.indices[:, 0]] * G[M.indices[:, 1]], axis=1)
    total_energy = float(np.sum((F.T @ F) * (G.T @ G)))
    return 0.5 * _split_sq_residual(1.0, pred, total_energy, M.nnz == M.rows * M.cols)


def _inner(F: np.ndarray, G: np.ndarray) -> float:
    """Frobenius inner product ``sum(F * G)``."""
    return float(np.sum(F * G))


def _check_pair_shapes(F, G, M, f_name, m_name):
    if F.ndim != 2 or G.ndim != 2 or F.shape[1] != G.shape[1]:
        raise ContractViolation(f"{f_name} and answerer factor must share the rank")
    if F.shape[0] != M.rows or G.shape[0] != M.cols:
        raise ContractViolation(
            f"{f_name} {F.shape} and answerer factor {G.shape} do not match "
            f"{m_name} with shape ({M.rows}, {M.cols})"
        )


def networks_objective(S: np.ndarray, A: np.ndarray, M: MembershipMatrix, lambda_s: float) -> float:
    """Subsite-membership loss: ½||M − SAᵀ||² + (λ_s/2)(||S||² + ||A||²)."""
    S = np.asarray(S, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    _check_pair_shapes(S, A, M, "subsite factor", "subsite membership")
    ridge = float(np.sum(S * S) + np.sum(A * A))
    return _half_sq_frobenius(M, S, A) + 0.5 * lambda_s * ridge


def topic_objective(T: np.ndarray, A: np.ndarray, N: MembershipMatrix, lambda_t: float) -> float:
    """Topic-membership loss: ½||N − TAᵀ||² + (λ_t/2)(||T||² + ||A||²)."""
    T = np.asarray(T, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    _check_pair_shapes(T, A, N, "topic factor", "topic membership")
    ridge = float(np.sum(T * T) + np.sum(A * A))
    return _half_sq_frobenius(N, T, A) + 0.5 * lambda_t * ridge


@dataclass(frozen=True)
class JointConfig(AlsConfig):
    """Settings for :func:`fit_joint`; the shared fields mean what they do in
    :class:`AlsConfig`.

    ``lambda_site`` weights the subsite-to-question-mean coupling.  Left
    as None it is set to ``lambda_s`` on construction, matching the shared
    symbol in the objective, so every reader finds a number there.
    """

    max_iters: int = 100
    lambda_w: float = 0.1
    lambda_s: float = 0.1
    lambda_t: float = 0.1
    lambda_site: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.lambda_site is None:
            object.__setattr__(self, "lambda_site", self.lambda_s)
        for name in ("lambda_w", "lambda_s", "lambda_t", "lambda_site"):
            _check_finite_nonnegative(self, name)


@dataclass
class JointModel:
    """Fitted joint model: CP part plus subsite, answerer, and topic factors.

    ``objective_history`` holds the joint objective after every full block
    sweep; ``block_history`` holds (block name, objective) after each
    individual block update.  Both are evaluated on the raw iterates; the
    stored factors are canonicalized afterwards, with S, A, T re-solved
    once against the canonical question factor.  ``config`` is the
    :class:`JointConfig` the fit ran with.
    """

    cp: CpModel
    S: np.ndarray
    A: np.ndarray
    T: np.ndarray
    config: JointConfig
    objective_history: list[float] = field(default_factory=list)
    block_history: list[tuple[str, float]] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return self.cp.rank


# The blocks of one joint sweep, in update order; the first four are the
# tensor modes.  ``balance`` rescales all four tensor factors at once.
BLOCKS = ("question", "topic", "voting", "expert", "subsite", "answerer", "topicfactor")
_TENSOR_BLOCKS = BLOCKS[:4]

# The objective terms in summation order, each with the blocks it reads.
# A sweep carries the terms whose blocks it all runs; ``balance`` rescales
# every tensor factor and so stales every term.
_TERM_BLOCKS = {
    "tensor": frozenset(_TENSOR_BLOCKS),
    "tree": frozenset({"question"}),
    "network": frozenset({"subsite", "answerer"}),
    "topic": frozenset({"answerer", "topicfactor"}),
    "site": frozenset({"question", "subsite"}),
}


class _Descent:
    """Working iterate of the block coordinate descent: raw factors and updates.

    A configuration is its block list: :func:`fit_joint` sweeps
    :data:`BLOCKS`, :func:`cp_als` the tensor modes (plus ``balance``
    without a penalty).  Each :meth:`update` is the exact minimizer of the
    objective in its block.  The objective terms are cached and each is
    recomputed only after a block it reads moves; :meth:`objective` sums
    them in a fixed order.  Every update assigns fresh arrays, so a
    sweep's arrays can be kept by reference.  Each question row's ridge
    weight and subsite group are fixed at construction.

    The three loss terms are read from products the updates form, not
    from the model at the nonzeros (see the module docstring).  ``inner``
    holds each term's ⟨data, model⟩: the tensor's from the MTTKRP of the
    last tensor-mode update (``balance`` only rescales, so it carries
    over), the membership terms' from ``M @ A``, ``Mᵀ @ S``, ``Nᵀ @ T``
    or ``N @ A`` of the update that moved them, seeded once at
    construction.  The totals agree with the direct evaluations to
    rounding, except when a residual is tiny against its data, where the
    difference of totals cancels and is clamped at zero.

    The MTTKRPs run over the tensor's (i, j, k) fibers (see
    :mod:`.sparse_tensor`).  For each of the question, topic and band
    factors the engine keeps its rows gathered at the fibers in
    component-major layout, ``(R, fibers)``.  The expert factor is gathered
    at the nonzeros and kept only as its fiber sums ``Y``, which the
    question, topic and voting MTTKRPs all reuse; the expert MTTKRP reads
    the three fiber rows.  Each factor also keeps its Gram matrix
    ``U.T @ U``.  A factor is gathered once per update that moves it, and
    ``Y`` is formed once per update that moves the expert factor: a tensor
    block refreshes its own factor, ``balance`` all four.  Every MTTKRP and
    Gram-Hadamard reads the cache, and the tensor loss reads the Grams.
    """

    S = A = T = None
    lam_site = 0.0

    def __init__(self, X, config, blocks, penalty=None, M=None, N=None, groups=()):
        self.X, self.M, self.N = X, M, N
        self.config = config
        self.blocks = blocks
        self.penalty = penalty
        rng = np.random.default_rng(config.seed)
        R = config.rank
        self.factors = [rng.random((d, R)) for d in X.dims]
        self.mu = None
        self.data_sq = {"tensor": float(np.dot(X.values, X.values))}
        self.inner = {"tensor": None}  # set by every tensor-mode update
        if M is not None:
            self.S = rng.random((M.rows, R))
            self.A = rng.random((M.cols, R))
            self.T = rng.random((N.rows, R))
            self.lam_site = config.lambda_site
            self.data_sq.update(network=float(M.nnz), topic=float(N.nnz))
            self.inner.update(
                network=_inner(self.S, M.matmul(self.A)), topic=_inner(self.T, N.matmul(self.A))
            )
        self.rows, self.grams = [None] * 3, [None] * 4
        for mode in range(4):
            self._refresh(mode)
        self.terms = {
            name: None for name, reads in _TERM_BLOCKS.items()
            if reads <= set(blocks) and (name != "tree" or penalty is not None)
        }

        tree_regs = 0.0 if penalty is None else penalty.lambda_w * penalty.row_weights
        self.row_regs = np.full(X.dims[0], config.lambda_x) + tree_regs
        self.site = np.zeros(X.dims[0], dtype=np.int64)
        for j, rows in enumerate(groups):
            self.site[rows] = j
        self.sizes = np.array([len(rows) for rows in groups], dtype=np.float64)[:, None]

    def update(self, block: str):
        """Replace one block by its exact minimizer and mark stale terms."""
        cfg, factors = self.config, self.factors
        A, lam_site = self.A, self.lam_site
        if block == "question":
            K = self._mttkrp(0)
            factors[0] = self._solve_question_block(K, self._gram_hadamard(0))
            self._refresh(0)
            self.inner["tensor"] = _inner(K, factors[0])
            self.mu = self._group_sums(factors[0]) / self.sizes
        elif block == "balance":
            self.factors = CpModel(*_normalize_columns(factors)).balanced_factors()
            for mode in range(4):
                self._refresh(mode)
        elif block == "subsite":
            MA = self.M.matmul(A)
            self.S = _ridge_solve(A.T @ A, MA + lam_site * self.mu, cfg.lambda_s + lam_site)
            self.inner["network"] = _inner(self.S, MA)
        elif block == "answerer":
            S, T = self.S, self.T
            MS, NT = self.M.tmatmul(S), self.N.tmatmul(T)
            self.A = _ridge_solve(S.T @ S + T.T @ T, MS + NT, cfg.lambda_s + cfg.lambda_t)
            self.inner["network"], self.inner["topic"] = _inner(self.A, MS), _inner(self.A, NT)
        elif block == "topicfactor":
            NA = self.N.matmul(A)
            self.T = _ridge_solve(A.T @ A, NA, cfg.lambda_t)
            self.inner["topic"] = _inner(self.T, NA)
        else:
            mode = BLOCKS.index(block)  # topic, voting or expert tensor mode
            K = self._mttkrp(mode)
            factors[mode] = _ridge_solve(self._gram_hadamard(mode), K, cfg.lambda_x)
            self._refresh(mode)
            self.inner["tensor"] = _inner(K, factors[mode])
        for name in self.terms:
            if block in _TERM_BLOCKS[name] or block == "balance":
                self.terms[name] = None

    def _refresh(self, mode: int):
        """Re-gather one tensor factor's rows, at the fibers for modes 0-2 and
        as the fiber sums ``Y`` for the expert mode, and its Gram."""
        U, fib = self.factors[mode], self.X.fibers
        if mode < 3:
            self.rows[mode] = gather_rows(U, fib.coords[mode])
        else:
            self.sums = fiber_sums(self.X, gather_rows(U, fib.expert))
        self.grams[mode] = U.T @ U

    def _mttkrp(self, mode: int) -> np.ndarray:
        return mttkrp_from_fibers(self.X, self.rows, self.sums, mode)

    def _gram_hadamard(self, mode: int) -> np.ndarray:
        return hadamard([G for m, G in enumerate(self.grams) if m != mode], self.config.rank)

    def _group_sums(self, F: np.ndarray) -> np.ndarray:
        """Per-subsite sums of the rows of ``F``: one pass over the row-to-group
        index, adding each group's rows in ascending order, as a loop over the
        groups of ``tree.level_groups(1)`` does (the tests' ``group_means``).
        Without groups (``cp_als``, or a tree whose root is its only leaf)
        every row's index is 0, and each component's one-cell count
        broadcasts into the empty ``(0, R)`` sums."""
        return scatter_rows(self.site, F.T, len(self.sizes))

    def objective(self) -> float:
        """Objective of the working iterate, from the cached terms."""
        value = 0.0  # adding each nonnegative term to 0.0 leaves it exact
        for name, term in self.terms.items():
            if term is None:
                term = self.terms[name] = self._term(name)
            value += term
        return value

    def _term(self, name: str) -> float:
        cfg = self.config
        if name == "tree":
            return weight_penalty(self.factors[0], self.penalty)
        if name == "site":
            return 0.5 * self.lam_site * float(np.sum((self.S - self.mu) ** 2))
        if name == "tensor":
            grams, lam = self.grams, cfg.lambda_x
        else:
            F, lam = (self.S, cfg.lambda_s) if name == "network" else (self.T, cfg.lambda_t)
            grams = [F.T @ F, self.A.T @ self.A]
        sq = sq_residual_from_inner(self.data_sq[name], self.inner[name], grams)
        return 0.5 * sq + 0.5 * lam * sum(float(np.trace(G)) for G in grams)

    def _solve_question_block(self, rhs, V):
        """Exact minimizer of the objective over all question rows.

        Row l of subsite group j, of n rows, satisfies
        ``row_l (V + reg_l I) + c Σ_{l' in j} row_{l'} = rhs_l + (lam_site/n) S_j
        =: B_l`` with ``c = lam_site/n²``.  With ``V = Q diag(w) Qᵀ`` the
        system is diagonal in the rotated rows ``y_l = row_l Q``: with the
        elementwise ``inv_l = 1/(w + reg_l)``, ``y_l = (B_l Q − c·t) inv_l``,
        where the group total ``t = Σ_l (B_l Q) inv_l / (1 + c Σ_l inv_l)``.
        Like ``pinv``, ``inv_l`` is 0 where ``|w + reg_l|`` is at most 1e-15
        times the row's largest.  Without the coupling (``cp_als``, or
        ``lam_site = 0``) c is 0 and every row is solved on its own.
        """
        w, Q = np.linalg.eigh(V)
        d = w + self.row_regs[:, None]
        # w ascends, so a row's largest |d| is at one of its ends.
        cut = 1e-15 * np.maximum(np.abs(d[:, :1]), np.abs(d[:, -1:]))
        inv = np.divide(1.0, d, out=np.zeros_like(d), where=np.abs(d) > cut)
        BQ = rhs @ Q
        if self.lam_site and len(self.sizes):
            n = self.sizes
            c, shift = self.lam_site / n**2, (self.lam_site / n) * self.S @ Q
            inv_sum = self._group_sums(inv)
            t = (self._group_sums(BQ * inv) + shift * inv_sum) / (1 + c * inv_sum)
            BQ += (shift - c * t)[self.site]
        return (BQ * inv) @ Q.T

    def descend(self, as_model):
        """Sweep the blocks until the stop rule holds; return both histories.

        The loop stops after the first sweep whose relative objective
        improvement falls below ``config.tolerance``, or after
        ``config.max_iters`` sweeps.  On a non-finite objective, or a
        ``LinAlgError`` from a decomposition of non-finite factors, it
        raises :class:`SolverDiverged` carrying
        ``as_model(factors, S, A, T, history, block_history)`` of the last
        finite sweep, or ``None`` when the first sweep diverged.
        """
        cfg = self.config
        history: list[float] = []
        block_history: list[tuple[str, float]] = []
        last = prev = None
        for _ in range(cfg.max_iters):
            try:
                for block in self.blocks:
                    self.update(block)
                    block_history.append((block, self.objective()))
                value = block_history[-1][1]
            except np.linalg.LinAlgError:
                value = np.nan
            if not np.isfinite(value):
                raise SolverDiverged(
                    "objective became non-finite",
                    last_state=None if last is None else as_model(
                        *last, history, block_history[:len(history) * len(self.blocks)]
                    ),
                )
            history.append(value)
            last = (list(self.factors), self.S, self.A, self.T)
            if prev is not None and (prev - value) < cfg.tolerance * max(abs(prev), 1e-300):
                break
            prev = value
        return history, block_history


def cp_als(
    X: SparseTensor4,
    config: AlsConfig,
    tree_penalty: TreePenalty | None = None,
) -> CpModel:
    """Fit a rank-``config.rank`` CP model to a sparse 4-mode tensor.

    Parameters
    ----------
    X : SparseTensor4
    config : AlsConfig
    tree_penalty : TreePenalty, optional
        Hierarchy-weighted squared-norm penalty on the question-mode rows.
        Its leaves must index exactly the mode-0 rows of ``X``.

    Returns
    -------
    CpModel
        Unit-column factors with scales in ``norms``; ``fit_history`` holds
        the objective after every sweep (the tree term included when a
        penalty is attached).

    Raises
    ------
    SolverDiverged
        If the objective turns non-finite; the last finite model is
        attached to the exception.
    """
    if tree_penalty is not None and tree_penalty.tree.n_rows != X.dims[0]:
        raise ContractViolation(
            f"penalty covers {tree_penalty.tree.n_rows} rows, tensor mode 0 has {X.dims[0]}"
        )
    if config.rank > min(X.dims):
        warnings.warn(
            f"rank {config.rank} exceeds the smallest tensor dimension {min(X.dims)}; "
            "components cannot all be independent",
            RuntimeWarning,
            stacklevel=2,
        )

    blocks = _TENSOR_BLOCKS if tree_penalty is not None else (*_TENSOR_BLOCKS, "balance")
    state = _Descent(X, config, blocks, tree_penalty)
    history, _ = state.descend(
        lambda factors, S, A, T, history, block_history:
            CpModel(*_normalize_columns(factors), history)
    )
    return CpModel(*_normalize_columns(state.factors), history)


def fit_joint(
    X: SparseTensor4,
    M: MembershipMatrix,
    N: MembershipMatrix,
    tree: HierarchyTree,
    config: JointConfig,
) -> JointModel:
    """Fit the coupled model by block coordinate descent.

    Block order per sweep: question, topic, voting, expert tensor modes,
    then subsite factor S, shared answerer factor A, topic factor T.
    Every update is the exact minimizer of the joint objective in its
    block, so the recorded histories are non-increasing.  The loop stops
    once relative objective improvement falls below ``config.tolerance``
    or after ``config.max_iters`` sweeps.

    Raises
    ------
    SolverDiverged
        If the objective turns non-finite; carries the last finite model
        (pre-canonicalization) as ``last_state``.
    """
    groups = tree.level_groups(1)
    if tree.n_rows != X.dims[0]:
        raise ContractViolation(f"tree covers {tree.n_rows} rows, tensor mode 0 has {X.dims[0]}")
    if N.rows != X.dims[1]:
        raise ContractViolation(f"topic membership has {N.rows} rows, tensor mode 1 has {X.dims[1]}")
    if M.cols != X.dims[3] or N.cols != X.dims[3]:
        raise ContractViolation("membership columns must match the expert mode size")
    if M.rows != len(groups):
        raise ContractViolation(
            f"subsite membership has {M.rows} rows but the tree has {len(groups)} subsite groups"
        )

    R = config.rank

    if X.nnz == 0 and M.nnz == 0 and N.nnz == 0:
        # The zero model is a global minimizer: every term is nonnegative
        # and each vanishes there.
        cp = CpModel([np.zeros((d, R)) for d in X.dims], np.zeros(R))
        zero = np.zeros
        return JointModel(
            cp, zero((M.rows, R)), zero((M.cols, R)), zero((N.rows, R)),
            config, [0.0], [],
        )

    def as_model(factors, S, A, T, history, block_history):
        cp = CpModel(*_normalize_columns(factors))
        return JointModel(cp, S, A, T, config, history, block_history)

    state = _Descent(X, config, BLOCKS, TreePenalty(tree, config.lambda_w), M, N, groups)
    history, blocks = state.descend(as_model)

    # Canonicalize: unit-column factors with scales in norms, then re-solve
    # S, A, T once against the balanced question factor so the stored model
    # is internally consistent under the joint objective evaluated term by
    # term on its balanced factors.
    cp = CpModel(*_normalize_columns(state.factors))
    state.mu = state._group_sums(cp.balanced_factors()[0]) / state.sizes
    for block in ("subsite", "answerer", "topicfactor"):
        state.update(block)
    return JointModel(cp, state.S, state.A, state.T, config, history, blocks)
