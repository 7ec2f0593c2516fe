"""Regularized alternating least squares on the sparse evidence tensor."""

import numpy as np
import pytest

from qaexpert.coupled import AlsConfig, CpModel, cp_als, fit_metric, tensor_objective
from qaexpert.errors import ContractViolation, SolverDiverged
from qaexpert.hierarchy import TreePenalty, tree_from_nested
from qaexpert.sparse_tensor import SparseTensor4, reconstruct_entry, residual_norm

from conftest import dense_model, random_factors, random_sparse


def test_config_validation():
    with pytest.raises(ContractViolation):
        AlsConfig(rank=0)
    with pytest.raises(ContractViolation):
        AlsConfig(rank=2, max_iters=0)
    with pytest.raises(ContractViolation):
        AlsConfig(rank=2, lambda_x=-0.1)
    with pytest.raises(ContractViolation):
        AlsConfig(rank=2, tolerance=-1e-6)


class TestTensorObjective:
    def test_zero_tensor_zero_factors(self):
        X = SparseTensor4((2, 2, 2, 2), entries=[])
        model = CpModel([np.zeros((2, 1)) for _ in range(4)], np.zeros(1))
        assert tensor_objective(X, model, 0.7) == 0.0

    def test_exact_rank_one_fit_no_ridge(self):
        rng = np.random.default_rng(2)
        gen = [rng.random((d, 1)) + 0.3 for d in (3, 2, 2, 4)]
        X = SparseTensor4.from_dense(dense_model(gen, np.ones(1)))
        norms = np.array([float(np.prod([np.linalg.norm(U) for U in gen]))])
        unit = [U / np.linalg.norm(U) for U in gen]
        model = CpModel(unit, norms)
        assert tensor_objective(X, model, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        X = random_sparse(rng, (3, 4, 2, 3))
        factors = random_factors(rng, X.dims, 2)
        unit, scale = [], np.ones(2)
        for U in factors:
            col = np.linalg.norm(U, axis=0)
            unit.append(U / col)
            scale = scale * col
        model = CpModel(unit, scale)
        lam = 0.4
        res = residual_norm(X, model.factors, model.norms)
        ridge = sum(
            np.sum(B * B) for B in model.balanced_factors()
        )
        assert tensor_objective(X, model, lam) == pytest.approx(
            0.5 * res**2 + 0.5 * lam * ridge, rel=1e-12
        )


class TestFitMetric:
    def test_exact_reconstruction(self):
        rng = np.random.default_rng(4)
        gen = [rng.random((d, 1)) + 0.3 for d in (3, 2, 2, 4)]
        X = SparseTensor4.from_dense(dense_model(gen, np.ones(1)))
        norms = np.array([float(np.prod([np.linalg.norm(U) for U in gen]))])
        model = CpModel([U / np.linalg.norm(U) for U in gen], norms)
        assert fit_metric(X, model) == pytest.approx(1.0, abs=1e-9)

    def test_zero_factors_nonzero_tensor(self):
        X = SparseTensor4((2, 2, 2, 2), entries=[(0, 0, 0, 0, 2.0)])
        model = CpModel([np.zeros((2, 1)) for _ in range(4)], np.zeros(1))
        assert fit_metric(X, model) == 0.0

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(6)
        X = random_sparse(rng, (3, 3, 2, 3))
        factors = random_factors(rng, X.dims, 2)
        model = CpModel(factors, np.ones(2))
        want = 1.0 - residual_norm(X, factors, np.ones(2)) / X.norm()
        assert fit_metric(X, model) == pytest.approx(want, rel=1e-12)


class TestCpAls:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(21)
        gen = [rng.random((d, 1)) + 0.1 for d in (4, 3, 2, 5)]
        X = SparseTensor4.from_dense(dense_model(gen, np.ones(1)))
        model = cp_als(X, AlsConfig(rank=1, lambda_x=0.0, seed=0))
        assert fit_metric(X, model) >= 0.999999

    def test_zero_tensor_gives_zero_model(self):
        X = SparseTensor4((3, 2, 2, 3), entries=[])
        model = cp_als(X, AlsConfig(rank=2, lambda_x=0.5, seed=1))
        assert all(not U.any() for U in model.factors)
        assert not model.norms.any()
        assert model.fit_history[-1] == 0.0

    def test_rank_three_seeds_agree_at_convergence(self):
        # Multi-seed harness: three inits land on objectives within 1%.
        rng = np.random.default_rng(1)
        gen = [rng.random((d, 3)) + 0.2 for d in (4, 3, 3, 5)]
        X = SparseTensor4.from_dense(dense_model(gen, np.ones(3)))
        finals = []
        for seed in (1, 2, 3):
            model = cp_als(X, AlsConfig(
                rank=3, lambda_x=0.1, seed=seed, max_iters=500, tolerance=1e-9,
            ))
            finals.append(model.fit_history[-1])
        assert (max(finals) - min(finals)) / min(finals) <= 0.01

    def test_history_non_increasing_with_ridge(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            dims = tuple(int(rng.integers(2, 5)) for _ in range(4))
            X = random_sparse(rng, dims, density=0.5)
            cfg = AlsConfig(
                rank=int(rng.integers(1, 3)),
                lambda_x=float(rng.random() + 0.05),
                seed=int(rng.integers(1000)),
                max_iters=15,
            )
            model = cp_als(X, cfg)
            hist = model.fit_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_stops_at_first_sweep_below_relative_tolerance(self):
        rng = np.random.default_rng(61)
        X = random_sparse(rng, (4, 3, 3, 4), density=0.5)
        full = cp_als(X, AlsConfig(rank=2, lambda_x=0.1, seed=3, max_iters=40, tolerance=0.0))
        hist = full.fit_history
        assert len(hist) == 40
        # The relative improvement dips below 3e-3 at sweep 5, then rises
        # above it again before falling for good.
        tol = 3e-3
        stop = next(i for i in range(1, 40) if hist[i - 1] - hist[i] < tol * abs(hist[i - 1]))
        assert 1 < stop < 39
        model = cp_als(X, AlsConfig(rank=2, lambda_x=0.1, seed=3, max_iters=40, tolerance=tol))
        assert model.fit_history == hist[:stop + 1]

    def test_final_history_value_equals_objective(self):
        rng = np.random.default_rng(5)
        X = random_sparse(rng, (4, 3, 3, 4), density=0.5)
        model = cp_als(X, AlsConfig(rank=2, lambda_x=0.3, seed=7))
        assert model.fit_history[-1] == pytest.approx(
            tensor_objective(X, model, 0.3), rel=1e-12
        )

    def test_columns_unit_norm_or_dead(self):
        rng = np.random.default_rng(41)
        X = random_sparse(rng, (4, 3, 3, 4), density=0.5)
        model = cp_als(X, AlsConfig(rank=3, lambda_x=0.2, seed=3, max_iters=20))
        for U in model.factors:
            col = np.linalg.norm(U, axis=0)
            for r in range(model.rank):
                assert col[r] == pytest.approx(1.0, abs=1e-12) or col[r] == 0.0

    def test_reconstruction_consistency(self):
        rng = np.random.default_rng(43)
        X = random_sparse(rng, (3, 3, 2, 3), density=0.6)
        model = cp_als(X, AlsConfig(rank=2, lambda_x=0.1, seed=5, max_iters=10))
        balanced = model.balanced_factors()
        for idx in X.indices[:10]:
            direct = sum(
                float(np.prod([balanced[m][idx[m], r] for m in range(4)]))
                for r in range(model.rank)
            )
            assert reconstruct_entry(model.factors, model.norms, tuple(idx)) == pytest.approx(
                direct, rel=1e-10, abs=1e-12
            )

    def test_rank_above_dimension_warns_but_stays_finite(self):
        rng = np.random.default_rng(47)
        X = random_sparse(rng, (2, 2, 2, 2), density=0.8)
        with pytest.warns(RuntimeWarning, match="rank 4 exceeds"):
            model = cp_als(X, AlsConfig(rank=4, lambda_x=0.0, seed=0, max_iters=10))
        assert all(np.isfinite(U).all() for U in model.factors)
        assert np.isfinite(model.norms).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_solver_error(self):
        X = SparseTensor4(
            (2, 2, 2, 2), entries=[(0, 0, 0, 0, 1e200), (1, 1, 1, 1, 1e200)]
        )
        with pytest.raises(SolverDiverged):
            cp_als(X, AlsConfig(rank=2, lambda_x=0.1, seed=0, max_iters=5))

    def test_tree_penalty_row_count_checked(self):
        rng = np.random.default_rng(51)
        X = random_sparse(rng, (4, 3, 2, 3), density=0.5)
        penalty = TreePenalty(tree_from_nested([[[0, 1], [2]]]), lambda_w=0.5)
        with pytest.raises(ContractViolation):
            cp_als(X, AlsConfig(rank=2, seed=0), tree_penalty=penalty)

    def test_tree_penalty_monotone_and_shrinks_question_rows(self):
        rng = np.random.default_rng(53)
        X = random_sparse(rng, (4, 3, 2, 3), density=0.6)
        tree = tree_from_nested([[[0, 1], [2, 3]]])
        small = cp_als(
            X, AlsConfig(rank=2, lambda_x=0.1, seed=2, max_iters=25),
            tree_penalty=TreePenalty(tree, lambda_w=1e-4),
        )
        big = cp_als(
            X, AlsConfig(rank=2, lambda_x=0.1, seed=2, max_iters=25),
            tree_penalty=TreePenalty(tree, lambda_w=1e4),
        )
        for model in (small, big):
            hist = model.fit_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        norm_small = np.linalg.norm(small.balanced_factors()[0])
        norm_big = np.linalg.norm(big.balanced_factors()[0])
        assert norm_big < norm_small
