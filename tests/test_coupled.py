"""Coupled membership factorization and the joint block-descent solver."""

from types import SimpleNamespace

import numpy as np
import pytest

from qaexpert import coupled, sparse_tensor
from qaexpert.coupled import (
    BLOCKS,
    AlsConfig,
    CpModel,
    JointConfig,
    JointModel,
    MembershipMatrix,
    cp_als,
    fit_joint,
    networks_objective,
    topic_objective,
    _normalize_columns,
    _Descent,
)
from qaexpert.errors import ContractViolation, SolverDiverged
from qaexpert.hierarchy import TreePenalty, weight_penalty
from qaexpert.ingest import build_inputs, merge_datasets, parse_dump
from qaexpert.sparse_tensor import (
    SparseTensor4, gram_hadamard, mttkrp, residual_norm,
)
from qaexpert.synthetic import make_corpus

from conftest import COO_KINDS, coo_input, dense_model, make_micro_joint, random_sparse
from model_oracles import (
    group_means,
    joint_objective,
    site_regularizer,
    tensor_from_dense,
    tensor_from_entries,
    tensor_objective,
    to_dense,
    tree_from_nested,
)


class TestMembershipMatrix:
    def test_duplicate_pairs_collapse(self):
        M = MembershipMatrix(2, 3, [(0, 1), (0, 1), (1, 2)])
        assert M.nnz == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            MembershipMatrix(2, 3, [(2, 0)])
        with pytest.raises(ContractViolation):
            MembershipMatrix(2, 3, [(0, -1)])

    def test_to_dense_is_binary(self):
        M = MembershipMatrix(2, 3, [(0, 0), (1, 2)])
        expected = np.array([[1.0, 0, 0], [0, 0, 1.0]])
        np.testing.assert_array_equal(to_dense(M), expected)

    def test_matmul_and_tmatmul_match_dense(self):
        rng = np.random.default_rng(5)
        pairs = [(r, c) for r in range(3) for c in range(4) if rng.random() < 0.5]
        M = MembershipMatrix(3, 4, pairs)
        F = rng.standard_normal((4, 2))
        G = rng.standard_normal((3, 2))
        np.testing.assert_allclose(M.matmul(F), to_dense(M) @ F, atol=1e-12)
        np.testing.assert_allclose(M.tmatmul(G), to_dense(M).T @ G, atol=1e-12)

    @pytest.mark.parametrize("kind", COO_KINDS)
    def test_both_paths_give_identical_pairs(self, kind, monkeypatch):
        idx, _ = coo_input(kind, np.random.default_rng(COO_KINDS.index(kind)), dims=(5, 7))
        fast = MembershipMatrix(5, 7, idx)
        monkeypatch.setattr(sparse_tensor, "row_increases", lambda columns: np.zeros(1, bool))
        sorted_path = MembershipMatrix(5, 7, idx)
        a, b = fast.indices, sorted_path.indices
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()

    def test_canonical_pairs_are_not_sorted_and_not_aliased(self, monkeypatch):
        idx, _ = coo_input("sorted", np.random.default_rng(9), dims=(5, 7))

        def no_sort(*args, **kwargs):
            raise AssertionError("canonical pairs were sorted")

        monkeypatch.setattr(sparse_tensor, "lex_order", no_sort)
        M = MembershipMatrix(5, 7, idx)
        assert M.nnz == len(idx)
        assert not np.shares_memory(M.indices, idx)
        assert idx.flags.writeable

    @pytest.mark.parametrize("pairs", [[(0, 1), (1, 0), (1, 1)], []])
    def test_products_keep_empty_trailing_rows_and_cols(self, pairs):
        # Rows 2-3 and columns 2-4 hold no pair (or nothing is stored), so
        # both products end in rows that no pair touches.
        rng = np.random.default_rng(6)
        M = MembershipMatrix(4, 5, pairs)
        F = rng.standard_normal((5, 2))
        G = rng.standard_normal((4, 2))
        np.testing.assert_allclose(M.matmul(F), to_dense(M) @ F, atol=1e-12)
        np.testing.assert_allclose(M.tmatmul(G), to_dense(M).T @ G, atol=1e-12)
        assert M.matmul(F).shape == (4, 2) and M.tmatmul(G).shape == (5, 2)


class TestMembershipObjectives:
    def test_exact_product_no_ridge_is_zero(self):
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        M = MembershipMatrix(2, 3, [(0, 0), (0, 2), (1, 1)])
        assert networks_objective(S, A, M, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_factors_give_half_nnz(self):
        M = MembershipMatrix(2, 3, [(0, 0), (1, 1), (1, 2)])
        S = np.zeros((2, 2))
        A = np.zeros((3, 2))
        assert networks_objective(S, A, M, 0.0) == pytest.approx(1.5)
        N = MembershipMatrix(2, 3, [(0, 1)])
        assert topic_objective(S, A, N, 0.0) == pytest.approx(0.5)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(9)
        pairs = [(r, c) for r in range(3) for c in range(5) if rng.random() < 0.4]
        M = MembershipMatrix(3, 5, pairs)
        S = rng.standard_normal((3, 2))
        A = rng.standard_normal((5, 2))
        lam = 0.3
        want = 0.5 * np.linalg.norm(to_dense(M) - S @ A.T) ** 2
        want += 0.5 * lam * (np.sum(S * S) + np.sum(A * A))
        assert networks_objective(S, A, M, lam) == pytest.approx(want, rel=1e-12)
        assert topic_objective(S, A, M, lam) == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        M = MembershipMatrix(2, 3, [(0, 0)])
        with pytest.raises(ContractViolation):
            networks_objective(np.zeros((3, 2)), np.zeros((3, 2)), M, 0.1)
        with pytest.raises(ContractViolation):
            topic_objective(np.zeros((2, 2)), np.zeros((4, 2)), M, 0.1)


class TestSiteRegularizer:
    def test_group_means_layout(self):
        tree = tree_from_nested([[0, 1], [2]])
        U1 = np.array([[2.0, 0.0], [4.0, 2.0], [1.0, 1.0]])
        mu = group_means(U1, tree)
        np.testing.assert_allclose(mu, [[3.0, 1.0], [1.0, 1.0]])

    def test_zero_at_exact_means(self):
        tree = tree_from_nested([[0, 1], [2]])
        U1 = np.arange(6.0).reshape(3, 2)
        S = group_means(U1, tree)
        assert site_regularizer(S, U1, tree, 5.0) == 0.0

    def test_single_question_single_subsite(self):
        tree = tree_from_nested([[0]])
        U1 = np.array([[1.5, -2.0]])
        assert site_regularizer(U1.copy(), U1, tree, 1.0) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(13)
        tree = tree_from_nested([[0, 1, 2], [3, 4]])
        U1 = rng.standard_normal((5, 3))
        S = rng.standard_normal((2, 3))
        lam = 0.7
        mu = np.stack([U1[:3].mean(axis=0), U1[3:].mean(axis=0)])
        want = 0.5 * lam * np.sum((S - mu) ** 2)
        assert site_regularizer(S, U1, tree, lam) == pytest.approx(want, rel=1e-12)

    def test_no_subsite_level_rejected(self):
        tree = tree_from_nested(0)
        with pytest.raises(ContractViolation):
            site_regularizer(np.zeros((1, 2)), np.zeros((1, 2)), tree, 1.0)

    def test_shape_mismatch_rejected(self):
        tree = tree_from_nested([[0, 1], [2]])
        with pytest.raises(ContractViolation):
            site_regularizer(np.zeros((3, 2)), np.zeros((3, 2)), tree, 1.0)


def _zero_model(dims, R, m_rows, n_rows, lam=0.1):
    cp = CpModel([np.zeros((d, R)) for d in dims], np.zeros(R))
    lambdas = {
        "lambda_x": lam, "lambda_w": lam, "lambda_s": lam,
        "lambda_t": lam, "lambda_site": lam,
    }
    return JointModel(
        cp, np.zeros((m_rows, R)), np.zeros((dims[3], R)), np.zeros((n_rows, R)),
        lambdas,
    )


class TestJointObjective:
    def test_everything_zero(self):
        dims = (4, 2, 2, 3)
        X = tensor_from_entries(dims, [])
        M = MembershipMatrix(2, 3, [])
        N = MembershipMatrix(2, 3, [])
        tree = tree_from_nested([[0, 1], [2, 3]])
        model = _zero_model(dims, 2, 2, 2)
        assert joint_objective(X, M, N, model, TreePenalty(tree, 0.1)) == 0.0

    def test_equals_sum_of_components(self):
        rng = np.random.default_rng(21)
        dims = (4, 3, 2, 3)
        X = random_sparse(rng, dims, density=0.5)
        M = MembershipMatrix(2, 3, [(0, 0), (1, 1), (1, 2)])
        N = MembershipMatrix(3, 3, [(0, 0), (2, 2)])
        tree = tree_from_nested([[0, 1], [2, 3]])
        penalty = TreePenalty(tree, 0.25)
        factors = [rng.random((d, 2)) for d in dims]
        normalized, norms = _normalize_columns(factors)
        cp = CpModel(normalized, norms)
        lambdas = {
            "lambda_x": 0.1, "lambda_w": 0.25, "lambda_s": 0.3,
            "lambda_t": 0.4, "lambda_site": 0.5,
        }
        model = JointModel(
            cp, rng.random((2, 2)), rng.random((3, 2)), rng.random((3, 2)), lambdas,
        )
        balanced = cp.balanced_factors()
        parts = (
            tensor_objective(X, cp, lambdas["lambda_x"])
            + weight_penalty(balanced[0], penalty)
            + networks_objective(model.S, model.A, M, lambdas["lambda_s"])
            + topic_objective(model.T, model.A, N, lambdas["lambda_t"])
            + site_regularizer(model.S, balanced[0], tree, lambdas["lambda_site"])
        )
        assert joint_objective(X, M, N, model, penalty) == parts

    def test_single_component_isolation(self):
        # Zeroing everything except one data input leaves exactly that
        # component's own objective.
        dims = (2, 2, 2, 2)
        tree = tree_from_nested([[0], [1]])
        penalty = TreePenalty(tree, 0.0)
        model = _zero_model(dims, 2, 2, 2, lam=0.0)
        X = tensor_from_entries(dims, [(0, 0, 0, 0, 2.0)])
        empty = MembershipMatrix(2, 2, [])
        got = joint_objective(X, empty, empty, model, penalty)
        assert got == tensor_objective(X, model.cp, 0.0)
        M = MembershipMatrix(2, 2, [(0, 0), (1, 1)])
        zero_x = tensor_from_entries(dims, [])
        got = joint_objective(zero_x, M, empty, model, penalty)
        assert got == networks_objective(model.S, model.A, M, 0.0)


class TestJointConfig:
    def test_lambda_site_defaults_to_lambda_s(self):
        cfg = JointConfig(rank=2, lambda_s=0.7)
        assert cfg.lambda_site == 0.7
        cfg = JointConfig(rank=2, lambda_s=0.7, lambda_site=0.01)
        assert cfg.lambda_site == 0.01
        assert not hasattr(cfg, "effective_lambda_site")

    def test_validation(self):
        with pytest.raises(ContractViolation):
            JointConfig(rank=0)
        with pytest.raises(ContractViolation):
            JointConfig(rank=2, lambda_w=-1.0)
        with pytest.raises(ContractViolation):
            JointConfig(rank=2, lambda_site=-0.5)
        with pytest.raises(ContractViolation):
            JointConfig(rank=2, tolerance=-1e-9)

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["tolerance", "lambda_x", "lambda_w", "lambda_s", "lambda_t", "lambda_site"]
    )
    def test_fields_must_be_finite_and_nonnegative(self, name, value):
        with pytest.raises(ContractViolation, match=f"^{name} must be finite and >= 0$"):
            JointConfig(rank=2, **{name: value})


class TestFitJoint:
    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        X, M, N, tree = make_micro_joint(rng)
        cfg = JointConfig(rank=2, max_iters=2)
        bad_tree = tree_from_nested([[0, 1], [2]])
        with pytest.raises(ContractViolation):
            fit_joint(X, M, N, bad_tree, cfg)
        with pytest.raises(ContractViolation):
            fit_joint(X, MembershipMatrix(3, M.cols, []), N, tree, cfg)
        with pytest.raises(ContractViolation):
            fit_joint(X, M, MembershipMatrix(N.rows + 1, N.cols, []), tree, cfg)
        with pytest.raises(ContractViolation):
            fit_joint(X, MembershipMatrix(M.rows, M.cols + 1, []), N, tree, cfg)

    def test_zero_inputs_give_zero_model(self):
        dims = (4, 2, 2, 3)
        X = tensor_from_entries(dims, [])
        M = MembershipMatrix(2, 3, [])
        N = MembershipMatrix(2, 3, [])
        tree = tree_from_nested([[0, 1], [2, 3]])
        model = fit_joint(X, M, N, tree, JointConfig(rank=2, seed=5))
        assert not model.cp.norms.any()
        assert not model.S.any() and not model.A.any() and not model.T.any()
        assert model.objective_history == [0.0]

    def test_sweep_history_non_increasing(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            X, M, N, tree = make_micro_joint(rng)
            model = fit_joint(X, M, N, tree, JointConfig(rank=2, max_iters=25, seed=seed))
            hist = model.objective_history
            assert all(b <= a + 1e-8 for a, b in zip(hist, hist[1:]))

    def test_block_history_non_increasing(self):
        rng = np.random.default_rng(37)
        X, M, N, tree = make_micro_joint(rng)
        model = fit_joint(X, M, N, tree, JointConfig(rank=2, max_iters=20, seed=1))
        values = [v for _, v in model.block_history]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))
        names = [name for name, _ in model.block_history[:7]]
        assert names == [
            "question", "topic", "voting", "expert", "subsite", "answerer", "topicfactor",
        ]

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(41)
        X, M, N, tree = make_micro_joint(rng)
        cfg = JointConfig(rank=2, max_iters=15, seed=9)
        a = fit_joint(X, M, N, tree, cfg)
        b = fit_joint(X, M, N, tree, cfg)
        assert a.objective_history == b.objective_history
        for U, W in zip(a.cp.factors, b.cp.factors):
            np.testing.assert_array_equal(U, W)
        np.testing.assert_array_equal(a.S, b.S)

    def test_planted_instance_recovered_within_five_percent(self):
        # All data exactly consistent with known binary-structured factors;
        # the solver must land near the planted objective value.
        rng = np.random.default_rng(7)
        I, J, K, L, R = 6, 3, 3, 4, 2
        U1 = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        T = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        gen = [U1, rng.random((J, R)) + 0.2, rng.random((K, R)) + 0.2,
               rng.random((L, R)) + 0.2]
        X = tensor_from_dense(dense_model(gen, np.ones(R)))
        tree = tree_from_nested([[list(range(3))], [list(range(3, 6))]])
        M = MembershipMatrix(2, L, [(0, 0), (0, 1), (1, 2), (1, 3)])
        N = MembershipMatrix(J, L, [
            (0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3),
        ])
        np.testing.assert_array_equal(to_dense(M), S @ A.T)
        np.testing.assert_array_equal(to_dense(N), T @ A.T)

        lam = 0.05
        normalized, norms = _normalize_columns([U.copy() for U in gen])
        lambdas = {
            "lambda_x": lam, "lambda_w": lam, "lambda_s": lam,
            "lambda_t": lam, "lambda_site": lam,
        }
        planted = JointModel(CpModel(normalized, norms), S, A, T, lambdas)
        planted_value = joint_objective(X, M, N, planted, TreePenalty(tree, lam))
        for seed in (0, 2):
            cfg = JointConfig(
                rank=R, max_iters=500, tolerance=1e-12, seed=seed,
                lambda_x=lam, lambda_w=lam, lambda_s=lam, lambda_t=lam,
            )
            fitted = fit_joint(X, M, N, tree, cfg).objective_history[-1]
            assert abs(fitted - planted_value) <= 0.05 * planted_value

    def test_strong_coupling_pulls_subsites_to_group_means(self):
        rng = np.random.default_rng(3)
        X, M, N, tree = make_micro_joint(rng)
        cfg = JointConfig(rank=2, max_iters=200, lambda_site=1e6, seed=0)
        model = fit_joint(X, M, N, tree, cfg)
        mu = group_means(model.cp.balanced_factors()[0], tree)
        assert np.abs(model.S - mu).max() <= 1e-3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_solver_error(self):
        X = tensor_from_entries(
            (2, 2, 2, 2), [(0, 0, 0, 0, 1e200), (1, 1, 1, 1, 1e200)]
        )
        M = MembershipMatrix(2, 2, [(0, 0)])
        N = MembershipMatrix(2, 2, [(0, 1)])
        tree = tree_from_nested([[0], [1]])
        with pytest.raises(SolverDiverged):
            fit_joint(X, M, N, tree, JointConfig(rank=2, max_iters=5, seed=0))

    def test_final_objective_matches_stored_model(self):
        # The re-solved stored model cannot be worse than the last raw sweep
        # by more than canonicalization slack, and joint_objective on it is
        # reproducible from its own pieces.
        rng = np.random.default_rng(43)
        X, M, N, tree = make_micro_joint(rng)
        cfg = JointConfig(rank=2, max_iters=30, seed=4)
        model = fit_joint(X, M, N, tree, cfg)
        penalty = TreePenalty(tree, cfg.lambda_w)
        stored = joint_objective(X, M, N, model, penalty)
        assert stored <= model.objective_history[-1] * (1 + 1e-6) + 1e-9


class TestObjectiveTermCache:
    def test_cached_total_equals_fresh_sum_after_every_block(self):
        # fit_joint's configuration, then cp_als's: the tensor modes with the
        # tree penalty, or else with the closing balance block.
        for solver in ("fit_joint", "cp_als_tree", "cp_als_balance"):
            rng = np.random.default_rng(47)
            for trial in range(20):
                X, M, N, tree = make_micro_joint(rng)
                lam = [float(v) for v in rng.random(5) + 0.01]
                if solver == "fit_joint":
                    cfg = JointConfig(
                        rank=2, seed=trial, lambda_x=lam[0], lambda_w=lam[1],
                        lambda_s=lam[2], lambda_t=lam[3], lambda_site=lam[4],
                    )
                    penalty = TreePenalty(tree, cfg.lambda_w)
                    groups = tree.level_groups(1)
                    state = _Descent(X, cfg, BLOCKS, penalty, M, N, groups)
                else:
                    cfg = AlsConfig(rank=2, seed=trial, lambda_x=lam[0])
                    penalty = TreePenalty(tree, lam[1]) if solver == "cp_als_tree" else None
                    blocks = BLOCKS[:4] if penalty is not None else (*BLOCKS[:4], "balance")
                    state = _Descent(X, cfg, blocks, penalty)
                for block in state.blocks * 2:
                    state.update(block)
                    f, S, A, T = state.factors, state.S, state.A, state.T
                    res = residual_norm(X, f, np.ones(2))
                    fresh = 0.5 * res * res
                    fresh += 0.5 * cfg.lambda_x * sum(float(np.sum(U * U)) for U in f)
                    if penalty is not None:
                        fresh += weight_penalty(f[0], penalty)
                    if solver == "fit_joint":
                        fresh += networks_objective(S, A, M, cfg.lambda_s)
                        fresh += topic_objective(T, A, N, cfg.lambda_t)
                        fresh += site_regularizer(S, f[0], tree, cfg.lambda_site)
                    # The engine reads its loss terms off a difference of
                    # totals, so it rounds apart from the direct sum; the
                    # worst relative gap seen here is about 1.1e-15.
                    assert state.objective() == pytest.approx(fresh, rel=1e-12, abs=0), (
                        solver, trial, block)

    def test_each_term_evaluated_once_per_block_that_moves_it(self, monkeypatch):
        terms = {"tensor": 0, "network": 0, "topic": 0}

        def counted(self, name, _fn=_Descent._term):
            if name in terms:
                terms[name] += 1
            return _fn(self, name)

        monkeypatch.setattr(_Descent, "_term", counted)
        # No loss term is evaluated directly, with the model at the nonzeros.
        direct = {"residual_norm": 0, "networks_objective": 0, "topic_objective": 0}
        for name in direct:
            def counted_direct(*args, _fn=getattr(coupled, name), _name=name):
                direct[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(coupled, name, counted_direct)
        X, M, N, tree = make_micro_joint(np.random.default_rng(53))
        fit_joint(X, M, N, tree, JointConfig(rank=2, max_iters=3, tolerance=0.0))
        # Four tensor blocks per sweep; each membership loss once at the
        # start and after its two blocks in every sweep.
        assert terms == {"tensor": 12, "network": 7, "topic": 7}
        assert direct == {"residual_norm": 0, "networks_objective": 0, "topic_objective": 0}

    @pytest.mark.parametrize("solver, per_sweep", [
        ("fit_joint", 4), ("cp_als_tree", 4), ("cp_als_balance", 8),
    ])
    def test_each_factor_gathered_once_per_update_that_moves_it(self, monkeypatch, solver, per_sweep):
        # per_sweep counts the factor updates of a sweep: one per tensor
        # block, and four more for a balance block.
        X, M, N, tree = make_micro_joint(np.random.default_rng(53))
        kinds = {X.fibers.count: "fiber", X.nnz: "nonzero"}
        assert len({*kinds, M.nnz, N.nnz}) == 4
        gathers = {"fiber": 0, "nonzero": 0, "sums": 0}

        def counted(U, index, _fn=coupled.gather_rows):
            if len(index) in kinds:  # a tensor factor, not a membership product
                gathers[kinds[len(index)]] += 1
            return _fn(U, index)

        def counted_sums(X, rows, _fn=coupled.fiber_sums):
            gathers["sums"] += 1
            return _fn(X, rows)

        monkeypatch.setattr(coupled, "gather_rows", counted)
        monkeypatch.setattr(coupled, "fiber_sums", counted_sums)
        if solver == "fit_joint":
            fit_joint(X, M, N, tree, JointConfig(rank=2, max_iters=3, tolerance=0.0))
        else:
            penalty = TreePenalty(tree, 0.1) if solver == "cp_als_tree" else None
            cp_als(X, AlsConfig(rank=2, max_iters=3, tolerance=0.0), penalty)
        # Each factor once at the start, then once per update that moves it:
        # modes 0-2 at the fibers; the expert factor at the nonzeros, summed
        # into one Y per update.
        expert_moves = 1 + 3 * per_sweep // 4
        assert gathers == {"fiber": 3 * expert_moves, "nonzero": expert_moves,
                           "sums": expert_moves}


def _corpus_joint(tmp_path):
    """A small planted-expert corpus, ingested into a joint-fit instance."""
    make_corpus(str(tmp_path), seed=1)
    sites = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    data = merge_datasets([
        parse_dump(*(str(tmp_path / name / f) for f in ("Posts.xml", "Votes.xml", "Users.xml")),
                   subsite_name=name)
        for name in sites
    ])
    inputs = build_inputs(data)
    return inputs.tensor, inputs.site_matrix, inputs.topic_matrix, inputs.tree


def _as_stored(state, cfg):
    """The joint working iterate as a stored model: raw factors at unit
    scales, so ``joint_objective`` evaluates exactly what the engine holds."""
    cp = CpModel(list(state.factors), np.ones(cfg.rank))
    lambdas = {"lambda_x": cfg.lambda_x, "lambda_w": cfg.lambda_w, "lambda_s": cfg.lambda_s,
               "lambda_t": cfg.lambda_t, "lambda_site": cfg.lambda_site}
    return JointModel(cp, state.S, state.A, state.T, lambdas)


class TestFitIdentity:
    """The engine's loss terms, read off the products each update forms,
    against the direct evaluations with the model at the nonzeros."""

    @pytest.mark.parametrize("instance", ["micro", "corpus"])
    def test_block_history_matches_joint_objective(self, tmp_path, instance):
        if instance == "micro":
            rng = np.random.default_rng(71)
            cases = [make_micro_joint(rng) for _ in range(5)]
            cfg = JointConfig(rank=2, max_iters=6, tolerance=0.0, seed=2)
        else:
            cases = [_corpus_joint(tmp_path)]
            cfg = JointConfig(rank=4, max_iters=6, tolerance=0.0, seed=0, lambda_x=0.01,
                              lambda_w=0.01, lambda_s=0.01, lambda_t=0.01)
        for X, M, N, tree in cases:
            model = fit_joint(X, M, N, tree, cfg)
            assert len(model.block_history) == 6 * len(BLOCKS)
            penalty = TreePenalty(tree, cfg.lambda_w)
            # A replay of the fit holds each raw iterate the history scored.
            state = _Descent(X, cfg, BLOCKS, penalty, M, N, tree.level_groups(1))
            for block, value in model.block_history:
                state.update(block)
                assert state.objective() == value
                direct = joint_objective(X, M, N, _as_stored(state, cfg), penalty)
                assert value == pytest.approx(direct, rel=1e-12, abs=0), block

    def test_cp_als_with_balance_matches_tensor_objective(self):
        rng = np.random.default_rng(73)
        for trial in range(5):
            X = make_micro_joint(rng)[0]
            lambda_x = float(rng.random()) + 0.01
            for sweeps in range(1, 6):
                cfg = AlsConfig(rank=2, max_iters=sweeps, tolerance=0.0, lambda_x=lambda_x,
                                seed=trial)
                model = cp_als(X, cfg)
                # The last block is balance, so the stored model's balanced
                # factors are the raw iterate the history scored.
                direct = tensor_objective(X, model, lambda_x)
                assert model.fit_history[-1] == pytest.approx(direct, rel=1e-12, abs=0)

    def test_near_exact_fit_stays_nonnegative_and_monotone(self):
        # A dense planted rank-2 tensor, fitted at rank 2 without a ridge:
        # the residual ends far below ||X||, where ||X||² − 2⟨X, model⟩ +
        # ||model||² cancels almost every digit.
        rng = np.random.default_rng(3)
        dims = (6, 5, 4, 5)
        planted = [rng.random((d, 2)) ** 3 for d in dims]
        X = tensor_from_dense(100.0 * np.einsum("ir,jr,kr,lr->ijkl", *planted))
        norm_sq = X.norm() ** 2
        state = _Descent(X, AlsConfig(rank=2, seed=0, lambda_x=0.0), (*BLOCKS[:4], "balance"))
        values = []
        for block in state.blocks * 100:
            state.update(block)
            values.append(state.objective())
            assert state.terms["tensor"] >= 0.0
            res = residual_norm(X, state.factors, np.ones(2))
            assert abs(state.terms["tensor"] - 0.5 * res * res) <= 1e-12 * norm_sq
        assert residual_norm(X, state.factors, np.ones(2)) <= 1e-8 * X.norm()
        assert max(b - a for a, b in zip(values, values[1:])) <= 1e-8


def _micro_descent(solver, rng, trial):
    """A micro instance and a fresh engine in one of the three configurations."""
    X, M, N, tree = make_micro_joint(rng)
    lam = [float(v) for v in rng.random(5) + 0.01]
    if solver == "fit_joint":
        cfg = JointConfig(
            rank=2, seed=trial, lambda_x=lam[0], lambda_w=lam[1],
            lambda_s=lam[2], lambda_t=lam[3], lambda_site=lam[4],
        )
        groups = tree.level_groups(1)
        return X, _Descent(X, cfg, BLOCKS, TreePenalty(tree, cfg.lambda_w), M, N, groups)
    cfg = AlsConfig(rank=2, seed=trial, lambda_x=lam[0])
    if solver == "cp_als_tree":
        return X, _Descent(X, cfg, BLOCKS[:4], TreePenalty(tree, lam[1]))
    return X, _Descent(X, cfg, (*BLOCKS[:4], "balance"))


class TestFactorRowCache:
    @pytest.mark.parametrize("solver", ["fit_joint", "cp_als_tree", "cp_als_balance"])
    def test_cache_equals_fresh_kernels_after_every_update(self, solver):
        rng = np.random.default_rng(61)
        for trial in range(10):
            X, state = _micro_descent(solver, rng, trial)
            prefixes, fiber_of = np.unique(X.indices[:, :3], axis=0, return_inverse=True)
            for block in state.blocks * 2:
                state.update(block)
                f = state.factors
                for mode in range(4):
                    np.testing.assert_array_equal(state._mttkrp(mode), mttkrp(X, f, mode))
                for m in range(3):
                    np.testing.assert_array_equal(state.rows[m], f[m][prefixes[:, m]].T)
                # Y adds each fiber's terms in nonzero order, as np.add.at does.
                sums = np.zeros((len(prefixes), 2))
                np.add.at(sums, fiber_of.ravel(), X.values[:, None] * f[3][X.indices[:, 3]])
                np.testing.assert_array_equal(state.sums, sums.T)
                for U, G in zip(f, state.grams):
                    np.testing.assert_array_equal(G, U.T @ U)


def _dense_question_solve(V, rhs, regs, groups, lam_site, S):
    """Rows u of the stationarity system, solved as one dense (I·R)² system:
    ``u_l (V + reg_l I) + (lam_site/n²) Σ_G u = rhs_l + (lam_site/n) S_j``."""
    I, R = rhs.shape
    K = np.zeros((I, R, I, R))
    b = rhs.copy()
    for l in range(I):
        K[l, :, l, :] = V.T + regs[l] * np.eye(R)
    for j, rows in enumerate(groups):
        n = len(rows)
        for l in rows:
            b[l] += (lam_site / n) * S[j]
            for m in rows:
                K[l, :, m, :] += (lam_site / n**2) * np.eye(R)
    return np.linalg.solve(K.reshape(I * R, I * R), b.reshape(-1)).reshape(I, R)


class TestQuestionBlockOracle:
    # Subsite groups {0, 1, 2} and {3, 4, 5, 6} with leaves at depths 2 to 4.
    NESTED = [[0, [1, 2]], [[3], 4, [5, [6]]]]

    @pytest.mark.parametrize("weights", ["tree", "distinct", "per_row"])
    @pytest.mark.parametrize("solver, lambda_x, lambda_w, lambda_site", [
        ("fit_joint", 0.3, 0.2, 0.0),
        ("fit_joint", 0.3, 0.2, 0.7),
        ("fit_joint", 0.3, 0.2, 50.0),
        ("fit_joint", 0.0, 0.0, 0.7),
        ("cp_als", 0.3, 0.2, None),
        ("cp_als", 0.0, 0.0, None),
    ])
    def test_update_matches_dense_stationarity_solve(
        self, weights, solver, lambda_x, lambda_w, lambda_site
    ):
        rng = np.random.default_rng(61)
        sg = {level: (s, 1.0 - s) for level, s in enumerate(rng.random(4))}
        tree = tree_from_nested(self.NESTED, sg_by_level=sg)
        penalty = TreePenalty(tree, lambda_w)
        if weights != "tree":
            # Row weights off the s + g = 1 identity: each subsite group
            # mixes rows of equal and of different ridge weights, or every
            # row has a weight of its own.
            row_weights = {"distinct": [0.5, 2.0, 0.5, 1.0, 3.0, 1.0, 0.25],
                           "per_row": [0.5, 2.0, 0.75, 1.0, 3.0, 1.5, 0.25]}[weights]
            penalty = SimpleNamespace(lambda_w=lambda_w, row_weights=np.array(row_weights))
        X = random_sparse(rng, (7, 3, 2, 4), density=0.5)
        R, L = 3, 4
        M = MembershipMatrix(2, L, [(x, z) for x in range(2) for z in range(L)])
        N = MembershipMatrix(3, L, [(y, z) for y in range(3) for z in range(L)])
        groups = tree.level_groups(1)
        if solver == "fit_joint":
            cfg = JointConfig(rank=R, seed=3, lambda_x=lambda_x, lambda_w=lambda_w,
                              lambda_site=lambda_site)
            state = _Descent(X, cfg, BLOCKS, penalty, M, N, groups)
        else:
            cfg = AlsConfig(rank=R, seed=3, lambda_x=lambda_x)
            state = _Descent(X, cfg, BLOCKS[:4], penalty)
            groups, lambda_site = [], 0.0
        V = gram_hadamard(state.factors, 0)
        rhs = mttkrp(X, state.factors, 0)
        regs = lambda_x + lambda_w * penalty.row_weights
        expected = _dense_question_solve(V, rhs, regs, groups, lambda_site, state.S)
        state.update("question")
        err = np.max(np.abs(state.factors[0] - expected)) / np.max(np.abs(expected))
        assert err < 1e-12

    def test_group_sums_match_the_per_group_loop_bit_for_bit(self):
        # Interleaved groups: one pass over the row-to-group index adds each
        # group's rows in the order of the per-group fancy-index sum.
        rng = np.random.default_rng(79)
        tree = tree_from_nested([[0, 3, [5, 8]], [[1, 2], 4, 6], [7, 9]])
        groups = tree.level_groups(1)
        X = random_sparse(rng, (10, 3, 2, 4), density=0.5)
        M = MembershipMatrix(3, 4, [(0, 0), (1, 1), (2, 2)])
        N = MembershipMatrix(3, 4, [(0, 3)])
        state = _Descent(X, JointConfig(rank=3), BLOCKS, TreePenalty(tree, 0.1), M, N, groups)
        F = rng.standard_normal((10, 3)) * 10.0 ** rng.integers(-8, 8, (10, 1))
        expected = np.array([F[rows].sum(axis=0) for rows in groups])
        np.testing.assert_array_equal(state._group_sums(F), expected)

    def test_question_update_sets_the_group_means_bit_for_bit(self):
        rng = np.random.default_rng(83)
        # groups of 3, 5 and 2 rows: dividing by 3 or 5 rounds
        tree = tree_from_nested([[0, 3, 8], [[1, 2], 4, 6, 5], [7, 9]])
        X = random_sparse(rng, (10, 3, 2, 4), density=0.5)
        M = MembershipMatrix(3, 4, [(0, 0), (1, 1), (2, 2)])
        N = MembershipMatrix(3, 4, [(0, 3)])
        state = _Descent(X, JointConfig(rank=3, seed=4), BLOCKS, TreePenalty(tree, 0.1), M, N,
                         tree.level_groups(1))
        for block in BLOCKS * 2:
            state.update(block)
            assert np.array_equal(state.mu, group_means(state.factors[0], tree))

    def test_tree_without_subsite_groups(self):
        # A root that is its only leaf has no subsite level: the engine's
        # group sums are empty and the coupling drops out.
        X = SparseTensor4((1, 2, 2, 3), indices=[[0, 0, 0, 0], [0, 1, 1, 2]], values=[1.0, 2.0])
        M, N = MembershipMatrix(0, 3, []), MembershipMatrix(2, 3, [(0, 0), (1, 2)])
        model = fit_joint(X, M, N, tree_from_nested(0), JointConfig(rank=2, max_iters=3))
        assert model.S.shape == (0, 2) and len(model.objective_history) == 3
        assert all(b <= a for a, b in zip(model.objective_history, model.objective_history[1:]))

    def test_singular_gram_matches_pseudo_inverse(self):
        # Two identical components make V exactly singular; at zero weights
        # the block must keep pinv's cutoff on the null direction.
        rng = np.random.default_rng(67)
        X = random_sparse(rng, (7, 3, 2, 4), density=0.5)
        state = _Descent(X, AlsConfig(rank=3, seed=5, lambda_x=0.0), BLOCKS[:4])
        for mode, U in enumerate(state.factors):
            U[:, 1] = U[:, 0]
            state._refresh(mode)
        V = gram_hadamard(state.factors, 0)
        assert np.linalg.matrix_rank(V) == 2
        expected = mttkrp(X, state.factors, 0) @ np.linalg.pinv(V, hermitian=True)
        state.update("question")
        err = np.max(np.abs(state.factors[0] - expected)) / np.max(np.abs(expected))
        assert err < 1e-12


def _fit_micro(solver, max_iters, rank=2):
    X, M, N, tree = make_micro_joint(np.random.default_rng(59))
    if solver == "cp_als":
        return cp_als(X, AlsConfig(rank=rank, max_iters=max_iters, tolerance=0.0, seed=1))
    cfg = JointConfig(rank=rank, max_iters=max_iters, tolerance=0.0, seed=1)
    return fit_joint(X, M, N, tree, cfg)


def _parts(model):
    """The CP part, the sweep history and the membership factors of a model."""
    if isinstance(model, JointModel):
        return model.cp, model.objective_history, [model.S, model.A, model.T]
    return model, model.fit_history, []


class TestDivergedState:
    # Tensor-loss evaluations per sweep: one after each tensor block, plus
    # one after cp_als's balance block.
    CALLS_PER_SWEEP = {"cp_als": 5, "fit_joint": 4}

    @pytest.mark.parametrize("solver", ["cp_als", "fit_joint"])
    @pytest.mark.parametrize("k", [1, 7, 14])
    def test_last_state_holds_exactly_the_finite_sweeps(self, monkeypatch, solver, k):
        finite_sweeps = (k - 1) // self.CALLS_PER_SWEEP[solver]
        reference = _fit_micro(solver, max(finite_sweeps, 1))
        calls = []

        def nan_from_k(self, name, _fn=_Descent._term):
            if name != "tensor":
                return _fn(self, name)
            calls.append(name)
            return float("nan") if len(calls) >= k else _fn(self, name)

        monkeypatch.setattr(_Descent, "_term", nan_from_k)
        with pytest.raises(SolverDiverged) as info:
            _fit_micro(solver, 10)
        last = info.value.last_state
        if finite_sweeps == 0:
            assert last is None
            return
        cp, history, membership = _parts(last)
        ref_cp, ref_history, _ = _parts(reference)
        assert history == ref_history and len(history) == finite_sweeps
        if solver == "fit_joint":
            assert len(last.block_history) == finite_sweeps * len(BLOCKS)
            assert all(np.isfinite(v) for _, v in last.block_history)
        for U, W in zip(cp.factors, ref_cp.factors):
            np.testing.assert_array_equal(U, W)
        np.testing.assert_array_equal(cp.norms, ref_cp.norms)
        assert all(np.isfinite(U).all() for U in [*cp.factors, cp.norms, *membership])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("solver", ["cp_als", "fit_joint"])
    def test_failed_decomposition_keeps_the_finite_sweeps(self, monkeypatch, solver):
        # The question block's V turns all NaN in sweep 2, its fifth
        # Gram-Hadamard; at rank 3 eigh raises on it instead of returning NaN.
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(np.full((3, 3), np.nan))
        reference = _fit_micro(solver, 1, rank=3)
        calls = []

        def nan_at_5(*args, _fn=coupled.hadamard):
            calls.append(args)
            V = _fn(*args)
            return np.full_like(V, np.nan) if len(calls) == 5 else V

        monkeypatch.setattr(coupled, "hadamard", nan_at_5)
        with pytest.raises(SolverDiverged) as info:
            _fit_micro(solver, 10, rank=3)
        last = info.value.last_state
        cp, history, _ = _parts(last)
        ref_cp, ref_history, _ = _parts(reference)
        assert history == ref_history and len(history) == 1
        if solver == "fit_joint":
            assert last.block_history == reference.block_history
        for U, W in zip(cp.factors, ref_cp.factors):
            np.testing.assert_array_equal(U, W)
        np.testing.assert_array_equal(cp.norms, ref_cp.norms)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("solver", ["cp_als", "fit_joint"])
    def test_overflowed_gram_at_zero_lambdas_diverges(self, solver):
        # At rank 3 and every lambda 0 the overflowed Gram reaches eigh as NaN.
        X = tensor_from_entries(
            (2, 2, 2, 2), [(0, 0, 0, 0, 1e200), (1, 1, 1, 1, 1e200)]
        )
        with pytest.raises(SolverDiverged):
            if solver == "cp_als":
                cp_als(X, AlsConfig(rank=3, lambda_x=0.0, seed=0, max_iters=5))
            else:
                M = MembershipMatrix(2, 2, [(0, 0)])
                N = MembershipMatrix(2, 2, [(0, 1)])
                cfg = JointConfig(rank=3, max_iters=5, seed=0, lambda_x=0.0, lambda_w=0.0,
                                  lambda_s=0.0, lambda_t=0.0)
                fit_joint(X, M, N, tree_from_nested([[0], [1]]), cfg)
