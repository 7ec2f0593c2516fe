"""Sparse tensor kernels against dense brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaexpert import sparse_tensor
from qaexpert.errors import ContractViolation
from qaexpert.sparse_tensor import (
    SparseTensor4,
    distinct,
    gram_hadamard,
    mttkrp,
    residual_norm,
    lex_order,
    row_changes,
    row_increases,
    scatter_rows,
)

from conftest import (
    COO_KINDS,
    coo_input,
    dense_kr_chain,
    dense_model,
    dense_mttkrp,
    random_factors,
    random_sparse,
)
from model_oracles import khatri_rao, reconstruct_entry, tensor_from_dense, tensor_from_entries


class TestConstruction:
    def test_duplicates_are_summed(self):
        X = tensor_from_entries((2, 2, 2, 2), [(0, 0, 0, 0, 1.5), (0, 0, 0, 0, 2.0)])
        assert X.nnz == 1
        assert X.values[0] == 3.5

    def test_entries_sorted_lexicographically(self):
        X = tensor_from_entries(
            (2, 2, 2, 2),
            [(1, 1, 1, 1, 1.0), (0, 0, 0, 1, 2.0), (0, 0, 0, 0, 3.0)],
        )
        assert X.indices.tolist() == [[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 1]]

    def test_exact_zero_entries_dropped(self):
        X = tensor_from_entries((2, 2, 2, 2), [(0, 0, 0, 0, 1.0), (1, 0, 0, 0, 0.0)])
        assert X.nnz == 1

    def test_negative_and_nonfinite_values_rejected(self):
        with pytest.raises(ContractViolation):
            tensor_from_entries((2, 2, 2, 2), [(0, 1, 0, 1, -2.0)])
        with pytest.raises(ContractViolation):
            tensor_from_entries((2, 2, 2, 2), [(0, 1, 0, 1, float("nan"))])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ContractViolation):
            tensor_from_entries((2, 2, 2, 2), [(2, 0, 0, 0, 1.0)])
        with pytest.raises(ContractViolation):
            tensor_from_entries((2, 2, 2, 2), [(0, 0, 0, -1, 1.0)])

    @pytest.mark.parametrize("column", range(4))
    def test_index_bounds_checked_per_column(self, column):
        """Each column may run from 0 to its dim less one; a negative index, or
        one equal to its dim, is out of range."""
        dims = (2, 3, 4, 5)
        idx = np.array([[0, 0, 0, 0], [1, 2, 3, 4]])
        assert SparseTensor4(dims, indices=idx, values=[1.0, 2.0]).nnz == 2
        for bad in (-1, dims[column]):
            edited = idx.copy()
            edited[1, column] = bad
            with pytest.raises(ContractViolation, match="^tensor index out of range$"):
                SparseTensor4(dims, indices=edited, values=[1.0, 2.0])

    def test_contract_checks_run_in_order(self):
        """Counts first, then index bounds, then values."""
        dims = (2, 2, 2, 2)
        with pytest.raises(ContractViolation, match="^index and value counts differ$"):
            SparseTensor4(dims, indices=[[5, 0, 0, -1]], values=[-1.0, np.nan])
        with pytest.raises(ContractViolation, match="^tensor index out of range$"):
            SparseTensor4(dims, indices=[[5, 0, 0, -1]], values=[-1.0])
        with pytest.raises(ContractViolation, match="^tensor values must be finite"):
            SparseTensor4(dims, indices=[[1, 0, 0, 1]], values=[np.nan])

    def test_zero_value_dropped_from_canonical_rows(self):
        idx = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]])
        X = SparseTensor4((2, 2, 2, 2), indices=idx, values=[1.0, 0.0, 2.0, 0.0])
        assert X.indices.tolist() == [[0, 0, 0, 0], [1, 0, 1, 0]]
        assert X.values.tolist() == [1.0, 2.0]
        assert not np.shares_memory(X.indices, idx)

    @pytest.mark.parametrize("kind", COO_KINDS)
    def test_strided_input_gives_the_same_arrays(self, kind):
        """Columns of a structured array, as the snapshot reader passes them,
        build the tensor that contiguous copies of them build."""
        idx, val = coo_input(kind, np.random.default_rng(COO_KINDS.index(kind)))
        table = np.zeros(len(val), dtype=[("index", np.int64, (4,)), ("value", np.float64)])
        table["index"], table["value"] = idx, val
        assert not table["index"].flags.c_contiguous
        dims = (3, 2, 3, 4)
        want = SparseTensor4(dims, indices=idx, values=val)
        got = SparseTensor4(dims, indices=table["index"], values=table["value"])
        for a, b in ((got.indices, want.indices), (got.values, want.values)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(a, table)
        # contiguous canonical rows without a zero are kept as they are
        assert np.shares_memory(want.indices, idx) == (kind == "sorted")

    def test_bad_dims_rejected(self):
        with pytest.raises(ContractViolation):
            tensor_from_entries((2, 2, 2), [])
        with pytest.raises(ContractViolation):
            tensor_from_entries((2, 0, 2, 2), [])

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(3)
        dense = rng.random((2, 3, 2, 2)) + 0.25
        dense[rng.random(dense.shape) < 0.5] = 0.0
        X = tensor_from_dense(dense)
        rebuilt = np.zeros(dense.shape)
        rebuilt[tuple(X.indices.T)] = X.values
        np.testing.assert_array_equal(rebuilt, dense)

    def test_norm_matches_dense(self):
        rng = np.random.default_rng(4)
        X = random_sparse(rng, (3, 2, 2, 3))
        dense = np.zeros(X.dims)
        dense[tuple(X.indices.T)] = X.values
        assert X.norm() == pytest.approx(np.linalg.norm(dense), rel=1e-12)

    @given(st.lists(
        st.tuples(
            st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
            st.floats(0, 5, allow_nan=False),
        ),
        max_size=20,
    ))
    @settings(max_examples=60, deadline=None)
    def test_construction_equals_dense_accumulation(self, raw):
        X = tensor_from_entries((2, 2, 2, 2), raw)
        dense = np.zeros((2, 2, 2, 2))
        for i, j, k, l, v in raw:
            dense[i, j, k, l] += v
        rebuilt = np.zeros((2, 2, 2, 2))
        if X.nnz:
            rebuilt[tuple(X.indices.T)] = X.values
        np.testing.assert_allclose(rebuilt, dense, atol=1e-12)


class TestCanonicalOrder:
    @pytest.mark.parametrize("rows, expected", [
        ([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [2, 0, 0, 0]], True),
        ([[0, 5, 9, 9], [1, 0, 0, 0]], True),
        ([[0, 0, 0, 1], [0, 0, 0, 1]], False),
        ([[0, 1, 0, 0], [0, 0, 9, 9]], False),
        ([[1, 0], [0, 5]], False),
        ([[3, 3]], True),
    ])
    def test_strictly_increasing(self, rows, expected):
        assert bool(row_increases(np.array(rows).T).all()) is expected

    @staticmethod
    def increasing_oracle(rows):
        rows = [tuple(row) for row in rows.tolist()]
        return all(a < b for a, b in zip(rows, rows[1:]))

    @classmethod
    def check_row_steps(cls, rows):
        """`row_increases` and `row_changes` of ``rows`` against tuple
        comparisons of each row with the one above it."""
        tuples = [tuple(row) for row in rows.tolist()]
        steps = list(zip(tuples, tuples[1:]))
        increases = row_increases(rows.T)
        assert increases.tolist() == [a < b for a, b in steps]
        assert bool(increases.all()) is cls.increasing_oracle(rows)
        assert row_changes(rows.T).tolist() == [True][:len(rows)] + [a != b for a, b in steps]

    @pytest.mark.parametrize("seed", range(8))
    def test_row_steps_agree_with_a_row_by_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # Entries are negative or not, and spread little around offsets up
        # to 2**62.
        for cols, n, offset in itertools.product((1, 2, 3, 4), (0, 1, 2, 3, 40),
                                                 (0, 2**62, -(2**62))):
            low, high = sorted(rng.integers(-6, 9, size=2))
            rows = rng.integers(low, high + 1, size=(n, cols)) + offset
            canonical = np.unique(rows, axis=0)
            with_duplicate = np.insert(canonical, min(1, n), canonical[:1], axis=0)
            for case in (rows, canonical, canonical[::-1], with_duplicate):
                self.check_row_steps(case)

    @pytest.mark.parametrize("top", [2**62, 2**63 - 1])
    def test_row_steps_past_int64_agree_with_the_oracle(self, top):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows = rng.integers(0, 4, size=(12, 3))
            rows[rng.integers(12), rng.integers(3)] = top
            for case in (rows, np.unique(rows, axis=0), np.unique(rows, axis=0)[::-1]):
                self.check_row_steps(case)
        big = np.array([[-(2**62), 0], [0, 5], [2**62, 0]])
        self.check_row_steps(big)
        assert row_increases(big.T).all()

    @staticmethod
    def lexsort_calls(monkeypatch):
        """A list that gains an entry on each `np.lexsort` call."""
        calls, lexsort = [], np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        return calls

    @pytest.mark.parametrize("seed", range(6))
    def test_lex_order_is_the_stable_sort(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        calls = self.lexsort_calls(monkeypatch)
        sides = set()
        for cols, n, offset, spread in itertools.product(
                (1, 2, 4), (0, 1, 2, 40), (0, 2**62, -(2**62)), (3, 2**61)):
            rows = rng.integers(0, spread, size=(n, cols)) + offset
            rows[n // 2:] = rows[:n - n // 2]  # half the rows repeat the first half
            rows = rows[rng.permutation(n)]
            del calls[:]
            order = lex_order(rows.T)
            tuples = [tuple(row) for row in rows.tolist()]
            assert order.tolist() == sorted(range(n), key=tuples.__getitem__)
            # The key's digits: each column's span, then the row position.
            spans = [max(c) - min(c) + 1 for c in zip(*tuples)] if n else []
            past = math.prod(spans) * n > 2**63 - 1
            assert len(calls) == past
            sides.add(past)
        assert sides == {False, True}

    @pytest.mark.parametrize("columns, past", [
        # The radices times the row count end just below, or just past, 2**63 - 1.
        ([[0, 2**62 - 2]], False),
        ([[0, 2**62 - 1]], True),
        ([[-(2**62), -2]], False),
        ([[2**62 - 2, 0]], False),
        # Digits that wrap while they are summed, and come back in range.
        ([[5, 3, 5], [2**63 - 1, 2**63 - 2, 2**63 - 2]], False),
        ([[1, 0, 1, 0], [-(2**63), 2**63 - 1, 2**63 - 1, -(2**63)]], True),
    ])
    def test_lex_order_at_the_int64_switch(self, columns, past, monkeypatch):
        calls = self.lexsort_calls(monkeypatch)
        columns = np.array(columns, dtype=np.int64)
        tuples = list(zip(*columns.tolist()))
        assert lex_order(columns).tolist() == sorted(range(len(tuples)), key=tuples.__getitem__)
        assert len(calls) == past

    @pytest.mark.parametrize("dims", [(3, 2, 3, 4), (2**21, 2**21, 2**21, 9)])
    @pytest.mark.parametrize("seed", range(3))
    def test_fibers_match_a_unique_prefix_oracle(self, dims, seed):
        rng = np.random.default_rng(seed)
        n = 40
        idx = np.stack([rng.choice(rng.integers(0, d, size=3), size=n) for d in dims], axis=1)
        idx[:2] = [0, 0, 0, 0], np.array(dims) - 1  # each column spans its dim
        X = SparseTensor4(dims, indices=idx, values=rng.random(n) + 0.5)
        prefixes, inverse = np.unique(X.indices[:, :3], axis=0, return_inverse=True)
        fib = X.fibers
        assert fib.count == len(prefixes)
        for m in range(3):
            assert fib.coords[m].tolist() == prefixes[:, m].tolist()
        assert fib.of_nz.tolist() == inverse.ravel().tolist()
        assert fib.expert.tolist() == X.indices[:, 3].tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_equals_numpy_unique(self, seed):
        rng = np.random.default_rng(seed)
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        cases = [
            np.zeros(0, dtype=np.int64), np.array([seed - 3]), np.full(7, seed - 3),
            np.array([hi, lo, 0, hi, lo, -1, 1, hi - 1, lo + 1]),
            rng.integers(-5, 5, size=50), rng.integers(lo, hi, size=50, endpoint=True),
            rng.choice(np.array([lo, hi, 0]), size=20),
        ]
        for values in cases:
            values = np.asarray(values, dtype=np.int64)
            before = values.copy()
            got, want = distinct(values), np.unique(values)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert values.tolist() == before.tolist()  # the input is left as it was

    @pytest.mark.parametrize("kind", COO_KINDS)
    def test_both_paths_give_identical_arrays(self, kind, monkeypatch):
        idx, val = coo_input(kind, np.random.default_rng(COO_KINDS.index(kind)))
        dims = (3, 2, 3, 4)
        fast = SparseTensor4(dims, indices=idx, values=val)
        monkeypatch.setattr(sparse_tensor, "row_increases", lambda columns: np.zeros(1, bool))
        sorted_path = SparseTensor4(dims, indices=idx, values=val)
        for a, b in ((fast.indices, sorted_path.indices), (fast.values, sorted_path.values)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert a.tobytes() == b.tobytes()

    def test_canonical_input_is_not_sorted_and_not_aliased(self, monkeypatch):
        idx, val = coo_input("zero-valued", np.random.default_rng(9))

        def no_sort(*args, **kwargs):
            raise AssertionError("canonical input was sorted")

        monkeypatch.setattr(sparse_tensor, "lex_order", no_sort)
        X = SparseTensor4((3, 2, 3, 4), indices=idx, values=val)
        assert X.nnz == np.count_nonzero(val)
        assert not np.shares_memory(X.indices, idx)
        assert not np.shares_memory(X.values, val)


class TestKhatriRao:
    def test_row_count_and_entry_rule(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((5, 4))
        P = khatri_rao(A, B)
        assert P.shape == (15, 4)
        for p in range(3):
            for q in range(5):
                for r in range(4):
                    assert P[p * 5 + q, r] == pytest.approx(A[p, r] * B[q, r])

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            khatri_rao(np.ones((2, 3)), np.ones((2, 2)))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_outer_product_oracle(self, m, n, r, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, r))
        B = rng.standard_normal((n, r))
        expected = np.stack(
            [np.outer(A[:, c], B[:, c]).ravel() for c in range(r)], axis=1
        )
        np.testing.assert_allclose(khatri_rao(A, B), expected, atol=1e-14)


class TestGramHadamard:
    def test_identity_factors(self):
        factors = [np.eye(2) for _ in range(4)]
        for skip in range(4):
            np.testing.assert_allclose(gram_hadamard(factors, skip), np.eye(2))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        factors = random_factors(rng, (3, 4, 2, 5), 3)
        for skip in range(4):
            expected = np.ones((3, 3))
            for m, U in enumerate(factors):
                if m != skip:
                    expected *= U.T @ U
            np.testing.assert_allclose(gram_hadamard(factors, skip), expected, rtol=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            factors = random_factors(rng, (2, 3, 4, 2), 4)
            skip = trial % 4
            V = gram_hadamard(factors, skip)
            np.testing.assert_allclose(V, V.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(V)
            assert eigs.min() >= -1e-8 * max(np.trace(V), 1.0)


class TestMttkrp:
    def test_zero_tensor_gives_zero(self):
        X = tensor_from_entries((2, 3, 2, 2), [])
        factors = random_factors(np.random.default_rng(0), (2, 3, 2, 2), 2)
        for mode in range(4):
            out = mttkrp(X, factors, mode)
            assert out.shape == (X.dims[mode], 2)
            assert not out.any()

    def test_hand_checkable_rank_one(self):
        # rank-1 tensor on 2x2x2x2 from known nonneg vectors, mode 0:
        # row i must equal sum over nonzeros x[ijkl] * u2[j]*u3[k]*u4[l].
        u = [np.array([[1.0], [2.0]]), np.array([[3.0], [1.0]]),
             np.array([[1.0], [4.0]]), np.array([[2.0], [5.0]])]
        dense = dense_model(u, np.array([1.0]))
        X = tensor_from_dense(dense)
        out = mttkrp(X, u, 0)
        expected = np.zeros((2, 1))
        for (i, j, k, l), v in zip(X.indices, X.values):
            expected[i, 0] += v * u[1][j, 0] * u[2][k, 0] * u[3][l, 0]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_matches_dense_oracle_every_mode(self):
        rng = np.random.default_rng(11)
        X = random_sparse(rng, (3, 4, 2, 5))
        dense = np.zeros(X.dims)
        dense[tuple(X.indices.T)] = X.values
        factors = random_factors(rng, X.dims, 3)
        for mode in range(4):
            got = mttkrp(X, factors, mode)
            want = dense_mttkrp(dense, factors, mode)
            err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            assert err <= 1e-10

    def test_dimension_mismatch_rejected(self):
        X = tensor_from_entries((2, 2, 2, 2), [(0, 0, 0, 0, 1.0)])
        factors = random_factors(np.random.default_rng(0), (2, 2, 3, 2), 2)
        with pytest.raises(ContractViolation):
            mttkrp(X, factors, 0)

    @pytest.mark.parametrize("filled", ["leading-block", "empty"])
    def test_matches_dense_oracle_with_empty_trailing_slices(self, filled):
        # Every stored index stays below dim - 1 in every mode (or nothing is
        # stored), so the last output rows of each mode see no nonzero and
        # must still be present, as zeros.
        rng = np.random.default_rng(19)
        dims = (5, 4, 3, 6)
        dense = np.zeros(dims)
        if filled == "leading-block":
            dense[:3, :2, :2, :4] = rng.random((3, 2, 2, 4)) + 0.1
        X = tensor_from_dense(dense)
        assert X.nnz == (48 if filled == "leading-block" else 0)
        factors = random_factors(rng, dims, 3)
        for mode in range(4):
            got = mttkrp(X, factors, mode)
            assert got.shape == (dims[mode], 3)
            np.testing.assert_allclose(
                got, dense_mttkrp(dense, factors, mode), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("build", ["shuffled-entries", "from-dense"])
    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("fibers", ["shared", "unshared", "mixed"])
    def test_matches_dense_oracle_over_fiber_patterns(self, fibers, rank, build):
        # The kernel sums over (i, j, k) fibers: runs of nonzeros that share
        # a prefix.  Prefixes shared by many nonzeros, by none, and a mix of
        # both that leaves the last slice of every mode empty.
        rng = np.random.default_rng(29)
        dims = (4, 3, 3, 6)
        dense = np.zeros(dims)
        if fibers == "shared":
            for prefix in [(0, 0, 0), (0, 2, 1), (1, 1, 2), (3, 0, 0), (3, 2, 2)]:
                dense[prefix][rng.choice(6, size=rng.integers(4, 7), replace=False)] = 1.0
        elif fibers == "unshared":
            for prefix in np.ndindex(dims[:3]):
                if rng.random() < 0.6:
                    dense[prefix][rng.integers(6)] = 1.0
        else:
            for prefix in np.ndindex(tuple(d - 1 for d in dims[:3])):
                dense[prefix][rng.choice(5, size=rng.choice([0, 1, 1, 5]), replace=False)] = 1.0
        dense *= rng.random(dims) + 0.1
        if build == "from-dense":
            X = tensor_from_dense(dense)
        else:
            idx = np.argwhere(dense)[rng.permutation(np.count_nonzero(dense))]
            X = tensor_from_entries(dims, [(*ijkl, dense[tuple(ijkl)]) for ijkl in idx])
        sizes = np.unique(X.indices[:, :3], axis=0, return_counts=True)[1]
        assert X.fibers.count == len(sizes)
        if fibers == "shared":
            assert sizes.min() >= 4
        elif fibers == "unshared":
            assert sizes.max() == 1
        else:
            assert sizes.min() == 1 and sizes.max() == 5
            assert (X.indices.max(axis=0) < np.array(dims) - 1).all()
        factors = random_factors(rng, dims, rank)
        for mode in range(4):
            got = mttkrp(X, factors, mode)
            assert got.shape == (dims[mode], rank)
            np.testing.assert_allclose(
                got, dense_mttkrp(dense, factors, mode), rtol=1e-12, atol=1e-12
            )

    def test_scatter_equals_add_at_bit_for_bit(self):
        rng = np.random.default_rng(23)
        index = rng.integers(0, 7, size=200)
        rows = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
        want = np.zeros((9, 3))
        np.add.at(want, index, rows)
        np.testing.assert_array_equal(scatter_rows(index, rows.T, 9), want)


class TestReconstructEntry:
    def test_all_ones(self):
        factors = [np.ones((2, 1)) for _ in range(4)]
        assert reconstruct_entry(factors, np.ones(1), (0, 0, 0, 0)) == 1.0

    def test_simple_product(self):
        factors = [
            np.array([[2.0]]), np.array([[3.0]]),
            np.array([[1.0]]), np.array([[0.5]]),
        ]
        assert reconstruct_entry(factors, np.ones(1), (0, 0, 0, 0)) == pytest.approx(3.0)

    def test_matches_dense_oracle_at_random_indices(self):
        rng = np.random.default_rng(13)
        dims = (3, 4, 2, 5)
        factors = random_factors(rng, dims, 3)
        norms = rng.random(3) + 0.5
        dense = dense_model(factors, norms)
        for _ in range(20):
            idx = tuple(int(rng.integers(d)) for d in dims)
            assert reconstruct_entry(factors, norms, idx) == pytest.approx(
                dense[idx], rel=1e-10, abs=1e-12
            )

    def test_out_of_range_rejected(self):
        factors = [np.ones((2, 1)) for _ in range(4)]
        with pytest.raises(ContractViolation):
            reconstruct_entry(factors, np.ones(1), (0, 0, 0, 2))


class TestResidualNorm:
    def test_exact_rank_one_fit_is_zero(self):
        rng = np.random.default_rng(17)
        factors = [rng.random((d, 1)) + 0.5 for d in (4, 3, 2, 5)]
        dense = dense_model(factors, np.array([1.0]))
        X = tensor_from_dense(dense)
        assert residual_norm(X, factors, np.array([1.0])) <= 1e-9

    def test_zero_factors_give_tensor_norm(self):
        rng = np.random.default_rng(19)
        X = random_sparse(rng, (3, 3, 2, 2))
        factors = [np.zeros((d, 2)) for d in X.dims]
        assert residual_norm(X, factors, np.zeros(2)) == pytest.approx(X.norm(), rel=1e-12)

    def test_matches_dense_subtraction_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            X = random_sparse(rng, (3, 2, 4, 3))
            dense = np.zeros(X.dims)
            dense[tuple(X.indices.T)] = X.values
            factors = random_factors(rng, X.dims, 2)
            norms = rng.random(2) + 0.1
            want = np.linalg.norm(dense - dense_model(factors, norms))
            got = residual_norm(X, factors, norms)
            assert got == pytest.approx(want, rel=1e-8)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_entry_permutation(self, seed):
        rng = np.random.default_rng(seed)
        X = random_sparse(rng, (2, 3, 2, 2))
        perm = rng.permutation(X.nnz)
        Y = SparseTensor4(X.dims, indices=X.indices[perm], values=X.values[perm])
        factors = random_factors(rng, X.dims, 2)
        norms = rng.random(2)
        assert residual_norm(X, factors, norms) == residual_norm(Y, factors, norms)
