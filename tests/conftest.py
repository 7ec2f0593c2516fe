"""Shared fixtures and independent dense oracles for the test suite.

The oracles recompute every kernel the slow, obvious way (dense arrays,
explicit unfoldings) so the sparse implementations are checked against
code that shares none of their structure.
"""

import os

import numpy as np
import pytest

from qaexpert.sparse_tensor import SparseTensor4
from qaexpert.synthetic import write_subsite_dump


def dense_unfold(dense, mode):
    """Mode-n unfolding with columns in Fortran (first-index-fastest) order."""
    dims = dense.shape
    return np.reshape(np.moveaxis(dense, mode, 0), (dims[mode], -1), order="F")


def dense_khatri_rao(A, B):
    """Columnwise Kronecker with A's rows varying slowest."""
    R = A.shape[1]
    out = np.empty((A.shape[0] * B.shape[0], R))
    for r in range(R):
        out[:, r] = np.outer(A[:, r], B[:, r]).ravel()
    return out


def dense_kr_chain(factors, skip):
    """Khatri-Rao chain over every mode except ``skip``, highest mode leftmost.

    Matches the Fortran-order unfolding above: for the remaining modes
    sorted descending, fold in each lower mode on the right.
    """
    modes = [m for m in range(len(factors)) if m != skip]
    modes.sort(reverse=True)
    out = factors[modes[0]]
    for m in modes[1:]:
        out = dense_khatri_rao(out, factors[m])
    return out


def dense_mttkrp(dense, factors, mode):
    return dense_unfold(dense, mode) @ dense_kr_chain(factors, mode)


def dense_model(factors, norms):
    """Fully materialized CP reconstruction."""
    I, J, K, L = (U.shape[0] for U in factors)
    out = np.zeros((I, J, K, L))
    for r in range(len(norms)):
        out += norms[r] * np.einsum(
            "i,j,k,l->ijkl",
            factors[0][:, r], factors[1][:, r], factors[2][:, r], factors[3][:, r],
        )
    return out


def random_sparse(rng, dims, density=0.4):
    """Random sparse tensor with roughly ``density`` of the cells filled.

    Values are strictly positive: tensor cells are evidence counts.
    """
    total = int(np.prod(dims))
    nnz = max(1, int(total * density))
    flat = rng.choice(total, size=nnz, replace=False)
    idx = np.stack(np.unravel_index(flat, dims), axis=1)
    vals = rng.random(nnz) * 3.0 + 0.1
    return SparseTensor4(dims, indices=idx, values=vals)


def random_factors(rng, dims, rank):
    return [rng.standard_normal((d, rank)) for d in dims]


# --- the hand-built three-post dump -----------------------------------------
#
# One question tagged `a` (owner 1), two answers (owners 2 and 3), the
# first answer accepted and upvoted twice.  Three votes total.

FIXTURE_SITE = "fixsite"

FIXTURE_POSTS = [
    {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<a>", "AcceptedAnswerId": 2},
    {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
    {"Id": 3, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 3},
]

FIXTURE_VOTES = [
    {"Id": 1, "PostId": 2, "VoteTypeId": 1},
    {"Id": 2, "PostId": 2, "VoteTypeId": 2},
    {"Id": 3, "PostId": 2, "VoteTypeId": 2},
]

FIXTURE_USERS = [
    {"Id": 1, "AccountId": 1},
    {"Id": 2, "AccountId": 2},
    {"Id": 3, "AccountId": 3},
]


@pytest.fixture
def fixture_dump(tmp_path):
    """Write the three-post dump; returns the subsite directory."""
    site_dir = os.path.join(tmp_path, FIXTURE_SITE)
    write_subsite_dump(site_dir, FIXTURE_POSTS, FIXTURE_VOTES, FIXTURE_USERS)
    return site_dir


def make_micro_joint(rng, I=4, J=2, K=3, L=3, rank=2):
    """Small random joint-fit instance: tensor, memberships, two-subsite tree."""
    from qaexpert.coupled import MembershipMatrix
    from model_oracles import tree_from_nested

    X = random_sparse(rng, (I, J, K, L), density=0.5)
    rows = list(range(I))
    half = I // 2
    nested = [[rows[:half]], [rows[half:]]]
    tree = tree_from_nested(nested)
    m_pairs = [(x, z) for x in range(2) for z in range(L) if rng.random() < 0.7]
    n_pairs = [(y, z) for y in range(J) for z in range(L) if rng.random() < 0.7]
    M = MembershipMatrix(2, L, m_pairs)
    N = MembershipMatrix(J, L, n_pairs)
    return X, M, N, tree


def coo_input(kind, rng, dims=(3, 2, 3, 4), n=30):
    """Index rows and values of one input ``kind``: strictly increasing
    rows, the same shuffled, with repeated rows, or with zero values."""
    idx = np.unique(np.stack([rng.integers(0, d, n) for d in dims], axis=1), axis=0)
    val = rng.random(len(idx)) + 0.5
    if kind in ("shuffled", "duplicated"):
        order = rng.permutation(len(idx))
        if kind == "duplicated":
            order = np.concatenate((order, order[:7]))
        idx, val = idx[order], rng.random(len(order)) + 0.5
    elif kind == "zero-valued":
        val[::4] = 0.0
    return idx, val


COO_KINDS = ["sorted", "shuffled", "duplicated", "zero-valued"]
