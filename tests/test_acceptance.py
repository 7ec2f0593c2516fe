"""Shipping checklist: one test per release criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the checklist;
every line also asserts, so a plain pytest run fails on any regression.
Tolerances and time budgets are part of the criteria and are checked
here, not in the per-module suites.
"""

import json
import os
import time

import numpy as np

from qaexpert.cli import main
from qaexpert.coupled import AlsConfig, JointConfig, cp_als, fit_joint
from qaexpert.hierarchy import TreePenalty, compute_node_weights, weight_penalty
from qaexpert.ingest import parse_dump, reputation_scores
from qaexpert.ranking import RankedList
from qaexpert.sparse_tensor import gram_hadamard, mttkrp, residual_norm
from qaexpert.synthetic import make_corpus

import records as rec
from model_oracles import (
    fit_metric,
    group,
    group_means,
    khatri_rao,
    mean_reciprocal_rank,
    precision_at_k,
    tensor_from_dense,
    tree_from_nested,
)
from conftest import (
    dense_khatri_rao,
    dense_model,
    dense_mttkrp,
    make_micro_joint,
    random_factors,
    random_sparse,
)


def _check(n, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}")
    assert ok, f"criterion {n}: {label}"


def _dense(X):
    out = np.zeros(X.dims)
    for (i, j, k, l), v in zip(X.indices, X.values):
        out[i, j, k, l] = v
    return out


def _rel(err, scale):
    return err / max(1.0, scale)


def test_criterion_1_kernel_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(10)
    worst = 0.0
    done = 0
    while done < 50:
        dims = tuple(int(d) for d in rng.integers(1, 7, size=4))
        if int(np.prod(dims)) > 256:
            continue
        done += 1
        rank = int(rng.integers(1, 4))
        X = random_sparse(rng, dims, density=0.5)
        dense = _dense(X)
        factors = random_factors(rng, dims, rank)
        norms = rng.random(rank) + 0.5

        got = khatri_rao(factors[3], factors[1])
        want = dense_khatri_rao(factors[3], factors[1])
        worst = max(worst, _rel(np.abs(got - want).max(), np.abs(want).max()))

        for mode in range(4):
            G = gram_hadamard(factors, mode)
            ref = np.ones((rank, rank))
            for m in range(4):
                if m != mode:
                    ref *= factors[m].T @ factors[m]
            worst = max(worst, _rel(np.abs(G - ref).max(), np.abs(ref).max()))

            got = mttkrp(X, factors, mode)
            want = dense_mttkrp(dense, factors, mode)
            worst = max(worst, _rel(np.abs(got - want).max(), np.abs(want).max()))

        got = residual_norm(X, factors, norms)
        want = np.linalg.norm(dense - dense_model(factors, norms))
        worst = max(worst, _rel(abs(got - want), want))
    elapsed = time.monotonic() - start
    _check(1, f"kernels match dense oracles on {done} tensors "
              f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-10 and elapsed < 10.0)


def test_criterion_2_cp_recovery():
    start = time.monotonic()
    dims = (5, 4, 6, 3)
    hits = {}
    for rank in (1, 3):
        hits[rank] = 0
        for seed in range(10):
            gen = np.random.default_rng(100 + seed)
            # low uniform background plus one strong row per component,
            # so the planted factorization is well separated
            truth = []
            for d in dims:
                U = gen.random((d, rank)) * 0.3 + 0.1
                for r in range(rank):
                    U[r % d, r] += 1.5
                truth.append(U)
            X = tensor_from_dense(dense_model(truth, np.ones(rank)))
            model = cp_als(X, AlsConfig(rank=rank, lambda_x=0.0, max_iters=200,
                                        tolerance=1e-10, seed=seed))
            if fit_metric(X, model) >= 0.999:
                hits[rank] += 1
    elapsed = time.monotonic() - start
    _check(2, f"exact-rank recovery: rank 1 {hits[1]}/10, rank 3 {hits[3]}/10 "
              f"seeds at fit >= 0.999 ({elapsed:.1f}s)",
           hits[1] >= 9 and hits[3] >= 9 and elapsed < 30.0)


def test_criterion_3_objectives_never_increase():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(50):
        X, M, N, tree = make_micro_joint(rng)
        als = cp_als(X, AlsConfig(rank=2, max_iters=15,
                                  lambda_x=float(rng.random()), seed=trial))
        h = als.fit_history
        if len(h) > 1:
            worst = max(worst, max(b - a for a, b in zip(h, h[1:])))
        joint = fit_joint(X, M, N, tree,
                          JointConfig(rank=2, max_iters=8, seed=trial))
        blocks = [v for _, v in joint.block_history]
        if len(blocks) > 1:
            worst = max(worst, max(b - a for a, b in zip(blocks, blocks[1:])))
    elapsed = time.monotonic() - start
    _check(3, f"sweep and per-block objectives non-increasing over 50 "
              f"instances (max increase {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-8 and elapsed < 60.0)


def test_criterion_4_tree_penalty_identity():
    rng = np.random.default_rng(12)

    def random_spec(depth=0):
        if depth >= 2 or (depth > 0 and rng.random() < 0.4):
            return None  # leaf marker, numbered later
        return [random_spec(depth + 1) for _ in range(int(rng.integers(1, 4)))]

    def number(spec, counter):
        if spec is None:
            row = counter[0]
            counter[0] += 1
            return row
        return [number(child, counter) for child in spec]

    worst = 0.0
    for _ in range(100):
        counter = [0]
        spec = number([random_spec(1) for _ in range(int(rng.integers(1, 4)))],
                      counter)
        sg = {}
        for level in range(4):
            s = float(rng.random())
            sg[level] = (s, 1.0 - s)
        tree = tree_from_nested(spec, sg_by_level=sg)
        penalty = TreePenalty(tree, lambda_w=float(rng.random() + 0.1))
        U1 = rng.standard_normal((tree.n_rows, int(rng.integers(1, 4))))
        groupwise = 0.0
        for nid, omega in enumerate(compute_node_weights(tree).tolist()):
            for row in group(tree, nid).tolist():
                groupwise += omega * float(np.dot(U1[row], U1[row]))
        groupwise *= 0.5 * penalty.lambda_w
        scale = max(1.0, abs(groupwise))
        worst = max(worst, abs(weight_penalty(U1, penalty) - groupwise) / scale)

    tree = tree_from_nested([[0, 1], [2, 3]])
    weights = compute_node_weights(tree)
    by_level = {}
    for level, omega in zip(tree.level.tolist(), weights.tolist()):
        by_level.setdefault(level, set()).add(omega)
    exact = by_level == {0: {0.5}, 1: {0.25}, 2: {0.25}}
    _check(4, f"row-weight penalty equals the group-wise sum on 100 trees "
              f"(max rel err {worst:.2e}) and half-half weights are exact",
           worst <= 1e-12 and exact)


def test_criterion_5_strong_coupling_pins_subsite_rows():
    X, M, N, tree = make_micro_joint(np.random.default_rng(3))
    cfg = JointConfig(rank=2, max_iters=200, lambda_site=1e6, seed=0)
    model = fit_joint(X, M, N, tree, cfg)
    mu = group_means(model.cp.balanced_factors()[0], tree)
    gap = float(np.abs(model.S - mu).max())
    _check(5, f"subsite rows sit on question-group means at lambda_site=1e6 "
              f"(max gap {gap:.2e})", gap <= 1e-3)


def test_criterion_6_reputation_arithmetic(fixture_dump):
    files = [os.path.join(fixture_dump, f)
             for f in ("Posts.xml", "Votes.xml", "Users.xml")]
    data = parse_dump(*files, subsite_name="fixsite")
    ledger = reputation_scores(data)
    want = {(2, "fixsite/a"): 35}
    got = rec.ledger_scores(ledger)
    _check(6, f"two upvotes plus an accept yield {got} (expected {want})", got == want)


def test_criterion_7_metric_fixtures():
    ranked = RankedList("t", ((1, 4.0), (2, 3.0), (3, 2.0), (4, 1.0)))
    ok = (
        precision_at_k(ranked, {1, 2, 3, 4}, k=4) == 1.0
        and precision_at_k(ranked, {1, 3}, k=4) == 0.5
        and precision_at_k(ranked, {9}, k=4) == 0.0
        and precision_at_k(RankedList("t", ()), {1}, k=3) == 0.0
        and mean_reciprocal_rank([1]) == 1.0
        and mean_reciprocal_rank([1, 2]) == 0.75
    )
    mrr = mean_reciprocal_rank([2, 4, 10])
    ok = ok and abs(mrr - 17.0 / 60.0) <= 1e-9
    _check(7, f"precision fixtures exact and mrr([2,4,10]) = {mrr:.9f}", ok)


def test_criterion_8_planted_experts_recovered(tmp_path, capsys):
    start = time.monotonic()
    hits = total = 0
    for seed in range(5):
        corpus = tmp_path / f"corpus{seed}"
        truth = make_corpus(str(corpus), seed=seed)
        snap = str(tmp_path / f"snap{seed}")
        fit = str(tmp_path / f"fit{seed}")
        site_dirs = sorted(str(corpus / d) for d in os.listdir(corpus)
                           if (corpus / d).is_dir())
        assert main(["ingest", *site_dirs, "--out-dir", snap]) == 0
        assert main(["fit", snap, "--out-dir", fit,
                     "--rank", "6", "--seed", str(seed)]) == 0
        model = os.path.join(fit, "model.txt")
        capsys.readouterr()
        for topic, expert in sorted(truth.items()):
            assert main(["recommend", "--model", model, "--snapshot", snap,
                         "--topic", topic, "--k", "3"]) == 0
            lines = capsys.readouterr().out.splitlines()
            top3 = [int(line.split(",")[1]) for line in lines[1:]]
            total += 1
            hits += expert in top3
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _check(8, f"planted expert in top-3 for {hits}/{total} topics "
                  f"across 5 corpora ({elapsed:.1f}s)",
               hits >= 0.8 * total and elapsed < 120.0)


def test_criterion_9_pipeline_is_byte_deterministic(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    make_corpus(str(corpus), seed=0)
    site_dirs = sorted(str(corpus / d) for d in os.listdir(corpus)
                       if (corpus / d).is_dir())
    outputs = []
    for run in ("one", "two"):
        snap = str(tmp_path / run / "snap")
        fit = str(tmp_path / run / "fit")
        ev = str(tmp_path / run / "eval")
        assert main(["ingest", *site_dirs, "--out-dir", snap]) == 0
        assert main(["fit", snap, "--out-dir", fit, "--rank", "4",
                     "--max-iters", "40", "--seed", "5"]) == 0
        assert main(["evaluate", "--model", os.path.join(fit, "model.txt"),
                     "--snapshot", snap, "--out-dir", ev]) == 0
        outputs.append({
            "model": open(os.path.join(fit, "model.txt"), "rb").read(),
            "report": open(os.path.join(ev, "report.csv"), "rb").read(),
        })
    same = outputs[0] == outputs[1]
    with capsys.disabled():
        _check(9, "repeated runs with one seed produce byte-identical "
                  "model and report files", same)
