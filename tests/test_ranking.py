"""Expert ranking, baselines, and the precision/MRR evaluation harness."""

import numpy as np
import pytest

from qaexpert.coupled import CpModel
from qaexpert.errors import ContractViolation
from qaexpert.ranking import (
    EvalReport,
    RankedList,
    RankingFactors,
    baseline_rank,
    evaluate,
    rank_experts,
    z_score,
)
from qaexpert.serialize import save_report

import records as rec
from model_oracles import mean_reciprocal_rank, precision_at_k
from records import Post, Vote


def model_from_scores(per_topic_scores):
    """Rank-1 model whose user scores per topic are given directly."""
    per_topic_scores = np.asarray(per_topic_scores, dtype=np.float64)
    J, L = per_topic_scores.shape
    U2 = np.ones((J, 1))
    U4 = per_topic_scores.T.copy()
    # only the product norms*U2*U4 matters for ranking, so fold everything
    # into the expert factor and keep unit scale elsewhere
    factors = [np.ones((1, 1)), U2, np.ones((1, 1)), U4]
    return CpModel(factors, np.ones(1))


class TestRankExperts:
    def test_unique_maximum_wins(self):
        model = model_from_scores([[0.2, 0.9, 0.5]])
        ranked = rank_experts(model, 0, k=1)
        assert ranked.users() == [1]
        assert ranked.status == "ok"

    def test_zero_topic_row_is_no_signal(self):
        model = CpModel(
            [np.ones((1, 1)), np.zeros((2, 1)), np.ones((1, 1)), np.ones((3, 1))],
            np.ones(1),
        )
        ranked = rank_experts(model, 0, k=2)
        assert ranked.status == "no-signal"
        assert ranked.entries == ()

    def test_ties_break_by_ascending_index(self):
        model = model_from_scores([[0.5, 0.7, 0.5, 0.7]])
        ranked = rank_experts(model, 0, k=4)
        assert ranked.users() == [1, 3, 0, 2]

    def test_scale_invariance_of_order(self):
        scores = [[0.1, 0.8, 0.3, 0.55]]
        a = rank_experts(model_from_scores(scores), 0, k=4)
        scaled = model_from_scores(scores)
        boosted = CpModel(scaled.factors, scaled.norms * 1234.5)
        b = rank_experts(boosted, 0, k=4)
        assert a.users() == b.users()

    def test_k_larger_than_pool_returns_pool(self):
        model = model_from_scores([[0.3, 0.1]])
        ranked = rank_experts(model, 0, k=10)
        assert len(ranked.entries) == 2

    def test_bad_arguments(self):
        model = model_from_scores([[0.3, 0.1]])
        with pytest.raises(ContractViolation):
            rank_experts(model, 0, k=0)
        with pytest.raises(ContractViolation):
            rank_experts(model, 5, k=1)


class TestZScore:
    def test_examples(self):
        assert z_score(4, 0) == pytest.approx(2.0)
        assert z_score(2, 2) == 0.0
        assert z_score(0, 0) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractViolation):
            z_score(-1, 0)
        with pytest.raises(ContractViolation):
            z_score(0, -2)


def baseline_fixture():
    """User A answered two questions (one accepted), user B one (accepted)."""
    A, B, asker = 10, 20, 1
    posts = [
        Post(1, "s", "question", asker, None, 2, ("s/t",)),
        Post(2, "s", "answer", A, 1, None, ()),
        Post(3, "s", "answer", B, 1, None, ()),
        Post(4, "s", "question", asker, None, None, ("s/t",)),
        Post(5, "s", "answer", A, 4, None, ()),
    ]
    votes = [Vote("s", 3, "accept", None)]
    return rec.dataset([asker, A, B], posts, votes)


class TestBaselines:
    def test_best_answer_ratio_order(self):
        ranked = baseline_rank(baseline_fixture(), "s/t", "best_answer_ratio", k=5)
        assert ranked.users() == [20, 10]
        assert ranked.entries[0][1] == pytest.approx(1.0)
        assert ranked.entries[1][1] == pytest.approx(0.5)

    def test_num_answers_order(self):
        ranked = baseline_rank(baseline_fixture(), "s/t", "num_answers", k=5)
        assert ranked.users() == [10, 20]

    def test_topic_without_answers_is_empty(self):
        ranked = baseline_rank(baseline_fixture(), "s/other", "num_answers", k=5)
        assert ranked.entries == ()

    def test_z_score_kind_matches_formula(self):
        data = baseline_fixture()
        ranked = baseline_rank(data, "s/t", "z_score", k=5)
        by_user = dict(ranked.entries)
        assert by_user[10] == pytest.approx(z_score(2, 0))
        assert by_user[20] == pytest.approx(z_score(1, 0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation):
            baseline_rank(baseline_fixture(), "s/t", "page_rank", k=3)

    def test_z_score_ordering_matches_brute_force(self):
        rng = np.random.default_rng(2)
        counts = {u: (int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                  for u in range(1, 9)}
        scored = [(u, z_score(a, q)) for u, (a, q) in counts.items()]
        want = [u for u, _ in sorted(scored, key=lambda t: (-t[1], t[0]))]
        got = np.array([u for u, _ in scored])[
            np.lexsort((list(counts), [-s for _, s in scored]))
        ]
        assert list(got) == want


class TestMetrics:
    def test_precision_examples(self):
        ranked = RankedList("t", ((1, 3.0), (2, 2.0), (3, 1.0), (4, 0.5)))
        assert precision_at_k(ranked, {1, 2, 3, 4}, k=4) == 1.0
        assert precision_at_k(ranked, {9, 8}, k=4) == 0.0
        assert precision_at_k(ranked, {1, 3}, k=4) == 0.5

    def test_precision_short_list_not_penalized(self):
        ranked = RankedList("t", ((1, 1.0), (2, 0.5)))
        assert precision_at_k(ranked, {1, 2}, k=10) == 1.0

    def test_precision_empty_list_is_zero(self):
        assert precision_at_k(RankedList("t", ()), {1}, k=3) == 0.0

    def test_mrr_examples(self):
        assert mean_reciprocal_rank([1]) == 1.0
        assert mean_reciprocal_rank([1, 2]) == 0.75
        assert mean_reciprocal_rank([2, 4, 10]) == pytest.approx(0.2833333333, abs=1e-9)

    def test_mrr_rejects_empty_and_bad_ranks(self):
        with pytest.raises(ContractViolation):
            mean_reciprocal_rank([])
        with pytest.raises(ContractViolation):
            mean_reciprocal_rank([1, 0])


class TestEvaluate:
    def test_perfect_agreement(self):
        users = [5, 6, 7]
        ledger = rec.ledger({(5, "t"): 30, (6, "t"): 20, (7, "t"): 10})
        model = model_from_scores([[3.0, 2.0, 1.0]])
        report = evaluate(model, ledger, [1, 2, 3], ["t"], users)
        assert report.evaluated_topics == 1
        for _, k, prec, mrr, _ in report.rows:
            assert prec == 1.0
            assert mrr == 1.0

    def test_reversed_ranking_on_five_users(self):
        users = [1, 2, 3, 4, 5]
        ledger = rec.ledger({(u, "t"): 10 * (6 - u) for u in users})
        model = model_from_scores([[1.0, 2.0, 3.0, 4.0, 5.0]])
        report = evaluate(model, ledger, [5], ["t"], users)
        (_, _, prec, mrr, _), = report.rows
        assert prec == 1.0
        assert mrr == pytest.approx(0.2)

    def test_empty_ledger_skips_everything(self):
        ledger = rec.ledger({})
        model = model_from_scores([[1.0, 2.0]])
        report = evaluate(model, ledger, [1], ["t"], [1, 2])
        assert report.evaluated_topics == 0
        assert report.skipped_topics == 1
        assert report.rows == [] and report.summary == []

    def test_k_list_gives_row_per_k(self):
        users = [1, 2]
        ledger = rec.ledger({(1, "t"): 5})
        model = model_from_scores([[2.0, 1.0]])
        report = evaluate(model, ledger, [1, 3, 5, 10], ["t"], users)
        assert len(report.rows) == 4
        assert len(report.summary) == 4
        assert all(label == "ALL" for label, *_ in report.summary)

    def test_no_signal_topic_scores_zero(self):
        users = [1, 2]
        ledger = rec.ledger({(1, "a"): 5, (1, "b"): 5})
        U2 = np.array([[1.0], [0.0]])
        U4 = np.array([[2.0], [1.0]])
        model = CpModel([np.ones((1, 1)), U2, np.ones((1, 1)), U4], np.ones(1))
        report = evaluate(model, ledger, [1], ["a", "b"], users)
        by_topic = {row[0]: row for row in report.rows}
        assert by_topic["a"][2] == 1.0
        assert by_topic["b"][2] == 0.0  # empty ranking, zero precision
        assert by_topic["b"][3] == 0.0  # target unranked, zero reciprocal

    def test_mismatched_tables_rejected(self):
        model = model_from_scores([[1.0, 2.0]])
        ledger = rec.ledger({(1, "t"): 5})
        with pytest.raises(ContractViolation):
            evaluate(model, ledger, [1], ["t", "u"], [1, 2])

    def test_bad_k_list_rejected(self):
        model = model_from_scores([[1.0]])
        ledger = rec.ledger({})
        with pytest.raises(ContractViolation):
            evaluate(model, ledger, [], ["t"], [1])
        with pytest.raises(ContractViolation):
            evaluate(model, ledger, [0], ["t"], [1])

    def test_repeated_k_rejected(self):
        model = model_from_scores([[1.0]])
        ledger = rec.ledger({(1, "t"): 5})
        with pytest.raises(ContractViolation, match="distinct"):
            evaluate(model, ledger, [1, 1], ["t"], [1])

    def test_user_table_names_the_expert_rows(self):
        ledger = rec.ledger({(20, "s/t"): 15})
        model = model_from_scores([[0.0, 1.0, 2.0]])
        (_, _, prec, mrr, _), = evaluate(model, ledger, [1], ["s/t"], [1, 10, 20]).rows
        assert prec == 1.0 and mrr == 1.0
        # the same factors with the table reversed put user 20 last
        (_, _, prec, mrr, _), = evaluate(model, ledger, [1], ["s/t"], [20, 10, 1]).rows
        assert prec == 0.0 and mrr == pytest.approx(1 / 3)


def evaluate_by_full_sort(model, ledger, k_list, topics, users):
    """Reference evaluate: a full rank_experts list per topic, mapped to
    user ids and scanned for the ledger leader."""
    report = EvalReport()
    per_k_precision = {k: [] for k in k_list}
    reciprocals = []
    for j, tag in enumerate(topics):
        ledger_order = ledger.top_users(tag)
        if not ledger_order:
            report.skipped_topics += 1
            continue
        ranked = rank_experts(model, j, k=len(users)) if users else RankedList(j, ())
        mapped = RankedList(tag, tuple((users[l], score) for l, score in ranked.entries),
                            ranked.status)
        position = next((pos for pos, (uid, _) in enumerate(mapped.entries, start=1)
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


class TestEvaluateMatchesFullSort:
    @pytest.mark.parametrize("seed", range(12))
    def test_report_bytes_equal(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n_topics, n_users, rank = int(rng.integers(1, 7)), int(rng.integers(1, 12)), 2
        # small integer factors make many tied scores; zero rows are no-signal topics
        U2 = rng.integers(0, 3, size=(n_topics, rank)).astype(float)
        U2[rng.random(n_topics) < 0.3] = 0.0
        U4 = rng.integers(-1, 3, size=(n_users, rank)).astype(float)
        model = CpModel([np.ones((1, rank)), U2, np.ones((1, rank)), U4], rng.random(rank) + 0.5)
        users = sorted(rng.choice(100, size=n_users, replace=False).tolist())
        topics = [f"s/t{j}" for j in range(n_topics)]
        # ledger users include some outside the user table, and some topics have none
        pool = users + [200, 201]
        scores = {(int(u), t): int(rng.integers(-3, 20))
                  for t in topics if rng.random() < 0.8
                  for u in rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False)}
        ledger = rec.ledger(scores)
        k_list = sorted({1, 3, n_users, n_users + 5})  # each k once
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_report(evaluate(model, ledger, k_list, topics, users), got)
        save_report(evaluate_by_full_sort(model, ledger, k_list, topics, users), want)
        assert got.read_bytes() == want.read_bytes()
        factors = RankingFactors.of(model)
        assert (evaluate(factors, ledger, k_list, topics, users)
                == evaluate(model, ledger, k_list, topics, users))
        assert all(rank_experts(factors, j, 4) == rank_experts(model, j, 4)
                   for j in range(n_topics))
