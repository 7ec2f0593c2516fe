"""Topic-conditioned expert ranking and its evaluation against reputation.

Rankings are total orders: score descending, ties broken by ascending
user identifier, so equal inputs always produce identical output files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .ingest import (
    ANSWER, QUESTION, QaDataset, ReputationLedger, _accepted_answers, _user_index,
)
from .sparse_tensor import distinct

__all__ = [
    "RankedList",
    "RankingFactors",
    "EvalReport",
    "rank_experts",
    "z_score",
    "baseline_rank",
    "precision_at_k",
    "mean_reciprocal_rank",
    "evaluate",
]


@dataclass(frozen=True)
class RankedList:
    """Ordered (user, score) pairs for one topic.

    ``status`` is "ok" normally and "no-signal" when the topic's factor
    row is all zeros, in which case ``entries`` is empty.
    """

    topic: object
    entries: tuple
    status: str = "ok"

    def users(self) -> list:
        return [u for u, _ in self.entries]


class RankingFactors(NamedTuple):
    """The blocks of a fitted model that ranking reads: the topic factor
    (mode 1), the expert factor (mode 3) and the component norms.  A
    NamedTuple, which is cheaper to define than a dataclass on the CLI's
    import path."""

    topic: np.ndarray
    expert: np.ndarray
    norms: np.ndarray

    @classmethod
    def of(cls, model) -> RankingFactors:
        """The ranking blocks of a CpModel, a JointModel or a RankingFactors."""
        if isinstance(model, cls):
            return model
        cp = model.cp if hasattr(model, "cp") else model
        return cls(cp.factors[1], cp.factors[3], cp.norms)


def _order_scores(user_ids, scores):
    order = np.lexsort((np.asarray(user_ids), -np.asarray(scores, dtype=np.float64)))
    return order


def _topic_scores(f: RankingFactors, topic):
    """Every user's score for a topic, or None when its factor row is all
    zeros (no signal)."""
    row = f.topic[topic]
    if not row.any():
        return None
    return f.expert @ (f.norms * row)


def rank_experts(model, topic: int, k: int) -> RankedList:
    """Top-k experts for a topic from the fitted tensor factors.

    A user's score contracts the stored component scales with the topic's
    factor row and the user's factor row; question and voting modes are
    already absorbed into the scales.  ``model`` is a CpModel, a
    JointModel or their RankingFactors.  Returns at most k entries, fewer
    when the expert mode is smaller than k.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    f = RankingFactors.of(model)
    if not 0 <= topic < f.topic.shape[0]:
        raise ContractViolation(f"topic {topic} out of range")
    scores = _topic_scores(f, topic)
    if scores is None:
        return RankedList(topic, (), status="no-signal")
    order = _order_scores(np.arange(scores.shape[0]), scores)[:k]
    entries = tuple((int(l), float(scores[l])) for l in order)
    return RankedList(topic, entries)


def z_score(a: int, q: int) -> float:
    """Answer/question balance statistic: (a - q) / sqrt(a + q), 0 at 0/0."""
    if a < 0 or q < 0:
        raise ContractViolation("counts must be nonnegative")
    if a == 0 and q == 0:
        return 0.0
    return (a - q) / math.sqrt(a + q)


def baseline_rank(data: QaDataset, topic: str, kind: str, k: int) -> RankedList:
    """Rank a topic's answerers by a per-user activity statistic.

    ``kind`` is one of best_answer_ratio (accepted answers over answers),
    num_answers, or z_score (answers posted versus own questions asked).
    Candidates are the users with at least one answer under the topic.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if kind not in ("best_answer_ratio", "num_answers", "z_score"):
        raise ContractViolation(f"unknown baseline kind {kind!r}")
    p = data.posts
    tagged = np.zeros(len(p), dtype=bool)
    if topic in p.tags:
        post_of_tag = np.repeat(np.arange(len(p)), np.diff(p.tag_start))
        tagged[post_of_tag[p.tag == p.tags.index(topic)]] = True
    accepted = np.zeros(len(p), dtype=bool)
    accepted[_accepted_answers(data)] = True
    known = _user_index(data.users, p.owner) >= 0
    answered = known & (p.kind == ANSWER) & tagged[data.ref_row]
    candidates = distinct(p.owner[answered])
    if not len(candidates):
        return RankedList(topic, ())

    def per_candidate(mask):
        at = _user_index(candidates, p.owner[mask])
        return np.bincount(at[at >= 0], minlength=len(candidates)).tolist()

    answers = per_candidate(answered)
    if kind == "num_answers":
        scores = [float(a) for a in answers]
    elif kind == "best_answer_ratio":
        scores = [b / a for a, b in zip(answers, per_candidate(answered & accepted))]
    else:
        asked = per_candidate(known & (p.kind == QUESTION) & tagged)
        scores = [z_score(a, q) for a, q in zip(answers, asked)]
    candidates = candidates.tolist()
    order = _order_scores(candidates, scores)[:k]
    entries = tuple((candidates[i], float(scores[i])) for i in order)
    return RankedList(topic, entries)


def precision_at_k(recommended: RankedList, relevant: set, k: int) -> float:
    """Fraction of the top-k recommendations that are relevant.

    The denominator is min(k, list length) so short lists are not
    penalized for missing padding; an empty list scores 0.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    return _precision(recommended.users(), len(recommended.entries), relevant, k)


def _precision(top, n, relevant, k):
    """Hits among the first k of ``top``, a best-first user list of
    length ``n``, over min(k, n); 0 when the list is empty."""
    if not n:
        return 0.0
    return sum(1 for u in top[:k] if u in relevant) / min(k, n)


def mean_reciprocal_rank(per_query_ranks) -> float:
    """Mean of 1/rank over queries; ranks are 1-based positions."""
    ranks = list(per_query_ranks)
    if not ranks:
        raise ContractViolation("rank list must be nonempty")
    if any(r < 1 for r in ranks):
        raise ContractViolation("ranks must be >= 1")
    return sum(1.0 / r for r in ranks) / len(ranks)


@dataclass
class EvalReport:
    """Per-topic and aggregate ranking quality against the ledger.

    ``rows`` holds (topic, k, precision, reciprocal rank, list length)
    per evaluated topic and k; ``summary`` holds one ALL row per k with
    means over evaluated topics and the evaluated-topic count.
    """

    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    evaluated_topics: int = 0
    skipped_topics: int = 0


def evaluate(model, ledger: ReputationLedger, k_list, topics, users) -> EvalReport:
    """Score the model's per-topic rankings against reputation ground truth.

    ``topics`` and ``users`` are the model's topic and user tables, in
    factor row order, as the snapshot manifest holds them.  For each topic
    with ledger entries: precision@k against the ledger's top-k users (ties
    by ascending id), and the reciprocal of the position at which the model
    ranks the ledger's top user (0 when the model gives the topic no
    ranking).  Topics absent from the ledger are skipped and counted.
    ``model`` is anything `rank_experts` takes; each k is evaluated once.
    """
    k_list = [int(k) for k in k_list]
    if not k_list or any(k < 1 for k in k_list) or len(set(k_list)) < len(k_list):
        raise ContractViolation("k_list must be nonempty distinct positive integers")
    f = RankingFactors.of(model)
    if f.topic.shape[0] != len(topics) or f.expert.shape[0] != len(users):
        raise ContractViolation(
            "model factor sizes do not match the dataset's topic/user tables"
        )

    report = EvalReport()
    per_k_precision = {k: [] for k in k_list}
    reciprocals = []
    index = {u: l for l, u in enumerate(users)}
    k_max = max(k_list)
    for j, tag in enumerate(topics):
        ledger_order = ledger.top_users(tag, k_max)
        if not ledger_order:
            report.skipped_topics += 1
            continue
        scores = _topic_scores(f, j)
        if scores is None:
            n, top, reciprocal = 0, [], 0.0
        else:
            n = len(users)
            order = _order_scores(np.arange(n), scores)[:k_max]
            top = [users[l] for l in order.tolist()]
            t = index.get(ledger_order[0])
            reciprocal = 0.0 if t is None else 1.0 / _position(scores, t)
        reciprocals.append(reciprocal)
        for k in k_list:
            prec = _precision(top, n, set(ledger_order[:k]), k)
            per_k_precision[k].append(prec)
            report.rows.append((tag, k, prec, reciprocal, n))
        report.evaluated_topics += 1

    if report.evaluated_topics:
        for k in k_list:
            report.summary.append((
                "ALL",
                k,
                sum(per_k_precision[k]) / len(per_k_precision[k]),
                sum(reciprocals) / len(reciprocals),
                report.evaluated_topics,
            ))
    return report


def _position(scores, t):
    """1-based place of user index ``t`` in the `_order_scores` order,
    counted without sorting: higher scores, then equal scores at lower
    indices, come first."""
    s_t = scores[t]
    return 1 + int(np.count_nonzero(scores > s_t)) + int(np.count_nonzero(scores[:t] == s_t))
