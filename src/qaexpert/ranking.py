"""Topic-conditioned expert ranking and its evaluation against reputation.

Rankings are total orders: score descending, then ascending user index
(the factor row, which in a snapshot's manifest is ascending user id),
so equal inputs always produce identical output files.  `_top_k` writes
that rule once: one `np.partition` per row finds its k-th best score and
one `np.lexsort` orders the entries at or above it, instead of a full
sort of every user.  `evaluate` ranks its topics as rows of one score
array, filled a block of topics at a time under `_BLOCK_CELLS` cells.
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


# Cells of one block of `evaluate`'s topic-by-user score array, 32 MiB of
# float64: the fit-s4, s16 and s64 (320 topics, 9,920 users) tables each
# fit in one block.
_BLOCK_CELLS = 1 << 22


def _top_k(scores, k):
    """Column indices of each row's best ``k`` scores (the whole row when
    it is shorter), best first: score descending, then column ascending.

    One `np.partition` finds each row's k-th best score; one `np.lexsort`
    orders the entries not below it by (row, -score, column), and each
    row keeps its first k.  NaN scores rank last, as in a full sort.
    """
    rows, n = scores.shape
    k = min(k, n)
    if not k:
        return np.empty((rows, 0), dtype=np.intp)
    kth = np.partition(scores, n - k, axis=1)[:, n - k]
    row, col = np.nonzero(~(scores < kth[:, None]))
    order = np.lexsort((col, -scores[row, col], row))
    # every row has at least k candidates, in one run of ``order``
    first = np.searchsorted(row, np.arange(rows))
    return col[order[first[:, None] + np.arange(k)]]


def _topic_scores(f: RankingFactors, topic):
    """Every user's score for a topic."""
    return f.expert @ (f.norms * f.topic[topic])


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
    if not f.topic[topic].any():
        return RankedList(topic, (), status="no-signal")
    scores = _topic_scores(f, topic)
    entries = tuple((l, float(scores[l])) for l in _top_k(scores[None], k)[0].tolist())
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
    candidates = candidates.tolist()  # ascending, so index order is id order
    order = _top_k(np.array([scores], dtype=np.float64), k)[0].tolist()
    entries = tuple((candidates[i], float(scores[i])) for i in order)
    return RankedList(topic, entries)


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

    The live topics' score rows are ranked together, `_BLOCK_CELLS` cells
    at a time: one `_top_k` per block, then array counts for both metrics.
    """
    k_list = [int(k) for k in k_list]
    if not k_list or any(k < 1 for k in k_list) or len(set(k_list)) < len(k_list):
        raise ContractViolation("k_list must be nonempty distinct positive integers")
    f = RankingFactors.of(model)
    if f.topic.shape[0] != len(topics) or f.expert.shape[0] != len(users):
        raise ContractViolation(
            "model factor sizes do not match the dataset's topic/user tables"
        )

    k_max, n = max(k_list), len(users)
    index = {u: l for l, u in enumerate(users)}
    evaluated, leaders = [], []  # each evaluated topic's row and ledger top k_max
    for j, tag in enumerate(topics):
        ledger_order = ledger.top_users(tag, k_max)
        if ledger_order:
            evaluated.append(j)
            leaders.append(ledger_order)
    # an evaluated topic ranks no user when its factor row is all zeros
    live = f.topic[evaluated].any(axis=1) & (n > 0)
    precision = np.zeros((len(evaluated), len(k_list)))
    reciprocal = np.zeros(len(evaluated))
    live_rows = np.flatnonzero(live)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, len(live_rows), step):
        block = live_rows[start:start + step].tolist()
        r = np.arange(len(block))
        scores = np.empty((len(block), n))
        for i, e in enumerate(block):
            scores[i] = _topic_scores(f, evaluated[e])
        top = _top_k(scores, k_max)
        # the ledger's users, in its order, as user indices: -1 past a
        # row's end or outside the table
        lengths = np.array([len(leaders[e]) for e in block])
        relevant = np.full((len(block), lengths.max()), -1)
        relevant[np.arange(relevant.shape[1]) < lengths[:, None]] = [
            index.get(u, -1) for e in block for u in leaders[e]]
        # reciprocal rank: 1 + users above the leader, and tied with it at lower indices
        t = relevant[:, 0]
        s_t = scores[r, t][:, None]
        ahead = (np.count_nonzero(scores > s_t, axis=1)
                 + np.count_nonzero((scores == s_t) & (np.arange(n) < t[:, None]), axis=1))
        reciprocal[block] = np.where(t >= 0, 1.0 / (1 + ahead), 0.0)
        # precision@k: the ledger's first k users that the model places
        # before k; a user off the top list places at its length, one
        # outside the table at k_max
        place = np.full(scores.shape, top.shape[1], dtype=np.int32)
        place[r[:, None], top] = np.arange(top.shape[1])
        place = np.where(relevant >= 0, place[r[:, None], relevant], k_max)
        for c, k in enumerate(k_list):
            precision[block, c] = np.count_nonzero(place[:, :k] < k, axis=1) / min(k, n)

    report = EvalReport(evaluated_topics=len(evaluated),
                        skipped_topics=len(topics) - len(evaluated))
    per_k_precision = precision.T.tolist()
    reciprocals = reciprocal.tolist()
    for e, j in enumerate(evaluated):
        listed = n if live[e] else 0
        for c, k in enumerate(k_list):
            report.rows.append((topics[j], k, per_k_precision[c][e], reciprocals[e], listed))
    if evaluated:
        for c, k in enumerate(k_list):
            report.summary.append((
                "ALL",
                k,
                sum(per_k_precision[c]) / len(per_k_precision[c]),
                sum(reciprocals) / len(reciprocals),
                report.evaluated_topics,
            ))
    return report
