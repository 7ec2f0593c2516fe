"""`Post` and `Vote` records over `QaDataset` columns, for the tests.

`dataset` builds a dataset from records, and `users`, `posts`, `votes`,
`questions`, `answers` and `post` read records back from its columns, so
that tests can state datasets and expectations one record at a time.
`ledger` and `ledger_scores` do the same for a `ReputationLedger` and its
``{(user, topic): score}`` totals.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from qaexpert.ingest import NONE, PostColumns, QaDataset, ReputationLedger, VoteColumns

KINDS = ("question", "answer")  # kind codes 1 and 2
VOTE_KINDS = ("accept", "downvote", "upvote")  # vote codes 0, 1 and 2


@dataclass(frozen=True)
class Post:
    post_id: int
    subsite: str
    kind: str
    owner: int | None = None
    parent_id: int | None = None
    accepted_id: int | None = None
    tags: tuple = ()


@dataclass(frozen=True)
class Vote:
    subsite: str
    post_id: int
    kind: str
    voter: int | None = None


def _column(values):
    return np.array([NONE if x is None else x for x in values], dtype=np.int64)


def _optional(value):
    return None if value == NONE else value


def dataset(users, posts, votes) -> QaDataset:
    posts, votes = list(posts), list(votes)
    sites = sorted({p.subsite for p in posts} | {v.subsite for v in votes})
    tags = sorted({t for p in posts for t in p.tags})
    return QaDataset(
        [int(u) for u in users],
        PostColumns(
            tuple(sites), tuple(tags),
            _column(sites.index(p.subsite) for p in posts), _column(p.post_id for p in posts),
            _column(KINDS.index(p.kind) + 1 for p in posts), _column(p.owner for p in posts),
            _column(p.accepted_id if p.kind == "question" else p.parent_id for p in posts),
            np.cumsum([0] + [len(p.tags) for p in posts]),
            _column(tags.index(t) for p in posts for t in p.tags),
        ),
        VoteColumns(
            _column(sites.index(v.subsite) for v in votes), _column(v.post_id for v in votes),
            _column(VOTE_KINDS.index(v.kind) for v in votes), _column(v.voter for v in votes),
        ),
    )


def users(data) -> tuple:
    return tuple(data.users.tolist())


_posts = weakref.WeakKeyDictionary()


def posts(data) -> tuple:
    if data not in _posts:
        _posts[data] = _read_posts(data.posts)
    return _posts[data]


def _read_posts(p) -> tuple:
    tags = [p.tags[t] for t in p.tag.tolist()]
    out = []
    for site, pid, kind, owner, ref, a, b in zip(
        p.site.tolist(), p.id.tolist(), p.kind.tolist(), p.owner.tolist(), p.ref.tolist(),
        p.tag_start[:-1].tolist(), p.tag_start[1:].tolist(),
    ):
        site, kind, owner, ref = p.sites[site], KINDS[kind - 1], _optional(owner), _optional(ref)
        parent, accepted = (None, ref) if kind == "question" else (ref, None)
        out.append(Post(pid, site, kind, owner, parent, accepted, tuple(tags[a:b])))
    return tuple(out)


def votes(data) -> tuple:
    v, sites = data.votes, data.posts.sites
    return tuple(
        Vote(sites[site], pid, VOTE_KINDS[kind], _optional(voter))
        for site, pid, kind, voter in zip(
            v.site.tolist(), v.post.tolist(), v.kind.tolist(), v.voter.tolist()
        )
    )


def questions(data) -> list:
    return [p for p in posts(data) if p.kind == "question"]


def answers(data) -> list:
    return [p for p in posts(data) if p.kind == "answer"]


def post(data, subsite, post_id) -> Post:
    """The record of one post; a KeyError when there is none."""
    return {(p.subsite, p.post_id): p for p in posts(data)}[subsite, post_id]


def ledger(scores: dict) -> ReputationLedger:
    """The ledger of ``{(user, topic): score}`` totals, rows in (topic, user)
    order, as ingest writes them."""
    keys = sorted(scores, key=lambda key: key[::-1])
    names = sorted({t for _, t in keys})
    return ReputationLedger(
        tuple(names), np.array([u for u, _ in keys], dtype=np.int64),
        np.array([names.index(t) for _, t in keys], dtype=np.int64),
        np.array([scores[k] for k in keys], dtype=np.int64),
    )


def ledger_rows(ledger) -> list:
    """(user, topic, score) of each ledger row, in order."""
    names = [ledger.topic_names[c] for c in ledger.topic.tolist()]
    return list(zip(ledger.user.tolist(), names, ledger.score.tolist()))


def ledger_scores(ledger) -> dict:
    """``{(user, topic): score}`` of the ledger's rows, in their order."""
    return {(u, t): s for u, t, s in ledger_rows(ledger)}
