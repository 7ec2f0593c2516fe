"""Per-record reference implementations of the dataset kernels.

Each function walks `Post` and `Vote` records through dict lookups, one
record at a time, the way `qaexpert.ingest` computed vote scores,
reputation, model inputs and samples before it kept datasets as columns.
`nested_tree` is the nested-list tree construction `build_inputs` used
before it computed the tree's arrays directly.  The tests check the
columnar kernels against them.
"""

from bisect import bisect_right

import numpy as np

from qaexpert.coupled import MembershipMatrix
from qaexpert.errors import EmptyInputError
from qaexpert.ingest import QUESTION
from qaexpert.sparse_tensor import SparseTensor4, lex_order, row_changes

import records as rec
from model_oracles import tree_from_nested
from records import Post

QUESTION_VOTE_DELTAS = {"upvote": 1, "downvote": -1}


def by_key(data):
    return {(p.subsite, p.post_id): p for p in rec.posts(data)}


def question_scores(data) -> dict:
    """Net vote score per question key with at least one up or down vote."""
    posts = by_key(data)
    scores = {}
    for vote in rec.votes(data):
        key = (vote.subsite, vote.post_id)
        delta = QUESTION_VOTE_DELTAS.get(vote.kind)
        if posts[key].kind == "question" and delta is not None:
            scores[key] = scores.get(key, 0) + delta
    return scores


def accepted_answer_keys(data) -> set:
    posts = by_key(data)
    keys = {
        (p.subsite, p.accepted_id) for p in rec.posts(data)
        if p.kind == "question" and p.accepted_id is not None
    }
    return keys | {
        (v.subsite, v.post_id) for v in rec.votes(data)
        if v.kind == "accept" and posts[v.subsite, v.post_id].kind == "answer"
    }


def reputation_scores(data):
    """``({(user, topic): score}, skipped voter events)``."""
    posts = by_key(data)
    users = set(rec.users(data))
    scores = {}
    skipped = 0

    def credit(user, topics, delta):
        if user not in users:
            return
        for topic in topics:
            scores[user, topic] = scores.get((user, topic), 0) + delta

    for vote in rec.votes(data):
        post = posts[vote.subsite, vote.post_id]
        answer = post.kind == "answer"
        topics = posts[post.subsite, post.parent_id].tags if answer else post.tags
        if vote.kind == "upvote":
            credit(post.owner, topics, 10 if answer else 5)
        elif vote.kind == "downvote":
            credit(post.owner, topics, -2)
            if answer:
                if vote.voter in users:
                    credit(vote.voter, topics, -1)
                else:
                    skipped += 1
    for key in accepted_answer_keys(data):
        post = posts[key]
        credit(post.owner, posts[post.subsite, post.parent_id].tags, 15)
    return scores, skipped


def build_inputs(data, bucket_edges=(0, 1, 3, 10)) -> dict:
    """The model inputs and index tables, by field name."""
    edges = tuple(bucket_edges)
    questions = [p for p in rec.posts(data) if p.kind == "question" and p.tags]
    if not questions:
        raise EmptyInputError("no tagged questions in the dataset")
    q_keys = [(q.subsite, q.post_id) for q in questions]
    q_index = {key: i for i, key in enumerate(q_keys)}
    topics = tuple(sorted({t for q in questions for t in q.tags}))
    t_index = {t: j for j, t in enumerate(topics)}
    users = tuple(rec.users(data))
    u_index = {u: l for l, u in enumerate(users)}
    subsites = tuple(sorted({q.subsite for q in questions}))
    s_index = {s: x for x, s in enumerate(subsites)}
    scores = question_scores(data)
    buckets = {key: bisect_right(edges, scores.get(key, 0)) for key in q_keys}

    cells, site_pairs, topic_pairs = [], [], []
    for post in rec.posts(data):
        if post.kind != "answer" or post.owner not in u_index:
            continue
        key = (post.subsite, post.parent_id)
        i = q_index.get(key)
        if i is None:
            continue
        l = u_index[post.owner]
        site_pairs.append((s_index[post.subsite], l))
        for tag in questions[i].tags:
            cells.append((i, t_index[tag], buckets[key], l))
            topic_pairs.append((t_index[tag], l))

    primary = {subsite: {} for subsite in subsites}
    for i, q in enumerate(questions):
        primary[q.subsite].setdefault(q.tags[0], []).append(i)
    nested = [[groups[tag] for tag in sorted(groups)] for groups in primary.values()]
    return {
        "tensor": SparseTensor4(
            (len(questions), len(topics), len(edges) + 1, len(users)),
            indices=np.array(cells, dtype=np.int64).reshape(-1, 4), values=np.ones(len(cells)),
        ),
        "site_matrix": MembershipMatrix(len(subsites), len(users), site_pairs),
        "topic_matrix": MembershipMatrix(len(topics), len(users), topic_pairs),
        "tree": tree_from_nested(nested),
        "questions": tuple(q_keys),
        "topics": topics,
        "users": users,
        "subsites": subsites,
    }


def nested_tree(data):
    """`build_inputs`' tree built the way it was before the arrays were
    computed directly: the (subsite, first tag) groups of the tagged
    questions, from one sort, as nested lists walked by `tree_from_nested`."""
    p = data.posts
    questions = np.flatnonzero((p.kind == QUESTION) & (np.diff(p.tag_start) > 0))
    question_site, first_tag = p.site[questions], p.tag[p.tag_start[questions]]
    order = lex_order((question_site, first_tag))
    starts = np.flatnonzero(row_changes((question_site[order], first_tag[order])))
    nested = {}
    for group in np.split(order, starts[1:]):
        nested.setdefault(int(question_site[group[0]]), []).append(group.tolist())
    return tree_from_nested(list(nested.values()))


def sample_dataset(data, n_users, seed):
    """Users-first sampling over records (``n_users`` below the pool size)."""
    posts = by_key(data)
    rng = np.random.default_rng(seed)
    sampled = set(rng.choice(np.array(rec.users(data), dtype=np.int64), size=n_users,
                             replace=False).tolist())
    answered = {
        (p.subsite, p.parent_id) for p in rec.posts(data)
        if p.kind == "answer" and p.owner in sampled
    }
    kept = [
        p for p in rec.posts(data)
        if p.owner in sampled
        or (p.kind == "question" and (p.subsite, p.post_id) in answered)
        or (p.kind == "answer" and posts[p.subsite, p.parent_id].owner in sampled)
    ]
    kept_keys = {(p.subsite, p.post_id) for p in kept}
    fixed = [
        Post(p.post_id, p.subsite, p.kind, p.owner, p.parent_id, None, p.tags)
        if p.kind == "question" and p.accepted_id is not None
        and (p.subsite, p.accepted_id) not in kept_keys else p
        for p in kept
    ]
    votes = [v for v in rec.votes(data) if (v.subsite, v.post_id) in kept_keys]
    return rec.dataset(sorted(sampled), fixed, votes)
