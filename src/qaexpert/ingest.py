"""Parse Q&A dump files and assemble model inputs.

A dump is a directory per subsite holding ``Posts.xml``, ``Votes.xml``,
and ``Users.xml``, each a flat sequence of ``<row .../>`` records.  Users
are identified network-wide by their account id when the dump provides
one, falling back to the per-site id otherwise.  Question tags are
namespaced ``subsite/tag`` so topics from different subsites never
collide.

Each file is streamed through expat in one pass: every row becomes a
user, post or vote as it is read, and no row is kept.  Errors name the
file and line.  Since rows are handled as they are read, a non-integer
attribute is reported at its own row even when an XML syntax error comes
later in the same file.  Each subsite is validated once, when it is
parsed; `merge_datasets` joins validated subsites without checking them
again.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from xml.parsers import expat

import numpy as np

from .coupled import MembershipMatrix
from .errors import DataError, DumpParseError, EmptyInputError
from .hierarchy import HierarchyTree, tree_from_nested
from .sparse_tensor import SparseTensor4

__all__ = [
    "Post",
    "Vote",
    "QaDataset",
    "ReputationLedger",
    "BuildInputs",
    "parse_dump",
    "merge_datasets",
    "sample_dataset",
    "reputation_scores",
    "build_inputs",
    "DEFAULT_BUCKET_EDGES",
]

DEFAULT_BUCKET_EDGES = (0, 1, 3, 10)

_VOTE_KINDS = {"1": "accept", "2": "upvote", "3": "downvote"}
_QUESTION_VOTE_DELTAS = {"upvote": 1, "downvote": -1}


@dataclass(frozen=True)
class Post:
    post_id: int
    subsite: str
    kind: str
    owner: int | None = None
    parent_id: int | None = None
    accepted_id: int | None = None
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Vote:
    subsite: str
    post_id: int
    kind: str
    voter: int | None = None


class QaDataset:
    """Normalized posts, votes, and users for one or more subsites.

    ``users`` holds sorted network-wide user ids; posts are sorted by
    (subsite, post id); votes by (subsite, post id, kind, voter).
    Construction validates referential integrity: answers need existing
    question parents, accepted ids must name answers of their question,
    tags appear on questions only, and votes point at existing posts.
    """

    def __init__(self, users, posts, votes):
        self.users = tuple(sorted(set(int(u) for u in users)))
        self.posts = tuple(sorted(posts, key=attrgetter("subsite", "post_id")))
        self.votes = tuple(
            sorted(votes, key=lambda v: (v.subsite, v.post_id, v.kind, v.voter or 0))
        )
        self._by_key = {}
        for post in self.posts:
            key = (post.subsite, post.post_id)
            if key in self._by_key:
                raise DataError(f"duplicate post id {post.post_id} in subsite {post.subsite}")
            self._by_key[key] = post
        self._validate()

    @classmethod
    def _assemble(cls, users, posts, votes, by_key):
        """A dataset from parts already sorted, indexed and validated."""
        data = cls.__new__(cls)
        data.users, data.posts, data.votes = tuple(users), tuple(posts), tuple(votes)
        data._by_key = by_key
        return data

    def _validate(self):
        for post in self.posts:
            if post.kind == "answer":
                if post.tags:
                    raise DataError(f"answer {post.post_id} carries tags")
                parent = self._by_key.get((post.subsite, post.parent_id))
                if parent is None or parent.kind != "question":
                    raise DataError(
                        f"answer {post.post_id} in subsite {post.subsite} "
                        f"references missing question {post.parent_id}"
                    )
            elif post.kind == "question":
                if post.accepted_id is not None:
                    acc = self._by_key.get((post.subsite, post.accepted_id))
                    if acc is None or acc.kind != "answer" or acc.parent_id != post.post_id:
                        raise DataError(
                            f"question {post.post_id} accepts {post.accepted_id}, "
                            "which is not one of its answers"
                        )
            else:
                raise DataError(f"post {post.post_id} has unknown kind {post.kind!r}")
        for vote in self.votes:
            if (vote.subsite, vote.post_id) not in self._by_key:
                raise DataError(
                    f"vote on missing post {vote.post_id} in subsite {vote.subsite}"
                )

    def post(self, subsite: str, post_id: int) -> Post:
        return self._by_key[(subsite, post_id)]

    @property
    def subsites(self) -> tuple[str, ...]:
        return tuple(sorted({p.subsite for p in self.posts}))

    def questions(self):
        return [p for p in self.posts if p.kind == "question"]

    def answers(self):
        return [p for p in self.posts if p.kind == "answer"]

    def governing_question(self, post: Post) -> Post:
        """The question a post hangs off: itself, or an answer's parent."""
        if post.kind == "question":
            return post
        return self._by_key[(post.subsite, post.parent_id)]


class _RowError(Exception):
    """A bad row; `_stream_rows` adds the file and the row's line."""


def _stream_rows(path, on_element):
    """Call ``on_element(name, attrs)`` for every element of an XML file.

    Elements are handled as the parser meets them; no row outlives its
    call.  Syntax errors carry expat's message and line, and a `_RowError`
    raised by ``on_element`` is reported at the line of its row.
    """
    parser = expat.ParserCreate()
    parser.StartElementHandler = on_element
    try:
        with open(path, "rb") as fh:
            parser.ParseFile(fh)
    except expat.ExpatError as exc:
        raise DumpParseError(expat.ErrorString(exc.code), str(path), exc.lineno) from exc
    except _RowError as exc:
        raise DumpParseError(str(exc), path, parser.CurrentLineNumber) from None


def _not_int(attrs, names):
    """The message naming the first of ``names`` whose value is no integer."""
    for name in names:
        raw = attrs.get(name)
        if raw is not None:
            try:
                int(raw)
            except ValueError:
                return f"attribute {name}={raw!r} is not an integer"


# Integer attributes in the order a post row of each type converts them.
_POST_INTS = {
    "1": ("Id", "OwnerUserId", "AcceptedAnswerId"),
    "2": ("Id", "OwnerUserId", "ParentId"),
}


def _parse_tags(raw, subsite):
    if not raw:
        return ()
    if raw.startswith("<"):
        parts = raw.strip("<>").split("><")
    else:
        parts = [t for t in raw.split("|") if t]
    return tuple(f"{subsite}/{t}" for t in parts if t)


def parse_dump(posts_file, votes_file, users_file, subsite_name: str) -> QaDataset:
    """Parse one subsite's dump files into a validated dataset.

    Each file is streamed: every row becomes a user, post or vote as it
    is read.  Unknown vote kinds and non-question/answer post kinds are
    skipped with a counted warning.  Posts whose owner cannot be resolved
    against the users file are kept with no owner.
    """
    local_to_canonical = {}
    users = []

    def user_row(name, attrs):
        if name != "row":
            return
        try:
            local = int(attrs["Id"])
        except KeyError:
            raise _RowError("user row lacks Id") from None
        except ValueError:
            raise _RowError(_not_int(attrs, ("Id",))) from None
        if local in local_to_canonical:
            raise DataError(f"duplicate user id {local} in {users_file}")
        account = attrs.get("AccountId")
        try:
            canonical = local if account is None else int(account)
        except ValueError:
            raise _RowError(_not_int(attrs, ("AccountId",))) from None
        local_to_canonical[local] = canonical
        users.append(canonical)

    posts = []
    skipped_posts = 0
    resolve = local_to_canonical.get

    def post_row(name, attrs):
        nonlocal skipped_posts
        if name != "row":
            return
        get = attrs.get
        kind_code = get("PostTypeId")
        try:
            pid = int(attrs["Id"])
            owner = get("OwnerUserId")
            if owner is not None:
                owner = resolve(int(owner))
            if kind_code == "1":
                accepted = get("AcceptedAnswerId")
                posts.append(Post(
                    pid, subsite_name, "question", owner, None,
                    None if accepted is None else int(accepted),
                    _parse_tags(get("Tags"), subsite_name),
                ))
            elif kind_code == "2":
                parent = get("ParentId")
                posts.append(Post(
                    pid, subsite_name, "answer", owner,
                    None if parent is None else int(parent),
                ))
            else:
                skipped_posts += 1
        except KeyError:
            raise _RowError("post row lacks Id") from None
        except ValueError:
            names = _POST_INTS.get(kind_code, ("Id", "OwnerUserId"))
            raise _RowError(_not_int(attrs, names)) from None

    votes = []
    skipped_votes = 0
    post_ids = set()

    def vote_row(name, attrs):
        nonlocal skipped_votes
        if name != "row":
            return
        get = attrs.get
        kind = _VOTE_KINDS.get(get("VoteTypeId"))
        pid = get("PostId")
        if kind is None or pid is None:
            skipped_votes += 1
            return
        try:
            pid = int(pid)
            if pid not in post_ids:
                skipped_votes += 1
                return
            voter = get("UserId")
            if voter is not None:
                voter = resolve(int(voter))
        except ValueError:
            raise _RowError(_not_int(attrs, ("PostId", "UserId"))) from None
        votes.append(Vote(subsite_name, pid, kind, voter))

    _stream_rows(users_file, user_row)
    _stream_rows(posts_file, post_row)
    post_ids.update(p.post_id for p in posts)
    _stream_rows(votes_file, vote_row)

    if skipped_posts:
        warnings.warn(
            f"{subsite_name}: skipped {skipped_posts} posts of other kinds", stacklevel=2
        )
    if skipped_votes:
        warnings.warn(
            f"{subsite_name}: skipped {skipped_votes} votes (unknown kind or missing post)",
            stacklevel=2,
        )
    return QaDataset(users, posts, votes)


def merge_datasets(datasets) -> QaDataset:
    """Combine datasets of disjoint subsites into one network-wide dataset.

    Each part was sorted and validated when it was built, and no record
    refers across subsites, so the parts' per-subsite runs are joined in
    subsite order without sorting or validating again.
    """
    datasets = list(datasets)
    runs = sorted(((s, data) for data in datasets for s in data.subsites), key=itemgetter(0))
    for (a, _), (b, _) in zip(runs, runs[1:]):
        if a == b:
            raise DataError(f"subsite {a} appears in more than one dataset")
    posts, votes, by_key = [], [], {}
    for subsite, data in runs:
        posts.extend(_run(data.posts, subsite))
        votes.extend(_run(data.votes, subsite))
    for data in datasets:
        by_key.update(data._by_key)
    users = sorted(set().union(*(data.users for data in datasets)))
    return QaDataset._assemble(users, posts, votes, by_key)


def _run(records, subsite):
    """The slice of subsite-sorted ``records`` that belongs to ``subsite``."""
    key = attrgetter("subsite")
    lo = bisect_left(records, subsite, key=key)
    return records[lo:bisect_right(records, subsite, lo=lo, key=key)]


def sample_dataset(data: QaDataset, n_users: int, seed: int) -> QaDataset:
    """Users-first sampling: draw users, then keep the posts that involve them.

    A post survives when its owner was sampled, when it is a question
    with an answer owned by a sampled user, or when it is an answer whose
    question is owned by a sampled user.  Votes survive when their post
    does.  The output users table is exactly the sampled set, so sampling
    a sample with the same count is the identity.
    """
    if n_users < 1:
        raise DataError("n_users must be >= 1")
    pool = data.users
    if n_users >= len(pool):
        if n_users > len(pool):
            warnings.warn(
                f"requested {n_users} users but only {len(pool)} exist; keeping all",
                stacklevel=2,
            )
        return QaDataset(data.users, data.posts, data.votes)
    rng = np.random.default_rng(seed)
    sampled = set(rng.choice(np.array(pool, dtype=np.int64), size=n_users, replace=False).tolist())

    questions_with_sampled_answer = {
        (p.subsite, p.parent_id) for p in data.posts
        if p.kind == "answer" and p.owner in sampled
    }
    kept = []
    for post in data.posts:
        if post.owner in sampled:
            kept.append(post)
        elif post.kind == "question" and (post.subsite, post.post_id) in questions_with_sampled_answer:
            kept.append(post)
        elif post.kind == "answer":
            parent = data.post(post.subsite, post.parent_id)
            if parent.owner in sampled:
                kept.append(post)

    kept_keys = {(p.subsite, p.post_id) for p in kept}
    fixed = []
    for post in kept:
        if post.kind == "question" and post.accepted_id is not None:
            if (post.subsite, post.accepted_id) not in kept_keys:
                post = Post(
                    post.post_id, post.subsite, post.kind, post.owner,
                    post.parent_id, None, post.tags,
                )
        fixed.append(post)
    votes = [v for v in data.votes if (v.subsite, v.post_id) in kept_keys]
    return QaDataset(sorted(sampled), fixed, votes)


@dataclass(frozen=True)
class ReputationLedger:
    """Per (user, topic) reputation totals plus a skipped-voter counter."""

    scores: dict
    skipped_voter_events: int = 0

    @cached_property
    def _ranked(self) -> dict:
        """Topic -> users with reputation on it, by score descending then id."""
        ranked = {}
        for (user, topic), score in self.scores.items():
            ranked.setdefault(topic, []).append((-score, user))
        return {topic: [u for _, u in sorted(pairs)] for topic, pairs in ranked.items()}

    def top_users(self, topic: str, k: int | None = None) -> list[int]:
        """Users with reputation on a topic, by score descending then id."""
        users = self._ranked.get(topic, [])
        return users[:] if k is None else users[:k]

    def topics(self) -> list[str]:
        return sorted(self._ranked)


def _accepted_answer_keys(data: QaDataset) -> set[tuple[str, int]]:
    """(subsite, id) of every answer a question names as accepted or an
    accept vote targets."""
    keys = {
        (p.subsite, p.accepted_id) for p in data.posts
        if p.kind == "question" and p.accepted_id is not None
    }
    return keys | {
        (v.subsite, v.post_id) for v in data.votes
        if v.kind == "accept" and data._by_key[v.subsite, v.post_id].kind == "answer"
    }


def reputation_scores(data: QaDataset) -> ReputationLedger:
    """Accumulate the five reputation rules over the dataset's events.

    Answer upvote +10, question upvote +5, any downvote −2 to the owner,
    downvoting an answer −1 to the voter, accepted answer +15 once.  Every
    event credits the full amount on each of the governing question's
    topics.  Only users present in the users table gain or lose score;
    answer-downvote events without a resolvable voter are counted.
    """
    users = set(data.users)
    scores: dict[tuple[int, str], int] = {}
    skipped = 0

    def credit(user, topics, delta):
        if user not in users:
            return
        for topic in topics:
            key = (user, topic)
            scores[key] = scores.get(key, 0) + delta

    # Votes are sorted by post: look each post and its topics up once.
    by_key = data._by_key
    subsite = post_id = None
    for vote in data.votes:
        if vote.post_id != post_id or vote.subsite != subsite:
            subsite, post_id = vote.subsite, vote.post_id
            post = by_key[subsite, post_id]
            answer = post.kind == "answer"
            topics = by_key[subsite, post.parent_id].tags if answer else post.tags
        if vote.kind == "upvote":
            credit(post.owner, topics, 10 if answer else 5)
        elif vote.kind == "downvote":
            credit(post.owner, topics, -2)
            if answer:
                if vote.voter in users:
                    credit(vote.voter, topics, -1)
                else:
                    skipped += 1

    for subsite, post_id in sorted(_accepted_answer_keys(data)):
        post = data.post(subsite, post_id)
        credit(post.owner, data.governing_question(post).tags, 15)

    return ReputationLedger(scores, skipped)


@dataclass(frozen=True)
class BuildInputs:
    """Model inputs plus the index tables mapping them back to entities.

    ``questions[i]`` is the (subsite, post id) behind tensor row i,
    ``topics[j]`` the namespaced tag of tensor column j, ``users[l]`` the
    network-wide id of expert column l. ``subsites[x]`` names row x of the
    site membership matrix and subsite group x of the tree.
    """

    tensor: SparseTensor4
    site_matrix: MembershipMatrix
    topic_matrix: MembershipMatrix
    tree: HierarchyTree
    questions: tuple
    topics: tuple
    users: tuple
    subsites: tuple
    bucket_edges: tuple
    tree_s: float
    tree_g: float


def question_scores(data: QaDataset) -> dict:
    """Net vote score per question key, from the parsed votes."""
    by_key = data._by_key
    scores = {}
    # Votes are sorted by post: look each post up once.
    subsite = post_id = None
    for vote in data.votes:
        if vote.post_id != post_id or vote.subsite != subsite:
            subsite, post_id = vote.subsite, vote.post_id
            question = by_key[subsite, post_id].kind == "question"
        delta = _QUESTION_VOTE_DELTAS.get(vote.kind)
        if question and delta is not None:
            key = (subsite, post_id)
            scores[key] = scores.get(key, 0) + delta
    return scores


def build_inputs(
    data: QaDataset,
    bucket_edges=DEFAULT_BUCKET_EDGES,
    tree_s: float = 0.5,
) -> BuildInputs:
    """Assemble the evidence tensor, membership matrices, and tree.

    Tensor cell (i, j, k, l) counts answers by user l to question i under
    tag j, with k the bucket of the question's net vote score.  Questions
    without tags are left out of the index tables; subsites with no
    tagged questions are dropped with a warning.  Each question's tree
    leaf sits under its first-listed tag so the topic groups partition
    the questions.  Every internal tree node weighs ``(s, g)`` with
    ``s = tree_s`` and ``g = 1 - tree_s``.
    """
    edges = tuple(int(e) for e in bucket_edges)
    if list(edges) != sorted(set(edges)):
        raise DataError("bucket edges must be strictly increasing")
    questions = [p for p in data.posts if p.kind == "question" and p.tags]
    if not questions:
        raise EmptyInputError("no tagged questions in the dataset")

    dropped = [s for s in data.subsites if s not in {q.subsite for q in questions}]
    if dropped:
        warnings.warn(
            f"dropping subsites with no tagged questions: {', '.join(dropped)}",
            stacklevel=2,
        )

    q_keys = [(q.subsite, q.post_id) for q in questions]
    q_index = {key: i for i, key in enumerate(q_keys)}
    topics = tuple(sorted({t for q in questions for t in q.tags}))
    t_index = {t: j for j, t in enumerate(topics)}
    users = tuple(data.users)
    u_index = {u: l for l, u in enumerate(users)}
    subsites = tuple(sorted({q.subsite for q in questions}))
    s_index = {s: x for x, s in enumerate(subsites)}

    scores = question_scores(data)
    buckets = {key: bisect_right(edges, scores.get(key, 0)) for key in q_keys}

    cells = []
    site_pairs = []
    topic_pairs = []
    for post in data.posts:
        if post.kind != "answer" or post.owner not in u_index:
            continue
        key = (post.subsite, post.parent_id)
        i = q_index.get(key)
        if i is None:
            continue
        k = buckets[key]
        l = u_index[post.owner]
        site_pairs.append((s_index[post.subsite], l))
        for tag in questions[i].tags:
            j = t_index[tag]
            cells.append((i, j, k, l))
            topic_pairs.append((j, l))

    tensor = SparseTensor4(
        (len(questions), len(topics), len(edges) + 1, len(users)),
        indices=cells, values=np.ones(len(cells)),
    )
    site_matrix = MembershipMatrix(len(subsites), len(users), site_pairs)
    topic_matrix = MembershipMatrix(len(topics), len(users), topic_pairs)

    primary = {subsite: {} for subsite in subsites}
    for i, q in enumerate(questions):
        primary[q.subsite].setdefault(q.tags[0], []).append(i)
    nested = [[groups[tag] for tag in sorted(groups)] for groups in primary.values()]
    tree_g = 1.0 - tree_s
    sg = {level: (tree_s, tree_g) for level in range(3)}
    tree = tree_from_nested(nested, sg_by_level=sg)

    return BuildInputs(
        tensor=tensor,
        site_matrix=site_matrix,
        topic_matrix=topic_matrix,
        tree=tree,
        questions=tuple(q_keys),
        topics=topics,
        users=users,
        subsites=subsites,
        bucket_edges=edges,
        tree_s=float(tree_s),
        tree_g=float(tree_g),
    )
