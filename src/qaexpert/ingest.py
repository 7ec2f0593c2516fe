"""Parse Q&A dump files and assemble model inputs.

A dump is a directory per subsite holding ``Posts.xml``, ``Votes.xml``,
and ``Users.xml``, each a flat sequence of ``<row .../>`` records.  Users
are identified network-wide by their account id when the dump provides
one, falling back to the per-site id otherwise.  Question tags are
namespaced ``subsite/tag`` so topics from different subsites never
collide.

Each file is streamed through expat in one pass: the handlers append each
row's ids to integer columns and intern its tags once per subsite, and no
row is kept as an object.  Errors name the file and line; a bad attribute
is reported at its own row even when an XML syntax error comes later in
the same file.  A `QaDataset` is those columns as NumPy arrays, and
sorting, validation, merging, sampling, vote scores, reputation and
tensor assembly are array passes over them.  Each subsite is validated
once, when it is parsed; `merge_datasets` joins validated subsites
without checking them again.  `parse_dump` reads one subsite and shares
nothing with the parse of another, so the command line runs it in a
separate worker process per share of the subsites and merges the results.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from xml.parsers import expat

import numpy as np

from .coupled import MembershipMatrix
from .errors import DataError, DumpParseError, EmptyInputError
from .hierarchy import HierarchyTree, tree_from_nested
from .sparse_tensor import SparseTensor4

__all__ = [
    "PostColumns",
    "VoteColumns",
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
# The tree's question leaves sit below the root, a subsite and a topic.
TREE_LEAF_LEVEL = 3

# An absent owner, parent, accepted answer or voter in an integer column.
# Not -1: Stack Exchange dumps give the Community user the id -1.
NONE = np.iinfo(np.int64).min
QUESTION, ANSWER = 1, 2  # post kinds, as the dump's PostTypeId
# Vote kinds, numbered in the order of their names so that codes sort as names.
ACCEPT, DOWNVOTE, UPVOTE = 0, 1, 2
_VOTE_CODES = {"1": ACCEPT, "2": UPVOTE, "3": DOWNVOTE}


@dataclass(frozen=True, eq=False)
class PostColumns:
    """One entry per post.  ``site`` and ``tag`` codes index the sorted
    name tables ``sites`` and ``tags``; post p's tags are
    ``tag[tag_start[p]:tag_start[p + 1]]``; ``ref`` is a question's
    accepted answer or an answer's parent, and ``owner`` and ``ref`` hold
    `NONE` where there is none."""

    sites: tuple
    tags: tuple
    site: np.ndarray
    id: np.ndarray
    kind: np.ndarray
    owner: np.ndarray
    ref: np.ndarray
    tag_start: np.ndarray
    tag: np.ndarray

    def __len__(self):
        return len(self.id)

    def take(self, rows) -> PostColumns:
        """Posts ``rows``, in that order, with their tags."""
        start = self.tag_start[rows]
        count = self.tag_start[rows + 1] - start
        return PostColumns(
            self.sites, self.tags, self.site[rows], self.id[rows], self.kind[rows],
            self.owner[rows], self.ref[rows], np.concatenate(([0], np.cumsum(count))),
            self.tag[_segments(start, count)],
        )


@dataclass(frozen=True, eq=False)
class VoteColumns:
    """One entry per vote; ``site`` codes index the posts' ``sites``, and
    ``voter`` holds `NONE` where the voter is unknown."""

    site: np.ndarray
    post: np.ndarray
    kind: np.ndarray
    voter: np.ndarray

    def __len__(self):
        return len(self.post)

    def take(self, rows) -> VoteColumns:
        return VoteColumns(self.site[rows], self.post[rows], self.kind[rows], self.voter[rows])


def _segments(start, count):
    """Positions of the runs ``[start[i], start[i] + count[i])``, in order."""
    ends = np.cumsum(count)
    return np.repeat(start - ends + count, count) + np.arange(ends[-1] if len(ends) else 0)


def _user_index(user_ids, ids):
    """Index of each of ``ids`` in the sorted ``user_ids``, or -1."""
    at = np.searchsorted(user_ids, ids)
    hit = at < len(user_ids)
    hit[hit] = user_ids[at[hit]] == ids[hit]
    return np.where(hit, at, -1)


def _find(posts, site, ids):
    """Row of post (site[i], ids[i]) in site-and-id sorted ``posts``, or -1.
    ``site`` is ascending."""
    rows = np.full(len(ids), -1, dtype=np.int64)
    codes = np.arange(len(posts.sites) + 1)
    post_runs, query_runs = np.searchsorted(posts.site, codes), np.searchsorted(site, codes)
    for a, b, c, d in zip(post_runs[:-1], post_runs[1:], query_runs[:-1], query_runs[1:]):
        if a < b and c < d:
            at = a + np.searchsorted(posts.id[a:b], ids[c:d]).clip(max=b - a - 1)
            rows[c:d] = np.where(posts.id[at] == ids[c:d], at, -1)
    return rows


class QaDataset:
    """Users, posts, and votes of one or more subsites, as columns.

    ``users`` holds the sorted network-wide user ids, ``posts`` the posts
    sorted by (subsite, post id), and ``votes`` the votes sorted by
    (subsite, post id, kind, voter).  ``ref_row`` is the row of each
    post's parent or accepted answer and ``vote_row`` that of each vote's
    post (-1: none).  Construction sorts the columns, which may come in
    any order, and validates referential integrity: answers need existing
    question parents, accepted ids must name answers of their question,
    tags appear on questions only, and votes point at existing posts.
    """

    def __init__(self, users, posts: PostColumns, votes: VoteColumns):
        posts = posts.take(np.lexsort((posts.id, posts.site)))
        same = (posts.site[1:] == posts.site[:-1]) & (posts.id[1:] == posts.id[:-1])
        if same.any():
            p = int(np.argmax(same))
            raise DataError(
                f"duplicate post id {posts.id[p]} in subsite {posts.sites[posts.site[p]]}"
            )
        voter = np.where(votes.voter == NONE, 0, votes.voter)
        votes = votes.take(np.lexsort((voter, votes.kind, votes.post, votes.site)))
        self.users = np.unique(np.asarray(users, dtype=np.int64))
        self.posts, self.votes = posts, votes
        self.ref_row = _find(posts, posts.site, posts.ref)
        self.vote_row = _find(posts, votes.site, votes.post)
        self._validate()

    @classmethod
    def _assemble(cls, users, posts, votes, ref_row, vote_row):
        """A dataset from columns already sorted, indexed and validated."""
        data = cls.__new__(cls)
        data.users, data.posts, data.votes = users, posts, votes
        data.ref_row, data.vote_row = ref_row, vote_row
        return data

    def _select(self, post_rows, vote_rows, users=None, ref=None) -> QaDataset:
        """The posts and votes at the given rows, in that order, with the
        rows they refer to renumbered; ``ref`` replaces the ref column."""
        posts = self.posts if ref is None else replace(self.posts, ref=ref)
        # Row -1 (no target) reads the extra last slot, which stays -1.
        renumber = np.full(len(posts) + 1, -1)
        renumber[post_rows] = np.arange(len(post_rows))
        return QaDataset._assemble(
            self.users if users is None else users,
            posts.take(post_rows), self.votes.take(vote_rows),
            renumber[self.ref_row[post_rows]], renumber[self.vote_row[vote_rows]],
        )

    def _validate(self):
        p, ref = self.posts, self.ref_row
        ref_kind = np.where(ref >= 0, p.kind[ref], 0)
        answer = p.kind == ANSWER
        tagged = p.tag_start[1:] > p.tag_start[:-1]
        bad = answer & (tagged | (ref_kind != QUESTION))
        bad |= ~answer & (p.ref != NONE) & ((ref_kind != ANSWER) | (p.ref[ref] != p.id))
        if bad.any():
            r = int(np.argmax(bad))
            pid, target = int(p.id[r]), None if p.ref[r] == NONE else int(p.ref[r])
            if not answer[r]:
                raise DataError(
                    f"question {pid} accepts {target}, which is not one of its answers"
                )
            if tagged[r]:
                raise DataError(f"answer {pid} carries tags")
            raise DataError(f"answer {pid} in subsite {p.sites[p.site[r]]} "
                            f"references missing question {target}")
        if (self.vote_row < 0).any():
            v = int(np.argmax(self.vote_row < 0))
            raise DataError(f"vote on missing post {self.votes.post[v]} in subsite "
                            f"{p.sites[self.votes.site[v]]}")

    @cached_property
    def subsites(self) -> tuple[str, ...]:
        """Names of the subsites with posts."""
        return tuple(self.posts.sites[c] for c in np.unique(self.posts.site).tolist())

    def post_keys(self, rows) -> list[tuple[str, int]]:
        """(subsite, post id) of the posts at ``rows``."""
        p = self.posts
        return list(zip([p.sites[c] for c in p.site[rows].tolist()], p.id[rows].tolist()))


class _RowError(Exception):
    """A bad row; `_stream_rows` adds the file and the row's line."""


def _stream_rows(path, on_element):
    """Call ``on_element(name, attrs)`` for every element of an XML file.

    Elements are handled as the parser meets them; no row outlives its
    call.  Syntax errors carry expat's message and line, and a `_RowError`
    raised by ``on_element`` is reported at the line of its row, as is an
    id that does not fit in 64 bits.
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
    except OverflowError:
        raise DumpParseError("id beyond 64 bits", path, parser.CurrentLineNumber) from None


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
    """Namespaced tags of a Tags value, each once, in first-seen order."""
    if not raw:
        return ()
    if raw.startswith("<"):
        parts = raw.strip("<>").split("><")
    else:
        parts = raw.split("|")
    return tuple(dict.fromkeys(f"{subsite}/{t}" for t in parts if t))


def parse_dump(posts_file, votes_file, users_file, subsite_name: str) -> QaDataset:
    """Parse one subsite's dump files into a validated dataset.

    Each file is streamed: every row's ids are appended to integer columns
    as it is read.  Unknown vote kinds and non-question/answer post kinds
    are skipped with a counted warning.  Posts whose owner cannot be
    resolved against the users file are kept with no owner.
    """
    local_to_canonical = {}
    users = array("q")

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
            raise _RowError(f"duplicate user id {local}")
        account = attrs.get("AccountId")
        try:
            canonical = local if account is None else int(account)
        except ValueError:
            raise _RowError(_not_int(attrs, ("AccountId",))) from None
        users.append(canonical)
        local_to_canonical[local] = canonical

    # Per post: id, kind, owner, ref and the end of its run in tag_ids.
    posts, tag_ids = array("q"), array("q")
    tag_codes = {}      # namespaced tag -> code, in first-seen order
    codes_of = {}       # raw Tags value -> its tag codes
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
            owner = NONE if owner is None else resolve(int(owner), NONE)
            if kind_code == "1":
                ref, raw = get("AcceptedAnswerId"), get("Tags")
                codes = codes_of.get(raw)
                if codes is None:
                    codes = codes_of[raw] = [tag_codes.setdefault(t, len(tag_codes))
                                             for t in _parse_tags(raw, subsite_name)]
            elif kind_code == "2":
                ref, codes = get("ParentId"), ()
            else:
                skipped_posts += 1
                return
            ref = NONE if ref is None else int(ref)
        except KeyError:
            raise _RowError("post row lacks Id") from None
        except ValueError:
            names = _POST_INTS.get(kind_code, ("Id", "OwnerUserId"))
            raise _RowError(_not_int(attrs, names)) from None
        tag_ids.extend(codes)
        posts.extend((pid, int(kind_code), owner, ref, len(tag_ids)))

    # Per vote: post id, kind and voter.
    votes = array("q")
    post_ids = set()
    skipped_votes = 0

    def vote_row(name, attrs):
        nonlocal skipped_votes
        if name != "row":
            return
        get = attrs.get
        kind = _VOTE_CODES.get(get("VoteTypeId"))
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
            voter = NONE if voter is None else resolve(int(voter), NONE)
        except ValueError:
            raise _RowError(_not_int(attrs, ("PostId", "UserId"))) from None
        votes.extend((pid, kind, voter))

    _stream_rows(users_file, user_row)
    _stream_rows(posts_file, post_row)
    post_ids.update(posts[::5])
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
    tags = sorted(tag_codes)
    recode = np.empty(len(tags), dtype=np.int64)
    recode[[tag_codes[t] for t in tags]] = np.arange(len(tags))
    posts = np.asarray(posts, dtype=np.int64).reshape(-1, 5).T
    votes = np.asarray(votes, dtype=np.int64).reshape(-1, 3).T
    return QaDataset(
        users,
        PostColumns((subsite_name,), tuple(tags), np.zeros(len(posts[0]), dtype=np.int64),
                    *posts[:4], np.concatenate(([0], posts[4])),
                    recode[np.asarray(tag_ids, dtype=np.int64)]),
        VoteColumns(np.zeros(len(votes[0]), dtype=np.int64), *votes),
    )


def merge_datasets(datasets) -> QaDataset:
    """Combine datasets of disjoint subsites into one network-wide dataset.

    Each part was sorted and validated when it was built, and no record
    refers across subsites, so the parts' columns are joined and put in
    subsite order by one stable sort, without validating again.
    """
    datasets = list(datasets)
    runs = sorted(((s, data) for data in datasets for s in data.subsites), key=itemgetter(0))
    for (a, _), (b, _) in zip(runs, runs[1:]):
        if a == b:
            raise DataError(f"subsite {a} appears in more than one dataset")
    sites = tuple(s for s, _ in runs)
    tags = tuple(sorted({t for data in datasets for t in data.posts.tags}))
    empty = np.zeros(0, dtype=np.int64)
    posts, votes, tag_cols, offset = [[empty] * 7], [[empty] * 5], [empty], 0
    for data in datasets:
        p, v = data.posts, data.votes
        # Codes of names without posts are never read, wherever they land.
        site = np.searchsorted(np.array(sites, dtype=str), np.array(p.sites, dtype=str))
        tag = np.searchsorted(np.array(tags, dtype=str), np.array(p.tags, dtype=str))
        posts.append((site[p.site], p.id, p.kind, p.owner, p.ref, np.diff(p.tag_start),
                      np.where(data.ref_row >= 0, data.ref_row + offset, -1)))
        votes.append((site[v.site], v.post, v.kind, v.voter, data.vote_row + offset))
        tag_cols.append(tag[p.tag])
        offset += len(p)
    site, pid, kind, owner, ref, count, ref_row = (np.concatenate(c) for c in zip(*posts))
    *vote_cols, vote_row = (np.concatenate(c) for c in zip(*votes))
    whole = QaDataset._assemble(
        np.unique(np.concatenate([empty] + [data.users for data in datasets])),
        PostColumns(sites, tags, site, pid, kind, owner, ref,
                    np.concatenate(([0], np.cumsum(count))), np.concatenate(tag_cols)),
        VoteColumns(*vote_cols), ref_row, vote_row,
    )
    return whole._select(np.argsort(site, kind="stable"),
                         np.argsort(vote_cols[0], kind="stable"))


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
        return data
    rng = np.random.default_rng(seed)
    sampled = np.sort(rng.choice(pool, size=n_users, replace=False))

    p, ref = data.posts, data.ref_row
    owned = _user_index(sampled, p.owner) >= 0
    answer = p.kind == ANSWER
    answered = np.zeros(len(p), dtype=bool)
    answered[ref[answer & owned]] = True
    keep = owned | answered | (answer & owned[ref])
    dropped_accept = ~answer & (ref >= 0) & ~keep[ref]
    return data._select(np.flatnonzero(keep), np.flatnonzero(keep[data.vote_row]), sampled,
                        np.where(dropped_accept, NONE, p.ref))


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


def _accepted_answers(data: QaDataset):
    """Rows, ascending, of every answer a question names as accepted or
    an accept vote targets."""
    p, v = data.posts, data.votes
    named = data.ref_row[(p.kind == QUESTION) & (p.ref != NONE)]
    voted = data.vote_row[(v.kind == ACCEPT) & (p.kind[data.vote_row] == ANSWER)]
    return np.union1d(named, voted)


def reputation_scores(data: QaDataset) -> ReputationLedger:
    """Accumulate the five reputation rules over the dataset's events.

    Answer upvote +10, question upvote +5, any downvote −2 to the owner,
    downvoting an answer −1 to the voter, accepted answer +15 once.  Every
    event credits the full amount on each of the governing question's
    topics.  Only users present in the users table gain or lose score;
    answer-downvote events without a resolvable voter are counted.
    The scores come in (user, topic) order.
    """
    p, v, row = data.posts, data.votes, data.vote_row
    answer = p.kind[row] == ANSWER
    question = np.where(answer, data.ref_row[row], row)
    up, down = v.kind == UPVOTE, v.kind == DOWNVOTE
    voted = up | down
    owner = _user_index(data.users, p.owner)
    voter = np.full(len(v), -1)
    voter[down & answer] = _user_index(data.users, v.voter[down & answer])
    debited = voter >= 0
    accepted = _accepted_answers(data)
    # One event per (user index, governing question, delta) ...
    l = np.concatenate((owner[row[voted]], voter[debited], owner[accepted]))
    questions = np.concatenate((question[voted], question[debited], data.ref_row[accepted]))
    deltas = np.concatenate((np.where(down, -2, np.where(answer, 10, 5))[voted],
                             np.full(debited.sum(), -1), np.full(len(accepted), 15)))
    # ... credited on each of the question's tags, then summed per (user, tag).
    known = l >= 0
    start = p.tag_start[questions[known]]
    count = p.tag_start[questions[known] + 1] - start
    n_tags = max(len(p.tags), 1)
    keys, inverse = np.unique(np.repeat(l[known], count) * n_tags + p.tag[_segments(start, count)],
                              return_inverse=True)
    totals = np.bincount(inverse, weights=np.repeat(deltas[known], count), minlength=len(keys))
    user, tag = np.divmod(keys, n_tags)
    pairs = zip(data.users[user].tolist(), [p.tags[t] for t in tag.tolist()])
    return ReputationLedger(dict(zip(pairs, totals.astype(np.int64).tolist())),
                            int((down & answer).sum() - debited.sum()))


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


def question_scores(data: QaDataset) -> np.ndarray:
    """Net vote score of each post row: upvotes minus downvotes on a
    question, 0 on an answer."""
    v, row = data.votes, data.vote_row
    on_question = data.posts.kind[row] == QUESTION
    delta = (v.kind == UPVOTE).astype(np.int64) - (v.kind == DOWNVOTE)
    scores = np.bincount(row[on_question], weights=delta[on_question], minlength=len(data.posts))
    return scores.astype(np.int64)


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
    p = data.posts
    n_tags = np.diff(p.tag_start)
    questions = np.flatnonzero((p.kind == QUESTION) & (n_tags > 0))
    if not len(questions):
        raise EmptyInputError("no tagged questions in the dataset")

    question_site = p.site[questions]
    present = np.unique(question_site)
    subsites = tuple(p.sites[c] for c in present.tolist())
    dropped = [s for s in data.subsites if s not in subsites]
    if dropped:
        warnings.warn(
            f"dropping subsites with no tagged questions: {', '.join(dropped)}",
            stacklevel=2,
        )
    # Only questions carry tags, so every tag in the column is a topic.
    used_tags = np.unique(p.tag)
    topics = tuple(p.tags[c] for c in used_tags.tolist())
    users = tuple(data.users.tolist())
    row_question = np.full(len(p), -1)
    row_question[questions] = np.arange(len(questions))
    buckets = np.searchsorted(edges, question_scores(data)[questions], side="right")

    answers = np.flatnonzero(p.kind == ANSWER)
    l = _user_index(data.users, p.owner[answers])
    i = row_question[data.ref_row[answers]]
    kept = (l >= 0) & (i >= 0)
    answers, l, i = answers[kept], l[kept], i[kept]
    site_matrix = MembershipMatrix(len(subsites), len(users),
                                   np.column_stack((np.searchsorted(present, p.site[answers]), l)))
    # One tensor cell per answer and tag of its question.
    start, count = p.tag_start[questions[i]], n_tags[questions[i]]
    j = np.searchsorted(used_tags, p.tag[_segments(start, count)])
    i, l = np.repeat(i, count), np.repeat(l, count)
    tensor = SparseTensor4(
        (len(questions), len(topics), len(edges) + 1, len(users)),
        indices=np.column_stack((i, j, buckets[i], l)), values=np.ones(len(j)),
    )
    topic_matrix = MembershipMatrix(len(topics), len(users), np.column_stack((j, l)))

    # Tree groups: questions by subsite, then by first tag, each ascending.
    first_tag = p.tag[p.tag_start[questions]]
    order = np.lexsort((first_tag, question_site))
    bounds = np.flatnonzero(np.diff(question_site[order]) | np.diff(first_tag[order])) + 1
    nested = {}
    for group in np.split(order, bounds):
        nested.setdefault(int(question_site[group[0]]), []).append(group.tolist())
    tree_g = 1.0 - tree_s
    sg = {level: (tree_s, tree_g) for level in range(TREE_LEAF_LEVEL)}
    tree = tree_from_nested(list(nested.values()), sg_by_level=sg)

    return BuildInputs(
        tensor=tensor,
        site_matrix=site_matrix,
        topic_matrix=topic_matrix,
        tree=tree,
        questions=tuple(data.post_keys(questions)),
        topics=topics,
        users=users,
        subsites=subsites,
        bucket_edges=edges,
        tree_s=float(tree_s),
        tree_g=float(tree_g),
    )
