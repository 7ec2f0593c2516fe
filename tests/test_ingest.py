"""Dump parsing, sampling, reputation arithmetic, and model-input assembly."""

import os
import pickle
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qaexpert.errors import ContractViolation, DataError, DumpParseError, EmptyInputError
from qaexpert.hierarchy import HierarchyTree, TreePenalty
from qaexpert.ingest import (
    QaDataset,
    ReputationLedger,
    build_inputs,
    merge_datasets,
    parse_dump,
    question_scores,
    reputation_scores,
    sample_dataset,
)
from qaexpert.serialize import load_reputation, reputation_text, save_reputation
from qaexpert.synthetic import make_corpus, write_subsite_dump

import ingest_oracles as oracles
import records as rec
from model_oracles import to_dense
from records import Post, Vote
from conftest import FIXTURE_POSTS, FIXTURE_SITE, FIXTURE_USERS, FIXTURE_VOTES


def parse_site(site_dir, name):
    return parse_dump(
        os.path.join(site_dir, "Posts.xml"),
        os.path.join(site_dir, "Votes.xml"),
        os.path.join(site_dir, "Users.xml"),
        name,
    )


class TestParseDump:
    def test_fixture_counts(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        assert len(rec.questions(data)) == 1
        assert len(rec.answers(data)) == 2
        assert len(rec.votes(data)) == 3
        assert rec.users(data) == (1, 2, 3)

    def test_tags_are_namespaced(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        (question,) = rec.questions(data)
        assert question.tags == (f"{FIXTURE_SITE}/a",)

    def test_pipe_separated_tags(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "|alpha|beta|"},
        ]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], [{"Id": 1}])
        data = parse_site(site, "s")
        assert rec.questions(data)[0].tags == ("s/alpha", "s/beta")

    def test_empty_files_give_empty_dataset(self, tmp_path):
        site = os.path.join(tmp_path, "empty")
        write_subsite_dump(site, [], [], [])
        data = parse_site(site, "empty")
        assert rec.posts(data) == () and rec.votes(data) == () and rec.users(data) == ()

    def test_orphan_answer_names_the_post(self, tmp_path):
        posts = [{"Id": 5, "PostTypeId": 2, "ParentId": 99, "OwnerUserId": 1}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], [{"Id": 1}])
        with pytest.raises(DataError, match="5"):
            parse_site(site, "s")

    def test_malformed_xml_reports_line(self, tmp_path):
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, [], [], [])
        with open(os.path.join(site, "Posts.xml"), "w") as fh:
            fh.write("<posts>\n  <row Id broken\n</posts>\n")
        with pytest.raises(DumpParseError) as err:
            parse_site(site, "s")
        assert err.value.line == 2
        assert "Posts.xml" in str(err.value)

    def test_duplicate_post_id_rejected(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<a>"},
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<b>"},
        ]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], [{"Id": 1}])
        with pytest.raises(DataError, match="duplicate"):
            parse_site(site, "s")

    def test_account_id_becomes_canonical(self, tmp_path):
        posts = [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 7, "Tags": "<a>"}]
        users = [{"Id": 7, "AccountId": 4242}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], users)
        data = parse_site(site, "s")
        assert rec.users(data) == (4242,)
        assert rec.questions(data)[0].owner == 4242

    @pytest.mark.parametrize("noisy", [False, True])
    def test_skipped_rows_counted_without_warning(self, tmp_path, noisy):
        posts = [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<a>"}]
        votes = [{"Id": 1, "PostId": 1, "VoteTypeId": 2}]
        if noisy:
            posts.append({"Id": 9, "PostTypeId": 4, "OwnerUserId": 1})
            votes.append({"Id": 2, "PostId": 1, "VoteTypeId": 8})
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = parse_site(site, "s")
        assert (data.skipped_posts, data.skipped_votes) == ((1, 1) if noisy else (0, 0))
        assert len(rec.posts(data)) == 1 and len(rec.votes(data)) == 1

    def test_skipped_counts_survive_pickling(self, tmp_path):
        # a forked parse worker sends its datasets back pickled
        posts = [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<a>"},
                 {"Id": 2, "PostTypeId": 5, "OwnerUserId": 1},
                 {"Id": 3, "PostTypeId": 6, "OwnerUserId": 1}]
        votes = [{"Id": 1, "PostId": 1, "VoteTypeId": 16}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}])
        data = pickle.loads(pickle.dumps(parse_site(site, "s"), protocol=pickle.HIGHEST_PROTOCOL))
        assert (data.skipped_posts, data.skipped_votes) == (2, 1)

    def test_repeated_tag_counts_once(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<b><a><b>"},
            {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
            {"Id": 3, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "|c|c|"},
            {"Id": 4, "PostTypeId": 2, "ParentId": 3, "OwnerUserId": 2},
        ]
        votes = [{"Id": 1, "PostId": 2, "VoteTypeId": 2},
                 {"Id": 2, "PostId": 4, "VoteTypeId": 2}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}, {"Id": 2}])
        data = parse_site(site, "s")
        # first-seen order, so the first tag still picks the tree leaf
        assert [q.tags for q in rec.questions(data)] == [("s/b", "s/a"), ("s/c",)]
        tables = build_inputs(data)
        assert tables.tensor.values.tolist() == [1.0, 1.0, 1.0]
        assert [g.tolist() for g in tables.tree.level_groups(2)] == [[0], [1]]
        assert rec.ledger_scores(reputation_scores(data)) == {
            (2, "s/a"): 10, (2, "s/b"): 10, (2, "s/c"): 10,
        }

    def test_unresolvable_owner_kept_without_owner(self, tmp_path):
        posts = [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 55, "Tags": "<a>"}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], [{"Id": 1}])
        data = parse_site(site, "s")
        assert rec.questions(data)[0].owner is None


# A small valid dump, one list of row elements per file.
ROWS = {
    "Users.xml": ("users", ['<row Id="1" />', '<row Id="2" AccountId="20" />']),
    "Posts.xml": ("posts", [
        '<row Id="1" PostTypeId="1" OwnerUserId="1" Tags="&lt;a&gt;" />',
        '<row Id="2" PostTypeId="2" ParentId="1" OwnerUserId="2" />',
    ]),
    "Votes.xml": ("votes", [
        '<row Id="1" PostId="2" VoteTypeId="2" UserId="1" />',
        '<row Id="2" PostId="1" VoteTypeId="3" />',
    ]),
}


def write_rows(site, extra):
    """Write the ROWS dump, with ``extra[file]`` rows inserted after the
    first row of that file.  Line 1 is the XML declaration, line 2 the
    root element, so the first inserted row sits on line 4."""
    os.makedirs(site, exist_ok=True)
    for name, (root, rows) in ROWS.items():
        lines = ['<?xml version="1.0" encoding="utf-8"?>', f"<{root}>", "  " + rows[0]]
        lines += ["  " + row for row in extra.get(name, [])]
        lines += ["  " + row for row in rows[1:]] + [f"</{root}>", ""]
        with open(os.path.join(site, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))


class TestParseErrors:
    def test_unchanged_rows_parse(self, tmp_path):
        write_rows(tmp_path, {})
        data = parse_site(tmp_path, "s")
        assert rec.users(data) == (1, 20)
        assert len(rec.posts(data)) == 2 and len(rec.votes(data)) == 2

    @pytest.mark.parametrize("name, row, attr", [
        ("Users.xml", '<row Id="u3" />', "Id"),
        ("Users.xml", '<row Id="3" AccountId="a3" />', "AccountId"),
        ("Posts.xml", '<row Id="3" PostTypeId="2" ParentId="1" OwnerUserId="x7" />',
         "OwnerUserId"),
        ("Posts.xml", '<row Id="p3" PostTypeId="1" />', "Id"),
        ("Posts.xml", '<row Id="3" PostTypeId="1" AcceptedAnswerId="z" />',
         "AcceptedAnswerId"),
        # an answer converts ParentId, never AcceptedAnswerId
        ("Posts.xml", '<row Id="3" PostTypeId="2" AcceptedAnswerId="z" ParentId="y" />',
         "ParentId"),
        ("Votes.xml", '<row Id="3" PostId="p1" VoteTypeId="2" />', "PostId"),
        ("Votes.xml", '<row Id="3" PostId="1" VoteTypeId="2" UserId="v" />', "UserId"),
    ])
    def test_bad_integer_names_attribute_and_line(self, tmp_path, name, row, attr):
        write_rows(tmp_path, {name: [row]})
        with pytest.raises(DumpParseError) as err:
            parse_site(tmp_path, "s")
        assert err.value.line == 4
        assert f"attribute {attr}=" in str(err.value)
        assert f"{name}:4]" in str(err.value)

    @pytest.mark.parametrize("name", list(ROWS))
    def test_syntax_error_gives_expat_message_and_line(self, tmp_path, name):
        write_rows(tmp_path, {name: ['<row Id="3" />', '<row Id="4" Tags="a & b" />']})
        with pytest.raises(ET.ParseError) as oracle:
            ET.parse(os.path.join(tmp_path, name))
        assert oracle.value.position[0] == 5
        with pytest.raises(DumpParseError) as err:
            parse_site(tmp_path, "s")
        assert err.value.line == 5
        assert str(err.value).startswith("not well-formed (invalid token) [")
        assert err.value.path.endswith(name)

    def test_duplicate_user_id_names_its_line(self, tmp_path):
        write_rows(tmp_path, {"Users.xml": ['<row Id="1" AccountId="7" />']})
        with pytest.raises(DumpParseError) as err:
            parse_site(tmp_path, "s")
        assert err.value.line == 4
        assert str(err.value) == f"duplicate user id 1 [{tmp_path}/Users.xml:4]"

    def test_bad_row_reported_before_a_later_syntax_error(self, tmp_path):
        write_rows(tmp_path, {"Posts.xml": [
            '<row Id="3" PostTypeId="1" OwnerUserId="x" />', '<row Id="4" broken />',
        ]})
        with pytest.raises(DumpParseError) as err:
            parse_site(tmp_path, "s")
        assert err.value.line == 4
        assert "OwnerUserId" in str(err.value)

    def test_bad_vote_row_reported_before_a_later_syntax_error(self, tmp_path):
        write_rows(tmp_path, {"Votes.xml": [
            '<row Id="3" PostId="1" VoteTypeId="3" UserId="u" />', '<row Id="4" broken />',
        ]})
        with pytest.raises(DumpParseError) as err:
            parse_site(tmp_path, "s")
        assert str(err.value) == (
            f"attribute UserId='u' is not an integer [{tmp_path}/Votes.xml:4]"
        )

    @pytest.mark.parametrize("extra, name, message", [
        # users are read first: their bad row wins over a later file's
        ({"Users.xml": ['<row Id="x" />'], "Posts.xml": ['<row Id="y" PostTypeId="1" />']},
         "Users.xml", "attribute Id='x' is not an integer"),
        ({"Users.xml": ['<row Id="3" />', '<row broken />'],
          "Posts.xml": ['<row Id="y" PostTypeId="1" />']},
         "Users.xml", "not well-formed (invalid token)"),
        # every file is read before the posts are validated
        ({"Posts.xml": ['<row Id="3" PostTypeId="1" />', '<row Id="3" PostTypeId="1" />'],
          "Votes.xml": ['<row Id="3" PostId="1" VoteTypeId="2" UserId="q" />']},
         "Votes.xml", "attribute UserId='q' is not an integer"),
    ])
    def test_first_file_fault_wins(self, tmp_path, extra, name, message):
        write_rows(tmp_path, extra)
        with pytest.raises(DumpParseError) as err:
            parse_site(tmp_path, "s")
        assert err.value.path.endswith(name)
        assert str(err.value).startswith(message + " [")

    @pytest.mark.parametrize("posts, message", [
        # duplicate ids are found before any reference is followed
        ([{"Id": 4, "PostTypeId": 2, "ParentId": 99}, {"Id": 1, "PostTypeId": 1},
          {"Id": 1, "PostTypeId": 1}],
         "duplicate post id 1 in subsite s"),
        # of two faulty posts, the one with the smaller id is reported
        ([{"Id": 9, "PostTypeId": 2, "ParentId": 98}, {"Id": 8, "PostTypeId": 2, "ParentId": 97}],
         "answer 8 in subsite s references missing question 97"),
        ([{"Id": 6, "PostTypeId": 2, "ParentId": 99}, {"Id": 5, "PostTypeId": 2}],
         "answer 5 in subsite s references missing question None"),
        ([{"Id": 1, "PostTypeId": 1, "AcceptedAnswerId": 3}, {"Id": 3, "PostTypeId": 1},
          {"Id": 4, "PostTypeId": 2, "ParentId": 99}],
         "question 1 accepts 3, which is not one of its answers"),
        ([{"Id": 2, "PostTypeId": 1, "AcceptedAnswerId": 5},
          {"Id": 5, "PostTypeId": 2, "ParentId": 1}, {"Id": 1, "PostTypeId": 1}],
         "question 2 accepts 5, which is not one of its answers"),
    ])
    def test_first_faulty_post_wins(self, tmp_path, posts, message):
        write_subsite_dump(tmp_path, posts, [], [{"Id": 1}])
        with pytest.raises(DataError) as err:
            parse_site(tmp_path, "s")
        assert str(err.value) == message

    @pytest.mark.parametrize("name, row", [
        ("Posts.xml", '<row Id="3" PostTypeId="1" AcceptedAnswerId="9223372036854775808" />'),
        ("Posts.xml", '<row Id="-9223372036854775809" PostTypeId="2" ParentId="1" />'),
        ("Users.xml", '<row Id="3" AccountId="99999999999999999999" />'),
    ])
    def test_id_beyond_64_bits_names_its_line(self, tmp_path, name, row):
        write_rows(tmp_path, {name: [row]})
        with pytest.raises(DumpParseError) as err:
            parse_site(tmp_path, "s")
        assert str(err.value) == f"id beyond 64 bits [{tmp_path}/{name}:4]"

    def test_missing_id_names_the_row(self, tmp_path):
        write_rows(tmp_path, {"Posts.xml": ['<row PostTypeId="1" />']})
        with pytest.raises(DumpParseError, match="post row lacks Id") as err:
            parse_site(tmp_path, "s")
        assert err.value.line == 4


def _tag_names(raw):
    if raw.startswith("<"):
        return re.findall(r"<([^<>]+)>", raw)
    return [t for t in raw.split("|") if t]


def reread_site(site_dir, name):
    """Users, posts and votes of one subsite, re-read with ElementTree."""

    def rows(filename):
        root = ET.parse(os.path.join(site_dir, filename)).getroot()
        return [row.attrib for row in root.iter("row")]

    canonical = {int(a["Id"]): int(a.get("AccountId", a["Id"])) for a in rows("Users.xml")}
    posts = []
    for a in rows("Posts.xml"):
        owner = canonical.get(int(a["OwnerUserId"])) if "OwnerUserId" in a else None
        if a.get("PostTypeId") == "1":
            accepted = int(a["AcceptedAnswerId"]) if "AcceptedAnswerId" in a else None
            tags = tuple(f"{name}/{t}" for t in _tag_names(a.get("Tags", "")))
            posts.append(Post(int(a["Id"]), name, "question", owner, None, accepted, tags))
        elif a.get("PostTypeId") == "2":
            parent = int(a["ParentId"]) if "ParentId" in a else None
            posts.append(Post(int(a["Id"]), name, "answer", owner, parent))
    post_ids = {p.post_id for p in posts}
    kinds = {"1": "accept", "2": "upvote", "3": "downvote"}
    votes = []
    for a in rows("Votes.xml"):
        kind = kinds.get(a.get("VoteTypeId"))
        if kind is None or "PostId" not in a or int(a["PostId"]) not in post_ids:
            continue
        voter = canonical.get(int(a["UserId"])) if "UserId" in a else None
        votes.append(Vote(name, int(a["PostId"]), kind, voter))
    return sorted(set(canonical.values())), posts, votes


def assert_same_columns(got, want):
    """Every column of two datasets, ``ref_row`` and ``vote_row`` included,
    holds the same values of the same type."""
    assert got.posts.sites == want.posts.sites and got.posts.tags == want.posts.tags
    columns = [(got.users, want.users), (got.ref_row, want.ref_row),
               (got.vote_row, want.vote_row)]
    columns += [(vars(got.posts)[k], v) for k, v in vars(want.posts).items()
                if k not in ("sites", "tags")]
    columns += [(vars(got.votes)[k], v) for k, v in vars(want.votes).items()]
    for g, w in columns:
        assert g.dtype == w.dtype and g.tolist() == w.tolist()


class TestParserAndMergeOracle:
    @pytest.fixture
    def sites(self, tmp_path):
        root = tmp_path / "corpus"
        make_corpus(str(root), seed=4, n_subsites=3)
        odd = str(root / "sitez")
        write_subsite_dump(
            odd,
            [
                {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "|x|y|"},
                {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
                {"Id": 3, "PostTypeId": 5, "OwnerUserId": 1},
                {"Id": 4, "PostTypeId": 1, "AcceptedAnswerId": 5},
                {"Id": 5, "PostTypeId": 2, "ParentId": 4, "OwnerUserId": 9},
            ],
            [
                {"Id": 1, "PostId": 2, "VoteTypeId": 2, "UserId": 2},
                {"Id": 2, "PostId": 2, "VoteTypeId": 3, "UserId": 7},
                {"Id": 3, "PostId": 3, "VoteTypeId": 2},
                {"Id": 4, "PostId": 1, "VoteTypeId": 9},
                {"Id": 5, "PostId": 5, "VoteTypeId": 1},
            ],
            [{"Id": 1, "AccountId": 101}, {"Id": 2}],
        )
        return {name: str(root / name) for name in ("sitea", "siteb", "sitec", "sitez")}

    def test_parse_matches_elementtree(self, sites):
        for name, path in sites.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                data = parse_site(path, name)
            users, posts, votes = reread_site(path, name)
            assert rec.users(data) == tuple(users)
            assert rec.posts(data) == tuple(sorted(posts, key=lambda p: p.post_id))
            assert rec.votes(data) == tuple(
                sorted(votes, key=lambda v: (v.post_id, v.kind, v.voter or 0))
            )

    def test_merge_equals_one_dataset(self, sites):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parts = [parse_site(path, name) for name, path in sites.items()]
        whole = rec.dataset(
            [u for p in parts for u in p.users],
            [x for p in parts for x in rec.posts(p)],
            [v for p in parts for v in rec.votes(p)],
        )
        a, b, c, z = parts
        # parts in any order, and a part spanning non-adjacent subsites
        spanning = merge_datasets([a, c])
        for merged in (merge_datasets(parts[::-1]), merge_datasets([spanning, z, b])):
            assert rec.users(merged) == rec.users(whole)
            assert rec.posts(merged) == rec.posts(whole)
            assert rec.votes(merged) == rec.votes(whole)
            assert merged.subsites == whole.subsites
            for post in rec.posts(whole):
                assert rec.post(merged, post.subsite, post.post_id) == post
            with pytest.raises(KeyError):
                rec.post(merged, "sitea", 10**6)

    def test_merge_in_subsite_order_keeps_the_join(self, sites, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a, b, c, z = (parse_site(path, name) for name, path in sites.items())
        spanning = merge_datasets([a, c])
        selects = []
        select = QaDataset._select
        monkeypatch.setattr(QaDataset, "_select",
                            lambda *args, **kw: selects.append(1) or select(*args, **kw))
        # parts out of subsite order, interleaved multi-subsite parts included
        sorted_merges = [(merge_datasets([c, z, a, b]), 4), (merge_datasets([spanning, z, b]), 4),
                         (merge_datasets([spanning, b]), 3), (merge_datasets([z, a]), 2)]
        assert len(selects) == len(sorted_merges)

        def no_select(*args, **kwargs):
            raise AssertionError("parts in subsite order were taken again")

        monkeypatch.setattr(QaDataset, "_select", no_select)
        joined = {4: merge_datasets([a, b, c, z]), 3: merge_datasets([a, b, c]),
                  2: merge_datasets([a, z])}
        for merged, n in sorted_merges:
            assert_same_columns(merged, joined[n])
        assert_same_columns(merge_datasets([a]), a)
        assert_same_columns(merge_datasets([spanning, z]), merge_datasets([a, c, z]))

    def test_merge_rejects_shared_subsite(self, sites):
        part = parse_site(sites["sitea"], "sitea")
        with pytest.raises(DataError, match="sitea"):
            merge_datasets([part, parse_site(sites["siteb"], "siteb"), part])


class TestDatasetInvariants:
    def test_answer_with_tags_rejected(self):
        posts = [
            Post(1, "s", "question", 1, None, None, ("s/a",)),
            Post(2, "s", "answer", 2, 1, None, ("s/a",)),
        ]
        with pytest.raises(DataError):
            rec.dataset([1, 2], posts, [])

    def test_accepted_id_must_name_child_answer(self):
        posts = [
            Post(1, "s", "question", 1, None, 3, ("s/a",)),
            Post(2, "s", "answer", 2, 1, None, ()),
        ]
        with pytest.raises(DataError):
            rec.dataset([1, 2], posts, [])

    def test_vote_on_missing_post_rejected(self):
        posts = [Post(1, "s", "question", 1, None, None, ("s/a",))]
        votes = [Vote("s", 9, "upvote", None)]
        with pytest.raises(DataError):
            rec.dataset([1], posts, votes)

    def test_merge_combines_subsites(self, fixture_dump, tmp_path):
        other = os.path.join(tmp_path, "othersite")
        write_subsite_dump(
            other,
            [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 9, "Tags": "<b>"}],
            [],
            [{"Id": 9}],
        )
        merged = merge_datasets([
            parse_site(fixture_dump, FIXTURE_SITE),
            parse_site(other, "othersite"),
        ])
        assert merged.subsites == (FIXTURE_SITE, "othersite")
        assert rec.users(merged) == (1, 2, 3, 9)


class TestSampleDataset:
    def test_full_sample_is_identity(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        out = sample_dataset(data, len(rec.users(data)), seed=0)
        assert rec.users(out) == rec.users(data)
        assert rec.posts(out) == rec.posts(data)
        assert rec.votes(out) == rec.votes(data)

    def test_same_seed_same_output(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        a = sample_dataset(data, 2, seed=11)
        b = sample_dataset(data, 2, seed=11)
        assert rec.users(a) == rec.users(b) and rec.posts(a) == rec.posts(b)
        assert rec.votes(a) == rec.votes(b)

    def test_idempotent(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        once = sample_dataset(data, 2, seed=3)
        twice = sample_dataset(once, 2, seed=3)
        assert rec.users(once) == rec.users(twice) and rec.posts(once) == rec.posts(twice)

    def test_sampling_the_questioner_keeps_question_and_answers(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        hit = None
        for seed in range(200):
            out = sample_dataset(data, 1, seed=seed)
            if rec.users(out) == (1,):
                hit = out
                break
        assert hit is not None, "no seed selected the questioner"
        kinds = sorted(p.kind for p in rec.posts(hit))
        assert kinds == ["answer", "answer", "question"]

    def test_oversized_request_clamps_with_warning(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        with pytest.warns(UserWarning, match="keeping all"):
            out = sample_dataset(data, 50, seed=0)
        assert rec.users(out) == rec.users(data)

    def test_accepted_id_cleared_when_answer_dropped(self, tmp_path):
        # Question owner sampled alone: the question survives through its
        # answers' parents only if an answer's owner was sampled, so here
        # the accepted answer vanishes and the marker must follow it.
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<a>",
             "AcceptedAnswerId": 2},
            {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
            {"Id": 3, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 3},
        ]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], [{"Id": 1}, {"Id": 2}, {"Id": 3}])
        data = parse_site(site, "s")
        hit = None
        for seed in range(200):
            out = sample_dataset(data, 1, seed=seed)
            if rec.users(out) == (3,):
                hit = out
                break
        assert hit is not None
        (question,) = rec.questions(hit)
        assert question.accepted_id is None
        assert {p.post_id for p in rec.posts(hit)} == {1, 3}


class TestReputation:
    def test_fixture_table_arithmetic(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        ledger = reputation_scores(data)
        topic = f"{FIXTURE_SITE}/a"
        assert rec.ledger_scores(ledger) == {(2, topic): 35}
        assert ledger.top_users(topic) == [2]

    def test_question_votes(self, tmp_path):
        posts = [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<t>"}]
        votes = [
            {"Id": 1, "PostId": 1, "VoteTypeId": 2},
            {"Id": 2, "PostId": 1, "VoteTypeId": 3},
        ]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}])
        ledger = reputation_scores(parse_site(site, "s"))
        assert rec.ledger_scores(ledger) == {(1, "s/t"): 3}

    def test_answer_downvote_debits_voter_and_owner(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<t>"},
            {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
        ]
        votes = [{"Id": 1, "PostId": 2, "VoteTypeId": 3, "UserId": 3}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}, {"Id": 2}, {"Id": 3}])
        ledger = reputation_scores(parse_site(site, "s"))
        assert rec.ledger_scores(ledger) == {(2, "s/t"): -2, (3, "s/t"): -1}
        assert ledger.skipped_voter_events == 0

    def test_anonymous_answer_downvote_counts_skip(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<t>"},
            {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
        ]
        votes = [{"Id": 1, "PostId": 2, "VoteTypeId": 3}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}, {"Id": 2}])
        ledger = reputation_scores(parse_site(site, "s"))
        assert rec.ledger_scores(ledger) == {(2, "s/t"): -2}
        assert ledger.skipped_voter_events == 1

    def test_accept_marker_and_vote_count_once(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<t>",
             "AcceptedAnswerId": 2},
            {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
        ]
        votes = [{"Id": 1, "PostId": 2, "VoteTypeId": 1}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}, {"Id": 2}])
        ledger = reputation_scores(parse_site(site, "s"))
        assert rec.ledger_scores(ledger) == {(2, "s/t"): 15}

    def test_uninvolved_user_has_no_entry(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        ledger = reputation_scores(data)
        assert not any(u == 3 for (u, _) in rec.ledger_scores(ledger))

    def test_top_users_matches_full_scan(self):
        rng = np.random.default_rng(0)
        scores = {}
        for u, t, v in zip(rng.integers(0, 40, 300), rng.integers(0, 6, 300),
                           rng.integers(-4, 5, 300)):
            scores[(int(u), f"t{t}")] = int(v)
        ledger = rec.ledger(scores)
        assert ledger.topics() == sorted({t for _, t in scores})
        for topic in ledger.topics() + ["missing"]:
            scan = sorted((u for u, t in scores if t == topic),
                          key=lambda u: (-scores[u, topic], u))
            assert ledger.top_users(topic) == scan
            assert ledger.top_users(topic, 3) == scan[:3]
            ledger.top_users(topic).clear()
            assert ledger.top_users(topic) == scan

    @pytest.mark.parametrize("seed", range(6))
    def test_top_users_matches_sorted_oracle(self, seed):
        """The ranked order against the per-topic sort of (-score, user) pairs,
        on scores with ties, zeros, negatives and both int64 extremes."""
        rng = np.random.default_rng(seed)
        info = np.iinfo(np.int64)
        extremes = [info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max]
        scores = {}
        for u, t in zip(rng.integers(0, 30, 200), rng.integers(0, 5, 200)):
            v = rng.choice(extremes) if rng.random() < 0.3 else rng.integers(-3, 4)
            scores[(int(u), f"t{t}")] = int(v)
        ledger = rec.ledger(scores)
        by_topic = {}
        for (user, topic), score in scores.items():
            by_topic.setdefault(topic, []).append((-score, user))
        assert ledger.topics() == sorted(by_topic)
        for topic in sorted(by_topic) + ["missing"]:
            want = [u for _, u in sorted(by_topic.get(topic, []))]
            got = ledger.top_users(topic)
            assert got == want
            assert all(type(u) is int for u in got)
            for k in (0, 1, 3, len(want) + 2):
                assert ledger.top_users(topic, k) == want[:k]
            got.append(-1)
            assert ledger.top_users(topic) == want and ledger.top_users(topic) is not got

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("order", ["shuffled", "reversed", "by topic, users descending"])
    def test_top_users_matches_oracle_on_rows_in_any_order(self, tmp_path, seed, order):
        """Ties go to the lower user id however the ledger's rows are ordered,
        also where the flat sort key would pass int64; saved, the rows come
        back in (topic, user) order."""
        rng = np.random.default_rng(seed)
        info = np.iinfo(np.int64)
        scores = {}
        for u, t in zip(rng.integers(0, 25, 150), rng.integers(0, 4, 150)):
            v = info.max if rng.random() < 0.05 * (seed % 2) else rng.integers(-2, 3)
            scores[(int(u), f"t{t}")] = int(v)
        ranked = rec.ledger(scores)
        n = len(ranked.user)
        perm = {"shuffled": rng.permutation(n), "reversed": np.arange(n)[::-1],
                "by topic, users descending": np.lexsort((-ranked.user, ranked.topic))}[order]
        ledger = ReputationLedger(ranked.topic_names, ranked.user[perm], ranked.topic[perm],
                                  ranked.score[perm])
        for topic in ledger.topic_names + ("missing",):
            want = sorted((u for u, t in scores if t == topic), key=lambda u: (-scores[u, topic], u))
            assert ledger.top_users(topic) == want
            assert ledger.top_users(topic, 2) == want[:2]
        path = tmp_path / "reputation.csv"
        save_reputation(ledger, path)
        assert path.read_text() == reputation_text(ranked)
        assert rec.ledger_rows(load_reputation(path)) == rec.ledger_rows(ranked)

    def test_top_users_skips_names_without_rows(self):
        ledger = ReputationLedger(("s/a", "s/b", "s/c"), np.array([1, 1, 2]), np.array([2, 0, 2]),
                                  np.array([5, 7, 9]))
        assert ledger.topics() == ["s/a", "s/c"]
        assert ledger.top_users("s/c") == [2, 1]
        assert ledger.top_users("s/a") == [1]
        assert ledger.top_users("s/b") == []

    def test_multi_tag_question_credits_each_topic(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<a><b>"},
            {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
        ]
        votes = [{"Id": 1, "PostId": 2, "VoteTypeId": 2}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}, {"Id": 2}])
        ledger = reputation_scores(parse_site(site, "s"))
        assert rec.ledger_scores(ledger) == {(2, "s/a"): 10, (2, "s/b"): 10}


class TestBuildInputs:
    def test_fixture_shapes(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        tables = build_inputs(data)
        assert tables.tensor.nnz == 2
        assert tables.tensor.dims == (1, 1, 5, 3)
        assert tables.topics == (f"{FIXTURE_SITE}/a",)
        assert tables.users == (1, 2, 3)
        assert tables.subsites == (FIXTURE_SITE,)
        # both answerers participate in the one subsite and the one topic
        assert tables.site_matrix.rows == 1
        np.testing.assert_array_equal(
            to_dense(tables.site_matrix), [[0.0, 1.0, 1.0]]
        )
        np.testing.assert_array_equal(
            to_dense(tables.topic_matrix), [[0.0, 1.0, 1.0]]
        )

    def test_fixture_tree_is_single_chain(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        tree = build_inputs(data).tree
        assert tree.n_rows == 1
        assert tree.level.tolist() == [0, 1, 2, 3]
        assert [g.tolist() for g in tree.level_groups(1)] == [[0]]

    @pytest.mark.parametrize("n_sites", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_tree_arrays_equal_the_nested_list_tree(self, seed, n_sites):
        rng = np.random.default_rng(seed)
        posts = []
        for site in ("sa", "sb", "sc")[:n_sites]:
            for pid in range(1, rng.integers(2, 12)):
                # few tags, so some topics hold a single question
                tags = tuple(dict.fromkeys(
                    f"{site}/t{t}" for t in rng.integers(0, 5, rng.integers(0, 3))))
                posts.append(Post(pid, site, "question", 1, None, None, tags))
            posts.append(Post(100, site, "question", 1, None, None, (f"{site}/only",)))
        # a subsite without tagged questions, dropped from the tree
        posts += [Post(1, "sd", "question", 1), Post(2, "sd", "answer", 1, 1)]
        posts = [posts[i] for i in rng.permutation(len(posts))]
        data = rec.dataset([1], posts, [])
        with pytest.warns(UserWarning, match="sd"):
            tree = build_inputs(data).tree
        want = oracles.nested_tree(data)
        for name in ("parent", "s", "g", "leaf_row"):
            got_a, want_a = getattr(tree, name), getattr(want, name)
            assert got_a.dtype == want_a.dtype
            np.testing.assert_array_equal(got_a, want_a, err_msg=name)

    @pytest.mark.parametrize("s", [0, 0.3, 1 / 3, 0.5, 0.7, 1])
    @pytest.mark.parametrize("n_subsites", [1, 2, 3])
    def test_no_split_of_the_node_weights_changes_the_row_weights(self, tmp_path, n_subsites,
                                                                  s):
        # With s + g = 1 at every node a question row's weights telescope to
        # 1, so the penalty is lambda_w/2 * ||U1||^2: build_inputs writes
        # s = g = 1/2, and no other split would change a fit.
        make_corpus(str(tmp_path), seed=n_subsites, n_subsites=n_subsites)
        names = ("sitea", "siteb", "sitec")[:n_subsites]
        tree = build_inputs(merge_datasets([parse_site(str(tmp_path / n), n)
                                            for n in names])).tree
        internal = tree.leaf_row < 0
        assert tree.s[internal].tolist() == tree.g[internal].tolist() == [0.5] * internal.sum()
        assert (TreePenalty(tree, 0.1).row_weights == 1.0).all()
        split = HierarchyTree(tree.parent, np.where(internal, s, np.nan),
                              np.where(internal, 1 - s, np.nan), tree.leaf_row)
        # s = 0.3's products round to one ulp below 1; every other split sums to 1
        assert (TreePenalty(split, 0.1).row_weights == (1 - 2**-53 if s == 0.3 else 1)).all()

    def test_vote_bucket_assignment(self, tmp_path):
        # scores 0, 1, 3, 10 and a downvoted question cover all five bands
        posts = []
        votes = []
        vid = 0
        score_plan = [(-1, 0), (0, 1), (1, 2), (3, 3), (10, 4)]
        for qid, (score, _) in enumerate(score_plan, start=1):
            posts.append({
                "Id": qid * 10, "PostTypeId": 1, "OwnerUserId": 1,
                "Tags": f"<t{qid}>",
            })
            posts.append({
                "Id": qid * 10 + 1, "PostTypeId": 2, "ParentId": qid * 10,
                "OwnerUserId": 2,
            })
            for _ in range(abs(score)):
                vid += 1
                votes.append({
                    "Id": vid, "PostId": qid * 10,
                    "VoteTypeId": 2 if score > 0 else 3,
                })
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}, {"Id": 2}])
        data = parse_site(site, "s")
        tables = build_inputs(data)
        got = {}
        for (i, j, k, l), v in zip(tables.tensor.indices, tables.tensor.values):
            got[tables.questions[i]] = k
        for qid, (score, bucket) in enumerate(score_plan, start=1):
            assert got[("s", qid * 10)] == bucket, f"score {score}"

    def test_question_scores_from_votes(self, tmp_path):
        posts = [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<t>"}]
        votes = [
            {"Id": 1, "PostId": 1, "VoteTypeId": 2},
            {"Id": 2, "PostId": 1, "VoteTypeId": 2},
            {"Id": 3, "PostId": 1, "VoteTypeId": 3},
        ]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, votes, [{"Id": 1}])
        data = parse_site(site, "s")
        assert question_scores(data).tolist() == [1]

    def test_untagged_questions_left_out(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<a>"},
            {"Id": 2, "PostTypeId": 1, "OwnerUserId": 1},
        ]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], [{"Id": 1}])
        tables = build_inputs(parse_site(site, "s"))
        assert len(tables.questions) == 1

    def test_no_tagged_questions_is_empty_input(self, tmp_path):
        posts = [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 1}]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], [{"Id": 1}])
        with pytest.raises(EmptyInputError):
            build_inputs(parse_site(site, "s"))

    def test_subsite_without_tagged_questions_dropped(self, fixture_dump, tmp_path):
        bare = os.path.join(tmp_path, "bare")
        write_subsite_dump(
            bare, [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 8}], [], [{"Id": 8}],
        )
        merged = merge_datasets([
            parse_site(fixture_dump, FIXTURE_SITE),
            parse_site(bare, "bare"),
        ])
        with pytest.warns(UserWarning, match="bare"):
            tables = build_inputs(merged)
        assert tables.subsites == (FIXTURE_SITE,)
        assert tables.site_matrix.rows == 1

    def test_disjoint_subsites_give_orthogonal_site_rows(self, tmp_path):
        sites = []
        for name, uid in (("sa", 1), ("sb", 2)):
            d = os.path.join(tmp_path, name)
            write_subsite_dump(
                d,
                [
                    {"Id": 1, "PostTypeId": 1, "OwnerUserId": uid, "Tags": "<t>"},
                    {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": uid},
                ],
                [],
                [{"Id": uid}],
            )
            sites.append(parse_site(d, name))
        tables = build_inputs(merge_datasets(sites))
        dense = to_dense(tables.site_matrix)
        assert float(dense[0] @ dense[1]) == 0.0

    def test_bucket_edges_must_increase(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        with pytest.raises(DataError):
            build_inputs(data, bucket_edges=(0, 3, 3, 10))

    def test_index_tables_are_bijections(self, fixture_dump):
        data = parse_site(fixture_dump, FIXTURE_SITE)
        tables = build_inputs(data)
        assert len(set(tables.questions)) == len(tables.questions) == tables.tensor.dims[0]
        assert len(set(tables.topics)) == len(tables.topics) == tables.tensor.dims[1]
        assert len(set(tables.users)) == len(tables.users) == tables.tensor.dims[3]

    def test_secondary_tags_count_as_evidence_but_not_tree_placement(self, tmp_path):
        posts = [
            {"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": "<a><b>"},
            {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
        ]
        site = os.path.join(tmp_path, "s")
        write_subsite_dump(site, posts, [], [{"Id": 1}, {"Id": 2}])
        tables = build_inputs(parse_site(site, "s"))
        assert tables.tensor.nnz == 2  # one cell per tag
        # the question's tree leaf sits under its first tag only
        assert np.count_nonzero(tables.tree.level == 2) == 1


def random_dataset(seed):
    """Shuffled records over three random subsites and a fixed one.

    Owners and voters come from the users table, from ids outside it, and
    from None; questions carry zero to three tags; accept votes land on
    questions as well as on answers.  The fixed subsite ``sz`` holds each
    of these cases at least once, and user 2's answer there gets one
    upvote and five anonymous downvotes: +10 and 5 × −2 on ``sz/zero``.
    """
    rng = np.random.default_rng(seed)
    table = list(range(1, 13))
    people = table + [50, 51, None]

    def someone():
        return people[rng.integers(len(people))]

    posts, votes = [], []
    for site in ("sa", "sb", "sc"):
        pid = 0
        for _ in range(rng.integers(2, 8)):
            pid += 1
            qid = pid
            tags = tuple(dict.fromkeys(
                f"{site}/t{t}" for t in rng.integers(0, 4, rng.integers(0, 4))
            ))
            answers = []
            for _ in range(rng.integers(0, 4)):
                pid += 1
                answers.append(Post(pid, site, "answer", someone(), qid))
            accepted = None
            if answers and rng.random() < 0.5:
                accepted = answers[rng.integers(len(answers))].post_id
            posts.append(Post(qid, site, "question", someone(), None, accepted, tags))
            posts.extend(answers)
    for post in list(posts):
        for _ in range(rng.integers(0, 5)):
            kind = ("accept", "upvote", "downvote")[rng.integers(3)]
            votes.append(Vote(post.subsite, post.post_id, kind, someone()))
    posts += [Post(1, "sz", "question", 1, None, None, ("sz/zero",)),
              Post(2, "sz", "answer", 2, 1), Post(3, "sz", "answer", 50, 1),
              Post(4, "sz", "question", 51, None, None, ("sz/x", "sz/zero")),
              Post(5, "sz", "question", 1)]
    votes += [Vote("sz", 2, "upvote", 3)] + [Vote("sz", 2, "downvote", None)] * 5
    votes += [Vote("sz", 3, "upvote", 4), Vote("sz", 3, "downvote", 51),
              Vote("sz", 4, "accept", 1), Vote("sz", 5, "upvote", None)]
    posts = [posts[i] for i in rng.permutation(len(posts))]
    votes = [votes[i] for i in rng.permutation(len(votes))]
    return rec.dataset(table, posts, votes)


def assert_matches_oracles(data, reference=None):
    """The columnar kernels on ``data`` equal the per-record oracles on
    ``reference``, records of the same dataset (``data`` by default)."""
    reference = data if reference is None else reference
    want = oracles.question_scores(reference)
    got = question_scores(data)
    keys = [(p.subsite, p.post_id) for p in rec.posts(data)]
    assert dict(zip(keys, got.tolist())) == {key: want.get(key, 0) for key in keys}

    ledger = reputation_scores(data)
    scores, skipped = oracles.reputation_scores(reference)
    want = sorted(scores.items(), key=lambda item: item[0][::-1])
    assert rec.ledger_rows(ledger) == [(u, t, v) for (u, t), v in want]
    assert ledger.skipped_voter_events == skipped

    try:
        expected = oracles.build_inputs(reference)
    except EmptyInputError:
        with pytest.raises(EmptyInputError):
            build_inputs(data)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tables = build_inputs(data)
    for name in ("questions", "topics", "users", "subsites"):
        assert getattr(tables, name) == expected[name], name
    assert tables.tensor.dims == expected["tensor"].dims
    np.testing.assert_array_equal(tables.tensor.indices, expected["tensor"].indices)
    np.testing.assert_array_equal(tables.tensor.values, expected["tensor"].values)
    for name in ("site_matrix", "topic_matrix"):
        got_m, want_m = getattr(tables, name), expected[name]
        assert (got_m.rows, got_m.cols) == (want_m.rows, want_m.cols)
        np.testing.assert_array_equal(got_m.indices, want_m.indices)
    for name in ("parent", "s", "g", "leaf_row"):
        np.testing.assert_array_equal(getattr(tables.tree, name), getattr(expected["tree"], name))


class TestColumnarAgainstOracles:
    def test_fixture(self, fixture_dump):
        assert_matches_oracles(parse_site(fixture_dump, FIXTURE_SITE))

    def test_elementtree_parsed_corpus(self, tmp_path):
        root = tmp_path / "corpus"
        make_corpus(str(root), seed=2, n_subsites=3)
        names = ("sitea", "siteb", "sitec")
        merged = merge_datasets([parse_site(str(root / name), name) for name in names])
        users, posts, votes = [], [], []
        for name in names:
            site_users, site_posts, site_votes = reread_site(str(root / name), name)
            users += site_users
            posts += site_posts
            votes += site_votes
        assert_matches_oracles(merged, rec.dataset(users, posts, votes))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_datasets(self, seed):
        data = random_dataset(seed)
        assert any(v.kind == "accept" and rec.post(data, v.subsite, v.post_id).kind == "question"
                   for v in rec.votes(data))
        assert {len(q.tags) for q in rec.questions(data)} >= {0, 2}
        assert any(a.owner is not None and a.owner not in rec.users(data)
                   for a in rec.answers(data))
        assert any(v.voter is None or v.voter not in rec.users(data) for v in rec.votes(data))
        assert_matches_oracles(data)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_samples(self, seed):
        data = random_dataset(seed)
        for n_users in (1, 4, 9):
            got = sample_dataset(data, n_users, seed)
            want = oracles.sample_dataset(data, n_users, seed)
            for read in (rec.users, rec.posts, rec.votes):
                assert read(got) == read(want)
            assert got.subsites == want.subsites
            assert_matches_oracles(got)

    @pytest.mark.parametrize("seed", range(8))
    def test_ledger_is_grouped_by_topic_and_round_trips(self, tmp_path, seed):
        """Ingest's ledger rows strictly ascend by (topic name, user id), load
        back from the file it writes as the same columns, and rank each topic
        as a full scan of its rows does."""
        ledger = reputation_scores(random_dataset(seed))
        keys = [(t, u) for u, t, _ in rec.ledger_rows(ledger)]
        assert len(keys) > 10 and all(a < b for a, b in zip(keys, keys[1:]))
        path = tmp_path / "reputation.csv"
        save_reputation(ledger, path)
        back = load_reputation(path)
        assert back.topic_names == tuple(ledger.topics())
        assert [ledger.topic_names[c] for c in ledger.topic.tolist()] == \
            [back.topic_names[c] for c in back.topic.tolist()]
        for name in ("user", "score"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ledger, name))
        scores = rec.ledger_scores(ledger)
        for topic in ledger.topic_names + ("missing",):
            scan = sorted((u for u, t in scores if t == topic),
                          key=lambda u: (-scores[u, topic], u))
            for k in (None, 0, 1, 2, len(scan) + 1):
                assert back.top_users(topic, k) == ledger.top_users(topic, k) == scan[:k]

    def test_zero_sum_credit_keeps_its_row(self, tmp_path):
        ledger = reputation_scores(random_dataset(0))
        assert rec.ledger_scores(ledger)[2, "sz/zero"] == 0
        path = tmp_path / "reputation.csv"
        save_reputation(ledger, path)
        assert "\n2,sz/zero,0\n" in path.read_text()
