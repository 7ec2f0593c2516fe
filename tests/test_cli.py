"""Batch CLI behavior: exit codes, file outputs, determinism, provenance."""

import csv
import hashlib
import json
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qaexpert import cli, serialize
from qaexpert.cli import main
from qaexpert.coupled import fit_joint
from qaexpert.errors import DataError, DumpParseError, SolverDiverged
from qaexpert.ranking import RankedList
from qaexpert.synthetic import make_corpus, write_subsite_dump

LINE = re.compile(r"^\d+,\d+,[0-9eE+.-]+$")


def micro_corpus(root):
    """Two tiny subsites with one lopsided expert per specialist tag."""
    alpha_posts, alpha_votes = [], []
    qid, aid, vid = 0, 9, 0

    def add_topic(posts, votes, tag, asker, expert, other):
        nonlocal qid, aid, vid
        for n in range(3):
            qid += 1
            q = qid
            aid += 1
            best = aid
            posts.append({"Id": q, "PostTypeId": 1, "OwnerUserId": asker,
                          "Tags": f"<{tag}>", "AcceptedAnswerId": best})
            posts.append({"Id": best, "PostTypeId": 2, "ParentId": q,
                          "OwnerUserId": expert})
            for _ in range(2):
                vid += 1
                votes.append({"Id": vid, "PostId": best, "VoteTypeId": 2})
            vid += 1
            votes.append({"Id": vid, "PostId": best, "VoteTypeId": 1})
            if n == 0:
                aid += 1
                posts.append({"Id": aid, "PostTypeId": 2, "ParentId": q,
                              "OwnerUserId": other})

    add_topic(alpha_posts, alpha_votes, "tensor", asker=9, expert=101, other=102)
    add_topic(alpha_posts, alpha_votes, "common", asker=9, expert=102, other=101)
    alpha_users = [{"Id": u, "AccountId": u} for u in (9, 101, 102)]

    beta_posts, beta_votes = [], []
    qid, aid, vid = 0, 9, 0
    add_topic(beta_posts, beta_votes, "trees", asker=8, expert=201, other=202)
    add_topic(beta_posts, beta_votes, "common", asker=8, expert=202, other=201)
    beta_users = [{"Id": u, "AccountId": u} for u in (8, 201, 202)]

    alpha = os.path.join(root, "alpha")
    beta = os.path.join(root, "beta")
    write_subsite_dump(alpha, alpha_posts, alpha_votes, alpha_users)
    write_subsite_dump(beta, beta_posts, beta_votes, beta_users)
    return alpha, beta


def edit_line(path, line, text):
    """Replace the 1-based ``line`` of the file at ``path`` by ``text``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[line - 1] = text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture
def corpus(tmp_path):
    return micro_corpus(str(tmp_path / "dumps"))


@pytest.fixture
def snapshot(corpus, tmp_path):
    snap = str(tmp_path / "snap")
    assert main(["ingest", *corpus, "--out-dir", snap]) == 0
    return snap


@pytest.fixture
def fitted(snapshot, tmp_path):
    out = str(tmp_path / "fit")
    code = main(["fit", snapshot, "--out-dir", out,
                 "--rank", "2", "--max-iters", "40", "--seed", "0"])
    assert code == 0
    return os.path.join(out, "model.txt")


class TestIngest:
    def test_writes_snapshot_files(self, snapshot, capsys):
        for name in ("tensor.txt", "site_matrix.txt", "topic_matrix.txt",
                     "tree.txt", "reputation.csv", "manifest.json"):
            assert os.path.exists(os.path.join(snapshot, name))
        manifest = json.load(open(os.path.join(snapshot, "manifest.json")))
        assert manifest["topics"] == [
            "alpha/common", "alpha/tensor", "beta/common", "beta/trees"]
        assert manifest["users"] == [8, 9, 101, 102, 201, 202]

    def test_missing_dump_file_exits_1(self, tmp_path, capsys):
        site = tmp_path / "lonely"
        site.mkdir()
        (site / "Votes.xml").write_text("<votes></votes>")
        (site / "Users.xml").write_text("<users></users>")
        code = main(["ingest", str(site), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Posts.xml" in err and "lonely" in err

    def test_duplicate_basenames_exit_2(self, corpus, tmp_path, capsys):
        twin = tmp_path / "elsewhere" / "alpha"
        twin.mkdir(parents=True)
        code = main(["ingest", corpus[0], str(twin),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "unique" in capsys.readouterr().err

    def test_deterministic_across_directories(self, corpus, tmp_path, capsys):
        a, b = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert main(["ingest", *corpus, "--out-dir", a]) == 0
        assert main(["ingest", *corpus, "--out-dir", b]) == 0
        for name in ("tensor.txt", "site_matrix.txt", "topic_matrix.txt",
                     "tree.txt", "reputation.csv", "manifest.json"):
            pa = os.path.join(a, name)
            pb = os.path.join(b, name)
            assert open(pa, "rb").read() == open(pb, "rb").read(), name

    def test_post_ids_near_int64_limits_write_the_same_snapshot(
            self, tmp_path, monkeypatch, capsys):
        # Post ids spread monotonically toward -2**62 and 2**62 put the keys
        # of the post and vote sorts past int64, so both take np.lexsort;
        # rows listed in reverse give the sorts work to do.
        make_corpus(str(tmp_path / "plain"), seed=5, n_subsites=1)
        plain, spread = tmp_path / "plain" / "sitea", tmp_path / "spread" / "sitea"
        spread.mkdir(parents=True)
        posts = (plain / "Posts.xml").read_text()
        top = max(int(i) for i in re.findall(r' Id="(\d+)"', posts))
        step = 2**63 // (top + 1)

        def respread(text, names):
            text = re.sub(f' ({names})="(\\d+)"',
                          lambda m: f' {m[1]}="{-(2**62) + int(m[2]) * step}"', text)
            lines = text.splitlines(keepends=True)
            rows = [n for n, line in enumerate(lines) if line.startswith("  <row ")]
            lines[rows[0]:rows[-1] + 1] = lines[rows[0]:rows[-1] + 1][::-1]
            return "".join(lines)

        (spread / "Posts.xml").write_text(respread(posts, "Id|ParentId|AcceptedAnswerId"))
        (spread / "Votes.xml").write_text(respread((plain / "Votes.xml").read_text(), "PostId"))
        (spread / "Users.xml").write_bytes((plain / "Users.xml").read_bytes())
        lexsort, calls = np.lexsort, []
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        written = []
        for site in (plain, spread):
            del calls[:]
            snap = tmp_path / f"snap-{site.parent.name}"
            assert main(["ingest", str(site), "--out-dir", str(snap)]) == 0
            written.append({f: (snap / f).read_bytes() for f in (
                "tensor.txt", "site_matrix.txt", "topic_matrix.txt", "tree.txt",
                "reputation.csv")})
            assert len(calls) == (2 if site == spread else 0)
        assert written[0] == written[1]

    def test_vote_buckets_flag_changes_tensor_dim(self, corpus, tmp_path, capsys):
        snap = str(tmp_path / "snap2")
        assert main(["ingest", *corpus, "--out-dir", snap,
                     "--vote-buckets", "0,5"]) == 0
        header = open(os.path.join(snap, "tensor.txt")).readline()
        dims = [int(t) for t in header.split()[1:]]
        assert dims[2] == 3

    def test_every_internal_node_weighs_a_half(self, snapshot, tmp_path, capsys):
        tree = serialize.load_tree(os.path.join(snapshot, "tree.txt"))
        internal = tree.leaf_row < 0
        assert tree.s[internal].tolist() == tree.g[internal].tolist() == [0.5] * internal.sum()
        assert open(os.path.join(snapshot, "tree.txt")).readline() == "-1 -1\n"
        manifest = json.load(open(os.path.join(snapshot, "manifest.json")))
        assert "tree_s" not in manifest and "tree_s" not in manifest["config"]
        # no split of the weights changes a fit, so there is no flag to set one
        assert main(["ingest", str(tmp_path / "missing"), "--out-dir", str(tmp_path / "out"),
                     "--tree-s", "0.3"]) == 2
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --tree-s 0.3\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("flags", [
        ["--sample-users", "0"],
        ["--seed", "-1"], ["--seed", "-1", "--sample-users", "5"],
        ["--vote-buckets", "3,1"], ["--vote-buckets", "0,1,1"],
    ])
    def test_rejected_flag_value_exits_2(self, tmp_path, capsys, flags):
        # The dump is missing: the flag is rejected before any input is read.
        code = main(["ingest", str(tmp_path / "missing"), "--out-dir", str(tmp_path / "out"),
                     *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"usage error: {flags[0]}")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("entry", ['"sample_users": "ten"', '"seed": "x"',
                                       '"vote_buckets": "0,one"'])
    def test_non_numeric_config_value_exits_2(self, corpus, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{" + entry + "}")
        code = main(["ingest", *corpus, "--out-dir", str(tmp_path / "out"),
                     "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not os.path.exists(tmp_path / "out")

    def test_unknown_config_key_exits_2(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tree_depth": 3}')
        code = main(["ingest", *corpus, "--out-dir", str(tmp_path / "out"),
                     "--config", str(cfg)])
        assert code == 2
        assert "tree_depth" in capsys.readouterr().err


class TestFit:
    def test_writes_model_and_history(self, fitted, capsys):
        assert os.path.exists(fitted)
        hist = os.path.join(os.path.dirname(fitted), "objective_history.csv")
        assert open(hist).readline() == "sweep,objective\n"
        assert open(fitted).readline().startswith("joint-model rank 2")

    @pytest.mark.parametrize("flags", [
        ["--rank", "0"], ["--max-iters", "0"], ["--tol", "-1"], ["--lambda-x", "-1"],
        ["--lambda-w", "-0.5"], ["--lambda-s", "-1"], ["--lambda-t", "-2"],
        ["--tol", "nan"], ["--tol", "inf"], ["--lambda-x", "nan"], ["--lambda-x", "inf"],
        ["--lambda-w", "nan"], ["--lambda-s", "nan"], ["--lambda-t", "inf"], ["--seed", "-1"],
    ])
    def test_rejected_flag_value_exits_2(self, tmp_path, capsys, flags):
        # The snapshot is missing: the flag is rejected before any input is read.
        code = main(["fit", str(tmp_path / "missing"), "--out-dir", str(tmp_path / "f"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flags[0][2:].replace("-", "_") in err
        assert not os.path.exists(tmp_path / "f")

    @pytest.mark.parametrize("value", ["-1", "NaN", "Infinity"])
    def test_rejected_config_value_exits_2(self, snapshot, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda_site": %s}' % value)
        code = main(["fit", snapshot, "--out-dir", str(tmp_path / "f"), "--config", str(cfg)])
        assert code == 2
        assert "lambda_site" in capsys.readouterr().err

    @pytest.mark.parametrize("name, line, text", [
        ("tree.txt", 3, "    2 2 9 leaf 0"),
        ("tree.txt", 1, "0 0 -1 half 0.5"),
        ("tensor.txt", 1, "dims 1 2 x 4"),
        ("tensor.txt", 1, "dims 1 2 3"),
        ("site_matrix.txt", 1, "2 2 2"),
        ("topic_matrix.txt", 1, "four 6"),
    ])
    def test_malformed_snapshot_file_names_path_and_line(self, snapshot, tmp_path, capsys,
                                                         name, line, text):
        path = os.path.join(snapshot, name)
        edit_line(path, line, text)
        code = main(["fit", snapshot, "--out-dir", str(tmp_path / "f")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")

    @pytest.mark.parametrize("name, line, text", [
        ("tensor.txt", 2, "0 999 0 0 1"),
        ("tensor.txt", 2, "0 0 0 0 nan"),
        ("tensor.txt", 1, "dims 0 2 3 4"),
        ("site_matrix.txt", 2, "0 999"),
        ("topic_matrix.txt", 1, "-1 6"),
    ])
    def test_snapshot_content_error_names_path(self, snapshot, tmp_path, capsys,
                                               name, line, text):
        path = os.path.join(snapshot, name)
        edit_line(path, line, text)
        code = main(["fit", snapshot, "--out-dir", str(tmp_path / "f")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_missing_snapshot_exits_1(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nowhere"),
                     "--out-dir", str(tmp_path / "f")])
        assert code == 1

    def test_deterministic(self, snapshot, tmp_path, capsys):
        outs = []
        for tag in ("f1", "f2"):
            out = str(tmp_path / tag)
            assert main(["fit", snapshot, "--out-dir", out,
                         "--rank", "2", "--max-iters", "25", "--seed", "3"]) == 0
            outs.append(out)
        for name in ("model.txt", "model.txt.bin", "objective_history.csv"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name

    def test_live_fit_writes_no_warning(self, snapshot, tmp_path, capsys):
        assert main(["fit", snapshot, "--out-dir", str(tmp_path / "fl"),
                     "--rank", "2", "--max-iters", "10", "--seed", "0"]) == 0
        assert capsys.readouterr().err == ""

    def test_collapsed_fit_warns_and_exits_0(self, snapshot, tmp_path, capsys):
        # No tensor nonzeros next to non-empty membership matrices: every
        # CP component norm comes out exactly 0.
        tensor = os.path.join(snapshot, "tensor.txt")
        header = open(tensor).readline()
        with open(tensor, "w") as fh:
            fh.write(header)
        capsys.readouterr()
        out = str(tmp_path / "fz")
        assert main(["fit", snapshot, "--out-dir", out,
                     "--rank", "3", "--max-iters", "5", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: 0 of 3 components are live; every topic will rank as no-signal"]
        assert captured.out.startswith("fit rank 3 in 5 sweeps")
        assert os.path.exists(os.path.join(out, "model.txt"))

    def test_partly_collapsed_fit_warns_with_the_live_count(self, snapshot, tmp_path, capsys):
        # At rank 6 the micro corpus keeps some components and loses others.
        out = tmp_path / "fp"
        assert main(["fit", snapshot, "--out-dir", str(out),
                     "--rank", "6", "--max-iters", "10", "--seed", "0"]) == 0
        norms = serialize.load_model(str(out / "model.txt"))[0].norms
        live = int(np.count_nonzero(norms))
        assert 0 < live < 6
        assert capsys.readouterr().err.splitlines() == [f"warning: {live} of 6 components are live"]

    def test_config_file_applies_and_flag_wins(self, snapshot, tmp_path, capsys):
        cfg = tmp_path / "fit.json"
        cfg.write_text('{"rank": 3, "max_iters": 10}')
        out = str(tmp_path / "fa")
        assert main(["fit", snapshot, "--out-dir", out, "--config", str(cfg)]) == 0
        assert open(os.path.join(out, "model.txt")).readline().startswith(
            "joint-model rank 3")
        out2 = str(tmp_path / "fb")
        assert main(["fit", snapshot, "--out-dir", out2, "--config", str(cfg),
                     "--rank", "2"]) == 0
        assert open(os.path.join(out2, "model.txt")).readline().startswith(
            "joint-model rank 2")

    def test_lambda_site_only_via_config(self, snapshot, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "fit.json"
        cfg.write_text('{"lambda_site": 5.0, "max_iters": 10, "rank": 2}')
        out = str(tmp_path / "fs")
        fits = []

        def recording(*args):
            fits.append(fit_joint(*args))
            return fits[-1]

        monkeypatch.setattr("qaexpert.cli.fit_joint", recording)
        assert main(["fit", snapshot, "--out-dir", out, "--config", str(cfg)]) == 0
        assert fits[0].config.lambda_site == 5.0
        text = open(os.path.join(out, "model.txt")).read()
        assert '"lambda_site": 5.0' in text

    def test_diverged_state_saved(self, snapshot, tmp_path, monkeypatch, capsys):
        from qaexpert.coupled import CpModel, JointConfig, JointModel

        # a stale state with the snapshot's dims, so the saved file serves
        dims = serialize.load_tensor(os.path.join(snapshot, "tensor.txt")).dims
        cp = CpModel([np.ones((d, 1)) for d in dims], np.ones(1))
        stale = JointModel(cp, np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                           JointConfig(rank=1))

        def explode(*a, **kw):
            raise SolverDiverged("went non-finite", last_state=stale)

        monkeypatch.setattr("qaexpert.cli.fit_joint", explode)
        out = str(tmp_path / "fd")
        code = main(["fit", snapshot, "--out-dir", out])
        assert code == 1
        diverged = os.path.join(out, "model.txt.diverged")
        assert os.path.exists(diverged + ".bin")
        assert not os.path.exists(os.path.join(out, "model.txt"))
        assert not os.path.exists(os.path.join(out, "model.txt.bin"))
        assert "diverged" in capsys.readouterr().err
        got, topics, users, manifest = serialize.load_model(diverged)
        listed, digest = serialize.load_manifest(os.path.join(snapshot, "manifest.json"))
        assert (topics, users, manifest) == (listed["topics"], listed["users"], digest)
        assert got.topic.tolist() == cp.factors[1].tolist()
        assert main(["recommend", "--model", diverged, "--snapshot", snapshot,
                     "--topic", "alpha/tensor", "--k", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2


class TestRecommend:
    def test_output_format(self, fitted, snapshot, capsys):
        code = main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "alpha/tensor", "--k", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        head = json.loads(lines[0].removeprefix("# config "))
        assert head["topic"] == "alpha/tensor"
        assert head["k"] == 3
        assert len(lines) == 4
        for n, line in enumerate(lines[1:], start=1):
            assert LINE.match(line), line
            assert line.split(",")[0] == str(n)

    def test_repeated_main_calls_share_no_state(self, fitted, snapshot, tmp_path, capsys):
        query = ["--model", fitted, "--snapshot", snapshot, "--topic", "alpha/tensor"]
        assert main(["recommend", *query, "--k", "3"]) == 0
        assert main(["evaluate", "--model", fitted, "--snapshot", snapshot,
                     "--out-dir", str(tmp_path / "eval"), "--k-list", "1"]) == 0
        capsys.readouterr()
        assert main(["recommend", *query]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0].removeprefix("# config ")) == {
            "k": 10, "topic": "alpha/tensor",
        }
        assert len(lines) == 1 + 6

    def test_bare_tag_resolves_unique_suffix(self, fitted, snapshot, capsys):
        code = main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "tensor", "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"topic": "alpha/tensor"' in out

    @pytest.mark.parametrize("entry", ['"k": 0', '"k": "three"'])
    def test_rejected_config_k_exits_2(self, fitted, snapshot, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{" + entry + "}")
        code = main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "alpha/tensor", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_ambiguous_bare_tag_exits_2(self, fitted, snapshot, capsys):
        code = main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "common", "--k", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "ambiguous" in err and "alpha/common" in err and "beta/common" in err

    def test_unknown_topic_exits_2_with_hint(self, fitted, snapshot, capsys):
        code = main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "tens", "--k", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown topic" in err
        assert "nearest: alpha/tensor" in err

    def test_k_beyond_pool_returns_pool(self, fitted, snapshot, capsys):
        code = main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "alpha/tensor", "--k", "50"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 6

    def test_snapshot_mismatch_exits_1(self, fitted, corpus, tmp_path, capsys):
        other = str(tmp_path / "resnap")
        assert main(["ingest", *corpus, "--out-dir", other,
                     "--vote-buckets", "0,2,5"]) == 0
        code = main(["recommend", "--model", fitted, "--snapshot", other,
                     "--topic", "alpha/tensor"])
        assert code == 1
        assert "different snapshot" in capsys.readouterr().err

    def test_truncated_ranking_file_exits_1(self, fitted, snapshot, tmp_path, capsys):
        cut = tmp_path / "cut.txt"
        with open(serialize.ranking_path(fitted), "rb") as fh, \
                open(serialize.ranking_path(cut), "wb") as out:
            out.write(fh.read()[:300])
        code = main(["recommend", "--model", str(cut), "--snapshot", snapshot,
                     "--topic", "alpha/tensor"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {cut}.bin: digest: expected a final "
                                           "'digest <sha256>' line\n")

    def test_no_signal_topic_reports_status(self, fitted, snapshot,
                                            monkeypatch, capsys):
        monkeypatch.setattr(
            "qaexpert.cli.rank_experts",
            lambda model, topic, k: RankedList(topic, (), status="no-signal"),
        )
        code = main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "alpha/tensor"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "# status no-signal"


class TestEvaluate:
    def test_writes_report(self, fitted, snapshot, tmp_path, capsys):
        out = str(tmp_path / "eval")
        code = main(["evaluate", "--model", fitted, "--snapshot", snapshot,
                     "--out-dir", out, "--k-list", "1,2"])
        assert code == 0
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "topic,k,precision,mrr,n_candidates"
        ks = {int(line.split(",")[1]) for line in lines[2:]}
        assert ks == {1, 2}
        assert sum(line.startswith("ALL,") for line in lines) == 2

    def test_summary_echoed_to_stdout(self, fitted, snapshot, tmp_path, capsys):
        out = str(tmp_path / "eval")
        assert main(["evaluate", "--model", fitted, "--snapshot", snapshot,
                     "--out-dir", out]) == 0
        stdout = capsys.readouterr().out
        assert "evaluated 4 topics" in stdout
        assert "ALL k=1:" in stdout

    @pytest.mark.parametrize("k_list", ["one,two", "0,3", "3,-1", "1,1,3"])
    def test_bad_k_list_exits_2(self, fitted, snapshot, tmp_path, capsys, k_list):
        code = main(["evaluate", "--model", fitted, "--snapshot", snapshot,
                     "--out-dir", str(tmp_path / "e"), "--k-list", k_list])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: --k-list")
        # reported before any input is read: a missing model does not change it
        code = main(["evaluate", "--model", str(tmp_path / "missing.txt"), "--snapshot",
                     snapshot, "--out-dir", str(tmp_path / "e"), "--k-list", k_list])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: --k-list")

    @pytest.mark.parametrize("row", ["201,alpha/tensor", "x,alpha/tensor,3", "201,alpha/tensor,"])
    def test_malformed_reputation_row_names_path_and_line(self, fitted, snapshot, tmp_path,
                                                          capsys, row):
        path = os.path.join(snapshot, "reputation.csv")
        edit_line(path, 2, row)
        code = main(["evaluate", "--model", fitted, "--snapshot", snapshot,
                     "--out-dir", str(tmp_path / "e")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")

    def test_model_from_other_snapshot_exits_1(self, fitted, corpus,
                                               tmp_path, capsys):
        other = str(tmp_path / "resnap")
        assert main(["ingest", *corpus, "--out-dir", other,
                     "--vote-buckets", "0,2"]) == 0
        code = main(["evaluate", "--model", fitted, "--snapshot", other,
                     "--out-dir", str(tmp_path / "e")])
        assert code == 1


def missing_inputs(command, tmp_path):
    """``command``'s arguments with every input path missing, and the output
    directory they would write (``recommend`` prints instead)."""
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    argv = {"ingest": ["ingest", missing, "--out-dir", out],
            "fit": ["fit", missing, "--out-dir", out],
            "recommend": ["recommend", "--model", missing, "--snapshot", missing,
                          "--topic", "t"],
            "evaluate": ["evaluate", "--model", missing, "--snapshot", missing,
                         "--out-dir", out]}[command]
    return argv, out


@pytest.mark.parametrize("argv, message", [
    (["fit", "snap", "--out-dir", "out", "--bogus"], "unrecognized arguments: --bogus"),
    (["fit", "snap", "--out-dir", "out", "--rank", "x"], "argument --rank: invalid int value: 'x'"),
    (["recommend", "--model", "m"], "the following arguments are required: --snapshot, --topic"),
], ids=["unknown flag", "flag value of the wrong type", "missing flags"])
def test_argument_parser_errors_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert os.listdir(tmp_path) == []


class TestConfigTypes:
    """A config value has its key's type, and a seed is not negative,
    checked before any input is read."""

    @pytest.mark.parametrize("command, text", [
        ("fit", "[1]"), ("fit", "5"), ("fit", '"rank"'), ("fit", '{"tol": null}'),
        ("fit", '{"rank": null}'), ("fit", '{"rank": 2.7}'), ("fit", '{"max_iters": true}'),
        ("fit", '{"seed": 1.9}'), ("fit", '{"rank": 2.0}'), ("fit", '{"lambda_x": true}'),
        ("fit", '{"lambda_x": "0.1"}'), ("fit", '{"lambda_site": false}'),
        ("ingest", '{"sample_users": 2.5}'), ("ingest", '{"sample_users": true}'),
        ("ingest", '{"seed": null}'), ("ingest", '{"vote_buckets": [0, 1]}'),
        ("ingest", '{"tree_s": 0.5}'), ("recommend", '{"k": 2.0}'),
        ("recommend", '{"k": null}'), ("evaluate", '{"k_list": 5}'),
        ("fit", '{"seed": -1}'), ("ingest", '{"seed": -1}'),
        ("ingest", '{"vote_buckets": "0,3,3"}'),
        ("fit", '{"tol": 1%s}' % ("0" * 5000)),  # more digits than Python converts
    ])
    def test_mistyped_config_exits_2(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        # Every input path is missing: the config is rejected before any is read.
        argv, out = missing_inputs(command, tmp_path)
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["ingest", "fit", "recommend", "evaluate"])
    @pytest.mark.parametrize("data, message", [
        (b'{"rank": 3,', "Expecting property name"),
        (b'{"rank": 3, "x": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ])
    def test_config_that_is_not_json_exits_2(self, tmp_path, capsys, command, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        argv, out = missing_inputs(command, tmp_path)
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --config {cfg}: {message}")
        assert not os.path.exists(out)

    def test_numbers_and_nulls_where_the_defaults_take_them(self, snapshot, tmp_path,
                                                            capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda_x": 1, "lambda_site": null, "tol": 0, "rank": 2, '
                       '"max_iters": 3}')
        out = tmp_path / "fit"
        assert main(["fit", snapshot, "--out-dir", str(out), "--config", str(cfg)]) == 0
        assert (out / "model.txt").read_text().startswith("joint-model rank 2")
        cfg.write_text('{"sample_users": null}')
        assert main(["ingest", *micro_corpus(str(tmp_path / "dumps")),
                     "--out-dir", str(tmp_path / "snap"), "--config", str(cfg)]) == 0

    def test_integer_beyond_the_float_range_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda_w": 1%s}' % ("0" * 399))
        argv, out = missing_inputs("fit", tmp_path)
        assert main([*argv, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == ("usage error: config lambda_w takes float, not an "
                                           "integer beyond the float range\n")
        assert not os.path.exists(out)

    def test_integer_for_a_float_key_fits_as_that_float(self, snapshot, tmp_path, capsys):
        fits = []
        for text in ('{"lambda_x": 1, "tol": 0}', '{"lambda_x": 1.0, "tol": 0.0}'):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            out = tmp_path / f"fit{len(fits)}"
            assert main(["fit", snapshot, "--out-dir", str(out), "--config", str(cfg),
                         "--rank", "2", "--max-iters", "5"]) == 0
            fits.append([(out / name).read_bytes()
                         for name in ("objective_history.csv", "model.txt")])
        # the config echo, in model.txt, shows the values as floats too
        assert fits[0] == fits[1]
        assert b'"lambda_x": 1.0' in fits[0][1] and b'"tol": 0.0' in fits[0][1]


def resealed_ranking(fitted, path, edit):
    """The fitted model's ranking file, with ``edit`` applied to its bytes
    before the digest line, sealed by a matching one and written beside
    ``path``; returns (``path``, the ranking file's path)."""
    with open(serialize.ranking_path(fitted), "rb") as fh:
        body = edit(fh.read()[:-72])
    ranking = serialize.ranking_path(path)
    with open(ranking, "wb") as fh:
        fh.write(body + f"digest {hashlib.sha256(body).hexdigest()}\n".encode())
    return str(path), ranking


def resealed(fitted, path, manifest_digest, earlier=False):
    """The fitted model, written to ``path`` with its ranking file beside it,
    each recording ``manifest_digest`` under a digest line that matches: a
    model fit on that manifest by a version that wrote the same factors,
    and, where ``earlier``, model.txt alone, as a version before the ranking
    file wrote it."""
    with open(fitted) as fh:
        body = "".join(f"manifest {manifest_digest}\n" if line.startswith("manifest ") else line
                       for line in fh.readlines()[:-1])
    path.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    if not earlier:
        resealed_ranking(fitted, path, lambda ranking: re.sub(
            rb"\nmanifest [0-9a-f]{64}\n", f"\nmanifest {manifest_digest}\n".encode(), ranking,
            count=1))
    return str(path)


def rewritten_manifest(snapshot, copy, edit):
    """A copy of ``snapshot`` whose manifest ``edit`` changed in place, written
    as ingest writes one; returns the manifest's path."""
    shutil.copytree(snapshot, copy)
    manifest = copy / "manifest.json"
    payload = json.loads(manifest.read_text())
    edit(payload)
    manifest.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return manifest


DIFFERENT_SNAPSHOT = "error: model was fit against a different snapshot (model records "


def refit_error(model):
    """What recommend and evaluate print for a model without its ranking
    file, as a version before that file wrote it."""
    return (f"error: {model}: no ranking file {model}.bin beside it; a model fit by an "
            "earlier version must be refit\n")


class TestManifestShape:
    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    @pytest.mark.parametrize("text", ["[]", '"x"', '{"format": 4}',
                                      '{"format": 4, "topics": "t", "users": []}',
                                      '{"format": 4, "topics": [], "users": {}}',
                                      '{"format": 1, "topics": [], "users": []}',
                                      '{"format": 4, "topics": [1, 2, 3, 4], "users": [8]}',
                                      '{"format": 4, "topics": ["alpha/tensor"], '
                                      '"users": [true]}',
                                      pytest.param('{"format": 4, "topics": ["a', id="not-JSON"),
                                      pytest.param('{"topics": ["\xff"]}', id="not-UTF-8"),
                                      pytest.param("[" * 100000, id="nested-too-deep")])
    def test_refit_on_a_broken_manifest_exits_1(self, fitted, snapshot, tmp_path, capsys,
                                                command, text):
        broken = tmp_path / "broken"
        shutil.copytree(snapshot, broken)
        manifest = broken / "manifest.json"
        manifest.write_bytes(text.encode("latin-1"))  # "\xff" as the byte 0xff
        refit = tmp_path / "refit"
        assert main(["fit", str(broken), "--out-dir", str(refit), "--rank", "2",
                     "--max-iters", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and "Traceback" not in err
        assert not refit.exists()
        # recommend and evaluate parse no manifest: its digest is not the model's
        argv = {"recommend": ["--topic", "alpha/tensor"],
                "evaluate": ["--out-dir", str(tmp_path / "eval")]}[command]
        assert main([command, "--model", fitted, "--snapshot", str(broken), *argv]) == 1
        assert capsys.readouterr().err.startswith(DIFFERENT_SNAPSHOT)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("old", [1, 2, 3])
    def test_a_snapshot_of_an_earlier_format_must_be_ingested_again(self, fitted, snapshot,
                                                                     tmp_path, capsys, old):
        manifest = rewritten_manifest(snapshot, tmp_path / "old",
                                      lambda payload: payload.update(format=old))
        want = (f"error: {manifest}: a format-{old} snapshot, which this version does not "
                "read; ingest the dumps again to write a format-4 one\n")
        refit = tmp_path / "refit"
        assert main(["fit", str(manifest.parent), "--out-dir", str(refit), "--rank", "2",
                     "--max-iters", "2"]) == 1
        assert capsys.readouterr().err == want and not refit.exists()
        # recommend and evaluate parse no manifest: a model fit on another one
        # is refused at its digest, one that records this manifest, as an
        # earlier version fit it, for want of its ranking file
        digest = serialize.file_digest(manifest)
        model = resealed(fitted, tmp_path / "model.txt", digest, earlier=True)
        for command, argv in (("recommend", ["--topic", "alpha/tensor"]),
                              ("evaluate", ["--out-dir", str(tmp_path / "eval")])):
            assert main([command, "--model", fitted, "--snapshot", str(manifest.parent),
                         *argv]) == 1
            assert capsys.readouterr().err.startswith(DIFFERENT_SNAPSHOT)
            assert main([command, "--model", model, "--snapshot", str(manifest.parent),
                         *argv]) == 1
            assert capsys.readouterr().err == refit_error(model)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    @pytest.mark.parametrize("key", ["topics", "users"])
    def test_a_list_one_entry_short_exits_1(self, fitted, snapshot, tmp_path, capsys,
                                            command, key):
        manifest = rewritten_manifest(snapshot, tmp_path / "short", lambda m: m[key].pop())
        refit = tmp_path / "refit"
        assert main(["fit", str(manifest.parent), "--out-dir", str(refit), "--rank", "2",
                     "--max-iters", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: lists ") and "Traceback" not in err
        assert "tensor's dims" in err and not refit.exists()
        # recommend and evaluate read their lists from the model, and refuse
        # the edited manifest by its digest
        argv = {"recommend": ["--topic", "alpha/tensor"],
                "evaluate": ["--out-dir", str(tmp_path / "eval")]}[command]
        assert main([command, "--model", fitted, "--snapshot", str(manifest.parent), *argv]) == 1
        assert capsys.readouterr().err.startswith(DIFFERENT_SNAPSHOT)
        assert not (tmp_path / "eval").exists()

    def test_a_manifest_that_holds_tree_s_still_fits_and_serves(self, fitted, snapshot,
                                                                tmp_path, capsys):
        def old_layout(payload):  # as ingest wrote it when it took --tree-s
            payload["tree_s"] = payload["config"]["tree_s"] = 0.5
        manifest = rewritten_manifest(snapshot, tmp_path / "old", old_layout)
        old = str(manifest.parent)
        refit = tmp_path / "refit"
        assert main(["fit", old, "--out-dir", str(refit),
                     "--rank", "2", "--max-iters", "40", "--seed", "0"]) == 0
        model = resealed(fitted, tmp_path / "model.txt", serialize.file_digest(manifest))
        assert (refit / "model.txt").read_bytes() == open(model, "rb").read()
        assert (refit / "model.txt.bin").read_bytes() == open(f"{model}.bin", "rb").read()
        capsys.readouterr()
        outputs = []
        for model, snap in ((fitted, snapshot), (str(tmp_path / "model.txt"), old)):
            assert main(["recommend", "--model", model, "--snapshot", snap,
                         "--topic", "alpha/tensor"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def flip_last_digit(line):
    return re.sub(r"\d(?=\D*$)", lambda d: str((int(d.group()) + 1) % 10), line, count=1)


def serve_argv(command, tmp_path):
    return (["--topic", "alpha/tensor"] if command == "recommend"
            else ["--out-dir", str(tmp_path / "e")])


class TestModelDigest:
    # a byte in the header, the topics line, the topic factor and the users
    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    @pytest.mark.parametrize("at", [5, 150, -100, -73])
    def test_flipped_byte_exits_1(self, fitted, snapshot, tmp_path, capsys, at, command):
        model = tmp_path / "model.txt"
        shutil.copy(fitted, model)
        data = bytearray(open(serialize.ranking_path(fitted), "rb").read())
        data[at] ^= 0x10
        ranking = serialize.ranking_path(model)
        with open(ranking, "wb") as fh:
            fh.write(bytes(data))
        code = main([command, "--model", str(model), "--snapshot", snapshot,
                     *serve_argv(command, tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {ranking}: digest: does not match the "
                                           "file's contents\n")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    def test_a_resealed_header_that_lies_names_its_block(self, fitted, snapshot, tmp_path,
                                                         capsys, command):
        model, ranking = resealed_ranking(
            fitted, tmp_path / "model.txt",
            lambda body: re.sub(rb"\nrank 2 ", b"\nrank 1 ", body, count=1))
        assert main([command, "--model", model, "--snapshot", snapshot,
                     *serve_argv(command, tmp_path)]) == 1
        # rank 1: 4 topic, 6 expert and 1 norms values and the 6 user ids, 17
        # words, where the file holds 8 + 12 + 2 values and the 6 ids, 28
        assert capsys.readouterr().err == (f"error: {ranking}: users block: 88 bytes follow "
                                           "it before the digest line\n")

    def test_an_edit_of_model_txt_does_not_reach_serving(self, fitted, snapshot, tmp_path,
                                                         capsys):
        assert main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "alpha/tensor"]) == 0
        want = capsys.readouterr().out
        with open(fitted) as fh:
            lines = fh.readlines()
        at = next(n for n, line in enumerate(lines) if line.startswith("mode 1 rows")) + 1
        lines[at] = flip_last_digit(lines[at])
        with open(fitted, "w") as fh:
            fh.write("".join(lines))
        assert main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "alpha/tensor"]) == 0
        assert capsys.readouterr().out == want


class TestServingFromTheModel:
    """recommend and evaluate take the topic and user labels from the model
    and only hash the manifest, which the model's digest line seals."""

    @staticmethod
    def serve(fitted, snapshot, out, capsys):
        """What three recommend calls and an evaluate print, and its report."""
        for topic in ("alpha/tensor", "trees", "beta/common"):
            assert main(["recommend", "--model", fitted, "--snapshot", snapshot,
                         "--topic", topic, "--k", "4"]) == 0
        assert main(["evaluate", "--model", fitted, "--snapshot", snapshot,
                     "--out-dir", str(out)]) == 0
        return capsys.readouterr(), (out / "report.csv").read_bytes()

    def test_no_serving_call_parses_the_manifest(self, fitted, snapshot, tmp_path,
                                                 monkeypatch, capsys):
        want = self.serve(fitted, snapshot, tmp_path / "eval", capsys)

        def refuse(path):
            raise AssertionError(f"parsed {path}")

        monkeypatch.setattr(serialize, "load_manifest", refuse)
        assert self.serve(fitted, snapshot, tmp_path / "eval", capsys) == want

    def test_serving_reads_no_model_txt(self, fitted, snapshot, tmp_path, capsys):
        want = self.serve(fitted, snapshot, tmp_path / "eval", capsys)
        os.remove(fitted)
        assert self.serve(fitted, snapshot, tmp_path / "eval", capsys) == want

    def test_a_model_without_its_ranking_file_must_be_refit(self, fitted, snapshot, tmp_path,
                                                            capsys):
        digest = serialize.file_digest(os.path.join(snapshot, "manifest.json"))
        model = resealed(fitted, tmp_path / "model.txt", digest, earlier=True)
        for command, argv in (("recommend", ["--topic", "alpha/tensor"]),
                              ("evaluate", ["--out-dir", str(tmp_path / "eval")])):
            assert main([command, "--model", model, "--snapshot", snapshot, *argv]) == 1
            assert capsys.readouterr().err == refit_error(model)
        assert not (tmp_path / "eval").exists()

    def test_a_missing_model_is_an_os_error(self, snapshot, tmp_path, capsys):
        model = tmp_path / "model.txt"
        assert main(["recommend", "--model", str(model), "--snapshot", snapshot,
                     "--topic", "alpha/tensor"]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")

    # an edit of the ranking file's topics list, its line padded as the writer
    # pads it, and the error's text after the block's name
    @pytest.mark.parametrize("edit, why", [
        (lambda labels: labels[:-1], "expected a JSON list of 4 topic strings"),
        (lambda labels: [*labels, "gamma/x"], "expected a JSON list of 4 topic strings"),
        (lambda labels: [*labels[:-1], 1], "expected a JSON list of 4 topic strings"),
    ], ids=["one topic short", "one topic over", "an int topic"])
    def test_topics_that_disagree_with_the_header_exit_1(self, fitted, snapshot, tmp_path,
                                                         capsys, edit, why):
        def edited(body):
            start = body.index(b"\ntopics ") + len(b"\ntopics ")
            end = body.index(b"\n", start) + 1
            line = json.dumps(edit(json.loads(body[start:end]))).encode()
            return body[:start] + line + b" " * (-(start + len(line) + 1) % 8) + b"\n" + body[end:]
        model, ranking = resealed_ranking(fitted, tmp_path / "model.txt", edited)
        for command, argv in (("recommend", ["--topic", "alpha/tensor"]),
                              ("evaluate", ["--out-dir", str(tmp_path / "eval")])):
            assert main([command, "--model", model, "--snapshot", snapshot, *argv]) == 1
            assert capsys.readouterr().err == f"error: {ranking}: topics: {why}, as the header's count gives\n"
        assert not (tmp_path / "eval").exists()


SNAPSHOT_NAMES = ("tensor.txt", "site_matrix.txt", "topic_matrix.txt",
                  "tree.txt", "reputation.csv", "manifest.json")
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def noisy_corpus(root, names=("s1", "s2", "s3", "s4"), bad=None):
    """Small subsites, each with one post and one vote that ingest skips.
    Subsite ``bad`` has a vote whose PostId is not an integer."""
    dirs = []
    for n, name in enumerate(names):
        posts = [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 1, "Tags": f"<t{n}>"},
                 {"Id": 2, "PostTypeId": 2, "ParentId": 1, "OwnerUserId": 2},
                 {"Id": 3, "PostTypeId": 5, "OwnerUserId": 1}]
        votes = [{"Id": 1, "PostId": 2, "VoteTypeId": 2},
                 {"Id": 2, "PostId": 2, "VoteTypeId": 15}]
        if name == bad:
            votes.append({"Id": 3, "PostId": "x", "VoteTypeId": 2})
        users = [{"Id": 1, "AccountId": 10 * n + 1}, {"Id": 2, "AccountId": 10 * n + 2}]
        dirs.append(os.path.join(root, name))
        write_subsite_dump(dirs[-1], posts, votes, users)
    return dirs


def skipped_messages(name):
    return [f"{name}: skipped 1 posts of other kinds",
            f"{name}: skipped 1 votes (unknown kind or missing post)"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def with_workers(monkeypatch, workers):
    monkeypatch.setattr(cli, "_worker_count", lambda n_subsites: min(n_subsites, workers))


class TestPooledIngest:
    @needs_fork
    def test_worker_counts_write_identical_snapshots(self, tmp_path, monkeypatch, capsys):
        make_corpus(str(tmp_path / "dumps"), seed=2, n_subsites=4)
        dirs = [str(tmp_path / "dumps" / f"site{x}") for x in "abcd"]
        assert all(os.path.isdir(d) for d in dirs)
        written = []
        for workers in (1, 2, 3):
            with_workers(monkeypatch, workers)
            snap = tmp_path / f"snap{workers}"
            assert main(["ingest", *dirs, "--out-dir", str(snap)]) == 0
            written.append({f: (snap / f).read_bytes() for f in SNAPSHOT_NAMES})
            assert_no_child_left()
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_manifest_digests_are_those_of_the_written_files(self, tmp_path, monkeypatch,
                                                             capsys, workers):
        if workers > 1 and not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        with_workers(monkeypatch, workers)
        make_corpus(str(tmp_path / "dumps"), seed=5, n_subsites=3)
        dirs = sorted(str(d) for d in (tmp_path / "dumps").iterdir() if d.is_dir())
        snap = tmp_path / "snap"
        assert main(["ingest", *dirs, "--out-dir", str(snap)]) == 0
        assert_no_child_left()
        manifest, digest = serialize.load_manifest(snap / "manifest.json")
        assert digest == serialize.file_digest(snap / "manifest.json")
        files = manifest["files"]
        assert sorted(files) == sorted(SNAPSHOT_NAMES[:-1])
        for name, digest in files.items():
            assert digest == serialize.file_digest(snap / name)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_warnings_in_subsite_order(self, tmp_path, monkeypatch, recwarn, capsys, workers):
        if workers > 1 and not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        with_workers(monkeypatch, workers)
        names = ("s1", "s2", "s3", "s4")
        dirs = noisy_corpus(str(tmp_path / "dumps"), names)
        assert main(["ingest", *dirs, "--out-dir", str(tmp_path / "snap")]) == 0
        assert [str(w.message) for w in recwarn] == sum(map(skipped_messages, names), [])
        assert {w.category for w in recwarn} == {UserWarning}
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_error_in_subsite_k_matches_plain_loop(self, tmp_path, monkeypatch, capsys,
                                                   workers):
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        dirs = noisy_corpus(str(tmp_path / "dumps"), bad="s2")
        argv = ["ingest", *dirs, "--out-dir", str(tmp_path / "snap")]
        results = []
        for count in (1, workers):
            with_workers(monkeypatch, count)
            # "always": under "default" the second run's identical texts,
            # issued from the same line, would show no more
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            results.append((code, capsys.readouterr().err, [str(w.message) for w in caught]))
            assert_no_child_left()
        assert results[0] == results[1]
        code, err, messages = results[1]
        assert code == 1
        assert err.startswith("error: attribute PostId='x' is not an integer [")
        assert err.rstrip().endswith("Votes.xml:5]")
        # the first subsite's warnings are shown, the later subsites' are not
        assert messages == skipped_messages("s1")
        assert not os.path.exists(tmp_path / "snap")

    @needs_fork
    def test_worker_that_exits_without_result_is_an_error(self, tmp_path, monkeypatch,
                                                          capsys):
        with_workers(monkeypatch, 2)
        dirs = noisy_corpus(str(tmp_path / "dumps"))
        parse = cli.parse_dump

        def dies_on_s3(*files, subsite_name):
            if subsite_name == "s3":
                os._exit(3)
            return parse(*files, subsite_name=subsite_name)

        monkeypatch.setattr(cli, "parse_dump", dies_on_s3)
        code = main(["ingest", *dirs, "--out-dir", str(tmp_path / "snap")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ingest worker for subsites ")
        assert "s3" in err and "exited with code 3 without a result" in err
        assert_no_child_left()

    @needs_fork
    def test_unpicklable_error_sent_as_type_name_and_message(self, tmp_path, monkeypatch,
                                                             capsys):
        with_workers(monkeypatch, 2)
        dirs = noisy_corpus(str(tmp_path / "dumps"))

        class LocalError(DataError):  # a local class does not pickle
            pass

        def fails(*files, subsite_name):
            raise LocalError(f"no {subsite_name}")

        monkeypatch.setattr(cli, "parse_dump", fails)
        code = main(["ingest", *dirs, "--out-dir", str(tmp_path / "snap")])
        assert code == 1
        assert capsys.readouterr().err == "error: LocalError: no s1\n"
        assert_no_child_left()

    def test_dump_parse_error_survives_pickling(self):
        exc = DumpParseError("attribute Id='x' is not an integer", "/d/Posts.xml", 7)
        back = pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(back) is DumpParseError
        assert (back.path, back.line, str(back)) == (exc.path, exc.line, str(exc))

    @needs_fork
    def test_parent_failure_reaps_workers_blocked_on_full_pipes(self, monkeypatch):
        # each worker's result overflows its pipe buffer, so a worker can
        # only exit once every read end of its pipe is closed
        with_workers(monkeypatch, 2)
        monkeypatch.setattr(cli, "_parse_subsite", lambda job: "x" * (1 << 20))

        def interrupted(fh):
            raise KeyboardInterrupt

        def timed_out(signum, frame):
            raise TimeoutError("workers were not reaped")

        monkeypatch.setattr(pickle, "load", interrupted)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(20)
        try:
            with pytest.raises(KeyboardInterrupt):
                cli._parse_subsites([([], name) for name in "abcd"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_warnings_formatted_as_by_the_plain_loop(self, tmp_path, monkeypatch, capsys,
                                                     workers):
        if workers > 1 and not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        dirs = noisy_corpus(str(tmp_path / "dumps"))
        argv = ["ingest", *dirs, "--out-dir", str(tmp_path / "snap")]
        with open(cli.__file__, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        lineno = 1 + next(i for i, text in enumerate(source) if "warnings.warn(" in text)
        shown = []
        for count in (1, workers):
            with_workers(monkeypatch, count)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 0
            shown.append([warnings.formatwarning(w.message, w.category, w.filename,
                                                 w.lineno, w.line) for w in caught])
        assert shown[0] == shown[1]
        assert shown[1][0] == (f"{cli.__file__}:{lineno}: UserWarning: "
                               f"s1: skipped 1 posts of other kinds\n"
                               f"  {source[lineno - 1].strip()}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", module=r"qaexpert\.cli$")
            assert main(argv) == 0
        assert caught == []
        with warnings.catch_warnings(record=True) as caught:  # once per location
            warnings.simplefilter("default")
            assert main(argv) == 0 and main(argv) == 0
        assert len(caught) == len(shown[1])

    # the entry point's call of main(), and ``python -m qaexpert.cli``, where
    # the module runs as __main__ yet a filter on qaexpert.cli still applies
    @pytest.mark.parametrize("launch", [
        ["-c", "import sys; from qaexpert.cli import main; sys.exit(main())"],
        ["-m", "qaexpert.cli"]], ids=["entry point", "-m"])
    def test_each_shown_warning_is_one_stderr_line(self, tmp_path, launch):
        dirs = noisy_corpus(str(tmp_path / "dumps"), names=("s1", "s2"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)), env.get("PYTHONPATH", "")])

        def stderr(*options, **extra_env):
            done = subprocess.run(
                [sys.executable, *options, *launch,
                 "ingest", *dirs, "--out-dir", str(tmp_path / "snap")],
                capture_output=True, text=True, timeout=120, env={**env, **extra_env})
            assert done.returncode == 0, done.stderr
            return done.stderr

        assert stderr().splitlines() == [f"UserWarning: {text}" for name in ("s1", "s2")
                                         for text in skipped_messages(name)]
        # Python's filters still decide what shows
        assert stderr("-W", "ignore::UserWarning") == ""
        assert stderr("-W", "ignore::UserWarning:qaexpert.cli") == ""
        assert stderr(PYTHONWARNINGS="ignore") == ""
        assert stderr("-W", "ignore:s1:UserWarning").splitlines() == [
            f"UserWarning: {text}" for text in skipped_messages("s2")]

    def test_warning_format_restored_when_main_returns(self, tmp_path, recwarn, capsys):
        before = warnings.formatwarning
        dirs = noisy_corpus(str(tmp_path / "dumps"))
        assert main(["ingest", *dirs, "--out-dir", str(tmp_path / "snap")]) == 0
        assert warnings.formatwarning is before and len(recwarn) == 8
        assert main(["evaluate", "--model", str(tmp_path / "none.txt"), "--snapshot",
                     str(tmp_path / "snap"), "--out-dir", str(tmp_path / "eval")]) == 1
        assert warnings.formatwarning is before

    @pytest.mark.parametrize("n_subsites", [3, 5])
    def test_uneven_shares_write_identical_snapshots(self, tmp_path, monkeypatch, capsys,
                                                     n_subsites):
        # with 2 workers on 3 subsites this process parses 1 and the worker
        # 2; with 3 workers on 5 subsites, 1 against 2 and 2
        make_corpus(str(tmp_path / "dumps"), seed=3, n_subsites=n_subsites)
        dirs = sorted(str(d) for d in (tmp_path / "dumps").iterdir() if d.is_dir())
        assert len(dirs) == n_subsites
        written = []
        for workers in (1, 2, 3):
            if workers > 1 and not hasattr(os, "fork"):
                continue
            with_workers(monkeypatch, workers)
            snap = tmp_path / f"snap{workers}"
            assert main(["ingest", *dirs, "--out-dir", str(snap)]) == 0
            written.append({f: (snap / f).read_bytes() for f in SNAPSHOT_NAMES})
            assert_no_child_left()
        assert all(w == written[0] for w in written)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fault", ["no tagged question", "ledger raises", "table raises"])
    def test_failed_tail_leaves_nothing_behind(self, tmp_path, monkeypatch, capsys, workers,
                                               fault):
        if workers > 1 and not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        with_workers(monkeypatch, workers)
        dirs = noisy_corpus(str(tmp_path / "dumps"), ("s1", "s2"))
        if fault == "no tagged question":
            for d in dirs:
                write_subsite_dump(d, [{"Id": 1, "PostTypeId": 1, "OwnerUserId": 1}],
                                   [], [{"Id": 1, "AccountId": 1}])
            message = "error: no tagged questions in the dataset\n"
        else:
            what = "ledger" if fault == "ledger raises" else "tree text"

            def fails(data):
                raise DataError(f"no {what}")

            if fault == "ledger raises":
                monkeypatch.setattr(cli, "reputation_scores", fails)
            else:  # while the ledger child runs, on more than one CPU
                monkeypatch.setattr(serialize, "tree_text", fails)
            message = f"error: no {what}\n"
        out = tmp_path / "out" / "snap"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["ingest", *dirs, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    @needs_fork
    def test_fork_join_runs_own_task_here(self):
        def fails():
            raise DataError("no result")

        got = cli._fork_join([("a", lambda: ("a", os.getpid())), ("b", fails),
                              ("c", lambda: os._exit(4))], lambda: ("d", os.getpid()))
        assert_no_child_left()
        (a, pid_a), b, c, (d, pid_d) = got
        assert (a, d, pid_d) == ("a", "d", os.getpid()) and pid_a != os.getpid()
        assert type(b) is DataError and str(b) == "no result"
        assert type(c) is ChildProcessError
        assert str(c) == "ingest worker for c exited with code 4 without a result"

    def test_fork_join_without_tasks_forks_no_child(self, monkeypatch):
        def fork():
            raise AssertionError("forked a child")

        monkeypatch.setattr(os, "fork", fork, raising=False)
        assert cli._fork_join([], lambda: ("own", os.getpid())) == [("own", os.getpid())]

    def test_worker_count_rule(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        if hasattr(os, "fork"):
            assert [cli._worker_count(n) for n in (1, 2, 3, 8)] == [1, 2, 3, 3]
        monkeypatch.delattr(os, "fork", raising=False)
        assert cli._worker_count(8) == 1


class TestPipeline:
    @pytest.mark.parametrize("stage", ["ingest-one", "ingest-two", "fit", "evaluate",
                                       "recommend"])
    def test_stage_process_never_imports_numpy_ma(self, stage, corpus, tmp_path, request):
        # numpy.ma costs a large share of a small stage's time to import.
        out = str(tmp_path / "out")
        if stage.startswith("ingest"):
            # One subsite is parsed in the process itself, two in forked workers.
            argv = ["ingest", *corpus[:1 if stage == "ingest-one" else 2], "--out-dir", out]
        else:
            snap, model = request.getfixturevalue("snapshot"), request.getfixturevalue("fitted")
            argv = {"fit": ["fit", snap, "--out-dir", out, "--rank", "2"],
                    "evaluate": ["evaluate", "--model", model, "--snapshot", snap,
                                 "--out-dir", out],
                    "recommend": ["recommend", "--model", model, "--snapshot", snap,
                                  "--topic", "beta/trees"]}[stage]
        # parse_dump checks the process that parsed, a forked worker or this one.
        code = (
            "import sys\n"
            "from qaexpert import cli\n"
            "parse = cli.parse_dump\n"
            "def parse_dump(*args, **kwargs):\n"
            "    data = parse(*args, **kwargs)\n"
            "    assert 'numpy.ma' not in sys.modules, 'the parse imported numpy.ma'\n"
            "    return data\n"
            "cli.parse_dump = parse_dump\n"
            f"assert cli.main({argv!r}) == 0\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        assert run.returncode == 0, run.stderr

    def test_end_to_end_byte_determinism(self, corpus, tmp_path, capsys):
        reports = []
        for run in ("r1", "r2"):
            base = tmp_path / run
            snap, fit, ev = str(base / "snap"), str(base / "fit"), str(base / "eval")
            assert main(["ingest", *corpus, "--out-dir", snap]) == 0
            assert main(["fit", snap, "--out-dir", fit,
                         "--rank", "2", "--max-iters", "25", "--seed", "7"]) == 0
            assert main(["evaluate", "--model", os.path.join(fit, "model.txt"),
                         "--snapshot", snap, "--out-dir", ev]) == 0
            reports.append({
                "model": open(os.path.join(fit, "model.txt"), "rb").read(),
                "ranking": open(os.path.join(fit, "model.txt.bin"), "rb").read(),
                "report": open(os.path.join(ev, "report.csv"), "rb").read(),
            })
        assert reports[0] == reports[1]

    def test_lopsided_expert_recommended_first(self, fitted, snapshot, capsys):
        code = main(["recommend", "--model", fitted, "--snapshot", snapshot,
                     "--topic", "beta/trees", "--k", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        top_users = [int(line.split(",")[1]) for line in lines[1:]]
        assert 201 in top_users[:2]

    def test_topics_with_comma_quote_and_line_break(self, tmp_path, capsys):
        root = tmp_path / "dumps"
        make_corpus(str(root), seed=0)
        posts = root / "sitea" / "Posts.xml"
        text = posts.read_text(encoding="utf-8")
        for tag, odd in (("topic0", "c,d"), ("topic1", "a&quot;b"), ("topic2", "c&#10;d")):
            assert f"&lt;{tag}&gt;" in text
            text = text.replace(f"&lt;{tag}&gt;", f"&lt;{odd}&gt;")
        posts.write_text(text, encoding="utf-8")
        snap, fit, ev = (str(tmp_path / d) for d in ("snap", "fit", "eval"))
        assert main(["ingest", str(root / "sitea"), str(root / "siteb"), "--out-dir", snap]) == 0
        assert main(["fit", snap, "--out-dir", fit, "--rank", "3", "--seed", "0"]) == 0
        assert main(["evaluate", "--model", os.path.join(fit, "model.txt"),
                     "--snapshot", snap, "--out-dir", ev]) == 0
        with open(os.path.join(ev, "report.csv"), encoding="utf-8", newline="") as fh:
            topics = {row[0] for row in csv.reader(line for line in fh if line[0] != "#")}
        assert {"sitea/c,d", 'sitea/a"b', "sitea/c\nd"} <= topics
