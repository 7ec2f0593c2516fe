"""Batch CLI behavior: exit codes, file outputs, determinism, provenance."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from qaexpert.cli import main
from qaexpert.errors import SolverDiverged
from qaexpert.ranking import RankedList
from qaexpert.synthetic import write_subsite_dump

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

    def test_vote_buckets_flag_changes_tensor_dim(self, corpus, tmp_path, capsys):
        snap = str(tmp_path / "snap2")
        assert main(["ingest", *corpus, "--out-dir", snap,
                     "--vote-buckets", "0,5"]) == 0
        header = open(os.path.join(snap, "tensor.txt")).readline()
        dims = [int(t) for t in header.split()[1:]]
        assert dims[2] == 3

    def test_tree_s_alone_sets_g_to_one_minus_s(self, corpus, tmp_path, capsys):
        snap = str(tmp_path / "snap2")
        assert main(["ingest", *corpus, "--out-dir", snap, "--tree-s", "0.3"]) == 0
        root = open(os.path.join(snap, "tree.txt")).readline().split()
        assert root[3:] == ["0.29999999999999999", "0.69999999999999996"]
        manifest = json.load(open(os.path.join(snap, "manifest.json")))
        assert manifest["tree_g"] == 1 - 0.3 and "tree_g" not in manifest["config"]

    def test_rejected_flag_value_exits_2(self, corpus, tmp_path, capsys):
        code = main(["ingest", *corpus, "--out-dir", str(tmp_path / "out"),
                     "--sample-users", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: --sample-users")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("entry", ['"sample_users": "ten"', '"seed": "x"',
                                       '"tree_s": "half"'])
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
    ])
    def test_rejected_flag_value_exits_2(self, snapshot, tmp_path, capsys, flags):
        code = main(["fit", snapshot, "--out-dir", str(tmp_path / "f"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flags[0][2:].replace("-", "_") in err
        assert not os.path.exists(tmp_path / "f")

    def test_rejected_config_value_exits_2(self, snapshot, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda_site": -1}')
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

    def test_fit_process_never_imports_numpy_ma(self, snapshot, tmp_path):
        # numpy.ma costs a large share of a small fit's time to import.
        fit = ["fit", snapshot, "--out-dir", str(tmp_path / "f"), "--rank", "2"]
        code = ("import sys; from qaexpert.cli import main; "
                f"assert main({fit!r}) == 0; sys.exit('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        assert run.returncode == 0, run.stderr

    def test_deterministic(self, snapshot, tmp_path, capsys):
        outs = []
        for tag in ("f1", "f2"):
            out = str(tmp_path / tag)
            assert main(["fit", snapshot, "--out-dir", out,
                         "--rank", "2", "--max-iters", "25", "--seed", "3"]) == 0
            outs.append(out)
        for name in ("model.txt", "objective_history.csv"):
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

    def test_lambda_site_only_via_config(self, snapshot, tmp_path, capsys):
        cfg = tmp_path / "fit.json"
        cfg.write_text('{"lambda_site": 5.0, "max_iters": 10, "rank": 2}')
        out = str(tmp_path / "fs")
        assert main(["fit", snapshot, "--out-dir", out, "--config", str(cfg)]) == 0
        text = open(os.path.join(out, "model.txt")).read()
        assert "site 5" in text

    def test_diverged_state_saved(self, snapshot, tmp_path, monkeypatch, capsys):
        import numpy as np

        from qaexpert.coupled import CpModel, JointModel

        cp = CpModel([np.ones((1, 1))] * 4, np.ones(1))
        stale = JointModel(cp, np.ones((1, 1)), np.ones((1, 1)),
                           np.ones((1, 1)), {"x": 0.1})

        def explode(*a, **kw):
            raise SolverDiverged("went non-finite", last_state=stale)

        monkeypatch.setattr("qaexpert.cli.fit_joint", explode)
        out = str(tmp_path / "fd")
        code = main(["fit", snapshot, "--out-dir", out])
        assert code == 1
        assert os.path.exists(os.path.join(out, "model.txt.diverged"))
        assert not os.path.exists(os.path.join(out, "model.txt"))
        assert "diverged" in capsys.readouterr().err


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
                     "--tree-s", "0.4"]) == 0
        code = main(["recommend", "--model", fitted, "--snapshot", other,
                     "--topic", "alpha/tensor"])
        assert code == 1
        assert "different snapshot" in capsys.readouterr().err

    def test_truncated_model_exits_1(self, fitted, snapshot, tmp_path, capsys):
        cut = tmp_path / "cut.txt"
        with open(fitted) as fh:
            cut.write_text("".join(fh.readlines()[:3]))
        code = main(["recommend", "--model", str(cut), "--snapshot", snapshot,
                     "--topic", "alpha/tensor"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {cut}:3: file ends ")

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

    @pytest.mark.parametrize("k_list", ["one,two", "0,3", "3,-1"])
    def test_bad_k_list_exits_2(self, fitted, snapshot, tmp_path, capsys, k_list):
        code = main(["evaluate", "--model", fitted, "--snapshot", snapshot,
                     "--out-dir", str(tmp_path / "e"), "--k-list", k_list])
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


def edited_model(fitted, tmp_path, block, edit):
    """Copy of the fitted model with ``edit`` applied to the first row of
    ``block`` (the line itself for norms); returns (path, 1-based line)."""
    lines = open(fitted).read().splitlines(keepends=True)
    at = next(n for n, line in enumerate(lines) if line.startswith(block))
    at += block != "norms"
    lines[at] = edit(lines[at])
    path = tmp_path / "edited.txt"
    path.write_text("".join(lines))
    return str(path), at + 1


def flip_last_digit(line):
    return re.sub(r"\d(?=\D*$)", lambda d: str((int(d.group()) + 1) % 10), line, count=1)


class TestModelDigest:
    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    @pytest.mark.parametrize("block", ["mode 0 rows", "A rows", "norms"])
    def test_flipped_digit_exits_1(self, fitted, snapshot, tmp_path, capsys, block, command):
        path, _ = edited_model(fitted, tmp_path, block, flip_last_digit)
        extra = (["--topic", "alpha/tensor"] if command == "recommend"
                 else ["--out-dir", str(tmp_path / "e")])
        code = main([command, "--model", path, "--snapshot", snapshot, *extra])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    def test_non_numeric_value_names_path_and_line(self, fitted, snapshot, tmp_path, capsys):
        path, line = edited_model(fitted, tmp_path, "mode 1 rows",
                                  lambda row: "abc " + row.split(" ", 1)[1])
        with open(path) as fh:
            body = "".join(fh.readlines()[:-1])
        with open(path, "w") as fh:
            fh.write(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
        code = main(["recommend", "--model", path, "--snapshot", snapshot,
                     "--topic", "alpha/tensor"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


class TestPipeline:
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
