"""Text formats round-trip bit-faithfully and rewrite byte-identically."""

import hashlib
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from qaexpert.coupled import CpModel, JointModel, MembershipMatrix
from qaexpert.errors import DataError
from qaexpert.hierarchy import compute_node_weights, tree_from_nested
from qaexpert.ingest import ReputationLedger
from qaexpert.serialize import (
    file_digest,
    load_manifest,
    load_membership,
    load_model,
    load_reputation,
    load_tensor,
    load_tree,
    save_history,
    save_membership,
    save_model,
    save_report,
    save_reputation,
    save_tensor,
    save_tree,
    write_manifest,
)
from qaexpert.sparse_tensor import SparseTensor4

from conftest import random_sparse


def read_bytes(path):
    return path.read_bytes()


def random_nested(rng, fanout=3):
    """Random two- or three-level nested structure over consecutive rows."""
    counter = [0]

    def leaves(n):
        out = []
        for _ in range(n):
            out.append(counter[0])
            counter[0] += 1
        return out

    groups = []
    for _ in range(int(rng.integers(1, fanout + 1))):
        if rng.random() < 0.5:
            groups.append(leaves(int(rng.integers(1, 4))))
        else:
            groups.append([leaves(int(rng.integers(1, 3)))
                           for _ in range(int(rng.integers(1, 3)))])
    return groups


class TestTensorFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = random_sparse(rng, (4, 3, 5, 2))
        p = tmp_path / "t.txt"
        save_tensor(X, p)
        Y = load_tensor(p)
        assert Y.dims == X.dims
        assert np.array_equal(Y.indices, X.indices)
        assert np.array_equal(Y.values, X.values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        X = random_sparse(rng, (3, 3, 3, 3))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_tensor(X, a)
        save_tensor(load_tensor(a), b)
        assert read_bytes(a) == read_bytes(b)

    def test_awkward_float_values_survive(self, tmp_path):
        vals = [0.1, np.pi, 1e-17, 1.0 + 2**-52, 3e38]
        X = SparseTensor4((5, 1, 1, 1),
                          indices=[(i, 0, 0, 0) for i in range(5)],
                          values=vals)
        p = tmp_path / "t.txt"
        save_tensor(X, p)
        assert np.array_equal(load_tensor(p).values, np.array(vals))

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 0 0 0 1.0\n")
        with pytest.raises(DataError):
            load_tensor(p)

    def test_short_line_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("dims 2 2 2 2\n0 0 0 1.0\n")
        with pytest.raises(DataError, match=":2"):
            load_tensor(p)


class TestMembershipFormat:
    def test_round_trip(self, tmp_path):
        M = MembershipMatrix(4, 3, [(0, 1), (2, 0), (3, 2), (1, 1)])
        p = tmp_path / "m.txt"
        save_membership(M, p)
        N = load_membership(p)
        assert (N.rows, N.cols) == (4, 3)
        assert np.array_equal(N.to_dense(), M.to_dense())

    def test_rewrite_is_byte_identical(self, tmp_path):
        M = MembershipMatrix(2, 2, [(0, 0), (1, 1)])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_membership(M, a)
        save_membership(load_membership(a), b)
        assert read_bytes(a) == read_bytes(b)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("")
        with pytest.raises(DataError):
            load_membership(p)


class TestTreeFormat:
    def test_round_trip_three_levels(self, tmp_path):
        tree = tree_from_nested([[0, 1], [2, [3, 4]]],
                                sg_by_level={0: (0.5, 0.5), 1: (0.3, 0.7)})
        p = tmp_path / "tree.txt"
        save_tree(tree, p)
        back = load_tree(p)
        assert set(back.nodes) == set(tree.nodes)
        for nid, node in tree.nodes.items():
            other = back.nodes[nid]
            assert (other.level, other.parent, other.is_leaf) == (
                node.level, node.parent, node.is_leaf)
            if node.is_leaf:
                assert other.leaf_row == node.leaf_row
            else:
                assert (other.s, other.g) == (node.s, node.g)

    def test_random_trees_keep_weights(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(20):
            levels = {}
            for lv in range(4):
                s = float(rng.random())
                levels[lv] = (s, 1.0 - s)
            tree = tree_from_nested(random_nested(rng), sg_by_level=levels)
            p = tmp_path / f"tree{trial}.txt"
            save_tree(tree, p)
            assert compute_node_weights(load_tree(p)) == compute_node_weights(tree)

    def test_rewrite_is_byte_identical(self, tmp_path):
        tree = tree_from_nested([[0], [1, 2]])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_tree(tree, a)
        save_tree(load_tree(a), b)
        assert read_bytes(a) == read_bytes(b)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "tree.txt"
        p.write_text("")
        with pytest.raises(DataError):
            load_tree(p)


def random_cp(rng, dims=(3, 2, 4, 2), rank=2):
    return CpModel([rng.random((d, rank)) for d in dims], rng.random(rank) + 0.5)


class TestModelFormat:
    def test_cp_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(3)
        model = random_cp(rng)
        p = tmp_path / "model.txt"
        save_model(model, p)
        back, meta = load_model(p)
        assert isinstance(back, CpModel)
        assert meta == {}
        for U, V in zip(model.factors, back.factors):
            assert np.array_equal(U, V)
        assert np.array_equal(model.norms, back.norms)

    def test_joint_round_trip_with_provenance(self, tmp_path):
        rng = np.random.default_rng(4)
        cp = random_cp(rng, dims=(3, 2, 3, 4))
        lambdas = {"x": 0.1, "w": 0.2, "s": 0.3, "t": 0.4, "site": 0.5}
        model = JointModel(cp, rng.random((2, 2)), rng.random((4, 2)),
                           rng.random((2, 2)), lambdas)
        p = tmp_path / "model.txt"
        cfg = {"rank": 2, "seed": 9}
        save_model(model, p, manifest_hash="ab" * 32, config=cfg)
        back, meta = load_model(p)
        assert isinstance(back, JointModel)
        assert meta["manifest"] == "ab" * 32
        assert meta["config"] == cfg
        assert back.lambdas == lambdas
        for U, V in ((model.S, back.S), (model.A, back.A), (model.T, back.T)):
            assert np.array_equal(U, V)

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        cp = random_cp(rng)
        model = JointModel(cp, rng.random((2, 2)), rng.random((2, 2)),
                           rng.random((4, 2)), {"x": 1.0})
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, a, manifest_hash="00" * 32, config={"rank": 2})
        back, meta = load_model(a)
        save_model(back, b, manifest_hash=meta["manifest"], config=meta["config"])
        assert read_bytes(a) == read_bytes(b)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("who-knows rank 2 dims 1 1 1 1\n")
        with pytest.raises(DataError, match="header"):
            load_model(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("")
        with pytest.raises(DataError):
            load_model(p)

    @pytest.mark.parametrize("cut", [
        "after the header", "inside mode 0", "before norms", "inside S", "before lambdas",
    ])
    def test_truncated_joint_model_rejected_at_its_last_line(self, tmp_path, cut):
        rng = np.random.default_rng(7)
        model = JointModel(random_cp(rng, dims=(3, 2, 3, 4)), rng.random((2, 2)),
                           rng.random((4, 2)), rng.random((2, 2)), {"x": 1.0})
        p = tmp_path / "model.txt"
        save_model(model, p, manifest_hash="00" * 32, config={"rank": 2})
        lines = p.read_text().splitlines(keepends=True)
        starts = [line.split()[0] for line in lines]
        keep = {
            "after the header": 1,
            "inside mode 0": lines.index("mode 0 rows 3\n") + 2,
            "before norms": starts.index("norms"),
            "inside S": starts.index("S") + 2,
            "before lambdas": starts.index("lambdas"),
        }[cut]
        p.write_text("".join(lines[:keep]))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{keep}: file ends "):
            load_model(p)

    @pytest.mark.parametrize("header", ["mode 1 rows 2", "A rows 4"])
    def test_block_header_cut_before_its_row_count_rejected(self, tmp_path, header):
        rng = np.random.default_rng(8)
        model = JointModel(random_cp(rng, dims=(3, 2, 3, 4)), rng.random((2, 2)),
                           rng.random((4, 2)), rng.random((2, 2)), {"x": 1.0})
        p = tmp_path / "model.txt"
        save_model(model, p)
        lines = p.read_text().splitlines(keepends=True)
        at = lines.index(header + "\n")
        p.write_text("".join(lines[:at]) + header.rsplit(" ", 1)[0])
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 1}: expected "):
            load_model(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        p = tmp_path / "model.txt"
        save_model(random_cp(rng), p)
        with open(p, "a") as fh:
            fh.write("surprise\n")
        with pytest.raises(DataError, match="surprise"):
            load_model(p)


class TestReputationFormat:
    def test_round_trip_sorted(self, tmp_path):
        ledger = ReputationLedger({(3, "s/b"): 5, (1, "s/a"): 35, (1, "s/b"): -2})
        p = tmp_path / "rep.csv"
        save_reputation(ledger, p)
        text = p.read_text()
        assert text.splitlines()[0] == "user_id,topic,score"
        assert load_reputation(p).scores == ledger.scores

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "rep.csv"
        p.write_text("user,tag,points\n1,a,2\n")
        with pytest.raises(DataError):
            load_reputation(p)


class TestReportAndHistory:
    def test_report_layout(self, tmp_path):
        report = SimpleNamespace(
            rows=[("s/a", 1, 1.0, 1.0, 4), ("s/b", 1, 0.5, 0.25, 4)],
            summary=[("ALL", 1, 0.75, 0.625, 2)],
        )
        p = tmp_path / "report.csv"
        save_report(report, p, config={"k": [1]})
        lines = p.read_text().splitlines()
        assert lines[0] == '# config {"k": [1]}'
        assert lines[1] == "topic,k,precision,mrr,n_candidates"
        assert lines[2] == "s/a,1,1,1,4"
        assert lines[-1] == "ALL,1,0.75,0.625,2"

    def test_report_without_config_starts_at_header(self, tmp_path):
        report = SimpleNamespace(rows=[], summary=[])
        p = tmp_path / "report.csv"
        save_report(report, p)
        assert p.read_text() == "topic,k,precision,mrr,n_candidates\n"

    def test_history_is_one_indexed(self, tmp_path):
        p = tmp_path / "hist.csv"
        save_history([3.5, 2.25, 2.0], p)
        assert p.read_text().splitlines() == [
            "sweep,objective", "1,3.5", "2,2.25", "3,2",
        ]


def tables_fixture():
    return SimpleNamespace(
        subsites=("alpha", "beta"),
        questions=(("alpha", 1), ("beta", 4)),
        topics=("alpha/x", "beta/y"),
        users=(1, 2, 9),
        bucket_edges=(0, 1, 3, 10),
        tree_s=0.5,
        tree_g=0.5,
    )


class TestManifest:
    def test_round_trip_and_basename_keys(self, tmp_path):
        extra = tmp_path / "tensor.txt"
        extra.write_text("dims 1 1 1 1\n")
        p = tmp_path / "manifest.json"
        write_manifest(p, tables_fixture(), {"rank": 6}, [str(extra)])
        back = load_manifest(p)
        assert back["format"] == 1
        assert back["users"] == [1, 2, 9]
        assert back["questions"] == ["alpha:1", "beta:4"]
        assert list(back["files"]) == ["tensor.txt"]
        assert back["files"]["tensor.txt"] == file_digest(extra)

    def test_unsupported_format_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"format": 2}))
        with pytest.raises(DataError):
            load_manifest(p)

    def test_rewrite_is_byte_identical(self, tmp_path):
        extra = tmp_path / "tensor.txt"
        extra.write_text("dims 1 1 1 1\n")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(a, tables_fixture(), {"rank": 6}, [str(extra)])
        write_manifest(b, tables_fixture(), {"rank": 6}, [str(extra)])
        assert read_bytes(a) == read_bytes(b)


class TestFileDigest:
    def test_matches_hashlib(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(b"some bytes\x00\x01")
        assert file_digest(p) == hashlib.sha256(b"some bytes\x00\x01").hexdigest()

    def test_sensitive_to_content(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(b"a")
        before = file_digest(p)
        p.write_bytes(b"b")
        assert file_digest(p) != before
