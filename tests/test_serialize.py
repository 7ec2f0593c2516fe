"""Text formats round-trip bit-faithfully and rewrite byte-identically."""

import hashlib
import json
import os
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qaexpert import serialize
from qaexpert.cli import main
from qaexpert.coupled import CpModel, JointModel, MembershipMatrix
from qaexpert.errors import DataError
from qaexpert.hierarchy import HierarchyTree, compute_node_weights, tree_from_nested
from qaexpert.ingest import ReputationLedger
from qaexpert.ranking import RankingFactors
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
from qaexpert.synthetic import make_corpus

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

    @pytest.mark.parametrize("text, line", [
        ("dims 2 x 2 2\n", 1),
        ("dims 2 2 2\n", 1),
        ("dims 2 2 2 2 2\n", 1),
        ("dims 2 2 2 2\n0 0 0 0 1\n0 x 0 0 1\n", 3),
        ("dims 2 2 2 2\n0 0 0 0 y\n", 2),
        ("dims 2 2 2 2\n0 0 0 0 1\n9223372036854775808 0 0 0 1\n", 3),
    ])
    def test_malformed_field_names_path_and_line(self, tmp_path, text, line):
        p = tmp_path / "t.txt"
        p.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line}: "):
            load_tensor(p)

    @pytest.mark.parametrize("text, message", [
        ("dims 2 2 2 2\n0 0 0 0 1\n0 2 0 0 1\n", "tensor index out of range"),
        ("dims 2 2 2 2\n0 0 0 0 -1\n", "finite and nonnegative"),
        ("dims 2 2 2 2\n0 0 0 0 nan\n", "finite and nonnegative"),
        ("dims 0 2 2 2\n", "dims must be four positive integers"),
    ])
    def test_content_error_names_path(self, tmp_path, text, message):
        p = tmp_path / "t.txt"
        p.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: .*{message}"):
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

    @pytest.mark.parametrize("text, line", [
        ("2 x\n", 1),
        ("2\n", 1),
        ("2 3 4\n", 1),
        ("2 2\n0 1\n1 z\n", 3),
        ("2 2\n0 1\n9223372036854775808 0\n", 3),
    ])
    def test_malformed_field_names_path_and_line(self, tmp_path, text, line):
        p = tmp_path / "m.txt"
        p.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line}: "):
            load_membership(p)

    @pytest.mark.parametrize("text, message", [
        ("2 2\n0 1\n2 0\n", "membership pair out of bounds"),
        ("-1 2\n", "matrix dimensions must be nonnegative"),
    ])
    def test_content_error_names_path(self, tmp_path, text, message):
        p = tmp_path / "m.txt"
        p.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: {message}"):
            load_membership(p)


def load_outcome(load, path):
    """What a loader returns or raises, and the warnings that escape it,
    comparable across implementations.  Warning filters stay at their
    defaults apart from showing every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            obj = load(path)
        except Exception as exc:
            result = type(exc), str(exc)
        else:
            if isinstance(obj, SparseTensor4):
                result = obj.dims, obj.indices.tolist(), obj.values.tobytes()
            elif isinstance(obj, HierarchyTree):
                result = tuple(getattr(obj, a).tobytes() for a in ("parent", "s", "g", "leaf_row"))
            else:
                result = obj.rows, obj.cols, obj.indices.tolist()
    return result, [(w.category, str(w.message)) for w in caught]


TENSOR_BODIES = [
    "0 0 0 0 1.5\n1 1 1 1 2\n",
    "",
    "0 0 0 0 1\n\n1 1 1 1 2\n",
    "0 0 0 0 1\n\n",
    "\n",
    "  \n\n",
    "#\n",
    "# note\n0 0 0 0 1\n",
    "1.5 0 0 0 1\n",
    "1e0 0 0 0 1\n",
    "1.0 0 0 0 1\n",
    "9223372036854775807 0 0 0 1\n",
    "9223372036854775808 0 0 0 1\n",
    "1_0 0 0 0 1\n",
    "0 0 0 0 1_0\n",
    "0\t0\t0\t0\t1\n",
    "0 0 0 1\n",
    "0 0 0 0 1 2\n",
    "+1 -0 0 0 .5\n",
    "\u0663 0 0 0 1\n",
    "0 0 0 0 0x1p0\n",
    "0 0 0 0 nan\n",
    "0 0 0 0 1e400\n",
    "0 0 0 0 -1\n",
    "99999999999999999999 0 0 0 1\n",
    "30 0 0 0 1\n",
    "0 0 0 0 1\n0 0 0 0 2\n",
]

MEMBERSHIP_BODIES = [
    "0 1\n2 3\n", "", "\n", "0 1\n\n2 3\n", "#\n", "1.5 0\n", "1e0 0\n", "9223372036854775808 0\n", "1_0 0\n", "0\t1\n",
    "1\n", "1 2 3\n", "+2 -0\n", "5 0\n", "abc 1\n",
]


class TestFastLoaderParity:
    """``np.loadtxt`` accepts and rejects exactly what the per-line parser
    does: with ``_table`` stubbed out, every input takes the per-line path."""

    @pytest.mark.parametrize("body", TENSOR_BODIES)
    def test_tensor(self, tmp_path, monkeypatch, body):
        p = tmp_path / "t.txt"
        p.write_text("dims 20 2 2 2\n" + body)
        fast = load_outcome(load_tensor, p)
        monkeypatch.setattr(serialize, "_table", lambda lines, dtype: None)
        assert fast == load_outcome(load_tensor, p)

    @pytest.mark.parametrize("body", MEMBERSHIP_BODIES)
    def test_membership(self, tmp_path, monkeypatch, body):
        p = tmp_path / "m.txt"
        p.write_text("11 4\n" + body)
        fast = load_outcome(load_membership, p)
        monkeypatch.setattr(serialize, "_table", lambda lines, dtype: None)
        assert fast == load_outcome(load_membership, p)

    def test_well_formed_rows_take_the_fast_path(self):
        assert serialize._table(["0 1", "2 3"], [("pair", np.int64, (2,))]) is not None

    @pytest.mark.parametrize("lines", [[], [""], ["1.5 0"], ["1e0 0"], ["9223372036854775808 0"],
                                       ["0 1", ""]])
    def test_rejected_rows_go_to_the_per_line_parser(self, lines):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert serialize._table(lines, [("pair", np.int64, (2,))]) is None
        assert caught == []


TREE_ARRAYS = ("parent", "s", "g", "leaf_row", "level")

# A root over two topics, rows {0, 1} and {2}; the file save_tree writes.
TREE_TEXT = """0 0 -1 0.5 0.5
  1 1 0 0.25 0.75
    2 2 1 leaf 0
    2 3 1 leaf 1
  1 4 0 0.25 0.75
    2 5 4 leaf 2
"""


def edited_tree(tmp_path, line, text):
    """TREE_TEXT with its 1-based ``line`` replaced by ``text``."""
    lines = TREE_TEXT.splitlines()
    lines[line - 1] = text
    p = tmp_path / "tree.txt"
    p.write_text("\n".join(lines) + "\n")
    return p


class TestTreeFormat:
    def test_round_trip_three_levels(self, tmp_path):
        tree = tree_from_nested([[0, 1], [2, [3, 4]]],
                                sg_by_level={0: (0.5, 0.5), 1: (0.3, 0.7)})
        p = tmp_path / "tree.txt"
        save_tree(tree, p)
        back = load_tree(p)
        for name in TREE_ARRAYS:
            np.testing.assert_array_equal(getattr(back, name), getattr(tree, name))

    def test_writes_the_indented_preorder_lines(self, tmp_path):
        tree = tree_from_nested([[0, 1], [2]], sg_by_level={1: (0.25, 0.75)})
        p = tmp_path / "tree.txt"
        save_tree(tree, p)
        assert p.read_text() == TREE_TEXT

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
            got = compute_node_weights(load_tree(p))
            assert got.tobytes() == compute_node_weights(tree).tobytes()

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

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "tree.txt"
        p.write_text(TREE_TEXT.replace("\n", "\n\n", 2))
        assert load_tree(p).parent.tolist() == [-1, 0, 1, 1, 0, 4]

    @pytest.mark.parametrize("line, text", [
        (3, "    2 2 4 leaf 0"),       # a forward parent
        (1, "0 0 0 0.5 0.5"),         # a root with a parent
        (4, "    2 3 x leaf 1"),       # a non-integer parent
        (4, "    2 99999999999999999999 1 leaf 1"),  # an id past int64
        (2, "  1 1 0 0.3 zero"),      # a non-numeric g
        (5, "  1 4 0 0.3"),           # a short line
        (6, "    2 5 4 leaf 2.0"),     # a non-integer leaf row
        (6, "    2 5 4 leaf 9223372036854775808"),  # a leaf row past int64
        (4, "    2 7 1 leaf 1"),       # an id out of line order
        (5, "  2 4 0 0.3 0.7"),        # a level that disagrees with the parent
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, line, text):
        p = edited_tree(tmp_path, line, text)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line}: "):
            load_tree(p)

    def test_level_below_the_question_leaves_names_its_line(self, tmp_path):
        p = edited_tree(tmp_path, 6, "    2 5 4 0.5 0.5\n      3 6 5 0.5 0.5\n        4 7 6 leaf 2")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:8: level must be at most 3"):
            load_tree(p)

    @pytest.mark.parametrize("line, text", [
        (2, "  1 1 0 0.9 0.7"),        # s + g != 1
        (6, "    2 5 4 leaf 1"),       # a duplicate leaf row
        (6, "    2 5 4 0.5 0.5"),      # an internal node without children
    ])
    def test_broken_tree_names_path(self, tmp_path, line, text):
        p = edited_tree(tmp_path, line, text)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: "):
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


def per_float_model_text(model, manifest_hash=None, config=None):
    """Model text as the per-float f-string writer formatted it: the oracle
    for the body that save_model formats one block at a time."""
    f = lambda x: f"{float(x):.17g}"
    cp = model.cp if isinstance(model, JointModel) else model
    kind = "joint-model" if isinstance(model, JointModel) else "cp-model"
    out = [f"{kind} rank {cp.rank} dims {' '.join(str(d) for d in cp.dims)}\n"]
    blocks = [(f"mode {m} rows", U) for m, U in enumerate(cp.factors)]
    tail = []
    if isinstance(model, JointModel):
        tail = [("S rows", model.S), ("A rows", model.A), ("T rows", model.T)]
    for name, U in blocks + [("norms", None)] + tail:
        if U is None:
            out.append("norms " + " ".join(f(v) for v in cp.norms) + "\n")
            continue
        out.append(f"{name} {U.shape[0]}\n")
        out.extend(" ".join(f(v) for v in row) + "\n" for row in U)
    if isinstance(model, JointModel):
        pairs = " ".join(f"{k} {f(v)}" for k, v in sorted(model.lambdas.items()))
        out.append(f"lambdas {pairs}\n")
    if manifest_hash is not None:
        out.append(f"manifest {manifest_hash}\n")
    if config is not None:
        out.append("config " + json.dumps(config, sort_keys=True) + "\n")
    return "".join(out)


def random_joint(rng, dims=(3, 2, 3, 4), rank=2):
    return JointModel(random_cp(rng, dims=dims, rank=rank), rng.random((2, rank)),
                      rng.random((dims[3], rank)), rng.random((dims[1], rank)),
                      {"lambda_x": 0.1, "lambda_s": 0.25})


def seal(text):
    return text + f"digest {hashlib.sha256(text.encode()).hexdigest()}\n"


def assert_ranking_blocks_equal(path):
    full, full_meta = load_model(path)
    part, part_meta = load_model(path, ranking_only=True)
    want = RankingFactors.of(full)
    assert isinstance(part, RankingFactors)
    for name in ("topic", "expert", "norms"):
        assert getattr(part, name).tobytes() == getattr(want, name).tobytes()
        assert getattr(part, name).shape == getattr(want, name).shape
    assert part_meta == full_meta


class TestModelDigest:
    @pytest.mark.parametrize("seed", range(4))
    def test_body_matches_per_float_writer(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        model = random_joint(rng, rank=3) if seed % 2 else random_cp(rng, rank=3)
        cp = model.cp if seed % 2 else model
        cp.factors[0][0] = [np.nan, np.inf, -0.0]
        cp.factors[2][-1] = [-np.inf, 5e-324, 1e300]
        p = tmp_path / "model.txt"
        save_model(model, p, manifest_hash="cd" * 32, config={"rank": 3})
        assert p.read_text() == seal(per_float_model_text(model, "cd" * 32, {"rank": 3}))

    @pytest.mark.parametrize("seed", range(6))
    def test_ranking_only_load_is_bit_equal_to_full_parse(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 7, size=4))
        rank = int(rng.integers(1, 5))
        model = (random_joint(rng, dims, rank) if seed % 2 else random_cp(rng, dims, rank))
        cp = model.cp if seed % 2 else model
        cp.factors[3][0, 0] = -0.0
        p = tmp_path / "model.txt"
        save_model(model, p, manifest_hash="ef" * 32)
        assert_ranking_blocks_equal(p)
        part, _ = load_model(p, ranking_only=True)
        assert part.topic.tobytes() == cp.factors[1].tobytes()

    def test_ranking_only_load_of_a_fitted_corpus(self, tmp_path, capsys):
        make_corpus(str(tmp_path / "corpus"), seed=3)
        sites = sorted(str(tmp_path / "corpus" / d) for d in os.listdir(tmp_path / "corpus")
                       if (tmp_path / "corpus" / d).is_dir())
        snap, fit = str(tmp_path / "snap"), str(tmp_path / "fit")
        assert main(["ingest", *sites, "--out-dir", snap]) == 0
        assert main(["fit", snap, "--out-dir", fit, "--rank", "3", "--max-iters", "5"]) == 0
        assert_ranking_blocks_equal(os.path.join(fit, "model.txt"))

    def test_meta_holds_only_provenance(self, tmp_path):
        p = tmp_path / "model.txt"
        save_model(random_joint(np.random.default_rng(1)), p, manifest_hash="aa", config={})
        assert sorted(load_model(p)[1]) == ["config", "manifest"]

    @pytest.mark.parametrize("ranking_only", [False, True])
    @pytest.mark.parametrize("block", ["mode 0 rows", "mode 2 rows", "A rows", "norms", "lambdas"])
    def test_one_flipped_digit_rejected(self, tmp_path, block, ranking_only):
        p = tmp_path / "model.txt"
        save_model(random_joint(np.random.default_rng(2)), p, manifest_hash="aa")
        lines = p.read_text().splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines) if line.startswith(block))
        at += 0 if block in ("norms", "lambdas") else 1
        lines[at] = re.sub(r"\d(?=\d*\s*$)", lambda d: str((int(d.group()) + 1) % 10),
                           lines[at], count=1)
        p.write_text("".join(lines))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{len(lines)}: digest "):
            load_model(p, ranking_only=ranking_only)

    def test_model_without_digest_rejected(self, tmp_path):
        p = tmp_path / "model.txt"
        save_model(random_cp(np.random.default_rng(3)), p)
        lines = p.read_text().splitlines(keepends=True)
        p.write_text("".join(lines[:-1]))
        with pytest.raises(DataError, match="must be refit"):
            load_model(p)

    def test_digest_must_be_the_last_line(self, tmp_path):
        p = tmp_path / "model.txt"
        save_model(random_cp(np.random.default_rng(3)), p)
        with open(p, "a") as fh:
            fh.write("\n")
        with pytest.raises(DataError, match="final 'digest"):
            load_model(p)

    @pytest.mark.parametrize("target", ["mode 1 rows", "mode 3 rows", "norms", "lambdas", "S rows"])
    def test_non_numeric_value_names_its_line(self, tmp_path, target):
        p = tmp_path / "model.txt"
        save_model(random_joint(np.random.default_rng(4)), p)
        lines = p.read_text().splitlines(keepends=True)[:-1]
        at = next(n for n, line in enumerate(lines) if line.startswith(target))
        at += target.endswith("rows")
        keep = {"norms": 1, "lambdas": 2}.get(target, 0)
        parts = lines[at].split(" ")
        lines[at] = " ".join(parts[:keep] + ["abc"] + parts[keep + 1:])
        p.write_text(seal("".join(lines)))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 1}: .*'abc'"):
            load_model(p)
        if target not in ("lambdas", "S rows"):
            with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 1}: "):
                load_model(p, ranking_only=True)


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

    @pytest.mark.parametrize("row", ["2,s/a", "x,s/a,3", "2,s/a,3.5", "2,s/a,3,4"])
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        p = tmp_path / "rep.csv"
        p.write_text(f"user_id,topic,score\n1,s/a,2\n{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:3: "):
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
