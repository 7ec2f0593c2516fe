"""Text formats round-trip bit-faithfully and rewrite byte-identically."""

import csv
import hashlib
import io
import json
import os
import pathlib
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qaexpert import serialize
from qaexpert.cli import main
from qaexpert.coupled import CpModel, MembershipMatrix
from qaexpert.errors import ContractViolation, DataError
from qaexpert.hierarchy import HierarchyTree
from qaexpert.ingest import build_inputs, merge_datasets, parse_dump
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

import records as rec
from conftest import random_sparse
from model_oracles import to_dense, tree_from_nested


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
        assert np.array_equal(to_dense(N), to_dense(M))

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


# Each body after the header line, with the line its error names, or None
# where it loads as the per-line reading of `per_line_rows` does (to the
# same arrays, or to the same content error, named by path alone).
TENSOR_BODIES = [
    ("0 0 0 0 1.5\n1 1 1 1 2\n", None),
    ("", None),
    ("0 0 0 0 1\n\n1 1 1 1 2\n", 3),
    ("0 0 0 0 1\n\n", 3),
    ("\n", 2),
    ("  \n\n", 2),
    ("#\n", 2),
    ("# note\n0 0 0 0 1\n", 2),
    ("1.5 0 0 0 1\n", 2),
    ("1e0 0 0 0 1\n", 2),
    ("1.0 0 0 0 1\n", 2),
    ("9223372036854775807 0 0 0 1\n", None),
    ("9223372036854775808 0 0 0 1\n", 2),
    ("1_0 0 0 0 1\n", 2),
    ("0 0 0 0 1_0\n", 2),
    ("0\t0\t0\t0\t1\n", None),
    ("0 0 0 1\n", 2),
    ("0 0 0 0 1 2\n", 2),
    ("+1 -0 0 0 .5\n", None),
    ("\u0663 0 0 0 1\n", 2),
    ("0 0 0 0 0x1p0\n", 2),
    ("0 0 0 0 nan\n", None),
    ("0 0 0 0 1e400\n", None),
    ("0 0 0 0 -1\n", None),
    ("99999999999999999999 0 0 0 1\n", 2),
    ("30 0 0 0 1\n", None),
    ("0 0 0 0 1\n0 0 0 0 2\n", None),
    ("0 0 0 0 1\r\n1 1 1 1 2\r\n", None),
    ("0 0 0 0 1\r1 1 1 1 2\n\n", 2),
    ("0 0 0 0 1\x0c\n1 1 1 1 2\n", None),
    ("0 0 0 0 1\x00\n", 2),
    ("1\u01fe 0 0 0 1\n", 2),
    ("\u0661 0 0 0 1\n", 2),
]

MEMBERSHIP_BODIES = [
    ("0 1\n2 3\n", None), ("", None), ("\n", 2), ("0 1\n\n2 3\n", 3), ("#\n", 2),
    ("1.5 0\n", 2), ("1e0 0\n", 2), ("9223372036854775808 0\n", 2), ("1_0 0\n", 2),
    ("0\t1\n", None), ("1\n", 2), ("1 2 3\n", 2), ("+2 -0\n", None), ("5 0\n", None),
    ("abc 1\n", 2), ("0 1\r\n2 3\r\n", None), ("0 1\r2 3\n\n", 2), ("0 1\x0c\n", None),
    ("0 1\x00\n", 2), ("0 1\u01fe\n", 2), ("0 \u0661\n", 2),
]


def per_line_rows(text):
    """The whitespace-split fields of each line of ``text`` that holds any,
    a CRLF ending one line: the per-line reading of a body that has no bad
    line."""
    return [line.split() for line in text.split("\n") if line.strip()]


TREE_ARRAYS = ("parent", "s", "g", "leaf_row", "level")

# A root over two topics, rows {0, 1} and {2}; the file save_tree writes.
TREE_TEXT = """-1 -1
0 -1
1 0
1 1
0 -1
4 2
"""


def edited_tree_text(line, text):
    """TREE_TEXT with its 1-based ``line`` replaced by ``text``."""
    lines = TREE_TEXT.splitlines()
    lines[line - 1] = text
    return "\n".join(lines) + "\n"


def edited_tree(tmp_path, line, text):
    p = tmp_path / "tree.txt"
    p.write_text(edited_tree_text(line, text))
    return p


# Lines that break the format, each with the line the error names.
MALFORMED_TREE_LINES = [
    (4, "x 1"),                    # a non-integer parent
    (4, "99999999999999999999 1"),  # a parent past int64
    (2, "0.0 -1"),                 # a parent written as a float
    (5, "0"),                      # a short line
    (5, "0 -1 4"),                 # a long line
    (2, "0 0.5 0.5 -1"),           # a line of format 3, with s and g
    (6, "4 2.0"),                  # a non-integer leaf row
    (6, "4 9223372036854775808"),  # a leaf row past int64
    (3, "1 leaf"),                 # a word as a leaf row
]

# Lines that make a tree HierarchyTree rejects: the line, the node it names
# and its message.
BROKEN_TREE_LINES = [
    (3, "4 0", 2, "node 2 must come after its parent"),
    (4, "-2 1", 3, "node 3 must come after its parent"),
    (2, "0 3", 1, "leaf node 1 has children"),
    (6, "4 -1", 5, "internal node 5 has no children"),
    (1, "0 -1", 0, "node 0 must come after its parent"),
    (5, "-1 -1", 4, "node 4 is a second root; only node 0 is one"),
    (6, "4 1", 5, "leaf node 5 must hold a row below 3, the leaf count, "
                  "that no earlier leaf holds"),
    (3, "1 3", 2, "leaf node 2 must hold a row below 3, the leaf count, "
                  "that no earlier leaf holds"),
]

# Weights of TREE_TEXT's tree that HierarchyTree rejects, which no tree file
# holds: the node, its (s, g) and the message.
BROKEN_TREE_WEIGHTS = [
    (4, (1.5, -0.5), "(s, g) of node 4 must lie in [0, 1]"),
    (1, (np.nan, np.nan), "(s, g) of node 1 must lie in [0, 1]"),
    (1, (0.9, 0.7), "(s, g) of node 1 must sum to 1"),
]

TREE_FILES = [
    (TREE_TEXT, None),
    ("", None),
    ("\n\n", 1),
    (TREE_TEXT.replace("\n", "\n\n", 2), 2),
    (TREE_TEXT + "  \n\n", 7),
    (TREE_TEXT.replace("\n", "\r\n"), None),
    (TREE_TEXT.replace("\n", "\r", 1) + "\n", 1),
    (TREE_TEXT.replace("\n", "\x0c\n", 1), None),
    (TREE_TEXT.rstrip("\n"), None),
    *((edited_tree_text(line, text), line) for line, text in MALFORMED_TREE_LINES),
    *((edited_tree_text(line, text), None) for line, text, _, _ in BROKEN_TREE_LINES),
    # deeper than the trees ingest writes
    (edited_tree_text(6, "4 -1\n5 -1\n6 2"), None),
    # wider than any fixed field width a reader might pick
    (edited_tree_text(2, "0" * 40 + " -1"), None),
    (edited_tree_text(3, "1 " + "0" * 40), None),
    (edited_tree_text(3, "1 " + "0" * 40 + "1"), None),
    (edited_tree_text(3, "1 0\x00"), 3),
    (edited_tree_text(3, "1 \u0660"), 3),
    (edited_tree_text(3, "1 0\u01fe"), 3),
    (edited_tree_text(4, "0_1 1"), 4),
]


def per_line_tree(rows):
    """The parent and leaf_row columns of the per-line reading ``rows`` of a
    tree file."""
    return [int(r[0]) for r in rows], [int(r[1]) for r in rows]


# Input that no save_* function writes but that a per-line reading by int()
# and float() would take, each with the line the reader names, quoted whole,
# and the character it names in that line, where one breaks it.
NEWLY_REJECTED = {
    "underscore in an index": (load_tensor, "dims 20 2 2 2\n1_0 0 0 0 1\n", 2, "_"),
    "underscore in a value": (load_tensor, "dims 20 2 2 2\n0 0 0 0 1\n0 0 0 0 1_0\n", 3, "_"),
    "underscore in a pair": (load_membership, "11 4\n1_0 0\n", 2, "_"),
    "underscore in parent": (load_tree, edited_tree_text(4, "0_1 1"), 4, "_"),
    "U+0660 as a leaf row": (load_tree, edited_tree_text(3, "1 \u0660"), 3, "\u0660"),
    "U+0661 in a pair": (load_membership, "11 4\n0 \u0661\n", 2, "\u0661"),
    "U+0663 in an index": (load_tensor, "dims 20 2 2 2\n\u0663 0 0 0 1\n", 2, "\u0663"),
    "blank tree line": (load_tree, TREE_TEXT.replace("\n", "\n\n", 2), 2, None),
    "whitespace-only tree line": (load_tree, TREE_TEXT + "  \n\n", 7, None),
    "U+0085 in a tensor line": (load_tensor, "dims 20 2 2 2\n0 0 0 0 1\x85\n", 2, "\x85"),
    "U+2028 in a membership line": (load_membership, "11 4\n0 1\n2 3\u2028\n", 3, "\u2028"),
    "U+2029 in a tree line": (load_tree, edited_tree_text(4, "1 1\u2029"), 4, "\u2029"),
    "NUL in a pair": (load_membership, "11 4\n0 1\x00\n", 2, "\x00"),
    "lone CR in a tensor line": (load_tensor, "dims 20 2 2 2\n0 0 0 0 1\r1 1 1 1 2\n", 2, "\r"),
}

# Where a number in a line that `_numbers` reads sits: the line's start and
# the field's index.  What the table reader rejects is rejected there too.
HEADER_NUMBERS = {
    "tensor header": (load_tensor, "dims 20 2 2 2\n0 0 0 0 1\n", 1),
    "membership header": (load_membership, "11 4\n0 1\n", 0),
}
MODEL_NUMBERS = {"model header": ("joint-model", 2), "norms": ("norms", 1)}


def unruly(number, style):
    """``number`` written as Python's int() and float() still read it: with
    an ``_``, or in Arabic-Indic digits."""
    return "0_" + number if style == "_" else number.translate(str.maketrans(
        "0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"))


# Each table the locator serves: its loader, a well-formed file of 300 rows
# as lines without their LFs, the index of the first of those rows, the layout
# its errors name, and the type of its last field.
LOCATED_TABLES = {
    "tensor": (load_tensor, ["dims 300 2 2 2"] + [f"{i} {i % 2} 0 1 {i}.5" for i in range(300)],
               1, "'i j k l value'", "float64"),
    "membership": (load_membership, ["300 3"] + [f"{i} {i % 3}" for i in range(300)], 1,
                   "'row col'", "int64"),
    "tree": (load_tree, ["-1 -1"] + [f"0 {i}" for i in range(300)], 1, "'parent leaf_row'",
             "int64"),
    "model block": (load_model, None, 5, "2 values", "float64"),
    "reputation": (load_reputation,
                   ["user_id,topic,score"] + [f"{i},s/a,{i}" for i in range(300)], 1,
                   "'user_id,topic,score' with int64 user and score", "int64"),
}

# Each way to break a row, given the row, its field separator and the type of
# its last field: the row that replaces it, the lines that row ends past the
# one it replaces, and the end of the error's message.
BROKEN_ROWS = {
    "field": (lambda row, sep, kind: row.rsplit(sep, 1)[0] + sep + "x", 0,
              lambda layout, kind: f"could not convert string 'x' to {kind}"),
    "blank": (lambda row, sep, kind: "", 0, lambda layout, kind: f"expected {layout}, got ''"),
    # the last field where it is an integer, else the first
    "int64 overflow": (lambda row, sep, kind: (row.rsplit(sep, 1)[0] + sep + str(2**63)
                                               if kind == "int64"
                                               else str(2**63) + row[row.index(sep):]), 0,
                       lambda layout, kind: f"could not convert string '{2**63}' to int64"),
    "quoted record": (lambda row, sep, kind: row.split(sep)[0] + ',"s/a\nb",x', 1,
                      lambda layout, kind: "could not convert string 'x' to int64"),
}


class TestOneReader:
    """One ``np.loadtxt`` pass is the only reader of each snapshot table: a
    body it rejects is a DataError naming the first bad line, and any other
    loads as the per-line reading of it does."""

    @staticmethod
    def check(load, path, line, want):
        if line is None:
            assert load_outcome(load, path) == load_outcome(lambda _: want(), path)
        else:
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: "):
                load(path)

    @pytest.mark.parametrize("body, line", TENSOR_BODIES)
    def test_tensor(self, tmp_path, body, line):
        p = tmp_path / "t.txt"
        p.write_text("dims 20 2 2 2\n" + body)

        def want():
            rows = per_line_rows(body)
            index = np.array([[int(f) for f in r[:4]] for r in rows], dtype=np.int64)
            return serialize._build(p, SparseTensor4, (20, 2, 2, 2), indices=index.reshape(-1, 4),
                                    values=[float(r[4]) for r in rows])
        self.check(load_tensor, p, line, want)

    @pytest.mark.parametrize("body, line", MEMBERSHIP_BODIES)
    def test_membership(self, tmp_path, body, line):
        p = tmp_path / "m.txt"
        p.write_text("11 4\n" + body)
        self.check(load_membership, p, line, lambda: serialize._build(
            p, MembershipMatrix, 11, 4, [[int(f) for f in r] for r in per_line_rows(body)]))

    @pytest.mark.parametrize("text, line", TREE_FILES)
    def test_tree(self, tmp_path, text, line):
        p = tmp_path / "tree.txt"
        p.write_bytes(text.encode("utf-8"))
        self.check(load_tree, p, line, lambda: serialize._build(
            p, HierarchyTree.halved, *per_line_tree(per_line_rows(text))))

    @pytest.mark.parametrize("name", NEWLY_REJECTED)
    def test_newly_rejected_input_names_its_line(self, tmp_path, name):
        load, text, line, char = NEWLY_REJECTED[name]
        p = tmp_path / "table.txt"
        p.write_bytes(text.encode("utf-8"))
        got = re.escape(repr(text.split("\n")[line - 1]))
        if char is not None:
            got += re.escape(f", which holds {char!r}")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line}: expected .*, got {got}$"):
            load(p)

    @pytest.mark.parametrize("style", ["_", "Arabic-Indic"])
    @pytest.mark.parametrize("name", HEADER_NUMBERS)
    def test_header_numbers_follow_the_table_rule(self, tmp_path, name, style):
        load, text, field = HEADER_NUMBERS[name]
        head, rest = text.split("\n", 1)
        parts = head.split()
        parts[field] = unruly(parts[field], style)
        p = tmp_path / "table.txt"
        p.write_bytes((" ".join(parts) + "\n" + rest).encode())
        char = parts[field][1 if style == "_" else 0]
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:1: .*, which holds {char!r}$"):
            load(p)

    @pytest.mark.parametrize("style", ["_", "Arabic-Indic"])
    @pytest.mark.parametrize("name", MODEL_NUMBERS)
    def test_model_numbers_follow_the_table_rule(self, tmp_path, name, style):
        start, field = MODEL_NUMBERS[name]
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(4)), p)
        lines = p.read_text().splitlines(keepends=True)[:-1]
        at = next(n for n, line in enumerate(lines) if line.startswith(start))
        parts = lines[at].split()
        parts[field] = unruly(parts[field], style)
        lines[at] = " ".join(parts) + "\n"
        p.write_text(seal("".join(lines)))
        char = parts[field][1 if style == "_" else 0]
        want = f"^{re.escape(str(p))}:{at + 1}: .*, which holds {char!r}$"
        with pytest.raises(DataError, match=want):
            load_model(p)

    @pytest.mark.parametrize("at", [0, 1, 499, 998, 999])
    @pytest.mark.parametrize("bad", ["0 0 0 0 x", "", "0 0 0 0 1\r1 1 1 1 2", "0 0 0 0 1\u00e9"],
                             ids=["field", "blank", "lone-CR", "non-ASCII"])
    def test_bisection_names_the_one_bad_row(self, tmp_path, bad, at):
        rows = [f"{i % 20} {i % 2} {i % 3 % 2} 1 {i}.5" for i in range(1000)]
        rows[at] = bad
        p = tmp_path / "tensor.txt"
        p.write_bytes(("dims 20 2 2 2\n" + "\n".join(rows) + "\n").encode("utf-8"))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 2}: "):
            load_tensor(p)

    @pytest.mark.parametrize("at", [0, 1, 499, 998, 999])
    def test_bisection_names_the_one_leaf_row_that_does_not_convert(self, tmp_path, at):
        lines = ["-1 -1"] + [f"0 {i}" for i in range(999)]
        lines[at] = lines[at].rsplit(" ", 1)[0] + " y"
        p = tmp_path / "tree.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 1}: .*'y'"):
            load_tree(p)

    @pytest.mark.parametrize("at", [0, 150, 299], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("table, broken", [
        (table, broken) for table in LOCATED_TABLES for broken in BROKEN_ROWS
        if not (broken == "int64 overflow" and table == "model block"
                or broken == "quoted record" and table != "reputation")])
    def test_locator_names_the_broken_row(self, tmp_path, table, broken, at):
        load, lines, start, layout, kind = LOCATED_TABLES[table]
        edit, spans, message = BROKEN_ROWS[broken]
        if lines is None:  # a model's topic factor, the first block it reads, two values a row
            save_cp(random_cp(np.random.default_rng(2), dims=(2, 300, 3, 2)), tmp_path / "m")
            lines = (tmp_path / "m").read_text().splitlines()[:-1]
        lines = list(lines)
        lines[start + at] = edit(lines[start + at], "," if table == "reputation" else " ", kind)
        text = "\n".join(lines) + "\n"
        p = tmp_path / "table.txt"
        p.write_text(seal(text) if table == "model block" else text)
        want = f"{p}:{start + at + 1 + spans}: {message(layout, kind)}"
        with pytest.raises(DataError) as caught:
            load(p)
        assert str(caught.value) == want

    def test_well_formed_files_never_reach_the_locator(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        files = [(save_tensor, load_tensor, random_sparse(rng, (4, 3, 5, 2))),
                 (save_membership, load_membership, MembershipMatrix(4, 3, [(0, 1), (3, 2)])),
                 (save_membership, load_membership, MembershipMatrix(4, 3, [])),
                 (save_tree, load_tree, tree_from_nested([[0, 1], [2, [3, 4]]])),
                 (save_cp, load_model, random_cp(rng)),
                 (save_reputation, load_reputation, rec.ledger({(1, "s/a"): 2, (3, "s/b"): -1})),
                 (save_reputation, load_reputation,
                  rec.ledger({(1, t): n for n, t in enumerate(AWKWARD_TOPICS)})),
                 (save_reputation, load_reputation, rec.ledger({}))]
        monkeypatch.setattr(serialize, "_first_rejected", None)
        monkeypatch.setattr(serialize, "_out_of_order", None)
        for n, (save, load, obj) in enumerate(files):
            save(obj, tmp_path / f"{n}.txt")
            load(tmp_path / f"{n}.txt")


class TestTreeFormat:
    def test_round_trip_three_levels(self, tmp_path):
        tree = tree_from_nested([[0, 1], [2, [3, 4]]])
        p = tmp_path / "tree.txt"
        save_tree(tree, p)
        back = load_tree(p)
        for name in TREE_ARRAYS:
            assert getattr(back, name).tobytes() == getattr(tree, name).tobytes()

    def test_writes_node_n_on_line_n_plus_one(self, tmp_path):
        p = tmp_path / "tree.txt"
        save_tree(tree_from_nested([[0, 1], [2]]), p)
        assert p.read_text() == TREE_TEXT

    def test_random_trees_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(20):
            tree = tree_from_nested(random_nested(rng))
            p = tmp_path / f"tree{trial}.txt"
            save_tree(tree, p)
            back = load_tree(p)
            for name in TREE_ARRAYS:
                assert getattr(back, name).tobytes() == getattr(tree, name).tobytes()

    @pytest.mark.parametrize("level, sg", [(0, (0.3, 0.7)), (1, (0.3, 0.7)),
                                           (1, (0.5 - 1e-12, 0.5 + 1e-12))])
    def test_tree_whose_weights_the_file_would_lose_is_refused(self, tmp_path, level, sg):
        tree = tree_from_nested([[0, 1], [2]], sg_by_level={level: sg})
        p = tmp_path / "tree.txt"
        with pytest.raises(ContractViolation) as caught:
            save_tree(tree, p)
        node = 0 if level == 0 else 1
        assert (caught.value.node, str(caught.value)) == (
            node, f"internal node {node} does not weigh s = g = 1/2")
        assert not p.exists()

    def test_rewrite_is_byte_identical(self, tmp_path):
        tree = tree_from_nested([[0], [1, 2]])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_tree(tree, a)
        save_tree(load_tree(a), b)
        assert read_bytes(a) == read_bytes(b)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "tree.txt"
        p.write_text("")
        with pytest.raises(DataError) as caught:
            load_tree(p)
        assert str(caught.value) == f"{p}: tree must have a root, node 0"

    def test_blank_line_is_named(self, tmp_path):
        p = tmp_path / "tree.txt"
        p.write_text(TREE_TEXT.replace("\n", "\n\n", 2))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:2: expected "):
            load_tree(p)

    @pytest.mark.parametrize("line, text", MALFORMED_TREE_LINES)
    def test_malformed_line_names_path_and_line(self, tmp_path, line, text):
        p = edited_tree(tmp_path, line, text)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line}: "):
            load_tree(p)

    def test_trees_of_any_depth_load(self, tmp_path):
        tree = tree_from_nested([[[[[[0, 1]]]], 2], [[[3]]]])
        p = tmp_path / "tree.txt"
        save_tree(tree, p)
        back = load_tree(p)
        assert back.level.max() == 6
        for name in TREE_ARRAYS:
            np.testing.assert_array_equal(getattr(back, name), getattr(tree, name))

    @pytest.mark.parametrize("line, text, node, message", BROKEN_TREE_LINES)
    def test_hierarchy_tree_names_the_broken_node(self, line, text, node, message):
        rows = per_line_rows(edited_tree_text(line, text))
        with pytest.raises(ContractViolation) as caught:
            HierarchyTree.halved(*per_line_tree(rows))
        assert (caught.value.node, str(caught.value)) == (node, message)

    @pytest.mark.parametrize("node, sg, message", BROKEN_TREE_WEIGHTS)
    def test_hierarchy_tree_names_the_node_of_broken_weights(self, node, sg, message):
        tree = tree_from_nested([[0, 1], [2]])
        s, g = tree.s.copy(), tree.g.copy()
        s[node], g[node] = sg
        with pytest.raises(ContractViolation) as caught:
            HierarchyTree(tree.parent, s, g, tree.leaf_row)
        assert (caught.value.node, str(caught.value)) == (node, message)

    @pytest.mark.parametrize("line, text, node, message", BROKEN_TREE_LINES)
    def test_broken_tree_names_the_line_of_its_node(self, tmp_path, line, text, node, message):
        p = edited_tree(tmp_path, line, text)
        with pytest.raises(DataError) as caught:
            load_tree(p)
        assert str(caught.value) == f"{p}:{node + 1}: {message}"

    def test_ingest_written_tree_loads_as_build_inputs_makes_it(self, tmp_path):
        make_corpus(str(tmp_path / "corpus"), seed=4)
        sites = sorted(d for d in (tmp_path / "corpus").iterdir() if d.is_dir())
        assert main(["ingest", *map(str, sites), "--out-dir", str(tmp_path / "snap")]) == 0
        data = merge_datasets([parse_dump(*(str(d / f) for f in ("Posts.xml", "Votes.xml",
                                                                 "Users.xml")),
                                          subsite_name=d.name) for d in sites])
        want, got = build_inputs(data).tree, load_tree(tmp_path / "snap" / "tree.txt")
        for name in TREE_ARRAYS:
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        leaf = got.leaf_row >= 0
        assert np.isnan(got.s[leaf]).all() and np.isnan(got.g[leaf]).all()
        assert (got.s[~leaf] == 0.5).all() and (got.g[~leaf] == 0.5).all()


def random_cp(rng, dims=(3, 2, 3, 4), rank=2):
    return CpModel([rng.random((d, rank)) for d in dims], rng.random(rank) + 0.5)


# The provenance every model carries: the manifest's digest and fit's config.
MANIFEST_HASH = "5f" * 32
CONFIG = {"rank": 2, "seed": 9}


def save_cp(cp, path):
    save_model(cp, path, MANIFEST_HASH, CONFIG)


def seal(text):
    return text + f"digest {hashlib.sha256(text.encode()).hexdigest()}\n"


def per_line_ranking_blocks(path):
    """The topic and expert factors and the norms of the model file at
    ``path``, read a line at a time by str.split and float(): the oracle
    `load_model` is held to."""
    lines = path.read_text().splitlines()

    def block(header):
        at = lines.index(header)
        rows = int(header.split()[-1])
        return np.array([[float(t) for t in line.split()] for line in lines[at + 1:at + 1 + rows]],
                        dtype=np.float64).reshape(rows, rank)
    head = lines[0].split()
    rank = int(head[2])
    norms = next(line for line in lines if line.startswith("norms ")).split()[1:]
    return RankingFactors(block(f"mode 1 rows {head[5]}"), block(f"mode 3 rows {head[7]}"),
                          np.array([float(t) for t in norms]))


def assert_blocks_bit_equal(got, want):
    assert isinstance(got, RankingFactors)
    for name in ("topic", "expert", "norms"):
        assert getattr(got, name).shape == getattr(want, name).shape
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def fixture_block(rows, offset):
    return (np.arange(rows * 2, dtype=np.float64).reshape(rows, 2) + 1) / offset


def fixture_cp():
    """The CP part of the model that ``tests/data/saved_model.txt`` holds,
    in the earlier layout, with S, A and T blocks and a ``lambdas`` line
    after the norms."""
    factors = [fixture_block(d, 7 + m) for m, d in enumerate((3, 2, 3, 4))]
    factors[1][0] = [-0.0, 5e-324]
    factors[3][1] = [1e300, np.pi]
    return CpModel(factors, np.array([np.sqrt(2), 0.0]))


FIXTURE_CONFIG = {"lambda_s": 0.1, "lambda_site": None, "lambda_t": 0.1, "lambda_w": 0.1,
                  "lambda_x": 0.1, "max_iters": 100, "rank": 2, "seed": 0, "tol": 1e-06}
SAVED_MODEL = pathlib.Path(__file__).parent / "data" / "saved_model.txt"


class TestModelFormat:
    @pytest.mark.parametrize("seed", range(6))
    def test_load_is_bit_equal_to_the_saved_ranking_blocks(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 7, size=4))
        model = random_cp(rng, dims, int(rng.integers(1, 5)))
        model.factors[3][0, 0] = -0.0
        p = tmp_path / "model.txt"
        save_cp(model, p)
        got, manifest = load_model(p)
        assert manifest == MANIFEST_HASH
        assert_blocks_bit_equal(got, RankingFactors.of(model))

    def test_load_of_a_fitted_corpus(self, tmp_path, capsys):
        make_corpus(str(tmp_path / "corpus"), seed=3)
        sites = sorted(str(tmp_path / "corpus" / d) for d in os.listdir(tmp_path / "corpus")
                       if (tmp_path / "corpus" / d).is_dir())
        snap, fit = str(tmp_path / "snap"), tmp_path / "fit"
        assert main(["ingest", *sites, "--out-dir", snap]) == 0
        assert main(["fit", snap, "--out-dir", str(fit), "--rank", "3", "--max-iters", "5"]) == 0
        got, manifest = load_model(fit / "model.txt")
        assert manifest == load_manifest(os.path.join(snap, "manifest.json"))[1]
        assert_blocks_bit_equal(got, per_line_ranking_blocks(fit / "model.txt"))

    def test_a_model_of_the_earlier_layout_must_be_refit(self):
        with pytest.raises(DataError) as caught:
            load_model(SAVED_MODEL)
        assert str(caught.value) == (
            f"{SAVED_MODEL}:19: expected a 'manifest <sha256>' line (a model with S, A and T "
            "blocks there is of an earlier layout and must be refit), got 'S rows 2'")

    def test_the_writer_drops_only_the_earlier_layouts_s_a_t_and_lambdas(self, tmp_path):
        lines = SAVED_MODEL.read_text().splitlines(keepends=True)[:-1]
        cut = slice(lines.index("S rows 2\n"),
                    next(n for n, line in enumerate(lines) if line.startswith("lambdas ")) + 1)
        del lines[cut]
        p = tmp_path / "model.txt"
        save_model(fixture_cp(), p, "5f" * 32, FIXTURE_CONFIG)
        assert p.read_text() == seal("".join(lines))
        got, manifest = load_model(p)
        assert manifest == "5f" * 32
        assert_blocks_bit_equal(got, RankingFactors.of(fixture_cp()))
        assert_blocks_bit_equal(got, per_line_ranking_blocks(p))

    @pytest.mark.parametrize("header", ["who-knows rank 2 dims 1 1 1 1",
                                        "cp-model rank 2 dims 1 1 1 1"])
    def test_bad_header_rejected(self, tmp_path, header):
        p = tmp_path / "model.txt"
        p.write_text(header + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:1: expected a 'joint-model "):
            load_model(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("")
        with pytest.raises(DataError):
            load_model(p)

    @pytest.mark.parametrize("cut", [
        "after the header", "inside mode 0", "inside mode 3", "before norms", "before manifest",
        "before config",
    ])
    def test_truncated_joint_model_rejected_at_its_last_line(self, tmp_path, cut):
        rng = np.random.default_rng(7)
        p = tmp_path / "model.txt"
        save_cp(random_cp(rng), p)
        lines = p.read_text().splitlines(keepends=True)
        starts = [line.split()[0] for line in lines]
        keep = {
            "after the header": 1,
            "inside mode 0": lines.index("mode 0 rows 3\n") + 2,
            "inside mode 3": lines.index("mode 3 rows 4\n") + 2,
            "before norms": starts.index("norms"),
            "before manifest": starts.index("manifest"),
            "before config": starts.index("config"),
        }[cut]
        p.write_text("".join(lines[:keep]))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{keep}: file ends "):
            load_model(p)

    @pytest.mark.parametrize("count", ["3", "1", "02", "0_2", "\u0662"])
    def test_block_count_other_than_the_headers_is_named(self, tmp_path, count):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(8)), p)
        lines = p.read_text().splitlines(keepends=True)[:-1]
        at = lines.index("mode 1 rows 2\n")
        lines[at] = f"mode 1 rows {count}\n"
        p.write_text(seal("".join(lines)))
        with pytest.raises(DataError) as caught:
            load_model(p)
        assert str(caught.value) == (f"{p}:{at + 1}: expected 'mode 1 rows 2', "
                                     f"got 'mode 1 rows {count}'")

    @pytest.mark.parametrize("header", ["joint-model rank 2 dims 3 -1 3 4",
                                        "joint-model rank 2 dims 3 2 3 -9",
                                        "joint-model rank 2 sdim 3 2 3 4"])
    def test_header_without_its_dims_rejected(self, tmp_path, header):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(8)), p)
        lines = p.read_text().splitlines(keepends=True)[:-1]
        lines[0] = header + "\n"
        p.write_text(seal("".join(lines)))
        with pytest.raises(DataError) as caught:
            load_model(p)
        assert str(caught.value) == (f"{p}:1: expected a 'joint-model rank R dims I J K L' "
                                     f"header without a negative dim, got {header!r}")

    @pytest.mark.parametrize("header", ["mode 1 rows 2", "mode 3 rows 4"])
    def test_block_header_cut_before_its_row_count_rejected(self, tmp_path, header):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(8)), p)
        lines = p.read_text().splitlines(keepends=True)
        at = lines.index(header + "\n")
        p.write_text("".join(lines[:at]) + header.rsplit(" ", 1)[0])
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 1}: expected "):
            load_model(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(6)), p)
        lines = len(p.read_text().splitlines())
        with open(p, "a") as fh:
            fh.write("surprise\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{lines + 1}: .*'surprise'"):
            load_model(p)

    # Edits of the lines from manifest on, the file then resealed, each with
    # the line the error names, counted from the manifest line, and what it
    # expected there
    @pytest.mark.parametrize("edit, line, expected", [
        (lambda t: [t[1]], 1, "a 'manifest <sha256>' line"),
        (lambda t: [t[1], t[0]], 1, "a 'manifest <sha256>' line"),
        (lambda t: ["lambdas lambda_x 0.1\n", *t], 1, "a 'manifest <sha256>' line"),
        (lambda t: [*t, "\n"], 3, "a final 'digest <sha256>' line"),
        (lambda t: [*t, "extra\n"], 3, "a final 'digest <sha256>' line"),
    ], ids=["no manifest line", "config before manifest", "lambdas line before manifest",
            "blank line before digest", "extra line after config"])
    def test_line_out_of_the_layout_is_named(self, tmp_path, edit, line, expected):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(5)), p)
        lines = p.read_text().splitlines(keepends=True)[:-1]
        at = next(n for n, text in enumerate(lines) if text.startswith("manifest "))
        lines[at:] = edit(lines[at:])
        p.write_text(seal("".join(lines)))
        got = re.escape(repr(lines[at + line - 1].rstrip("\n")))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + line}: "
                                            f"expected {re.escape(expected)}.*, got {got}$"):
            load_model(p)


def per_float_model_text(cp, manifest_hash, config):
    """Model text as a per-float f-string writer formats it: the oracle for
    the body that save_model formats one block at a time."""
    f = lambda x: f"{float(x):.17g}"
    out = [f"joint-model rank {cp.rank} dims {' '.join(str(d) for d in cp.dims)}\n"]
    for m, U in enumerate(cp.factors):
        out.append(f"mode {m} rows {U.shape[0]}\n")
        out.extend(" ".join(f(v) for v in row) + "\n" for row in U)
    out.append("norms " + " ".join(f(v) for v in cp.norms) + "\n")
    out.append(f"manifest {manifest_hash}\n")
    out.append("config " + json.dumps(config, sort_keys=True) + "\n")
    return "".join(out)


class TestModelDigest:
    @pytest.mark.parametrize("seed", range(4))
    def test_body_matches_per_float_writer(self, tmp_path, seed):
        model = random_cp(np.random.default_rng(seed), rank=3)
        model.factors[0][0] = [np.nan, np.inf, -0.0]
        model.factors[2][-1] = [-np.inf, 5e-324, 1e300]
        p = tmp_path / "model.txt"
        save_model(model, p, "cd" * 32, {"rank": 3})
        assert p.read_text() == seal(per_float_model_text(model, "cd" * 32, {"rank": 3}))

    @pytest.mark.parametrize("block", ["mode 0 rows", "mode 2 rows", "mode 3 rows", "norms",
                                       "manifest", "config"])
    def test_one_flipped_digit_rejected(self, tmp_path, block):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(2)), p)
        lines = p.read_text().splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines) if line.startswith(block))
        at += block.endswith("rows")
        lines[at] = re.sub(r"\d(?=\D*$)", lambda d: str((int(d.group()) + 1) % 10), lines[at])
        p.write_text("".join(lines))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{len(lines)}: digest "):
            load_model(p)

    def test_model_without_digest_rejected(self, tmp_path):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(3)), p)
        lines = p.read_text().splitlines(keepends=True)
        p.write_text("".join(lines[:-1]))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{len(lines) - 1}: .*must be refit"):
            load_model(p)

    def test_digest_must_be_the_last_line(self, tmp_path):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(3)), p)
        lines = len(p.read_text().splitlines())
        with open(p, "a") as fh:
            fh.write("\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{lines + 1}: expected the end "
                                            "of the file after its digest line, got ''$"):
            load_model(p)

    @pytest.mark.parametrize("target", ["mode 1 rows", "mode 3 rows", "norms"])
    def test_non_numeric_value_names_its_line(self, tmp_path, target):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(4)), p)
        lines = p.read_text().splitlines(keepends=True)[:-1]
        at = next(n for n, line in enumerate(lines) if line.startswith(target))
        at += target.endswith("rows")
        keep = target == "norms"
        parts = lines[at].split(" ")
        lines[at] = " ".join(parts[:keep] + ["abc"] + parts[keep + 1:])
        p.write_text(seal("".join(lines)))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 1}: .*'abc'"):
            load_model(p)


# Characters at which str.splitlines breaks a line but a file's line count,
# which counts LF-terminated lines, does not.  The ASCII ones are whitespace
# to the reader, so the error names the later bad line; a line holding a
# Unicode one is itself the bad line.
ASCII_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
UNICODE_BREAKS = ["\x85", "\u2028", "\u2029"]
SPLITLINES_BREAKS = [(sep, None) for sep in ASCII_BREAKS] + [(sep, 3) for sep in UNICODE_BREAKS]


class TestLineNumbers:
    """``<path>:<line>`` counts LF-terminated lines, and CRLF files load as
    LF ones do."""

    @pytest.mark.parametrize("sep, line", SPLITLINES_BREAKS)
    def test_tensor(self, tmp_path, sep, line):
        p = tmp_path / "tensor.txt"
        p.write_bytes(f"dims 20 2 2 2\n0 0 0 0 1\n1 1 1 1 2{sep}\n1 0 0 0 1\nx\n".encode())
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line or 5}: expected "
                                            "'i j k l value'"):
            load_tensor(p)

    @pytest.mark.parametrize("sep, line", SPLITLINES_BREAKS)
    def test_membership(self, tmp_path, sep, line):
        p = tmp_path / "site_matrix.txt"
        p.write_bytes(f"11 4\n0 1\n2 3{sep}\n1 1\nx\n".encode())
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line or 5}: expected 'row col'"):
            load_membership(p)

    @pytest.mark.parametrize("sep, line", SPLITLINES_BREAKS)
    def test_tree(self, tmp_path, sep, line):
        p = tmp_path / "tree.txt"
        p.write_bytes(f"-1 -1\n0 -1{sep}\n1 0\n1 x\n".encode())
        want = ":2: expected " if line else ":4: .*'x'"
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}{want}"):
            load_tree(p)

    @pytest.mark.parametrize("sep, line", SPLITLINES_BREAKS)
    def test_model(self, tmp_path, sep, line):
        p = tmp_path / "model.txt"
        save_cp(random_cp(np.random.default_rng(4)), p)
        lines = p.read_text().splitlines(keepends=True)[:-1]
        # the first row of the topic factor, the first block load_model reads
        row = lines.index("mode 1 rows 2\n") + 1
        lines[row] = lines[row].replace("\n", f"{sep}\n")
        at = next(n for n, line in enumerate(lines) if line.startswith("mode 3 rows")) + 1
        lines[at] = "abc" + lines[at][lines[at].index(" "):]
        p.write_bytes(seal("".join(lines)).encode())
        want = f":{row + 1}: expected " if line else f":{at + 1}: .*'abc'"
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}{want}"):
            load_model(p)

    def test_crlf_files_load_as_lf_ones(self, tmp_path):
        X = random_sparse(np.random.default_rng(5), (4, 3, 5, 2))
        M = MembershipMatrix(4, 3, [(0, 1), (2, 0), (3, 2)])
        tree = tree_from_nested([[0, 1], [2, [3, 4]]])
        model = random_cp(np.random.default_rng(6))
        cases = [(save_tensor, load_tensor, X), (save_membership, load_membership, M),
                 (save_tree, load_tree, tree)]
        for n, (save, load, obj) in enumerate(cases):
            lf, crlf = tmp_path / f"lf{n}.txt", tmp_path / f"crlf{n}.txt"
            save(obj, lf)
            crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
            assert load_outcome(load, crlf) == load_outcome(load, lf)
        lf, crlf = tmp_path / "model.txt", tmp_path / "crlf_model.txt"
        save_cp(model, lf)
        body = lf.read_text().splitlines(keepends=True)[:-1]
        crlf_body = "".join(body).replace("\n", "\r\n")
        digest = hashlib.sha256(crlf_body.encode()).hexdigest()
        crlf.write_bytes(f"{crlf_body}digest {digest}\r\n".encode())
        (a, a_manifest), (b, b_manifest) = load_model(lf), load_model(crlf)
        assert a_manifest == b_manifest == MANIFEST_HASH
        assert_blocks_bit_equal(b, a)


REPUTATION_HEADER = "user_id,topic,score\n"


def csv_reader_rows(path):
    """The (user, topic, score) rows that ``csv.reader`` and ``int()`` read
    from the reputation file at ``path``: the reference the one reader is
    held to where it takes a file."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == REPUTATION_HEADER.strip().split(",")
    return [(int(user), topic, int(score)) for user, topic, score in rows]


# Each file with the line its error names, or None where it loads to the rows
# `csv_reader_rows` reads from it.
REPUTATION_FILES = [
    (REPUTATION_HEADER + "1,s/a,2\n2,s/a,0\n1,s/b,-3\n", None),
    (REPUTATION_HEADER + "1,s/a,2\n\n2,s/a,3\n", 3),
    (REPUTATION_HEADER + "1,s/a,2\n2,s/a,3\n\n", 4),
    (REPUTATION_HEADER + "1,s/a,2\n\r\n2,s/a,3\n", 3),
    (REPUTATION_HEADER + "1,s/a,2\n \n", 3),
    ("user_id,topic,score\r\n1,s/a,2\r\n2,s/b,3\r\n", None),
    (REPUTATION_HEADER + "1,s/a,2\n2,s/a,3", None),
    (REPUTATION_HEADER, None),
    ("user_id,topic,score", None),
    ("", 1),
    ("user,tag,points\n1,a,2\n", 1),
    ("\ufeff" + REPUTATION_HEADER + "1,s/a,2\n", 1),
    (REPUTATION_HEADER + "1,s/a,+5\n", None),
    (REPUTATION_HEADER + " 5,s/a,1\n", None),
    (REPUTATION_HEADER + "1,s/a,5 \n", None),
    (REPUTATION_HEADER + "1,s/a,\x0b5\n", None),
    (REPUTATION_HEADER + "007,s/a,-0\n 8,s/a,+5\n", None),
    (REPUTATION_HEADER + "1,s/a,5.0\n", 2),
    (REPUTATION_HEADER + "1,s/a,\n", 2),
    (REPUTATION_HEADER + "9223372036854775808,s/a,1\n", 2),
    (REPUTATION_HEADER + "1,s/a,9223372036854775808\n", 2),
    (REPUTATION_HEADER + "1,s/a,-9223372036854775809\n", 2),
    (REPUTATION_HEADER + "-9223372036854775808,s/a,9223372036854775807\n", None),
    (REPUTATION_HEADER + "-9223372036854775808,s/a,-9223372036854775808\n"
     "9223372036854775807,s/a,9223372036854775807", None),
    (REPUTATION_HEADER + "1,s/a\n", 2),
    (REPUTATION_HEADER + "1,s/a,2,3\n", 2),
    (REPUTATION_HEADER + "1,2\n3,4,5,6\n", 2),
    (REPUTATION_HEADER + "1,,2\n2,s/a,3\n", None),
    (REPUTATION_HEADER + "1,#a,2\n", None),
    (REPUTATION_HEADER + "1,s/a,1\n2,s/b,3\n1,s/" + "w" * 200 + ",2\n", None),
    (REPUTATION_HEADER + "1, s/a,1\n1,\ts/b,2\n1,s/c ,3\n1,s/d\t,4\n", 3),
    (REPUTATION_HEADER + "1,s/a b,2\n1,s/\u00e9,2\n", None),
    (REPUTATION_HEADER + "1,s/a,2\n1,s/\u00e9t\u00e9,3\n", None),
    (REPUTATION_HEADER + "1,s/\x85,2\n", None),
    # rows in strictly ascending (topic, user) order, a quoted topic by its name
    (REPUTATION_HEADER + "1,s/b,1\n1,s/a,1\n", 3),
    (REPUTATION_HEADER + "1,s/a,1\n1,s/a,2\n", 3),
    (REPUTATION_HEADER + "2,s/a,1\n1,s/a,1\n", 3),
    (REPUTATION_HEADER + "2,s/a,1\n1,s/b,1\n", None),
    (REPUTATION_HEADER + "1,s/a,1\n2,s/b,1\n3,s/a,1\n", 4),
    (REPUTATION_HEADER + '1,s/a,1\n1,"s/a,b",1\n1,s/a-,1\n', None),
    (REPUTATION_HEADER + '1,s/a,1\n1,s/a-,1\n1,"s/a,b",1\n', 4),
    # quoted fields, as csv.reader reads them
    (REPUTATION_HEADER + '2,"s/a""b",4\n1,"s/c\nd",3\n1,"s/c,d",2\n', None),
    (REPUTATION_HEADER + '1,"s/a",3\n', None),
    (REPUTATION_HEADER + '1,"",2\n', None),
    (REPUTATION_HEADER + '1,"s/c\r\nd",3\n1,"s/c\rd",2\n', None),
    (REPUTATION_HEADER + '1,"a\n",3\n1,"a\n\nb",2\n', None),
    (REPUTATION_HEADER + '2, "s/a",2\n3,"s/a" ,2\n1,"s/a"b,2\n', None),
    # a quote inside an unquoted field, which csv.writer never writes, is
    # rejected on its own line, also after a quoted field over two lines
    (REPUTATION_HEADER + '1,s/a,2\n3,s/a"b,2\n4,s/b,3\n', 3),
    (REPUTATION_HEADER + '1,"a\nb"c"d,2\n5,s/x,1\n', 3),
    (REPUTATION_HEADER + '1,"a\n\nb",2\nx,s/a,3\n', 5),
    (REPUTATION_HEADER + '1,"a\nb",2\n1,"c\nd",3\n1,"b",4\n', 6),
    (REPUTATION_HEADER + '1,"s/a\n', 2),
    (REPUTATION_HEADER + '1,"s/a,2\n2,s/b,3\n', 3),
    # fields np.loadtxt would read other than csv.reader and int() do, and
    # files csv.reader and int() read that are rejected
    (REPUTATION_HEADER + "1,s/a\0,2\n2,s/a,1\n", 2),
    (REPUTATION_HEADER + "\x1c7,s/a,1\n", 2),
    (REPUTATION_HEADER + "7,s/a,1\x1f\n", 2),
    (REPUTATION_HEADER + '1,"s/a",2\n2,"s/\x1c",3\n', 3),
    (REPUTATION_HEADER + "1_0,s/a,1\n", 2),
    (REPUTATION_HEADER + "1,s/a,1_0\n", 2),
    (REPUTATION_HEADER + "\u0661,s/a,2\n", 2),
    (REPUTATION_HEADER + "1\x85,s/a,2\n", 2),
    (REPUTATION_HEADER + "1,s/a,2\r2,s/b,3\r", 2),
    (REPUTATION_HEADER + '1,"x",2\n2,s/a,3\r4,s/a,5\n', 3),
    ("user_id,topic,score\r1,s/a,2\r", 1),
    (REPUTATION_HEADER.encode() + b"1,s/a,2\n2,s/\xff,3\n", 3),
    (REPUTATION_HEADER.encode() + b'1,"s/\xe9\n",2\n', 3),
]

# Input that csv.reader and int() take, or, for the byte that is not UTF-8,
# reject with no line named, each with the line the reader names and the end
# of its message.
REPUTATION_REJECTED = {
    "a byte that is not UTF-8": (REPUTATION_HEADER.encode() + b"1,s/a,2\n2,s/\xff,3\n", 3,
                                 "got '2,s/\ufffd,3', which holds the byte 0xff"),
    "lone-CR line ends": (REPUTATION_HEADER.encode() + b"1,s/a,2\r2,s/b,3\r", 2,
                          "got '1,s/a,2\\r2,s/b,3', which holds '\\r'"),
    "U+0661 as a user id": ((REPUTATION_HEADER + "\u0661,s/a,2\n").encode(), 2,
                            "could not convert string '\u0661' to int64"),
    "a NUL after a quoted CR": ((REPUTATION_HEADER + '1,"s/\rx\0",2\n').encode(), 2,
                                "which holds '\\x00'"),
    "U+0085 after a user id": ((REPUTATION_HEADER + "1\x85,s/a,2\n").encode(), 2,
                               "could not convert string '1\\x85' to int64"),
    "a quote inside an unquoted field": (
        (REPUTATION_HEADER + '1,s/a,2\n3,s/a"b,2\n4,s/c,1\n5,s/d,1\n').encode(), 3,
        "got '3,s/a\"b,2', which holds '\"'"),
}

# Rows out of (topic, user) order, each with the line its error names and how
# the row breaks the order; the earlier of two breaches is the one named.
REPUTATION_OUT_OF_ORDER = {
    "a topic that comes again": ("1,s/a,1\n1,s/b,2\n2,s/b,2\n2,s/a,5\n", 5,
                                 "topic 's/a' comes again after other topics"),
    "a user twice in a topic": ("1,s/a,1\n1,s/b,2\n2,s/b,2\n2,s/b,5\n", 5,
                                "user 2 comes twice in topic 's/b'"),
    "a user out of order": ("1,s/a,1\n3,s/b,2\n2,s/b,2\n", 4,
                            "user 2 comes after user 3 in topic 's/b'"),
    "a topic below the one before": ('1,"s/b\nx",1\n1,"s/a,b",2\n', 4,
                                     "topic 's/a,b' sorts below 's/b\\nx', the topic before it"),
    "a quoted topic by its name": ('1,s/a-,1\n1,"s/a,b",1\n', 3,
                                   "topic 's/a,b' sorts below 's/a-', the topic before it"),
    "a user twice before a topic again": ("1,s/a,1\n1,s/a,1\n1,s/b,1\n1,s/a,1\n", 3,
                                          "user 1 comes twice in topic 's/a'"),
    "a topic again before a user twice": ("1,s/a,1\n1,s/b,1\n1,s/a,1\n1,s/a,1\n", 4,
                                          "topic 's/a' comes again after other topics"),
}

# Topics that save_reputation quotes, or writes as they are, that must come back
AWKWARD_TOPICS = ["s/c,d", 's/a"b', '"', 's/c\rd', "s/c\nd", "s/c\r\nd", "\n", "s/snake_case",
                  "s/\u00e9t\u00e9", "s/\u4e2d\u6587", "s/\u0661", "", " s/pad ", "s/#x"]


class TestReputationFormat:
    def test_round_trip_sorted(self, tmp_path):
        ledger = rec.ledger({(3, "s/b"): 5, (1, "s/a"): 35, (1, "s/b"): -2})
        p = tmp_path / "rep.csv"
        save_reputation(ledger, p)
        text = p.read_text()
        assert text.splitlines()[0] == "user_id,topic,score"
        assert rec.ledger_rows(load_reputation(p)) == rec.ledger_rows(ledger)

    def test_topics_quoted_as_csv_writer_quotes_them(self, tmp_path):
        ledger = rec.ledger({(1, "s/c,d"): 2, (1, 's/a"b'): 3, (2, "s/c\nd"): -1,
                             (2, "s/c\rd"): 4, (3, "s/plain"): 5})
        p = tmp_path / "rep.csv"
        save_reputation(ledger, p)
        # csv.writer's default dialect, whose "\r\n" line ends make it quote
        # fields holding either character, with each row ended by "\n"
        want = ""
        for row in [("user_id", "topic", "score")] + rec.ledger_rows(ledger):
            out = io.StringIO()
            csv.writer(out).writerow(row)
            want += out.getvalue().removesuffix("\r\n") + "\n"
        assert p.read_bytes() == want.encode()
        assert "\n3,s/plain,5\n" in want and '"s/c\rd"' in want
        assert rec.ledger_rows(load_reputation(p)) == rec.ledger_rows(ledger)

    @pytest.mark.parametrize("topic", AWKWARD_TOPICS)
    def test_saved_topics_load_back(self, tmp_path, topic):
        ledger = rec.ledger({(1, topic): 2, (1, "s/z"): -3, (2, topic): 9_000_000_000})
        p = tmp_path / "rep.csv"
        save_reputation(ledger, p)
        assert rec.ledger_rows(load_reputation(p)) == rec.ledger_rows(ledger)
        assert csv_reader_rows(p) == rec.ledger_rows(ledger)
        out = io.StringIO()
        csv.writer(out).writerows([REPUTATION_HEADER.strip().split(","), *rec.ledger_rows(ledger)])
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(out.getvalue().encode())
        assert rec.ledger_rows(load_reputation(crlf)) == rec.ledger_rows(ledger)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "rep.csv"
        p.write_text("user,tag,points\n1,a,2\n")
        with pytest.raises(DataError):
            load_reputation(p)

    @pytest.mark.parametrize("row", ["2,s/a", "x,s/a,3", "2,s/a,3.5", "2,s/a,3,4",
                                     "9223372036854775808,s/a,3", "2,s/a,-9223372036854775809",
                                     "0,s/a,3", "1,s/a,3", "1,s/0,3"])
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        p = tmp_path / "rep.csv"
        p.write_text(f"user_id,topic,score\n1,s/a,2\n{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:3: "):
            load_reputation(p)

    @pytest.mark.parametrize("text, line", REPUTATION_FILES)
    def test_loads_as_the_csv_reader_does(self, tmp_path, text, line):
        p = tmp_path / "rep.csv"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        if line is None:
            ledger = load_reputation(p)
            columns = ledger.user, ledger.topic, ledger.score
            assert {column.dtype for column in columns} == {np.dtype(np.int64)}
            assert rec.ledger_rows(ledger) == csv_reader_rows(p)
        else:
            with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line}: "):
                load_reputation(p)

    def test_ingest_written_file_loads_as_the_csv_reader_does(self, tmp_path):
        make_corpus(str(tmp_path / "corpus"), seed=4)
        sites = sorted(str(d) for d in (tmp_path / "corpus").iterdir() if d.is_dir())
        assert main(["ingest", *sites, "--out-dir", str(tmp_path / "snap")]) == 0
        p = tmp_path / "snap" / "reputation.csv"
        ledger = load_reputation(p)
        assert len(ledger.user) > 50 and len(ledger.topic_names) > 1
        assert rec.ledger_rows(ledger) == csv_reader_rows(p)

    @pytest.mark.parametrize("name", REPUTATION_REJECTED)
    def test_newly_rejected_input_names_its_line(self, tmp_path, name):
        data, line, tail = REPUTATION_REJECTED[name]
        p = tmp_path / "rep.csv"
        p.write_bytes(data)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{line}: .*{re.escape(tail)}$"):
            load_reputation(p)

    @pytest.mark.parametrize("name", REPUTATION_OUT_OF_ORDER)
    def test_row_out_of_order_names_its_line(self, tmp_path, name):
        body, line, why = REPUTATION_OUT_OF_ORDER[name]
        p = tmp_path / "rep.csv"
        p.write_text(REPUTATION_HEADER + body)
        with pytest.raises(DataError) as caught:
            load_reputation(p)
        assert str(caught.value) == (f"{p}:{line}: {why}; rows must be in ascending "
                                     "(topic, user) order, each pair once")

    @pytest.mark.parametrize("at", [0, 1, 499, 998, 999])
    @pytest.mark.parametrize("bad", ["x,s/a,1", "", "7,s/a,1\r8,s/b,2", "7,s/\x00,1", "7,s/a"],
                             ids=["field", "blank", "lone-CR", "NUL", "short"])
    def test_bisection_names_the_one_bad_row(self, tmp_path, bad, at):
        rows = [f"{i},s/a,{i}" for i in range(1000)]
        if at:  # a quoted topic over two lines just before the bad row
            rows[at - 1] = f'{at - 1},"s/q\nuoted",1'
        rows[at] = bad
        p = tmp_path / "rep.csv"
        p.write_bytes((REPUTATION_HEADER + "\n".join(rows) + "\n").encode())
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 2 + (at > 0)}: "):
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

    def test_report_bytes_equal_csv_writer_rows(self, tmp_path):
        topics = ["s/a", "s/c,d", 's/a"b', "s/c\nd", "", " s/e\t", "s/\u00e9", "s/x y"]
        values = [0.0, 1.0, 0.1, 1 / 3, 2 / 3, 0.25, 1e-300, 0.5]
        rows = [(t, k, v, values[-1 - i], 7 * i) for i, (t, v) in enumerate(zip(topics, values))
                for k in (1, 10)]
        report = SimpleNamespace(rows=rows, summary=[("ALL", 1, 0.5, 1 / 7, 8),
                                                     ("ALL", 10, 0.375, 1 / 7, 8)])
        p = tmp_path / "report.csv"
        save_report(report, p, config={"k_list": "1,10"})
        out = io.StringIO()
        out.write('# config {"k_list": "1,10"}\ntopic,k,precision,mrr,n_candidates\n')
        writer = csv.writer(out, lineterminator="\n")
        for topic, k, prec, mrr, n in rows + report.summary:
            writer.writerow([topic, k, f"{prec:.17g}", f"{mrr:.17g}", n])
        assert p.read_bytes() == out.getvalue().encode()

    def test_report_quotes_a_carriage_return_as_reputation_csv_does(self, tmp_path):
        # csv.writer with "\n" line ends would leave it bare, and a CSV reader
        # would end the row there
        p = tmp_path / "report.csv"
        save_report(SimpleNamespace(rows=[("s/c\rd", 1, 1.0, 0.5, 3)], summary=[]), p)
        assert p.read_bytes().split(b"\n")[1] == b'"s/c\rd",1,1,0.5,3'
        with open(p, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1] == ["s/c\rd", "1", "1", "0.5", "3"]

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
    )


class TestManifest:
    def test_round_trip_and_basename_keys(self, tmp_path):
        extra = tmp_path / "tensor.txt"
        content, digest = serialize.encoded("dims 1 1 1 1\n")
        extra.write_bytes(content)
        p = tmp_path / "manifest.json"
        write_manifest(p, tables_fixture(), {"rank": 6}, {"tensor.txt": digest})
        back, manifest_digest = load_manifest(p)
        assert manifest_digest == file_digest(p)
        assert back["format"] == 4 and "tree_g" not in back and "tree_s" not in back
        assert back["users"] == [1, 2, 9]
        assert back["questions"] == ["alpha:1", "beta:4"]
        assert list(back["files"]) == ["tensor.txt"]
        assert back["files"]["tensor.txt"] == file_digest(extra)

    @pytest.mark.parametrize("old", [1, 2, 3, 5])
    def test_other_formats_rejected(self, tmp_path, old):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"format": old, "topics": ["a/x"], "users": [1]}))
        with pytest.raises(DataError) as caught:
            load_manifest(p)
        assert str(caught.value) == (f"{p}: a format-{old} snapshot, which this version does "
                                     "not read; ingest the dumps again to write a format-4 one")

    @pytest.mark.parametrize("payload", [[], "x", 1, {"format": 4},
                                         {"format": 4, "topics": [], "users": None},
                                         {"format": 4, "topics": "ab", "users": [1]},
                                         {"format": True, "topics": [], "users": []},
                                         {"format": "1", "topics": [], "users": []},
                                         {"format": 4, "topics": ["a/x", 1], "users": [1]},
                                         {"format": 4, "topics": [None], "users": [1]},
                                         {"format": 4, "topics": ["a/x"], "users": ["1"]},
                                         {"format": 4, "topics": ["a/x"], "users": [1.0]},
                                         {"format": 4, "topics": ["a/x"], "users": [True]}])
    def test_manifest_without_its_tables_rejected(self, tmp_path, payload):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: not a format-4 manifest "
                                            "with a list of topic strings and a list of "
                                            "integer user ids$"):
            load_manifest(p)

    def test_written_as_one_compact_line(self, tmp_path):
        p = tmp_path / "manifest.json"
        write_manifest(p, tables_fixture(), {"rank": 6}, {})
        text = p.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert text.count("\n") == 1

    def test_rewrite_is_byte_identical(self, tmp_path):
        digests = {"tensor.txt": serialize.encoded("dims 1 1 1 1\n")[1]}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(a, tables_fixture(), {"rank": 6}, digests)
        write_manifest(b, tables_fixture(), {"rank": 6}, digests)
        assert read_bytes(a) == read_bytes(b)


class TestEncodedTables:
    @pytest.mark.parametrize("seed", range(3))
    def test_encoded_text_is_what_save_writes(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        pairs = [(r, int(rng.integers(4))) for r in range(6) if rng.random() < 0.7]
        topics = rng.permutation(AWKWARD_TOPICS).tolist()
        tables = [
            (serialize.tensor_text, save_tensor, random_sparse(rng, (4, 3, 5, 2))),
            (serialize.tensor_text, save_tensor,
             SparseTensor4((4, 3, 5, 2), indices=np.zeros((0, 4), dtype=np.int64), values=[])),
            (serialize.membership_text, save_membership, MembershipMatrix(6, 4, pairs)),
            (serialize.membership_text, save_membership, MembershipMatrix(6, 4, [])),
            (serialize.tree_text, save_tree, tree_from_nested(random_nested(rng))),
            (serialize.tree_text, save_tree, tree_from_nested(0)),
            (serialize.reputation_text, save_reputation,
             rec.ledger({(n % 3, t): n - 5 for n, t in enumerate(topics)})),
            (serialize.reputation_text, save_reputation, rec.ledger({})),
        ]
        for n, (text, save, table) in enumerate(tables):
            p = tmp_path / f"{n}.txt"
            save(table, p)
            content, digest = serialize.encoded(text(table))
            assert content == p.read_bytes()
            assert digest == file_digest(p)


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
