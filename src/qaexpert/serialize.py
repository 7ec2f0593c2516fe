"""Line-oriented text formats for tensors, matrices, trees, and models.

Every format is UTF-8 with LF endings and writes floats as ``%.17g``, so
a save/load round trip reproduces float64 values bit for bit and repeated
runs with equal inputs produce byte-identical files.

Every table has one reader: one ``np.loadtxt`` pass, a row a line, none
of them blank.  A snapshot table (``tensor.txt``, the two membership
files, ``tree.txt``) or a matrix block of ``model.txt`` is ASCII text in
LF or CRLF lines, split at whitespace.  Input that pass rejects is a
DataError naming the first line it rejects, found by bisecting the lines
with the same pass, each step reading the first half of the lines still
under test, and the character that breaks it where one does.  A line
number counts LF-terminated lines, a CRLF counting as one LF; a number in
a header line follows the same rule.

``tree.txt`` holds the shape of a `HierarchyTree.halved`, node n as the
``parent leaf_row`` line n + 1, and the tree checks it: a node it rejects
is named by its line.  ``manifest.json`` is format 4; a snapshot of format
3 (``parent s g leaf_row`` tree lines), 2 (ledger rows in (user, topic)
order), 1 or another is refused and must be re-ingested.

``model.txt`` holds all that serving reads and its provenance, in the one
layout `save_model` writes for a fitted `CpModel`: the header, the four
factor blocks, the norms, the ``topics`` and ``users`` lines, each a JSON
list copied from the manifest that labels the topic or expert rows, then
the ``manifest`` and ``config`` lines, and last a ``digest <sha256>`` line
over every byte before it.  The question and voting blocks, which
`load_model` does not parse, stay for the benchmark's independent reader.
`load_model` walks that layout, each line's place fixed by the header's
dims, checks the label lines against those dims and the digest, so it
parses only what ranking reads, the topic and expert factors, the norms
and the labels, and returns them with the manifest digest the model
records: serving hashes ``manifest.json`` to compare that digest, and
parses none of it.  A model of an earlier layout, without the label
lines, with S, A and T blocks after the norms or without the digest
line, is rejected and must be refit.

``reputation.csv`` is the exception to the whitespace-separated layout:
CSV rows ``user_id,topic,score`` under that header, in UTF-8 text with LF
or CRLF lines, with a topic quoted as ``csv.writer`` quotes it when it
holds a comma, a quote or a line break, in strictly ascending (topic,
user) order, a topic by its name, not its quoted text.  The same pass
and locator read it, with an LF inside a quoted field ending no line, so
an error names the line on which the rejected record ends, or the line
of a quote inside an unquoted field, which csv.writer never writes.
``report.csv`` quotes its topics the same way and is written in one
format pass.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import re
import warnings

import numpy as np

from .coupled import CpModel, MembershipMatrix
from .errors import ContractViolation, DataError
from .hierarchy import HierarchyTree
from .ingest import ReputationLedger
from .ranking import RankingFactors
from .sparse_tensor import SparseTensor4, lex_order, row_changes, row_increases

__all__ = [
    "tensor_text", "save_tensor", "load_tensor",
    "membership_text", "save_membership", "load_membership",
    "tree_text", "save_tree", "load_tree",
    "save_model", "load_model",
    "save_reputation", "reputation_text", "load_reputation",
    "save_report", "save_history",
    "encoded", "write_manifest", "load_manifest", "file_digest",
]


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _rows_text(template, columns) -> str:
    """One ``template`` line per row of the equal-length lists ``columns``,
    formatted in one pass."""
    fields = [None] * sum(map(len, columns))
    for c, column in enumerate(columns):
        fields[c::len(columns)] = column
    return (template * len(columns[0])) % tuple(fields)


def tensor_text(X: SparseTensor4) -> str:
    """The ``dims I J K L`` header, then one ``i j k l value`` line per
    nonzero, in the tensor's order."""
    columns = [*X.indices.T.tolist(), X.values.tolist()]
    return ("dims " + " ".join(str(d) for d in X.dims) + "\n"
            + _rows_text("%d %d %d %d %.17g\n", columns))


def save_tensor(X: SparseTensor4, path):
    """Write `tensor_text` of ``X`` to ``path``."""
    _write_text(path, tensor_text(X))


# Bytes a table may not hold: a NUL, as a bytes field drops its trailing NULs,
# and, in whitespace text, an ``_`` (NumPy casts bytes to numbers as Python
# does, ``1_0`` to 10) or, in CSV text, 0x1c-0x1f (``np.loadtxt`` skips them
# around an integer, where ``csv.reader`` and ``int()`` reject them).
_BARRED = {False: b"\0_", True: b"\0\x1c\x1d\x1e\x1f"}


def _barred(data: bytes, csv=False) -> bool:
    """Whether ``data`` holds a byte of `_BARRED`, or is whitespace text that
    is not ASCII: ``np.loadtxt`` reads some other characters as digits,
    ``1\u01fe`` as 472."""
    return not (csv or data.isascii()) or any(b in data for b in _BARRED[csv])


def _stray(line: bytes, csv=False):
    """The first character of the record ``line`` that `_rows` rejects
    whatever its fields hold, named: a `_barred` one, a byte that is not
    UTF-8, or a CR outside a CRLF and outside a quoted CSV field; None if
    there is none."""
    text, quoted = line.decode("utf-8", "surrogateescape"), False
    for at, c in enumerate(text):
        quoted ^= csv and c == '"'
        if "\udc80" <= c <= "\udcff":
            return f"the byte {ord(c) - 0xdc00:#04x}"
        if _barred(c.encode(), csv) or c == "\r" and text[at + 1:at + 2] != "\n" and not quoted:
            return repr(c)
    return None


# A CSV field as csv.reader reads it: an optional quoted part, where a
# doubled quote stands for one, then unquoted characters up to a comma or
# an LF.  A quote right after it is one inside an unquoted field.
_CSV_FIELD = re.compile(rb'(?:"[^"]*(?:""[^"]*)*"?)?[^,\n"]*')


def _stray_quote(record: bytes):
    """Where the first quote inside an unquoted field of the CSV ``record``
    is, one that csv.writer never writes; None if there is none."""
    at = 0
    while at < len(record):
        at = _CSV_FIELD.match(record, at).end()
        if record[at:at + 1] == b'"':
            return at
        at += 1  # past the comma or LF
    return None


def _line_bounds(data: bytes, csv=False) -> np.ndarray:
    """Where each line of ``data`` starts, then where the last one ends:
    line n is ``data[bounds[n - 1]:bounds[n]]``.  A line ends past an LF (a
    CRLF ending one line) or at the end of the data; no other character, a
    lone CR, a form feed or U+2028, ends one, and in ``csv`` text neither
    does an LF inside a quoted field, one after an odd count of quotes, so
    that a line there is one record."""
    chars = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(chars == ord("\n")) + 1
    if csv and b'"' in data:
        ends = ends[np.searchsorted(np.flatnonzero(chars == ord('"')), ends) % 2 == 0]
    bounds = np.r_[0, ends]
    return bounds if bounds[-1] == len(data) else np.append(bounds, len(data))


def _rows(data: bytes, dtype, skip=0, source=None, csv=False, lines=None):
    """The lines of ``data`` after its first ``skip``, a row of ``dtype``
    each, as a structured array read by one ``np.loadtxt`` pass from
    ``source`` (a file reads faster by its path) or, where ``data`` holds a
    CR, which a read by path turns into an LF, from ``data`` itself.  Fields
    split at whitespace or, in ``csv`` text, at commas, where a field may be
    quoted as ``csv.writer`` quotes it.  The pass reads the text as latin-1,
    which keeps each byte of a UTF-8 field in a bytes column and makes no
    byte of a non-ASCII character a digit.  A ValueError unless ``data`` is
    ASCII text (UTF-8 in CSV) without a `_barred` byte, and the pass takes
    it without a warning (on empty input, or where NumPy would cast an
    integer through a float) as one row a line: ``np.loadtxt`` drops blank
    lines, and rejects a CR that is neither in a CRLF nor in a quoted field.
    ``lines``, where the caller has it, is the count of `_line_bounds`' lines."""
    if _barred(data, csv):
        raise ValueError("holds a barred byte")
    if csv:
        data.decode("utf-8")  # a UnicodeDecodeError, a ValueError, unless UTF-8
    if lines is None and csv and b'"' in data:
        lines = len(_line_bounds(data, csv)) - 1
    elif lines is None:
        lines = (np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
                 + (data[-1:] not in (b"", b"\n")))
    if lines <= skip:
        return np.zeros(0, dtype)
    if source is None or b"\r" in data:
        source = io.BytesIO(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(source, dtype=dtype, comments=None, ndmin=1, skiprows=skip,
                               delimiter="," if csv else None, quotechar='"' if csv else None,
                               encoding="latin-1")
        except Warning as exc:
            raise ValueError(exc) from None
    if len(table) != lines - skip:
        raise ValueError(f"read {len(table)} of {lines - skip} rows")
    return table


def _first_rejected(count: int, read) -> int:
    """The least n in 1..``count`` whose item is rejected, where ``read(lo,
    hi)`` reads items ``lo + 1`` to ``hi`` and raises a ValueError or an
    OverflowError just where one of them is rejected, and ``read(0, count)``
    raises.  Found by bisection, each step reading only the first half of
    the items still under test, so the reads add up to about ``count``."""
    lo, hi = 0, count  # items 1..lo are taken; the first rejected lies in lo+1..hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            read(lo, mid)
        except (ValueError, OverflowError):
            hi = mid
        else:
            lo = mid
    return hi


def _fields(line: bytes, dtype, csv=False) -> list:
    """The fields of the record ``line``, laid out as ``dtype``, each as
    its own bytes."""
    spec = np.dtype(dtype)
    row = _rows(line, [(name, f"S{len(line)}", spec[name].shape) for name in spec.names],
                csv=csv)[0]
    return [field for name in spec.names for field in np.ravel(row[name])]


def _read_rows(path, data: bytes, dtype, layout: str, skip=0, source=None, first=1, csv=False,
               bounds=None):
    """`_rows` of ``data``, the text of ``path`` from its line ``first`` on,
    whose `_line_bounds` are ``bounds`` where the caller has them.
    Where they are rejected, the first line whose prefix `_rows` rejects is
    a DataError naming the line it ends on, and quoting the field that
    ``np.loadtxt`` does not convert in it, decoded from the line's own UTF-8
    bytes, or else the line, which does not follow ``layout``, with the
    character `_stray` names in it."""
    try:
        return _rows(data, dtype, skip, source, csv, None if bounds is None else len(bounds) - 1)
    except ValueError:
        pass
    # `_rows` rejects a run of whole lines just where it rejects one of them,
    # so the locator reads runs of them, skipping lines only in a run from
    # the first line
    if bounds is None:
        bounds = _line_bounds(data, csv)
    n = _first_rejected(len(bounds) - 1, lambda lo, hi: _rows(
        data[bounds[lo]:bounds[hi]], dtype, max(skip - lo, 0), csv=csv))
    lo, hi = bounds[n - 1], bounds[n]
    stray = None
    # `_line_bounds` runs a record on to later lines past a quote inside an
    # unquoted field, where np.loadtxt opens no quoted field: the line that
    # holds the quote is to blame, alone
    if csv and b"\n" in data[lo:hi - 1] and (at := _stray_quote(data[lo:hi])) is not None:
        lo, hi = data.rfind(b"\n", lo, lo + at) + 1 or lo, data.find(b"\n", lo + at) + 1 or hi
        stray = repr('"')
    line, why = data[lo:hi], ""
    try:
        _rows(line, dtype, csv=csv)
    except ValueError as exc:
        why = str(exc)
    if why.startswith("could not convert"):  # "... to int64 at row 0, column 2."
        field = _fields(line, dtype, csv)[int(why.rpartition("column ")[2].rstrip(".")) - 1]
        kind = why.partition(" at row")[0].rpartition(" to ")[2]
        why = f"could not convert string {field.decode('utf-8', 'replace')!r} to {kind}"
    else:
        text = line.decode("utf-8", "replace").rstrip("\r\n")
        why = f"expected {layout}, got {text!r}"
        if stray := stray or _stray(line, csv):
            why += f", which holds {stray}"
    last = first + data.count(b"\n", 0, hi - 1)
    raise DataError(f"{path}:{last}: {why}")


def _numbers(fields, kind, path, line):
    """``fields`` parsed by ``kind``, int or float; one that `_barred` bars,
    as it bars the text of a table, one that does not parse, or an int past
    int64, is a DataError naming ``line``."""
    try:
        if _barred(" ".join(fields).encode()):
            t = next(t for t in fields if _barred(t.encode()))
            raise ValueError(f"could not convert {t!r}, which holds {_stray(t.encode())}")
        values = [kind(t) for t in fields]
        if kind is int:
            np.array(values, dtype=np.int64)  # OverflowError past int64
        return values
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}:{line}: {exc}") from None


def _build(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ContractViolation it raises is a
    DataError naming ``path``, and the line of its ``node`` where it has one."""
    try:
        return make(*args, **kwargs)
    except ContractViolation as exc:
        where = path if exc.node is None else f"{path}:{exc.node + 1}"
        raise DataError(f"{where}: {exc}") from None


def load_tensor(path) -> SparseTensor4:
    data = _read(path)
    head = data.partition(b"\n")[0].decode("utf-8", "replace").split()
    if len(head) != 5 or head[0] != "dims":
        raise DataError(f"{path}:1: expected a 'dims I J K L' header")
    dims = tuple(_numbers(head[1:], int, path, 1))
    table = _read_rows(path, data, [("index", np.int64, (4,)), ("value", np.float64)],
                       "'i j k l value'", skip=1, source=path)
    return _build(path, SparseTensor4, dims, indices=table["index"], values=table["value"])


def membership_text(M: MembershipMatrix) -> str:
    """The ``rows cols`` header, then one ``row col`` line per pair."""
    return f"{M.rows} {M.cols}\n" + _rows_text("%d %d\n", M.indices.T.tolist())


def save_membership(M: MembershipMatrix, path):
    """Write `membership_text` of ``M`` to ``path``."""
    _write_text(path, membership_text(M))


def load_membership(path) -> MembershipMatrix:
    data = _read(path)
    head = data.partition(b"\n")[0].decode("utf-8", "replace").split()
    if len(head) != 2:
        raise DataError(f"{path}:1: expected a 'rows cols' header")
    rows, cols = _numbers(head, int, path, 1)
    table = _read_rows(path, data, [("pair", np.int64, (2,))], "'row col'", skip=1, source=path)
    return _build(path, MembershipMatrix, rows, cols, table["pair"])


def tree_text(tree: HierarchyTree) -> str:
    """Node n of ``tree`` as the ``parent leaf_row`` line n + 1, -1 the leaf
    row of an internal node; a ContractViolation unless `check_halved` passes."""
    tree.check_halved()
    return _rows_text("%d %d\n", [tree.parent.tolist(), tree.leaf_row.tolist()])


def save_tree(tree: HierarchyTree, path):
    """Write `tree_text` of ``tree`` to ``path``."""
    _write_text(path, tree_text(tree))


def load_tree(path) -> HierarchyTree:
    """Read a tree file's two columns by one `_rows` pass, and check them by
    building the `HierarchyTree.halved`: a node it rejects is a DataError
    naming its line, and a file without a node one naming ``path``."""
    table = _read_rows(path, _read(path), [("parent", np.int64), ("leaf_row", np.int64)],
                       "'parent leaf_row'", source=path)
    return _build(path, HierarchyTree.halved, table["parent"], table["leaf_row"])


def _matrix_text(U) -> str:
    """Rows of ``U`` as lines of ``%.17g`` values, formatted in one pass."""
    U = np.atleast_2d(U)
    line = " ".join(["%.17g"] * U.shape[1]) + "\n"
    return (line * U.shape[0]) % tuple(U.ravel().tolist())


def save_model(cp: CpModel, path, topics, users, manifest_hash: str, config: dict):
    """Write the fitted ``cp`` in the one layout `load_model` walks, with
    the labels of its topic and expert rows, ``topics`` and ``users``, and
    its provenance: the SHA-256 digest of the snapshot's manifest and the
    ``config`` fit ran with.  The last line is the SHA-256 digest of every
    byte before it.  A ContractViolation unless there is a label a row."""
    if (len(topics), len(users)) != (cp.dims[1], cp.dims[3]):
        raise ContractViolation(f"{len(topics)} topics and {len(users)} users label "
                                f"{cp.dims[1]} topic and {cp.dims[3]} expert rows")
    text = (f"joint-model rank {cp.rank} dims {' '.join(str(d) for d in cp.dims)}\n"
            + "".join(f"mode {mode} rows {U.shape[0]}\n" + _matrix_text(U)
                      for mode, U in enumerate(cp.factors))
            + "norms " + _matrix_text(cp.norms)
            + f"topics {json.dumps(topics)}\nusers {json.dumps(users)}\n"
            + f"manifest {manifest_hash}\n"
            + "config " + json.dumps(config, sort_keys=True) + "\n")
    _write_text(path, f"{text}digest {hashlib.sha256(text.encode('utf-8')).hexdigest()}\n")


def load_model(path) -> tuple[RankingFactors, list, list, str]:
    """The ranking blocks of a model file, the topic and user labels of
    their rows, and the manifest digest the model records.

    The walk takes the one layout `save_model` writes: the header, ``mode
    0`` to ``mode 3`` with the row counts the header gives, ``norms``, the
    ``topics`` and ``users`` lines, then the ``manifest``, ``config`` and
    ``digest`` lines, the digest last, so the header fixes the place of
    every line.  A line that is missing or out of place, a label line that
    is not a JSON list of as many strings (topics) or integers (users) as
    the header has topic or expert rows, or a digest that is not that of
    every byte before it, is a DataError naming its line.  Then only the
    blocks `ranking` reads are parsed: the topic factor (mode 1), the
    expert factor (mode 3) and the norms.
    """
    data = _read(path)
    bounds = _line_bounds(data)
    count = len(bounds) - 1

    def line(n):  # from 0
        return data[bounds[n]:bounds[n + 1]].decode("utf-8", "replace").rstrip("\r\n")

    def fields(n, expected, words, size=None):
        """Line n + 1 split at whitespace; a DataError unless it starts with
        ``words`` and, where ``size`` is given, has that many fields."""
        if n >= count:
            raise DataError(f"{path}:{count}: file ends before {expected}")
        parts = line(n).split()
        if parts[:len(words)] != words or size is not None and len(parts) != size:
            raise DataError(f"{path}:{n + 1}: expected {expected}, got {line(n)!r}")
        return parts

    def labels(n, word, size, kind, what):
        """The JSON list after ``word`` and a space on line n + 1, parsed
        once from the line's bytes; a DataError unless the line starts so
        and the list holds ``size`` values, each of type ``kind``."""
        expected = (f"a '{word} <JSON list>' line (a model without its topics and users "
                    "lines there is of an earlier layout and must be refit)")
        if n >= count:
            raise DataError(f"{path}:{count}: file ends before {expected}")
        raw = data[bounds[n]:bounds[n + 1]]
        if not raw.startswith(word.encode() + b" "):
            raise DataError(f"{path}:{n + 1}: expected {expected}, got {line(n)!r}")
        try:
            values = json.loads(raw[len(word) + 1:])
        except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
            raise DataError(f"{path}:{n + 1}: {word} line: {exc}") from None
        if not (type(values) is list and len(values) == size  # by type: a bool is no user
                and [*map(type, values)].count(kind) == size):
            raise DataError(f"{path}:{n + 1}: expected a JSON list of {size} {what}, "
                            "as the header's dims give")
        return values

    def matrix(mode):
        start = at[mode] + 1
        return _read_rows(path, data[bounds[start]:bounds[start + dims[mode]]],
                          [("row", np.float64, (rank,))], f"{rank} values", first=start + 1)["row"]

    if not count:
        raise DataError(f"{path}: empty model file")
    header = "a 'joint-model rank R dims I J K L' header"
    head = fields(0, header, ["joint-model", "rank"], 8)
    rank, *dims = _numbers(head[2:3] + head[4:8], int, path, 1)
    if head[3] != "dims" or min(dims) < 0:
        raise DataError(f"{path}:1: expected {header} without a negative dim, got {line(0)!r}")
    # the line, from 0, of each mode's header, then of the norms
    at = list(itertools.accumulate((d + 1 for d in dims), initial=1))
    for mode, rows in enumerate(dims):
        fields(at[mode], f"'mode {mode} rows {rows}'", ["mode", str(mode), "rows", str(rows)], 4)
    norms = fields(at[4], f"a norms line with {rank} values", ["norms"], rank + 1)[1:]
    topics = labels(at[4] + 1, "topics", dims[1], str, "topic strings")
    users = labels(at[4] + 2, "users", dims[3], int, "integer user ids")
    manifest = fields(at[4] + 3, "a 'manifest <sha256>' line", ["manifest"], 2)[1]
    fields(at[4] + 4, "the config line", ["config"])
    end = at[4] + 5
    digest = fields(end, "a final 'digest <sha256>' line, without which a model must be refit",
                    ["digest"], 2)[1]
    if end + 1 < count:
        raise DataError(f"{path}:{end + 2}: expected the end of the file after its digest "
                        f"line, got {line(end + 1)!r}")
    if digest != hashlib.sha256(memoryview(data)[:bounds[end]]).hexdigest():
        raise DataError(f"{path}:{count}: digest does not match the file's contents")
    norms = np.array(_numbers(norms, float, path, at[4] + 1))
    return RankingFactors(matrix(1), matrix(3), norms), topics, users, manifest


_REPUTATION_HEADER = "user_id,topic,score\n"


def _csv_field(text: str) -> str:
    """``text`` as csv.writer's QUOTE_MINIMAL writes a field: in double
    quotes, each quote doubled, when it holds a comma, a quote or a line
    break, and as it is otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def reputation_text(ledger: ReputationLedger) -> str:
    """The header, then one ``user_id,topic,score`` row per ledger row, in
    (topic, user) order: the ledger's own where it is that, as ingest's is,
    and its rows sorted by one `lex_order` otherwise."""
    user, topic, score = ledger.user, ledger.topic, ledger.score
    if not row_increases((topic, user)).all():
        order = lex_order((topic, user))
        user, topic, score = user[order], topic[order], score[order]
    names = [_csv_field(t) for t in ledger.topic_names]
    rows = user.tolist(), [names[c] for c in topic.tolist()], score.tolist()
    return _REPUTATION_HEADER + _rows_text("%d,%s,%d\n", rows)


def save_reputation(ledger: ReputationLedger, path):
    """Write `reputation_text` of ``ledger`` to ``path``."""
    _write_text(path, reputation_text(ledger))


def load_reputation(path) -> ReputationLedger:
    """Read a reputation file into ledger columns.

    After the header line, one `_rows` pass reads the CSV records, the
    topic as bytes as wide as the longest record, so none is cut short.
    Rows must come in strictly ascending (topic, user) order, a topic by
    its decoded name, so each topic's rows are one run and its code is the
    run's number: one `row_changes` pass finds the runs, and only the name
    at each run's start is decoded.  A record that breaks the order, or
    that the pass rejects, is a DataError naming the line it ends on.
    """
    data = _read(path)
    head = data[:data.find(b"\n")] if b"\n" in data else data
    if head.removesuffix(b"\r") != _REPUTATION_HEADER.strip().encode():
        raise DataError(f"{path}:1: expected the header {_REPUTATION_HEADER.strip()!r}, "
                        f"got {head.decode('utf-8', 'replace')!r}")
    bounds = _line_bounds(data, csv=True)
    table = _read_rows(path, data, [("user", np.int64), ("topic", f"S{np.diff(bounds).max()}"),
                                    ("score", np.int64)],
                       "'user_id,topic,score' with int64 user and score", skip=1, source=path,
                       csv=True, bounds=bounds)
    new = row_changes((table["topic"],))
    runs = table["topic"][new]  # UTF-8 bytes, which sort as their text does
    topic = np.cumsum(new, dtype=np.int64)
    topic -= 1
    user, score = np.ascontiguousarray(table["user"]), np.ascontiguousarray(table["score"])
    names = [name.decode() for name in runs.tolist()]
    if not ((runs[1:] > runs[:-1]).all() and row_increases((topic, user)).all()):
        row, why = _out_of_order(names, np.flatnonzero(new), user, topic)
        line = data.count(b"\n", 0, bounds[row + 2] - 1) + 1
        raise DataError(f"{path}:{line}: {why}; rows must be in ascending (topic, user) "
                        "order, each pair once")
    return ReputationLedger(tuple(names), user, topic, score)


def _out_of_order(names, starts, user, topic):
    """The first row that breaks a reputation table's (topic, user) order,
    and how; ``names`` are the runs' decoded names, ``starts`` their first
    rows, and ``topic`` numbers each row's run."""
    late = ~row_increases((topic, user))
    row = int(np.argmax(late)) + 1 if late.any() else len(user)
    r = next((r for r in range(1, len(names)) if names[r] <= names[r - 1]), None)
    if r is not None and starts[r] < row:
        how = ("comes again after other topics" if names[r] in names[:r]
               else f"sorts below {names[r - 1]!r}, the topic before it")
        return starts[r], f"topic {names[r]!r} {how}"
    u, before = int(user[row]), int(user[row - 1])
    how = "twice" if u == before else f"after user {before}"
    return row, f"user {u} comes {how} in topic {names[topic[row]]!r}"


def save_report(report, path, config=None):
    """Write the evaluation report CSV, per-topic rows then ALL rows, in one
    format pass, each topic quoted as `_csv_field` quotes it."""
    topic, *rest = list(zip(*report.rows, *report.summary)) or [()] * 5
    head = "" if config is None else "# config " + json.dumps(config, sort_keys=True) + "\n"
    _write_text(path, head + "topic,k,precision,mrr,n_candidates\n"
                + _rows_text("%s,%s,%.17g,%.17g,%s\n", [[_csv_field(t) for t in topic], *rest]))


def save_history(values, path):
    values = [float(v) for v in values]
    _write_text(path, "sweep,objective\n"
                + _rows_text("%d,%.17g\n", [list(range(1, len(values) + 1)), values]))


def encoded(text: str) -> tuple[bytes, str]:
    """The bytes a ``save_*`` function writes for ``text``, and their SHA-256
    hex digest, as `write_manifest` records it."""
    data = text.encode("utf-8")
    return data, hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


_FORMAT = 4  # of manifest.json, raised whenever a snapshot file's layout changes


def write_manifest(path, tables, config, digests):
    """Write the snapshot manifest: index tables, config echo, and
    ``digests``, the SHA-256 hex digest of each snapshot file by its name."""
    payload = {
        "format": _FORMAT,
        "subsites": list(tables.subsites),
        "questions": [f"{s}:{pid}" for s, pid in tables.questions],
        "topics": list(tables.topics),
        "users": [int(u) for u in tables.users],
        "bucket_edges": [int(e) for e in tables.bucket_edges],
        "config": config,
        "files": digests,
    }
    _write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_manifest(path) -> tuple[dict, str]:
    """A snapshot manifest, a format-4 JSON object with a list of topic
    strings and a list of integer user ids, and the SHA-256 hex digest of
    the bytes it was parsed from.  One of another integer format is refused
    with its own message: its snapshot must be re-ingested."""
    data = _read(path)
    try:
        manifest = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise DataError(f"{path}: {exc}") from None
    old = manifest.get("format") if isinstance(manifest, dict) else None
    if type(old) is int and old != _FORMAT:
        raise DataError(f"{path}: a format-{old} snapshot, which this version does not read; "
                        f"ingest the dumps again to write a format-{_FORMAT} one")
    if not (isinstance(manifest, dict) and old == _FORMAT
            and all(isinstance(manifest.get(k), list)  # by type, as a bool is no user id
                    and [*map(type, manifest[k])].count(kind) == len(manifest[k])
                    for k, kind in (("topics", str), ("users", int)))):
        raise DataError(f"{path}: not a format-{_FORMAT} manifest with a list of topic strings "
                        "and a list of integer user ids")
    return manifest, hashlib.sha256(data).hexdigest()
