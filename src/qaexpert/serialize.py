"""Line-oriented text formats for tensors, matrices, trees, and models.

Every format is UTF-8 with LF endings and writes floats as ``%.17g``, so
a save/load round trip reproduces float64 values bit for bit and repeated
runs with equal inputs produce byte-identical files.

Every table has one reader: one ``np.loadtxt`` pass, a row a line, none
of them blank.  A snapshot table (``tensor.txt``, the two membership
files, ``tree.txt``) or a matrix block of ``model.txt`` is ASCII text in
LF or CRLF lines, split at whitespace.  Input that pass rejects is a
DataError naming the first line it rejects, found by bisecting the line
prefixes with the same pass, and the character that breaks it where one
does.  A line number counts LF-terminated lines, a CRLF counting as one
LF; a number in a header line follows the same rule.

``model.txt`` ends with a ``digest <sha256>`` line over every byte before
it, so `load_model` can check the whole file yet parse only the blocks
its caller reads: ranking reads the topic and expert factors and the
norms.  A model without the digest line is rejected and must be refit.

``reputation.csv`` is the exception to the whitespace-separated layout:
CSV rows ``user_id,topic,score`` in (user, topic) order under that
header, in UTF-8 text with LF or CRLF lines, with a topic quoted as
``csv.writer`` quotes it when it holds a comma, a quote or a line break.
The same pass and locator read it, with an LF inside a quoted field
ending no line, so an error names the line on which the rejected record
ends.  ``report.csv`` quotes its topics the same way and is written in
one format pass.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import json
import os
import warnings

import numpy as np

from .coupled import CpModel, JointModel, MembershipMatrix
from .errors import ContractViolation, DataError
from .hierarchy import HierarchyTree
from .ingest import TREE_LEAF_LEVEL, ReputationLedger
from .ranking import RankingFactors
from .sparse_tensor import SparseTensor4, row_increases

__all__ = [
    "save_tensor", "load_tensor",
    "save_membership", "load_membership",
    "save_tree", "load_tree",
    "save_model", "load_model",
    "save_reputation", "reputation_text", "load_reputation",
    "save_report", "save_history",
    "write_manifest", "load_manifest", "file_digest",
]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


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


def save_tensor(X: SparseTensor4, path):
    columns = [*X.indices.T.tolist(), X.values.tolist()]
    _write_text(path, "dims " + " ".join(str(d) for d in X.dims) + "\n"
                + _rows_text("%d %d %d %d %.17g\n", columns))


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


def _rows(data: bytes, dtype, skip=0, source=None, csv=False):
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
    lines, and rejects a CR that is neither in a CRLF nor in a quoted field."""
    if _barred(data, csv):
        raise ValueError("holds a barred byte")
    if csv:
        data.decode("utf-8")  # a UnicodeDecodeError, a ValueError, unless UTF-8
    if csv and b'"' in data:
        lines = len(_line_bounds(data, csv)) - 1
    else:
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
    """The least n in 1..``count`` for which ``read(n)`` raises a ValueError
    or an OverflowError, found by bisection: ``read(count)`` raises, and so
    does every ``read(n)`` past one that raises."""
    def rejects(n):
        try:
            read(n)
        except (ValueError, OverflowError):
            return True
        return False
    return bisect.bisect_left(range(1, count + 1), True, key=rejects) + 1


def _fields(line: bytes, dtype, csv=False) -> list:
    """The fields of the record ``line``, laid out as ``dtype``, each as
    its own bytes."""
    spec = np.dtype(dtype)
    row = _rows(line, [(name, f"S{len(line)}", spec[name].shape) for name in spec.names],
                csv=csv)[0]
    return [field for name in spec.names for field in np.ravel(row[name])]


def _read_rows(path, data: bytes, dtype, layout: str, skip=0, source=None, first=1, csv=False):
    """`_rows` of ``data``, the text of ``path`` from its line ``first`` on.
    Where they are rejected, the first line whose prefix `_rows` rejects is
    a DataError naming the line it ends on, and quoting the field that
    ``np.loadtxt`` does not convert in it, decoded from the line's own UTF-8
    bytes, or else the line, which does not follow ``layout``, with the
    character `_stray` names in it."""
    try:
        return _rows(data, dtype, skip, source, csv)
    except ValueError:
        pass
    bounds = _line_bounds(data, csv)
    n = _first_rejected(len(bounds) - 1, lambda n: _rows(data[:bounds[n]], dtype, skip, csv=csv))
    line, why = data[bounds[n - 1]:bounds[n]], ""
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
        if stray := _stray(line, csv):
            why += f", which holds {stray}"
    last = first + data.count(b"\n", 0, bounds[n] - 1)
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
    DataError naming ``path``."""
    try:
        return make(*args, **kwargs)
    except ContractViolation as exc:
        raise DataError(f"{path}: {exc}") from None


def load_tensor(path) -> SparseTensor4:
    data = _read(path)
    head = data.partition(b"\n")[0].decode("utf-8", "replace").split()
    if len(head) != 5 or head[0] != "dims":
        raise DataError(f"{path}:1: expected a 'dims I J K L' header")
    dims = tuple(_numbers(head[1:], int, path, 1))
    table = _read_rows(path, data, [("index", np.int64, (4,)), ("value", np.float64)],
                       "'i j k l value'", skip=1, source=path)
    return _build(path, SparseTensor4, dims, indices=table["index"], values=table["value"])


def save_membership(M: MembershipMatrix, path):
    _write_text(path, f"{M.rows} {M.cols}\n" + _rows_text("%d %d\n", M.indices.T.tolist()))


def load_membership(path) -> MembershipMatrix:
    data = _read(path)
    head = data.partition(b"\n")[0].decode("utf-8", "replace").split()
    if len(head) != 2:
        raise DataError(f"{path}:1: expected a 'rows cols' header")
    rows, cols = _numbers(head, int, path, 1)
    table = _read_rows(path, data, [("pair", np.int64, (2,))], "'row col'", skip=1, source=path)
    return _build(path, MembershipMatrix, rows, cols, table["pair"])


def save_tree(tree: HierarchyTree, path):
    """One line per node in preorder, indented two spaces a level:
    ``level id parent s g``, or ``level id parent leaf row`` at a leaf."""
    level = tree.level.tolist()
    tails = [f"leaf {row}" if row >= 0 else f"{_fmt(s)} {_fmt(g)}"
             for row, s, g in zip(tree.leaf_row.tolist(), tree.s.tolist(), tree.g.tolist())]
    columns = [["  " * lv for lv in level], level, list(range(len(level))),
               tree.parent.tolist(), tails]
    _write_text(path, _rows_text("%s%d %d %d %s\n", columns))


def _tree_faults(level, nid, parent):
    """(bad rows, message) of each line-order check on the tree columns,
    in the order they are reported; each needs the ones before it to pass."""
    ids = np.arange(len(nid))
    yield nid != ids, "ids must run 0, 1, ... in line order"
    yield (np.where(ids == 0, parent != -1, (parent < 0) | (parent >= ids)),
           "the parent must be -1 on the first line and an earlier id on every other")
    yield level != np.where(ids == 0, 0, level[parent] + 1), "level must be the parent's plus one"
    yield level > TREE_LEAF_LEVEL, f"level must be at most {TREE_LEAF_LEVEL}, the question leaves"


def _cast(path, column, rows, kind):
    """The bytes fields ``column[rows]`` cast to ``kind`` by ``astype``;
    the first that does not cast is a DataError naming its line."""
    at = np.flatnonzero(rows)
    try:
        return column[at].astype(kind)
    except (ValueError, OverflowError):
        r = at[_first_rejected(len(at), lambda n: column[at[:n]].astype(kind)) - 1]
        raise DataError(f"{path}:{r + 1}: could not convert string "
                        f"{column[r].decode()!r} to {np.dtype(kind)}") from None


def load_tree(path) -> HierarchyTree:
    """Read a tree file into its preorder arrays, column by column.

    One `_rows` pass reads the lines, a node each, with the ``s g`` or
    ``leaf row`` fields as bytes as wide as the longest line, so none is
    cut short, which ``astype`` then casts.  The lines must hold ids 0, 1,
    ... in order, each parent before its children, each level its parent's
    plus one and none below the question leaves that ingest writes; the
    first line that breaks this, or whose field does not cast, is a
    DataError naming it.
    """
    data = _read(path)
    field = f"S{np.diff(_line_bounds(data)).max(initial=1)}"
    table = _read_rows(path, data, [("level", np.int64), ("id", np.int64), ("parent", np.int64),
                                    ("s", field), ("g", field)],
                       "'level id parent s g' or '... leaf row'", source=path)
    for bad, what in _tree_faults(table["level"], table["id"], table["parent"]):
        if bad.any():
            raise DataError(f"{path}:{np.argmax(bad) + 1}: {what}")
    leaf, n = table["s"] == b"leaf", len(table)
    s, g, leaf_row = np.full(n, np.nan), np.full(n, np.nan), np.full(n, -1)
    s[~leaf] = _cast(path, table["s"], ~leaf, np.float64)
    g[~leaf] = _cast(path, table["g"], ~leaf, np.float64)
    leaf_row[leaf] = _cast(path, table["g"], leaf, np.int64)
    return _build(path, HierarchyTree, table["parent"], s, g, leaf_row)


def _matrix_text(U) -> str:
    """Rows of ``U`` as lines of ``%.17g`` values, formatted in one pass."""
    U = np.atleast_2d(U)
    line = " ".join(["%.17g"] * U.shape[1]) + "\n"
    return (line * U.shape[0]) % tuple(U.ravel().tolist())


def _block(count, start, rows, path):
    """(start, rows) of a matrix block in a model of ``count`` lines, and
    the line after it."""
    if rows < 0:
        raise DataError(f"{path}:{start}: negative row count")
    if start + rows > count:
        raise DataError(f"{path}:{count}: file ends inside a {rows}-row block")
    return (start, rows), start + rows


def save_model(model, path, manifest_hash=None, config=None):
    """Write a fitted model; joint models extend the tensor-model format.

    ``manifest_hash`` and ``config`` are optional provenance lines tying
    the model to the snapshot it was fit on.  The last line is the SHA-256
    digest of every byte before it.
    """
    joint = isinstance(model, JointModel)
    cp = model.cp if joint else model
    out = io.StringIO()
    kind = "joint-model" if joint else "cp-model"
    dims = " ".join(str(d) for d in cp.dims)
    out.write(f"{kind} rank {cp.rank} dims {dims}\n")
    for mode, U in enumerate(cp.factors):
        out.write(f"mode {mode} rows {U.shape[0]}\n")
        out.write(_matrix_text(U))
    out.write("norms " + _matrix_text(cp.norms))
    if joint:
        for name, U in (("S", model.S), ("A", model.A), ("T", model.T)):
            out.write(f"{name} rows {U.shape[0]}\n")
            out.write(_matrix_text(U))
        pairs = " ".join(f"{k} {_fmt(v)}" for k, v in sorted(model.lambdas.items()))
        out.write(f"lambdas {pairs}\n")
    if manifest_hash is not None:
        out.write(f"manifest {manifest_hash}\n")
    if config is not None:
        out.write("config " + json.dumps(config, sort_keys=True) + "\n")
    text = out.getvalue()
    _write_text(path, f"{text}digest {hashlib.sha256(text.encode('utf-8')).hexdigest()}\n")


def load_model(path, ranking_only=False):
    """Read a model file; returns (model, meta) with provenance in meta.

    Every block header, row count and trailing line is checked, then the
    final digest line against the bytes before it.  With ``ranking_only``
    just the blocks `ranking` reads are parsed, and the model returned is
    their `RankingFactors` instead of a CpModel or JointModel.
    """
    data = _read(path)
    bounds = _line_bounds(data)
    count = len(bounds) - 1

    def line(n):  # from 0
        return data[bounds[n]:bounds[n + 1]].decode("utf-8", "replace").rstrip("\r\n")

    def fields(n, expected):
        if n >= count:
            raise DataError(f"{path}:{count}: file ends before {expected}")
        return line(n).split()

    def matrix(block):
        start, rows = block
        return _read_rows(path, data[bounds[start]:bounds[start + rows]],
                          [("row", np.float64, (rank,))], f"{rank} values", first=start + 1)["row"]

    if not count:
        raise DataError(f"{path}: empty model file")
    head = line(0).split()
    if len(head) != 8 or head[0] not in ("cp-model", "joint-model") or head[1] != "rank":
        raise DataError(f"{path}: unrecognized model header")
    rank, *dims = _numbers(head[2:3] + head[4:8], int, path, 1)
    blocks = {}
    pos = 1
    for mode in range(4):
        parts = fields(pos, f"'mode {mode} rows N'")
        if len(parts) != 4 or parts[:2] != ["mode", str(mode)]:
            raise DataError(f"{path}:{pos + 1}: expected 'mode {mode} rows N'")
        if _numbers(parts[3:], int, path, pos + 1)[0] != dims[mode]:
            raise DataError(f"{path}:{pos + 1}: mode {mode} rows disagree with header")
        blocks[mode], pos = _block(count, pos + 1, dims[mode], path)
    parts = fields(pos, "the norms line")
    if parts[:1] != ["norms"] or len(parts) != rank + 1:
        raise DataError(f"{path}:{pos + 1}: expected a norms line with {rank} values")
    norms_at, pos = pos, pos + 1
    joint = head[0] == "joint-model"
    if joint:
        for name in ("S", "A", "T"):
            parts = fields(pos, f"the {name} block")
            if len(parts) != 3 or parts[0] != name:
                raise DataError(f"{path}:{pos + 1}: expected the {name} block")
            rows = _numbers(parts[2:], int, path, pos + 1)[0]
            blocks[name], pos = _block(count, pos + 1, rows, path)
        parts = fields(pos, "the lambdas line")
        if parts[:1] != ["lambdas"] or len(parts) % 2 == 0:
            raise DataError(f"{path}:{pos + 1}: expected the lambdas line")
        lambdas_at, pos = pos, pos + 1

    trailing = {}
    for n in range(pos, count):
        key = line(n).split(None, 1)[:1]
        if not key:
            continue
        if key[0] not in ("manifest", "config", "digest"):
            raise DataError(f"{path}: unexpected trailing line {line(n)!r}")
        trailing[key[0]] = n
    if trailing.get("digest") != count - 1:
        raise DataError(f"{path}:{count}: expected a final 'digest <sha256>' line; "
                        "a model written without one must be refit")
    body = data[:bounds[count - 1]]  # every byte before the last line
    if line(count - 1).split() != ["digest", hashlib.sha256(body).hexdigest()]:
        raise DataError(f"{path}:{count}: digest does not match the file's contents")
    meta = {}
    if "manifest" in trailing:
        meta["manifest"] = line(trailing["manifest"]).split(None, 1)[1].strip()
    if "config" in trailing:
        meta["config"] = json.loads(line(trailing["config"]).split(None, 1)[1])

    norms = np.array(_numbers(line(norms_at).split()[1:], float, path, norms_at + 1))
    if ranking_only:
        return RankingFactors(matrix(blocks[1]), matrix(blocks[3]), norms), meta
    cp = CpModel([matrix(blocks[m]) for m in range(4)], norms)
    if not joint:
        return cp, meta
    parts = line(lambdas_at).split()
    lambdas = dict(zip(parts[1::2], _numbers(parts[2::2], float, path, lambdas_at + 1)))
    S, A, T = (matrix(blocks[name]) for name in "SAT")
    return JointModel(cp, S, A, T, lambdas), meta


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
    the ledger's order."""
    names = [_csv_field(t) for t in ledger.topic_names]
    rows = ledger.user.tolist(), [names[c] for c in ledger.topic.tolist()], ledger.score.tolist()
    return _REPUTATION_HEADER + _rows_text("%d,%s,%d\n", rows)


def save_reputation(ledger: ReputationLedger, path):
    """Write `reputation_text` of ``ledger`` to ``path``."""
    _write_text(path, reputation_text(ledger))


def load_reputation(path) -> ReputationLedger:
    """Read a reputation file into ledger columns.

    After the header line, one `_rows` pass reads the CSV records, the
    topic as bytes as wide as the longest record, so none is cut short;
    only the distinct topic names are decoded.  Rows must come in
    ascending (user, topic) order, each pair once, as ingest writes them;
    a record that breaks this, or that the pass rejects, is a DataError
    naming the line it ends on.
    """
    data = _read(path)
    head = data.partition(b"\n")[0]
    if head.removesuffix(b"\r") != _REPUTATION_HEADER.strip().encode():
        raise DataError(f"{path}:1: expected the header {_REPUTATION_HEADER.strip()!r}, "
                        f"got {head.decode('utf-8', 'replace')!r}")
    bounds = _line_bounds(data, csv=True)
    table = _read_rows(path, data, [("user", np.int64), ("topic", f"S{np.diff(bounds).max()}"),
                                    ("score", np.int64)],
                       "'user_id,topic,score' with int64 user and score", skip=1, source=path,
                       csv=True)
    topics = table["topic"].tolist()
    names = sorted(set(topics))
    code = dict(zip(names, range(len(names))))
    topic = np.fromiter(map(code.__getitem__, topics), dtype=np.int64, count=len(topics))
    user, score = np.ascontiguousarray(table["user"]), np.ascontiguousarray(table["score"])
    bad = ~row_increases((user, topic))
    if bad.any():
        line = data.count(b"\n", 0, bounds[np.argmax(bad) + 3] - 1) + 1
        raise DataError(f"{path}:{line}: rows must be in ascending (user, topic) order, "
                        "each pair once")
    return ReputationLedger(tuple(name.decode() for name in names), user, topic, score)


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


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_manifest(path, tables, config, files):
    """Write the snapshot manifest: index tables, config echo, file digests."""
    payload = {
        "format": 1,
        "subsites": list(tables.subsites),
        "questions": [f"{s}:{pid}" for s, pid in tables.questions],
        "topics": list(tables.topics),
        "users": [int(u) for u in tables.users],
        "bucket_edges": [int(e) for e in tables.bucket_edges],
        "tree_s": tables.tree_s,
        "tree_g": tables.tree_g,
        "config": config,
        "files": {os.path.basename(p): file_digest(p) for p in files},
    }
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_manifest(path) -> dict:
    """A snapshot manifest: a format-1 JSON object with topics and users lists."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict) and manifest.get("format") == 1
            and all(isinstance(manifest.get(k), list) for k in ("topics", "users"))):
        raise DataError(f"{path}: not a format-1 manifest with topics and users lists")
    return manifest
