"""Line-oriented text formats for tensors, matrices, trees, and models.

Every format is UTF-8 with LF endings and writes floats as ``%.17g``, so
a save/load round trip reproduces float64 values bit for bit and repeated
runs with equal inputs produce byte-identical files.

``model.txt`` ends with a ``digest <sha256>`` line over every byte before
it, so `load_model` can check the whole file yet parse only the blocks
its caller reads: ranking reads the topic and expert factors and the
norms.  A model without the digest line is rejected and must be refit.
Numeric rows are parsed by ``np.loadtxt``, which reads a snapshot's
tensor, membership and tree files itself in one pass; anything it
rejects goes to the per-line parser, which either accepts it or names
the bad line.  ``tree.txt`` mixes numbers and ``leaf`` in its last two
fields, so they are read as bytes as wide as the file's longest line and
converted by ``astype``.  A line number counts LF-terminated lines, a
CRLF counting as one LF.

``reputation.csv`` is the exception to the whitespace-separated layout:
CSV rows ``user_id,topic,score`` in (user, topic) order under that
header, with a topic quoted as ``csv.writer`` quotes it when it holds a
comma, a quote or a line break.  One ``np.loadtxt`` pass reads a file of
ASCII rows with exactly two commas each, its topics as bytes as wide as
the widest topic field; a file holding a quote, a CR, a NUL or 0x1c-0x1f,
or one that pass rejects, goes to ``csv.reader``, which accepts it or
names the bad line.  Only the distinct topic names become ``str``.
``report.csv`` quotes its topics the same way and is written in one
format pass.
"""

from __future__ import annotations

import csv
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
    "save_reputation", "load_reputation",
    "save_report", "save_history",
    "write_manifest", "load_manifest", "file_digest",
]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _lines(text: str) -> list[str]:
    """``text`` split at LF only, a CRLF counting as one LF, so that line n
    is the one ``<path>:<n>`` names.  ``str.splitlines`` also breaks at a
    lone CR, a vertical tab, a form feed, the separators 0x1c-0x1e, NEL,
    U+2028 and U+2029."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


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


def _table(source, dtype, rows, skiprows=0, delimiter=None):
    """Rows of ``source``, a file or a list of lines, after its first
    ``skiprows`` lines, split at ``delimiter`` (at whitespace by default),
    as a structured array; None when ``np.loadtxt`` rejects them, warns (on
    empty input, or where a NumPy would cast an integer through a float) or
    reads other than ``rows`` rows (it drops blank lines).  The caller's
    per-line parser then accepts the rows or names the bad one.  An integer
    field must be ASCII: ``np.loadtxt`` reads some other characters as
    digits, ``1\u01fe`` as 472."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(source, dtype=dtype, comments=None, ndmin=1, skiprows=skiprows,
                               delimiter=delimiter, quotechar=None, encoding="utf-8")
    except (ValueError, Warning):
        return None
    return table if len(table) == rows else None


def _file_table(path, text, dtype, skiprows=0):
    """`_table` over the file at ``path`` itself, whose text is ``text``;
    None also for non-ASCII text, and where a CR stands outside a CRLF,
    since ``np.loadtxt`` reads the file with universal newlines and would
    end a line there."""
    if not text.isascii() or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    ends = np.count_nonzero(np.frombuffer(text.encode(), dtype=np.uint8) == ord("\n"))
    lines = ends + (text[-1:] not in ("", "\n"))  # the last line may lack its LF
    return _table(path, dtype, lines - skiprows, skiprows)


def _numbers(fields, kind, path, line):
    """``fields`` parsed by ``kind``, int or float; one that does not parse,
    or an int past int64, is a DataError naming ``line``."""
    try:
        values = [kind(t) for t in fields]
        if kind is int:
            np.array(values, dtype=np.int64)  # OverflowError past int64
        return values
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}:{line}: {exc}") from None


def _column(fields, kind, path, lines):
    """``fields`` as an int64 or float64 array by ``kind``; the first that
    `_numbers` rejects is a DataError naming its line, ``lines[i]``."""
    try:
        return np.array(fields, dtype=np.int64 if kind is int else np.float64)
    except (ValueError, OverflowError):
        for field, n in zip(fields, lines):
            _numbers([field], kind, path, n)
        raise


def _build(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ContractViolation it raises is a
    DataError naming ``path``."""
    try:
        return make(*args, **kwargs)
    except ContractViolation as exc:
        raise DataError(f"{path}: {exc}") from None


def load_tensor(path) -> SparseTensor4:
    text = _read_text(path)
    head = text.partition("\n")[0].split()
    if len(head) != 5 or head[0] != "dims":
        raise DataError(f"{path}:1: expected a 'dims I J K L' header")
    dims = tuple(_numbers(head[1:], int, path, 1))
    table = _file_table(path, text, [("index", np.int64, (4,)), ("value", np.float64)], skiprows=1)
    if table is not None:
        return _build(path, SparseTensor4, dims, indices=table["index"], values=table["value"])
    indices, values = [], []
    for n, line in enumerate(_lines(text)[1:], start=2):
        parts = line.split()
        if len(parts) != 5:
            raise DataError(f"{path}:{n}: expected 'i j k l value'")
        indices.append(_numbers(parts[:4], int, path, n))
        values.extend(_numbers(parts[4:], float, path, n))
    return _build(path, SparseTensor4, dims,
                  indices=np.array(indices).reshape(-1, 4), values=values)


def save_membership(M: MembershipMatrix, path):
    _write_text(path, f"{M.rows} {M.cols}\n" + _rows_text("%d %d\n", M.indices.T.tolist()))


def load_membership(path) -> MembershipMatrix:
    text = _read_text(path)
    head = text.partition("\n")[0].split()
    if len(head) != 2:
        raise DataError(f"{path}:1: expected a 'rows cols' header")
    rows, cols = _numbers(head, int, path, 1)
    table = _file_table(path, text, [("pair", np.int64, (2,))], skiprows=1)
    if table is not None:
        return _build(path, MembershipMatrix, rows, cols, table["pair"])
    pairs = []
    for n, line in enumerate(_lines(text)[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{n}: expected 'row col'")
        pairs.append(_numbers(parts, int, path, n))
    return _build(path, MembershipMatrix, rows, cols, pairs)


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
    """(bad lines, message) of each line-order check on the tree columns,
    in the order they are reported; each needs the ones before it to pass."""
    ids = np.arange(len(nid))
    yield nid != ids, "ids must run 0, 1, ... in line order"
    yield (np.where(ids == 0, parent != -1, (parent < 0) | (parent >= ids)),
           "the parent must be -1 on the first line and an earlier id on every other")
    yield level != np.where(ids == 0, 0, level[parent] + 1), "level must be the parent's plus one"
    yield level > TREE_LEAF_LEVEL, f"level must be at most {TREE_LEAF_LEVEL}, the question leaves"


def _tree_table(path, text: str):
    """The tree file's parent, s, g and leaf_row columns read by one
    ``np.loadtxt`` pass, or None for the per-line parser: where `_file_table`
    gives None, a line-order check fails, or a tail field does not convert.
    The tail fields are read as bytes as wide as the longest line, so none
    is cut short; a file holding a NUL is not read so, as a bytes field
    drops its trailing NULs."""
    if "\0" in text:
        return None
    data = text.encode()
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    field = f"S{np.diff(ends, prepend=-1, append=len(data)).max()}"
    table = _file_table(path, text, [("level", np.int64), ("id", np.int64), ("parent", np.int64),
                                     ("s", field), ("g", field)])
    if table is None:
        return None
    parent = table["parent"]
    if any(bad.any() for bad, _ in _tree_faults(table["level"], table["id"], parent)):
        return None
    leaf, n = table["s"] == b"leaf", len(table)
    s, g, leaf_row = np.full(n, np.nan), np.full(n, np.nan), np.full(n, -1)
    try:
        s[~leaf] = table["s"][~leaf].astype(np.float64)
        g[~leaf] = table["g"][~leaf].astype(np.float64)
        leaf_row[leaf] = table["g"][leaf].astype(np.int64)
    except (ValueError, OverflowError):
        return None
    return parent, s, g, leaf_row


def _parse_tree(path, text: str):
    """The tree file's columns by the per-line parser, which names the first
    bad line."""
    split = [line.split() for line in _lines(text)]
    at = [n for n, parts in enumerate(split, start=1) if parts]
    wrong = [n for n in at if len(split[n - 1]) != 5]
    if wrong:
        raise DataError(f"{path}:{wrong[0]}: expected 'level id parent s g' or '... leaf row'")
    if not at:
        raise DataError(f"{path}: empty tree file")
    table = np.array([split[n - 1] for n in at], dtype=object)
    at = np.array(at)
    level, nid, parent = (_column(table[:, k], int, path, at) for k in range(3))
    for bad, what in _tree_faults(level, nid, parent):
        if bad.any():
            raise DataError(f"{path}:{at[bad][0]}: {what}")
    s_field, g_field = table[:, 3], table[:, 4]
    leaf = s_field == "leaf"
    s, g, leaf_row = np.full(len(at), np.nan), np.full(len(at), np.nan), np.full(len(at), -1)
    s[~leaf] = _column(s_field[~leaf], float, path, at[~leaf])
    g[~leaf] = _column(g_field[~leaf], float, path, at[~leaf])
    leaf_row[leaf] = _column(g_field[leaf], int, path, at[leaf])
    return parent, s, g, leaf_row


def load_tree(path) -> HierarchyTree:
    """Read a tree file into its preorder arrays, column by column.

    The lines (blank ones aside) must hold ids 0, 1, ... in order, each
    parent before its children, each level its parent's plus one and none
    below the question leaves that ingest writes; a line that breaks this
    is a DataError naming it.  One ``np.loadtxt`` pass reads a well-formed
    file; anything it does not take goes to the per-line parser.
    """
    text = _read_text(path)
    columns = _tree_table(path, text) or _parse_tree(path, text)
    return _build(path, HierarchyTree, *columns)


def _matrix_text(U) -> str:
    """Rows of ``U`` as lines of ``%.17g`` values, formatted in one pass."""
    U = np.atleast_2d(U)
    line = " ".join(["%.17g"] * U.shape[1]) + "\n"
    return (line * U.shape[0]) % tuple(U.ravel().tolist())


def _header(lines, pos, path, expected):
    """Fields of model line ``pos``; a file that ends first is a DataError."""
    if pos >= len(lines):
        raise DataError(f"{path}:{len(lines)}: file ends before {expected}")
    return lines[pos].split()


def _block(lines, start, rows, path):
    """(start, rows) of a matrix block, and the line after it."""
    if rows < 0:
        raise DataError(f"{path}:{start}: negative row count")
    if start + rows > len(lines):
        raise DataError(f"{path}:{len(lines)}: file ends inside a {rows}-row block")
    return (start, rows), start + rows


def _parse_matrix_block(lines, block, rank, path):
    start, rows = block
    table = _table(lines[start:start + rows], [("row", np.float64, (rank,))], rows)
    if table is not None:
        return table["row"]
    data = np.empty((rows, rank))
    for r in range(rows):
        parts = lines[start + r].split()
        if len(parts) != rank:
            raise DataError(f"{path}:{start + r + 1}: expected {rank} values")
        data[r] = _numbers(parts, float, path, start + r + 1)
    return data


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
    with open(path, "rb") as fh:
        data = fh.read()
    lines = _lines(data.decode("utf-8"))
    if not lines:
        raise DataError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 8 or head[0] not in ("cp-model", "joint-model") or head[1] != "rank":
        raise DataError(f"{path}: unrecognized model header")
    rank, *dims = _numbers(head[2:3] + head[4:8], int, path, 1)
    blocks = {}
    pos = 1
    for mode in range(4):
        parts = _header(lines, pos, path, f"'mode {mode} rows N'")
        if len(parts) != 4 or parts[:2] != ["mode", str(mode)]:
            raise DataError(f"{path}:{pos + 1}: expected 'mode {mode} rows N'")
        if _numbers(parts[3:], int, path, pos + 1)[0] != dims[mode]:
            raise DataError(f"{path}:{pos + 1}: mode {mode} rows disagree with header")
        blocks[mode], pos = _block(lines, pos + 1, dims[mode], path)
    parts = _header(lines, pos, path, "the norms line")
    if parts[:1] != ["norms"] or len(parts) != rank + 1:
        raise DataError(f"{path}:{pos + 1}: expected a norms line with {rank} values")
    norms_at, pos = pos, pos + 1
    joint = head[0] == "joint-model"
    if joint:
        for name in ("S", "A", "T"):
            parts = _header(lines, pos, path, f"the {name} block")
            if len(parts) != 3 or parts[0] != name:
                raise DataError(f"{path}:{pos + 1}: expected the {name} block")
            rows = _numbers(parts[2:], int, path, pos + 1)[0]
            blocks[name], pos = _block(lines, pos + 1, rows, path)
        parts = _header(lines, pos, path, "the lambdas line")
        if parts[:1] != ["lambdas"] or len(parts) % 2 == 0:
            raise DataError(f"{path}:{pos + 1}: expected the lambdas line")
        lambdas_at, pos = pos, pos + 1

    trailing = {}
    for n in range(pos, len(lines)):
        key = lines[n].split(None, 1)[:1]
        if not key:
            continue
        if key[0] not in ("manifest", "config", "digest"):
            raise DataError(f"{path}: unexpected trailing line {lines[n]!r}")
        trailing[key[0]] = n
    if trailing.get("digest") != len(lines) - 1:
        raise DataError(f"{path}:{len(lines)}: expected a final 'digest <sha256>' line; "
                        "a model written without one must be refit")
    body = data[:data.rfind(b"\n", 0, len(data) - 1) + 1]  # every byte before the last line
    if lines[-1].split() != ["digest", hashlib.sha256(body).hexdigest()]:
        raise DataError(f"{path}:{len(lines)}: digest does not match the file's contents")
    meta = {}
    if "manifest" in trailing:
        meta["manifest"] = lines[trailing["manifest"]].split(None, 1)[1].strip()
    if "config" in trailing:
        meta["config"] = json.loads(lines[trailing["config"]].split(None, 1)[1])

    norms = np.array(_numbers(lines[norms_at].split()[1:], float, path, norms_at + 1))
    if ranking_only:
        topic, expert = (_parse_matrix_block(lines, blocks[m], rank, path) for m in (1, 3))
        return RankingFactors(topic, expert, norms), meta
    cp = CpModel([_parse_matrix_block(lines, blocks[m], rank, path) for m in range(4)], norms)
    if not joint:
        return cp, meta
    parts = lines[lambdas_at].split()
    lambdas = dict(zip(parts[1::2], _numbers(parts[2::2], float, path, lambdas_at + 1)))
    S, A, T = (_parse_matrix_block(lines, blocks[name], rank, path) for name in "SAT")
    return JointModel(cp, S, A, T, lambdas), meta


_REPUTATION_HEADER = "user_id,topic,score\n"
_INT64 = np.iinfo(np.int64)


def _csv_field(text: str) -> str:
    """``text`` as csv.writer's QUOTE_MINIMAL writes a field: in double
    quotes, each quote doubled, when it holds a comma, a quote or a line
    break, and as it is otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def save_reputation(ledger: ReputationLedger, path):
    """One ``user_id,topic,score`` row per ledger row, in the ledger's order."""
    names = [_csv_field(t) for t in ledger.topic_names]
    rows = ledger.user.tolist(), [names[c] for c in ledger.topic.tolist()], ledger.score.tolist()
    _write_text(path, _REPUTATION_HEADER + _rows_text("%d,%s,%d\n", rows))


# Bytes with which the np.loadtxt pass could read a reputation file other than
# csv.reader and int() do: a quote or CR (CSV syntax), a NUL (a bytes field drops
# its trailing NULs), and 0x1c-0x1f, which np.loadtxt skips around an integer.
_NOT_SPLIT = (b'"', b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _topic_codes(topics):
    """The sorted distinct names in ``topics``, and each one's index among
    them as an int64 array."""
    names = sorted(set(topics))
    code = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(code.__getitem__, topics), dtype=np.int64, count=len(topics))


def _split_reputation(path, data: bytes):
    """The user column, topic names, topic codes and score column of the
    reputation file at ``path``, whose bytes are ``data``, read by one
    ``np.loadtxt`` pass; None unless the file is the header line and ASCII
    rows of exactly two commas each, holding none of `_NOT_SPLIT`, that the
    pass reads as int64 users and scores.  The topic is read as bytes as
    wide as the widest topic field, so none is cut short."""
    head = _REPUTATION_HEADER.encode()
    if not data.startswith(head) or not data.isascii() or any(c in data for c in _NOT_SPLIT):
        return None
    body = data[len(head):]
    if body and not body.endswith(b"\n"):
        body += b"\n"
    chars = np.frombuffer(body, dtype=np.uint8)
    at = np.flatnonzero((chars == ord(",")) | (chars == ord("\n")))
    if len(at) % 3 or (chars[at].reshape(-1, 3) != tuple(b",,\n")).any():
        return None
    at = at.reshape(-1, 3)
    width = int(np.max(at[:, 1] - at[:, 0], initial=2)) - 1  # at least 1 byte
    table = _table(path, [("user", np.int64), ("topic", f"S{width}"), ("score", np.int64)],
                   len(at), skiprows=1, delimiter=",")
    if table is None:
        return None
    names, topic = _topic_codes(table["topic"].tolist())
    return (np.ascontiguousarray(table["user"]), [name.decode() for name in names], topic,
            np.ascontiguousarray(table["score"]), None)


def _read_reputation_rows(path):
    """The user column, topic names, topic codes and score column of a
    reputation file, and each row's last line, read by ``csv.reader``; a
    bad header, or a row that is not an int64 user, a topic and an int64
    score, is a DataError naming it."""
    users, topics, scores, lines = [], [], [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _REPUTATION_HEADER.strip().split(","):
            raise DataError(f"{path}: unexpected reputation header {header}")
        for row in reader:
            try:
                user, topic, score = row
                user, score = int(user), int(score)
                if not (_INT64.min <= user <= _INT64.max and _INT64.min <= score <= _INT64.max):
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}:{reader.line_num}: expected 'user_id,topic,score' "
                                f"with int64 user and score, got {','.join(row)!r}") from None
            users.append(user)
            topics.append(topic)
            scores.append(score)
            lines.append(reader.line_num)
    names, topic = _topic_codes(topics)
    return (np.array(users, dtype=np.int64), names, topic, np.array(scores, dtype=np.int64),
            lines)


def load_reputation(path) -> ReputationLedger:
    """Read a reputation file into ledger columns.

    One ``np.loadtxt`` pass reads plain rows; a file that pass does not
    take (a quoted topic, CRLF endings, a blank line, non-ASCII text, a
    bad field) goes through ``csv.reader``, which accepts it or names the
    bad line.  Rows must come in ascending (user, topic) order, each pair
    once, as ingest writes them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    user, names, topic, score, lines = (_split_reputation(path, data)
                                        or _read_reputation_rows(path))
    bad = ~row_increases((user, topic))
    if bad.any():
        r = int(np.argmax(bad)) + 1
        raise DataError(f"{path}:{r + 2 if lines is None else lines[r]}: rows must be in "
                        "ascending (user, topic) order, each pair once")
    return ReputationLedger(tuple(names), user, topic, score)


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
