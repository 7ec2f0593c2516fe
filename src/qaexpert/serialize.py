"""Line-oriented text formats for tensors, matrices, trees, and models.

Every format is UTF-8 with LF endings and writes floats as ``%.17g``, so
a save/load round trip reproduces float64 values bit for bit and repeated
runs with equal inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

import numpy as np

from .coupled import CpModel, JointModel, MembershipMatrix
from .errors import DataError
from .hierarchy import HierarchyTree, TreeNode
from .ingest import ReputationLedger
from .sparse_tensor import SparseTensor4

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


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def save_tensor(X: SparseTensor4, path):
    values = X.values.tolist()
    text = {v: _fmt(v) for v in set(values)}
    lines = [f"{i} {j} {k} {l} {text[v]}\n" for (i, j, k, l), v in zip(X.indices.tolist(), values)]
    _write_text(path, "dims " + " ".join(str(d) for d in X.dims) + "\n" + "".join(lines))


def load_tensor(path) -> SparseTensor4:
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("dims "):
        raise DataError(f"{path}: expected a 'dims I J K L' header")
    dims = tuple(int(t) for t in lines[0].split()[1:])
    indices, values = [], []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 5:
            raise DataError(f"{path}:{n}: expected 'i j k l value'")
        indices.append([int(t) for t in parts[:4]])
        values.append(float(parts[4]))
    return SparseTensor4(dims, indices=np.array(indices).reshape(-1, 4), values=values)


def save_membership(M: MembershipMatrix, path):
    lines = [f"{r} {c}\n" for r, c in M.indices.tolist()]
    _write_text(path, f"{M.rows} {M.cols}\n" + "".join(lines))


def load_membership(path) -> MembershipMatrix:
    lines = _read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty membership file")
    rows, cols = (int(t) for t in lines[0].split())
    pairs = []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{n}: expected 'row col'")
        pairs.append((int(parts[0]), int(parts[1])))
    return MembershipMatrix(rows, cols, pairs)


def save_tree(tree: HierarchyTree, path):
    out = io.StringIO()

    def visit(nid):
        node = tree.nodes[nid]
        indent = "  " * node.level
        parent = -1 if node.parent is None else node.parent
        if node.is_leaf:
            out.write(f"{indent}{node.level} {node.node_id} {parent} leaf {node.leaf_row}\n")
        else:
            out.write(
                f"{indent}{node.level} {node.node_id} {parent} {_fmt(node.s)} {_fmt(node.g)}\n"
            )
            for cid in node.children:
                visit(cid)

    visit(tree.root_id)
    _write_text(path, out.getvalue())


def load_tree(path) -> HierarchyTree:
    nodes: dict[int, TreeNode] = {}
    for n, raw in enumerate(_read_lines(path), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise DataError(f"{path}:{n}: expected 'level id parent s g' or '... leaf row'")
        level, nid, parent = int(parts[0]), int(parts[1]), int(parts[2])
        parent = None if parent == -1 else parent
        if parts[3] == "leaf":
            nodes[nid] = TreeNode(nid, level, parent, leaf_row=int(parts[4]))
        else:
            nodes[nid] = TreeNode(nid, level, parent, s=float(parts[3]), g=float(parts[4]))
        if parent is not None:
            nodes[parent].children.append(nid)
    if not nodes:
        raise DataError(f"{path}: empty tree file")
    return HierarchyTree(nodes)


def _write_matrix_block(out, U):
    for row in np.atleast_2d(U):
        out.write(" ".join(_fmt(v) for v in row) + "\n")


def _header(lines, pos, path, expected):
    """Fields of model line ``pos``; a file that ends first is a DataError."""
    if pos >= len(lines):
        raise DataError(f"{path}:{len(lines)}: file ends before {expected}")
    return lines[pos].split()


def _parse_matrix_block(lines, start, rows, rank, path):
    if start + rows > len(lines):
        raise DataError(f"{path}:{len(lines)}: file ends inside a {rows}-row block")
    data = np.empty((rows, rank))
    for r in range(rows):
        parts = lines[start + r].split()
        if len(parts) != rank:
            raise DataError(f"{path}:{start + r + 1}: expected {rank} values")
        data[r] = [float(t) for t in parts]
    return data, start + rows


def save_model(model, path, manifest_hash=None, config=None):
    """Write a fitted model; joint models extend the tensor-model format.

    ``manifest_hash`` and ``config`` are optional provenance lines tying
    the model to the snapshot it was fit on.
    """
    joint = isinstance(model, JointModel)
    cp = model.cp if joint else model
    out = io.StringIO()
    kind = "joint-model" if joint else "cp-model"
    dims = " ".join(str(d) for d in cp.dims)
    out.write(f"{kind} rank {cp.rank} dims {dims}\n")
    for mode, U in enumerate(cp.factors):
        out.write(f"mode {mode} rows {U.shape[0]}\n")
        _write_matrix_block(out, U)
    out.write("norms " + " ".join(_fmt(v) for v in cp.norms) + "\n")
    if joint:
        for name, U in (("S", model.S), ("A", model.A), ("T", model.T)):
            out.write(f"{name} rows {U.shape[0]}\n")
            _write_matrix_block(out, U)
        pairs = " ".join(f"{k} {_fmt(v)}" for k, v in sorted(model.lambdas.items()))
        out.write(f"lambdas {pairs}\n")
    if manifest_hash is not None:
        out.write(f"manifest {manifest_hash}\n")
    if config is not None:
        out.write("config " + json.dumps(config, sort_keys=True) + "\n")
    _write_text(path, out.getvalue())


def load_model(path):
    """Read a model file; returns (model, meta) with provenance in meta."""
    lines = _read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 8 or head[0] not in ("cp-model", "joint-model") or head[1] != "rank":
        raise DataError(f"{path}: unrecognized model header")
    rank = int(head[2])
    dims = tuple(int(t) for t in head[4:8])
    pos = 1
    factors = []
    for mode in range(4):
        parts = _header(lines, pos, path, f"'mode {mode} rows N'")
        if len(parts) != 4 or parts[:2] != ["mode", str(mode)]:
            raise DataError(f"{path}:{pos + 1}: expected 'mode {mode} rows N'")
        rows = int(parts[3])
        if rows != dims[mode]:
            raise DataError(f"{path}:{pos + 1}: mode {mode} rows disagree with header")
        U, pos = _parse_matrix_block(lines, pos + 1, rows, rank, path)
        factors.append(U)
    parts = _header(lines, pos, path, "the norms line")
    if parts[:1] != ["norms"] or len(parts) != rank + 1:
        raise DataError(f"{path}:{pos + 1}: expected a norms line with {rank} values")
    norms = np.array([float(t) for t in parts[1:]])
    pos += 1
    cp = CpModel(factors, norms)

    model = cp
    if head[0] == "joint-model":
        blocks = {}
        for name in ("S", "A", "T"):
            parts = _header(lines, pos, path, f"the {name} block")
            if len(parts) != 3 or parts[0] != name:
                raise DataError(f"{path}:{pos + 1}: expected the {name} block")
            blocks[name], pos = _parse_matrix_block(lines, pos + 1, int(parts[2]), rank, path)
        parts = _header(lines, pos, path, "the lambdas line")
        if parts[:1] != ["lambdas"]:
            raise DataError(f"{path}:{pos + 1}: expected the lambdas line")
        lambdas = {parts[i]: float(parts[i + 1]) for i in range(1, len(parts), 2)}
        pos += 1
        model = JointModel(cp, blocks["S"], blocks["A"], blocks["T"], lambdas)

    meta = {}
    for line in lines[pos:]:
        parts = line.split(None, 1)
        if not parts:
            continue
        if parts[0] == "manifest":
            meta["manifest"] = parts[1].strip()
        elif parts[0] == "config":
            meta["config"] = json.loads(parts[1])
        else:
            raise DataError(f"{path}: unexpected trailing line {line!r}")
    return model, meta


def save_reputation(ledger: ReputationLedger, path):
    scores = ledger.scores
    lines = [f"{user},{topic},{scores[user, topic]}\n" for user, topic in sorted(scores)]
    _write_text(path, "user_id,topic,score\n" + "".join(lines))


def load_reputation(path) -> ReputationLedger:
    scores = {}
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user_id", "topic", "score"]:
            raise DataError(f"{path}: unexpected reputation header {header}")
        for row in reader:
            scores[(int(row[0]), row[1])] = int(row[2])
    return ReputationLedger(scores)


def save_report(report, path, config=None):
    """Write the evaluation report CSV, per-topic rows then ALL rows."""
    out = io.StringIO()
    if config is not None:
        out.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    out.write("topic,k,precision,mrr,n_candidates\n")
    writer = csv.writer(out, lineterminator="\n")
    for topic, k, prec, mrr, n in list(report.rows) + list(report.summary):
        writer.writerow([topic, k, _fmt(prec), _fmt(mrr), n])
    _write_text(path, out.getvalue())


def save_history(values, path):
    out = io.StringIO()
    out.write("sweep,objective\n")
    for sweep, value in enumerate(values, start=1):
        out.write(f"{sweep},{_fmt(value)}\n")
    _write_text(path, out.getvalue())


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
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != 1:
        raise DataError(f"{path}: unsupported manifest format")
    return manifest
