"""Output checks computed apart from the program.

Nothing here imports qaexpert.  The generated XML is read with ElementTree
(the program uses SAX), the snapshot is re-derived from it with the
documented rules, and rankings and the evaluation report are recomputed
from ``model.txt`` and ``reputation.csv`` with plain NumPy.  Each
``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
import re
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict

import numpy as np

BUCKET_EDGES = (0, 1, 3, 10)
K_LIST = (1, 3, 5, 10)
RECOMMEND_K = 10
SNAPSHOT_FILES = ("tensor.txt", "site_matrix.txt", "topic_matrix.txt", "tree.txt",
                  "reputation.csv", "manifest.json")


def _rows(path):
    for _, elem in ET.iterparse(path):
        if elem.tag == "row":
            yield elem.attrib
            elem.clear()


def _int(attrs, name):
    raw = attrs.get(name)
    return None if raw is None else int(raw)


def _tags(raw, site):
    if not raw:
        return ()
    parts = re.findall(r"<([^<>]+)>", raw) if raw.startswith("<") else raw.split("|")
    return tuple(f"{site}/{t}" for t in parts if t)


def derive_snapshot(corpus_dir, sites):
    """Index tables, tensor cells, membership pairs and reputation ledger
    implied by the dump files under ``corpus_dir/<site>/``."""
    users = set()
    questions = {}   # (site, id) -> (tags, owner)
    answers = {}     # (site, id) -> (parent id, owner)
    accepted = set()
    votes = []       # ((site, id), VoteTypeId, voter)
    for site in sites:
        base = os.path.join(corpus_dir, site)
        account = {}
        for r in _rows(os.path.join(base, "Users.xml")):
            uid = int(r["Id"])
            account[uid] = _int(r, "AccountId") if "AccountId" in r else uid
        users.update(account.values())
        for r in _rows(os.path.join(base, "Posts.xml")):
            key = (site, int(r["Id"]))
            owner = account.get(_int(r, "OwnerUserId"))
            if r.get("PostTypeId") == "1":
                questions[key] = (_tags(r.get("Tags"), site), owner)
                if "AcceptedAnswerId" in r:
                    accepted.add((site, int(r["AcceptedAnswerId"])))
            elif r.get("PostTypeId") == "2":
                answers[key] = (int(r["ParentId"]), owner)
        for r in _rows(os.path.join(base, "Votes.xml")):
            key = (site, int(r["PostId"]))
            if r.get("VoteTypeId") in ("1", "2", "3") and (key in questions or key in answers):
                votes.append((key, r["VoteTypeId"], account.get(_int(r, "UserId"))))

    q_keys = sorted(k for k, (tags, _) in questions.items() if tags)
    q_index = {k: i for i, k in enumerate(q_keys)}
    topics = sorted({t for k in q_keys for t in questions[k][0]})
    t_index = {t: j for j, t in enumerate(topics)}
    user_list = sorted(users)
    u_index = {u: l for l, u in enumerate(user_list)}
    subsites = sorted({s for s, _ in q_keys})

    net = Counter()
    for key, kind, _ in votes:
        if key in questions and kind in ("2", "3"):
            net[key] += 1 if kind == "2" else -1

    cells, site_pairs, topic_pairs = Counter(), set(), set()
    for (site, _), (parent, owner) in answers.items():
        qkey = (site, parent)
        if owner not in u_index or qkey not in q_index:
            continue
        i, l = q_index[qkey], u_index[owner]
        k = bisect.bisect_right(BUCKET_EDGES, net[qkey])
        site_pairs.add((subsites.index(site), l))
        for tag in questions[qkey][0]:
            cells[(i, t_index[tag], k, l)] += 1
            topic_pairs.add((t_index[tag], l))

    ledger = {}

    def credit(user, key, delta):
        tags = questions[key][0] if key in questions else questions[(key[0], answers[key][0])][0]
        if user is None or user not in users:
            return
        for tag in tags:
            ledger[(user, tag)] = ledger.get((user, tag), 0) + delta

    def owner_of(key):
        return questions[key][1] if key in questions else answers[key][1]

    for key, kind, voter in votes:
        if kind == "2":
            credit(owner_of(key), key, 10 if key in answers else 5)
        elif kind == "3":
            credit(owner_of(key), key, -2)
            if key in answers:
                credit(voter, key, -1)
        elif key in answers:
            accepted.add(key)
    for key in sorted(accepted):
        credit(answers[key][1], key, 15)

    return {
        "dims": (len(q_keys), len(topics), len(BUCKET_EDGES) + 1, len(user_list)),
        "questions": [f"{s}:{p}" for s, p in q_keys],
        "topics": topics,
        "users": user_list,
        "cells": dict(cells),
        "site_pairs": site_pairs,
        "topic_pairs": topic_pairs,
        "n_subsites": len(subsites),
        "ledger": ledger,
    }


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def read_ledger(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["user_id", "topic", "score"]]:
        raise ValueError(f"{path}: unexpected header")
    return {(int(u), t): int(s) for u, t, s in rows[1:]}


def _read_pairs(path):
    lines = _lines(path)
    return tuple(int(t) for t in lines[0].split()), {tuple(int(t) for t in x.split()) for x in lines[1:]}


def ledger_order(ledger):
    """Topic -> users with reputation on it, by score descending then id."""
    by_topic = defaultdict(list)
    for (user, topic), score in ledger.items():
        by_topic[topic].append((-score, user))
    return {t: [u for _, u in sorted(v)] for t, v in by_topic.items()}


def check_snapshot(snap_dir, expected, truth):
    """Compare ingest's files with the re-derived snapshot, and check that
    every topic's ledger leader is its planted expert."""
    problems = []
    lines = _lines(os.path.join(snap_dir, "tensor.txt"))
    dims = tuple(int(t) for t in lines[0].split()[1:])
    cells = {}
    for line in lines[1:]:
        i, j, k, l, v = line.split()
        cells[(int(i), int(j), int(k), int(l))] = float(v)
    if dims != expected["dims"]:
        problems.append(f"tensor dims {dims}, expected {expected['dims']}")
    if cells != {c: float(v) for c, v in expected["cells"].items()}:
        problems.append(f"tensor has {len(cells)} cells, expected {len(expected['cells'])}"
                        " with equal counts")
    n_q, n_t, _, n_u = expected["dims"]
    for name, rows, pairs in (("site_matrix.txt", expected["n_subsites"], expected["site_pairs"]),
                              ("topic_matrix.txt", n_t, expected["topic_pairs"])):
        shape, got = _read_pairs(os.path.join(snap_dir, name))
        if shape != (rows, n_u) or got != pairs:
            problems.append(f"{name}: {shape} with {len(got)} pairs, "
                            f"expected {(rows, n_u)} with {len(pairs)}")
    ledger = read_ledger(os.path.join(snap_dir, "reputation.csv"))
    if ledger != expected["ledger"]:
        problems.append(f"reputation.csv has {len(ledger)} totals that differ from the "
                        f"{len(expected['ledger'])} re-derived ones")
    with open(os.path.join(snap_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for key in ("questions", "topics", "users"):
        if manifest.get(key) != expected[key]:
            problems.append(f"manifest {key} differ from the re-derived index table")
    order = ledger_order(ledger)
    wrong = [t for t, expert in truth.items() if order.get(t, [None])[0] != expert]
    if wrong:
        problems.append(f"{len(wrong)} topics' ledger leader is not the planted expert, "
                        f"e.g. {wrong[0]}")
    return problems


def check_history(path, sweeps):
    lines = _lines(path)
    values = [float(line.split(",")[1]) for line in lines[1:]]
    problems = []
    if lines[:1] != ["sweep,objective"] or len(values) != sweeps:
        problems.append(f"objective history has {len(values)} sweeps, expected {sweeps}")
    if not all(math.isfinite(v) for v in values):
        problems.append("objective history has a non-finite value")
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append("objective history increases")
    return problems


class Model:
    """Topic and expert factors and component scales read from model.txt."""

    def __init__(self, path):
        lines = _lines(path)
        head = lines[0].split()
        rank = int(head[2])
        self.dims = tuple(int(t) for t in head[4:8])
        factors, pos = [], 1
        for mode in range(4):
            rows = int(lines[pos].split()[3])
            block = lines[pos + 1:pos + 1 + rows]
            factors.append(np.array([[float(t) for t in x.split()] for x in block]).reshape(rows, rank))
            pos += 1 + rows
        self.topic, self.expert = factors[1], factors[3]
        self.norms = np.array([float(t) for t in lines[pos].split()[1:]])

    @property
    def live(self):
        return int(np.count_nonzero(self.norms > 0))

    def ranking(self, j, users):
        """(user id, score) for every user, score descending then id; None
        when the topic's factor row is all zero."""
        row = self.topic[j]
        if not row.any():
            return None
        scores = self.expert @ (self.norms * row)
        order = np.lexsort((np.asarray(users), -scores))
        return [(users[l], float(scores[l])) for l in order]


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)


def check_recommend(output, model, topics, users, topic):
    """Problems with one recommend output, and whether it said no-signal."""
    lines = output.splitlines()
    ranked = model.ranking(topics.index(topic), users)
    if not lines or not lines[0].startswith("# config "):
        return [f"{topic}: missing config line"], False
    if json.loads(lines[0][len("# config "):]).get("topic") != topic:
        return [f"{topic}: config names another topic"], False
    if ranked is None:
        ok = lines[1:] == ["# status no-signal"]
        return ([] if ok else [f"{topic}: expected '# status no-signal'"]), True
    want = ranked[:RECOMMEND_K]
    got = [line.split(",") for line in lines[1:]]
    if len(got) != len(want) or any(
        len(g) != 3 or int(g[0]) != pos or int(g[1]) != u or not _close(float(g[2]), s)
        for pos, (g, (u, s)) in enumerate(zip(got, want), start=1)
    ):
        return [f"{topic}: ranking differs from the one recomputed from model.txt"], False
    return [], False


def check_report(path, model, topics, users, ledger):
    """Recompute precision@k and reciprocal rank per topic from the model
    and the ledger, and compare every row of report.csv."""
    order = ledger_order(ledger)
    rows, per_k, reciprocals = [], defaultdict(list), []
    for j, tag in enumerate(topics):
        if tag not in order:
            continue
        leaders = order[tag]
        ranked = [u for u, _ in model.ranking(j, users) or []]
        position = {u: p for p, u in enumerate(ranked, start=1)}
        rr = 1.0 / position[leaders[0]] if leaders[0] in position else 0.0
        reciprocals.append(rr)
        for k in K_LIST:
            prec = len(set(ranked[:k]) & set(leaders[:k])) / min(k, len(ranked)) if ranked else 0.0
            per_k[k].append(prec)
            rows.append((tag, k, prec, rr, len(ranked)))
    for k in K_LIST:
        rows.append(("ALL", k, sum(per_k[k]) / len(per_k[k]),
                     sum(reciprocals) / len(reciprocals), len(reciprocals)))

    lines = _lines(path)
    if not lines or not lines[0].startswith("# config ") or lines[1:2] != [
            "topic,k,precision,mrr,n_candidates"]:
        return ["report.csv: unexpected header"]
    got = list(csv.reader(lines[2:]))
    if len(got) != len(rows):
        return [f"report.csv has {len(got)} rows, expected {len(rows)}"]
    for g, (tag, k, prec, rr, n) in zip(got, rows):
        if (len(g) != 5 or g[0] != tag or int(g[1]) != k or not _close(float(g[2]), prec)
                or not _close(float(g[3]), rr) or int(g[4]) != n):
            return [f"report.csv row {g} differs from the recomputed ({tag}, {k}, {prec}, {rr}, {n})"]
    return []
