"""Synthetic dump corpora with planted experts, for end-to-end checks.

The generator writes per-subsite ``Posts.xml`` / ``Votes.xml`` /
``Users.xml`` directories in the public dump layout.  Each topic gets one
planted answerer who answers most of its questions and collects heavy
upvotes and accepts, so both the reputation ledger and the evidence
tensor should surface that user for the topic.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET

import numpy as np

__all__ = ["make_corpus", "write_subsite_dump"]


def _write_rows(path, root_tag, rows):
    root = ET.Element(root_tag)
    for attrs in rows:
        ET.SubElement(root, "row", {k: str(v) for k, v in attrs.items()})
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


def write_subsite_dump(site_dir, posts, votes, users):
    """Write one subsite's three dump files from attribute-dict rows."""
    os.makedirs(site_dir, exist_ok=True)
    _write_rows(os.path.join(site_dir, "Posts.xml"), "posts", posts)
    _write_rows(os.path.join(site_dir, "Votes.xml"), "votes", votes)
    _write_rows(os.path.join(site_dir, "Users.xml"), "users", users)


def make_corpus(
    out_dir,
    seed: int,
    n_subsites: int = 2,
    topics_per_subsite: int = 3,
    questions_per_topic: int = 8,
    n_background: int = 12,
    n_askers: int = 6,
    secondary_tag_prob: float = 0.25,
    max_background_answers: int = 2,
) -> dict:
    """Generate a planted-expert corpus; returns the ground-truth map.

    User ids are network-wide account ids: experts first, then background
    answerers, then askers.  The returned dict maps each namespaced topic
    to its planted expert and is also written to ``corpus_truth.json``.
    """
    rng = np.random.default_rng(seed)
    subsites = [f"site{chr(ord('a') + s)}" for s in range(n_subsites)]
    tags = [f"topic{t}" for t in range(topics_per_subsite)]

    n_experts = n_subsites * topics_per_subsite
    experts = list(range(1, n_experts + 1))
    # Arrays, so that rng.choice does not convert a list on every draw.
    background = np.arange(n_experts + 1, n_experts + n_background + 1)
    askers = np.arange(n_experts + n_background + 1, n_experts + n_background + n_askers + 1)
    all_users = np.arange(1, n_experts + n_background + n_askers + 1)

    truth = {}
    os.makedirs(out_dir, exist_ok=True)
    for s, site in enumerate(subsites):
        posts, votes = [], []
        active = set()
        post_id = 0
        vote_id = 0

        def add_vote(pid, type_id, voter=None):
            nonlocal vote_id
            vote_id += 1
            row = {"Id": vote_id, "PostId": pid, "VoteTypeId": type_id}
            if voter is not None:
                row["UserId"] = voter
                active.add(voter)
            votes.append(row)

        for t, tag in enumerate(tags):
            expert = experts[s * topics_per_subsite + t]
            truth[f"{site}/{tag}"] = expert
            for _ in range(questions_per_topic):
                post_id += 1
                qid = post_id
                asker = int(rng.choice(askers))
                active.add(asker)
                tag_list = [tag]
                if rng.random() < secondary_tag_prob:
                    other = tags[int(rng.integers(len(tags)))]
                    if other != tag:
                        tag_list.append(other)
                question = {
                    "Id": qid,
                    "PostTypeId": 1,
                    "OwnerUserId": asker,
                    "Tags": "".join(f"<{x}>" for x in tag_list),
                }

                band = int(rng.integers(5))
                score = (-int(rng.integers(1, 3)), 0, int(rng.integers(1, 3)),
                         int(rng.integers(3, 10)), int(rng.integers(10, 15)))[band]
                extra = int(rng.integers(0, 2))
                for _ in range(max(score, 0) + extra):
                    add_vote(qid, 2, int(rng.choice(all_users)))
                for _ in range(max(-score, 0) + extra):
                    add_vote(qid, 3, int(rng.choice(all_users)))

                answer_ids = {}
                if rng.random() < 0.9:
                    post_id += 1
                    answer_ids[expert] = post_id
                    active.add(expert)
                    posts_entry = {
                        "Id": post_id, "PostTypeId": 2, "ParentId": qid,
                        "OwnerUserId": expert,
                    }
                    posts.append(posts_entry)
                    for _ in range(int(rng.integers(3, 7))):
                        add_vote(post_id, 2, int(rng.choice(all_users)))
                n_bg = int(rng.integers(1, max_background_answers + 1))
                for u in rng.choice(background, size=n_bg, replace=False):
                    u = int(u)
                    post_id += 1
                    answer_ids[u] = post_id
                    active.add(u)
                    posts.append({
                        "Id": post_id, "PostTypeId": 2, "ParentId": qid,
                        "OwnerUserId": u,
                    })
                    for _ in range(int(rng.integers(0, 3))):
                        add_vote(post_id, 2, int(rng.choice(all_users)))
                    if rng.random() < 0.2:
                        add_vote(post_id, 3, int(rng.choice(all_users)))

                if expert in answer_ids and rng.random() < 0.7:
                    question["AcceptedAnswerId"] = answer_ids[expert]
                    add_vote(answer_ids[expert], 1)
                posts.append(question)

        posts.sort(key=lambda row: row["Id"])
        users = [{"Id": u, "AccountId": u, "DisplayName": f"user{u}"}
                 for u in sorted(active)]
        write_subsite_dump(os.path.join(out_dir, site), posts, votes, users)

    with open(os.path.join(out_dir, "corpus_truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    return truth
