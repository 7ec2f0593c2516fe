"""In-memory spans around the public names each qaexpert module calls.

`install` replaces those names with timing wrappers, from outside the
program: on the module or class whose namespace the caller looks the name
up in (``cli.parse_dump``, ``coupled.mttkrp``, ``ReputationLedger.top_users``
and so on).  Each call records ``[name, start, end, parent, attrs]``;
spans stay in memory until the stage process writes them out once.

`self_times` and `check_nesting` work on the recorded list and are used
by the parent process, which turns spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import time

# Per-layer metric -> span names whose inclusive times it sums.
GROUPS = {
    "ingest.parse_dump_s": ["ingest.parse_dump"],
    "ingest.QaDataset_s": ["ingest.QaDataset"],
    "ingest.merge_datasets_s": ["ingest.merge_datasets"],
    "ingest.build_inputs_s": ["ingest.build_inputs"],
    "ingest.reputation_scores_s": ["ingest.reputation_scores"],
    "ingest.top_users_s": ["ingest.top_users"],
    "serialize.save_snapshot_s": [
        "serialize.save_tensor", "serialize.save_membership", "serialize.save_tree",
        "serialize.save_reputation", "serialize.write_manifest",
    ],
    "serialize.load_snapshot_s": [
        "serialize.load_tensor", "serialize.load_membership", "serialize.load_tree",
    ],
    "serialize.save_model_s": ["serialize.save_model"],
    "serialize.load_reputation_s": ["serialize.load_reputation"],
    "serialize.load_model_s": ["serialize.load_model"],
    "serialize.load_manifest_s": ["serialize.load_manifest"],
    "serialize.file_digest_s": ["serialize.file_digest"],
    "sparse_tensor.mttkrp_s": ["sparse_tensor.mttkrp"],
    "sparse_tensor.gram_hadamard_s": ["sparse_tensor.gram_hadamard"],
    "sparse_tensor.residual_norm_s": ["sparse_tensor.residual_norm"],
    "sparse_tensor.SparseTensor4_s": ["sparse_tensor.SparseTensor4"],
    "hierarchy.weight_penalty_s": ["hierarchy.weight_penalty"],
    "hierarchy.TreePenalty_s": ["hierarchy.TreePenalty"],
    "coupled.fit_joint_s": ["coupled.fit_joint"],
    "coupled.membership_objectives_s": ["coupled.networks_objective", "coupled.topic_objective"],
    "coupled.membership_products_s": ["coupled.MembershipMatrix.matmul",
                                      "coupled.MembershipMatrix.tmatmul"],
    "ranking.rank_experts_s": ["ranking.rank_experts"],
}

# Per-layer metric -> span name whose calls it counts.
CALLS = {
    "ingest.top_users_calls": "ingest.top_users",
    "serialize.load_model_calls": "serialize.load_model",
    "sparse_tensor.mttkrp_calls": "sparse_tensor.mttkrp",
    "sparse_tensor.residual_norm_calls": "sparse_tensor.residual_norm",
    "hierarchy.weight_penalty_calls": "hierarchy.weight_penalty",
    "ranking.rank_experts_calls": "ranking.rank_experts",
}

# Per-layer metric -> span name whose self times it sums.
SELF = {
    "coupled.fit_joint_self_s": "coupled.fit_joint",
    "ranking.evaluate_self_s": "ranking.evaluate",
}


def _dataset_rows(args, kwargs, result):
    return {"rows": len(result.users) + len(result.posts) + len(result.votes)}


def _mttkrp_shape(args, kwargs, result):
    X = args[0]
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return {"mode": int(mode), "nnz": int(X.nnz), "rank": int(result.shape[1])}


def _fit_outcome(args, kwargs, result):
    return {"sweeps": len(result.objective_history),
            "live": int((result.cp.norms > 0).sum())}


def _ranked_status(args, kwargs, result):
    return {"no_signal": int(result.status == "no-signal")}


class Recorder:
    """Span list plus the stack of open spans (single-threaded callers)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name, fn, annotate=None):
        """Wrap ``fn`` so each call appends a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else None, None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if annotate is not None:
                record[4] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap the names the CLI path calls, for the rest of the process."""
        from qaexpert import cli, coupled, ingest, ranking, serialize
        from qaexpert.hierarchy import TreePenalty
        from qaexpert.sparse_tensor import SparseTensor4

        targets = [
            (cli, "parse_dump", "ingest.parse_dump", _dataset_rows),
            (ingest.QaDataset, "__init__", "ingest.QaDataset", None),
            (cli, "merge_datasets", "ingest.merge_datasets", None),
            (cli, "build_inputs", "ingest.build_inputs", None),
            (cli, "reputation_scores", "ingest.reputation_scores", None),
            (ingest.ReputationLedger, "top_users", "ingest.top_users", None),
            (cli, "fit_joint", "coupled.fit_joint", _fit_outcome),
            (coupled, "networks_objective", "coupled.networks_objective", None),
            (coupled, "topic_objective", "coupled.topic_objective", None),
            (coupled.MembershipMatrix, "matmul", "coupled.MembershipMatrix.matmul", None),
            (coupled.MembershipMatrix, "tmatmul", "coupled.MembershipMatrix.tmatmul", None),
            (coupled, "mttkrp", "sparse_tensor.mttkrp", _mttkrp_shape),
            (coupled, "gram_hadamard", "sparse_tensor.gram_hadamard", None),
            (coupled, "residual_norm", "sparse_tensor.residual_norm", None),
            (coupled, "weight_penalty", "hierarchy.weight_penalty", None),
            (SparseTensor4, "__init__", "sparse_tensor.SparseTensor4", None),
            (TreePenalty, "__init__", "hierarchy.TreePenalty", None),
            (cli, "rank_experts", "ranking.rank_experts", _ranked_status),
            (ranking, "rank_experts", "ranking.rank_experts", _ranked_status),
            (cli, "evaluate", "ranking.evaluate", None),
        ]
        for name in ("save_tensor", "save_membership", "save_tree", "save_reputation",
                     "write_manifest", "load_tensor", "load_membership", "load_tree",
                     "save_model", "load_model", "load_manifest", "load_reputation",
                     "file_digest"):
            targets.append((serialize, name, f"serialize.{name}", None))

        for owner, attr, name, annotate in targets:
            setattr(owner, attr, self.span(name, owner.__dict__[attr], annotate))


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def check_nesting(spans, slack=1e-6):
    """Problems with the span tree: children outside their parent, or self
    times that do not add up to the root durations."""
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent is not None:
            p = spans[parent]
            if parent >= i or start < p[1] or end > p[2]:
                problems.append(f"span {i} {name} lies outside its parent {p[0]}")
    roots = sum(s[2] - s[1] for s in spans if s[3] is None)
    total_self = sum(self_times(spans))
    if abs(total_self - roots) > slack * max(roots, 1.0):
        problems.append(f"self times sum to {total_self} s, root spans to {roots} s")
    return problems
