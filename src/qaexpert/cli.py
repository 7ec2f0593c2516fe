"""Batch command line: ingest dumps, fit the joint model, recommend, evaluate.

Flag values override entries from an optional JSON ``--config`` file,
which override built-in defaults; the effective configuration is echoed
into every output for provenance.  All randomness flows from the single
``--seed`` through NumPy's default PCG64 generator, and output files are
byte-identical across runs with equal inputs.

``ingest`` runs on every usable CPU, in one process per CPU.  It deals
the subsites out in turn, at most one process per subsite: the ``ingest``
process parses the last share and a forked child each other share, which
sends what it parsed back over a pipe; with one usable CPU or no
``os.fork`` there is one share, and no child.  Each dataset counts the
rows its parse skipped, and once every share is back ``ingest`` warns
those counts and raises the first error, in subsite order.  The warnings
come from one line of this module, so Python's filters show each text
once per location there, whatever the process count; `main` shows each
one as a single ``<Category>: <message>`` line.  After the merge
the ``ingest`` process builds the model inputs, then forks a child that
builds the reputation ledger and the bytes of ``reputation.csv`` and
their digest, while the ``ingest`` process renders the tensor, membership
and tree files to bytes and digests them.  Once both have succeeded it
creates the output directory and writes the five files, then the
manifest.  With one usable CPU or no ``os.fork``, the model inputs, the
tables and the ledger run in the one process, in that order.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pickle
import sys
import warnings

from . import serialize
from .coupled import JointConfig, fit_joint
from .errors import DataError, SolverDiverged, VersionMismatchError
from .ingest import build_inputs, merge_datasets, parse_dump, reputation_scores, sample_dataset
from .ranking import evaluate, rank_experts

_DEFAULTS = {
    "ingest": {
        "sample_users": None, "seed": 0, "vote_buckets": "0,1,3,10",
    },
    "fit": {
        "rank": 8, "lambda_x": 0.1, "lambda_w": 0.1, "lambda_s": 0.1,
        "lambda_t": 0.1, "lambda_site": None, "max_iters": 100,
        "tol": 1e-6, "seed": 0,
    },
    "recommend": {"k": 10},
    "evaluate": {"k_list": "1,3,5,10"},
}

SNAPSHOT_FILES = {
    "tensor": "tensor.txt",
    "site": "site_matrix.txt",
    "topic": "topic_matrix.txt",
    "tree": "tree.txt",
    "reputation": "reputation.csv",
    "manifest": "manifest.json",
}


# Where a key's default is None, the type its other config values take.
_NULLABLE = {"sample_users": int, "lambda_site": float}


class UsageError(Exception):
    pass


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or digits
                raise UsageError(f"--config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"--config must hold a JSON object, got {json.dumps(loaded)}")
        unknown = sorted(set(loaded) - set(merged))
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {', '.join(unknown)}")
        for key, value in loaded.items():
            # Any number for a float, taken as a float; an integer but no
            # bool for an int.
            kind = _NULLABLE.get(key, type(merged[key]))
            if not ((value is None and key in _NULLABLE) or (
                    isinstance(value, (int, float) if kind is float else kind)
                    and not isinstance(value, bool))):
                null = " or null" if key in _NULLABLE else ""
                raise UsageError(f"config {key} takes {kind.__name__}{null}, "
                                 f"not {json.dumps(value)}")
            if kind is float and isinstance(value, int):
                try:
                    loaded[key] = float(value)
                except OverflowError:
                    raise UsageError(f"config {key} takes float, not an integer "
                                     "beyond the float range") from None
        merged.update(loaded)
    for key in _DEFAULTS[command]:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged.get("seed", 0) < 0:  # NumPy's generator takes no negative seed
        raise UsageError("--seed must be >= 0")
    return merged


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(t) for t in str(text).split(",") if t.strip() != ""]
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}")
    if not values:
        raise UsageError(f"{what} must be nonempty")
    return values


def _worker_count(tasks: int) -> int:
    """Processes that share ``tasks``: one per usable CPU, at most one per
    task, and 1 (no fork) where the platform has no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus))


def _parse_subsite(job):
    """One subsite's dataset, or the exception its parse raised."""
    files, name = job
    try:
        return parse_dump(*files, subsite_name=name)
    except Exception as exc:
        return exc


def _parse_subsites(jobs) -> list:
    """The datasets of ``jobs``, in order, parsed by `_fork_join` in
    `_worker_count` processes.

    Share ``w`` holds jobs ``w``, ``w + workers``, …; this process parses
    the last share and a forked child each other, so with one worker no
    child is forked.  Then, in subsite order, each dataset's skipped rows
    are warned, and the first error is raised: a parse's own, or that of
    the child whose share holds the subsite.
    """
    workers = _worker_count(len(jobs))
    shares = [jobs[w::workers] for w in range(workers)]

    def parse(share, send=lambda outcome: outcome):  # a child sends through _portable
        return [send(_parse_subsite(job)) for job in share]

    results = _fork_join([(f"subsites {', '.join(name for _, name in share)}",
                           functools.partial(parse, share, _portable)) for share in shares[:-1]],
                         functools.partial(parse, shares[-1]))
    outcomes = [None] * len(jobs)
    for w, got in enumerate(results):
        outcomes[w::workers] = [got] * len(shares[w]) if isinstance(got, BaseException) else got
    for (_, name), data in zip(jobs, outcomes):
        if isinstance(data, BaseException):
            raise data
        for count, rows in ((data.skipped_posts, "posts of other kinds"),
                            (data.skipped_votes, "votes (unknown kind or missing post)")):
            if count:
                warnings.warn(f"{name}: skipped {count} {rows}")
    return outcomes


def _portable(result):
    """``result``, or for an exception that does not survive pickling a
    `ChildProcessError` holding its type name and message."""
    if isinstance(result, BaseException):
        try:
            pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            result = ChildProcessError(f"{type(result).__name__}: {result}")
    return result


def _fork_join(tasks, own) -> list:
    """The results of ``tasks``, ``(label, function)`` pairs, each run in a
    forked child, then of ``own``, run in this process meanwhile; every
    function is called with no arguments.

    A child pickles its function's result, or the exception it raised, into
    a pipe and leaves with ``os._exit``.  This process runs ``own``, then
    reads the pipes in turn and, also when it fails, closes them all before
    it reaps every child.  A child's exception takes the place of its
    result, as does a `ChildProcessError` naming the label of a child that
    exits without one.
    """
    children = []  # (pid, read end)
    try:
        for _, task in tasks:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    # no read end stays open here, so a child blocked on a
                    # full pipe gets EPIPE once the parent closes its end
                    for _, fd in children:
                        os.close(fd)
                    os.close(read_fd)
                    try:
                        result = task()
                    except Exception as exc:
                        result = _portable(exc)
                    with os.fdopen(write_fd, "wb") as fh:
                        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        mine = own()
        received, missing = [], object()
        for _, read_fd in children:
            with os.fdopen(read_fd, "rb", closefd=False) as fh:
                try:
                    received.append(pickle.load(fh))
                except Exception:  # the child left before writing all of it
                    received.append(missing)
    finally:
        for _, read_fd in children:
            os.close(read_fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    results = []
    for (label, _), got, status in zip(tasks, received, statuses):
        if got is missing or status != 0:
            got = ChildProcessError(f"ingest worker for {label} exited with code "
                                    f"{os.waitstatus_to_exitcode(status)} without a result")
        results.append(got)
    return [*results, mine]


def cmd_ingest(args) -> int:
    cfg = _resolve_config("ingest", args)
    edges = _parse_int_list(cfg["vote_buckets"], "--vote-buckets")
    sample_users, seed = cfg["sample_users"], cfg["seed"]
    if sample_users is not None and sample_users < 1:
        raise UsageError("--sample-users must be >= 1")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise UsageError("--vote-buckets must be strictly increasing")
    dirs = [d.rstrip("/") for d in args.dirs]
    names = [os.path.basename(d) for d in dirs]
    if len(set(names)) != len(names):
        raise UsageError("subsite directory basenames must be unique")
    jobs = []
    for d, name in zip(dirs, names):
        files = [os.path.join(d, f) for f in ("Posts.xml", "Votes.xml", "Users.xml")]
        for f in files:
            if not os.path.exists(f):
                raise FileNotFoundError(f"missing dump file: {f}")
        jobs.append((files, name))

    data = merge_datasets(_parse_subsites(jobs))
    if sample_users is not None:
        data = sample_dataset(data, sample_users, seed)
    tables = build_inputs(data, bucket_edges=edges)

    def render_tables():  # each table file's bytes and digest, by SNAPSHOT_FILES key
        return {"tensor": serialize.encoded(serialize.tensor_text(tables.tensor)),
                "site": serialize.encoded(serialize.membership_text(tables.site_matrix)),
                "topic": serialize.encoded(serialize.membership_text(tables.topic_matrix)),
                "tree": serialize.encoded(serialize.tree_text(tables.tree))}

    def render_ledger():  # reputation.csv's bytes and digest
        return serialize.encoded(serialize.reputation_text(reputation_scores(data)))

    if _worker_count(2) > 1:  # a child for the ledger, this process for the tables
        ledger, files = _fork_join([("the reputation ledger", render_ledger)], render_tables)
        if isinstance(ledger, BaseException):
            raise ledger
    else:
        files, ledger = render_tables(), render_ledger()
    files["reputation"] = ledger

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    written = []
    try:
        for key, (content, _) in files.items():
            written.append(os.path.join(out, SNAPSHOT_FILES[key]))
            with open(written[-1], "wb") as fh:
                fh.write(content)
        written.append(os.path.join(out, SNAPSHOT_FILES["manifest"]))
        serialize.write_manifest(written[-1], tables, cfg,
                                 {SNAPSHOT_FILES[key]: digest for key, (_, digest) in files.items()})
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    print(
        f"ingested {len(names)} subsites: {tables.tensor.nnz} tensor nonzeros, "
        f"{len(tables.questions)} questions, {len(tables.topics)} topics, "
        f"{len(tables.users)} users -> {out}"
    )
    return 0


def _snapshot_paths(snapshot_dir: str) -> dict:
    paths = {k: os.path.join(snapshot_dir, v) for k, v in SNAPSHOT_FILES.items()}
    for path in paths.values():
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing snapshot file: {path}")
    return paths


def cmd_fit(args) -> int:
    cfg = _resolve_config("fit", args)
    rest = dict(cfg)
    try:
        joint_cfg = JointConfig(tolerance=rest.pop("tol"), **rest)
    except ValueError as exc:  # a flag or config value out of range
        raise UsageError(str(exc)) from None
    paths = _snapshot_paths(args.snapshot)
    # its shape, as recommend and evaluate read it, and the digest the model records
    manifest, manifest_hash = serialize.load_manifest(paths["manifest"])
    X = serialize.load_tensor(paths["tensor"])
    _check_manifest_rows(manifest, paths["manifest"], X.dims[1], X.dims[3], "tensor's dims")
    M = serialize.load_membership(paths["site"])
    N = serialize.load_membership(paths["topic"])
    tree = serialize.load_tree(paths["tree"])
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    model_path = os.path.join(out, "model.txt")
    try:
        model = fit_joint(X, M, N, tree, joint_cfg)
    except SolverDiverged as exc:
        if exc.last_state is not None:
            serialize.save_model(exc.last_state, model_path + ".diverged", manifest_hash, cfg)
            print(f"solver diverged; last finite state saved to {model_path}.diverged",
                  file=sys.stderr)
        else:
            print("solver diverged before any finite sweep", file=sys.stderr)
        return 1
    serialize.save_model(model, model_path, manifest_hash, cfg)
    serialize.save_history(model.objective_history, os.path.join(out, "objective_history.csv"))
    live = int((model.cp.norms != 0).sum())
    if live < joint_cfg.rank:
        print(f"warning: {live} of {joint_cfg.rank} components are live"
              + ("" if live else "; every topic will rank as no-signal"), file=sys.stderr)
    print(
        f"fit rank {joint_cfg.rank} in {len(model.objective_history)} sweeps, "
        f"final objective {model.objective_history[-1]:.6g} -> {model_path}"
    )
    return 0


def _check_manifest_rows(manifest: dict, path: str, topics: int, users: int, what: str):
    """Raise unless the manifest lists ``topics`` topics and ``users`` users."""
    listed = len(manifest["topics"]), len(manifest["users"])
    if listed != (topics, users):
        raise DataError(f"{path}: lists {listed[0]} topics and {listed[1]} users, "
                        f"but the {what} are {topics} and {users}")


def _check_model_snapshot(model, stored: str, manifest_path: str):
    manifest, actual = serialize.load_manifest(manifest_path)
    if stored != actual:
        raise VersionMismatchError(
            "model was fit against a different snapshot "
            f"(model records {stored}, snapshot is {actual})"
        )
    _check_manifest_rows(manifest, manifest_path, len(model.topic), len(model.expert),
                         "model's topic and expert rows")
    return manifest


def _resolve_topic(manifest: dict, query: str) -> int:
    topics = manifest["topics"]
    if query in topics:
        return topics.index(query)
    suffix = [t for t in topics if t.split("/", 1)[-1] == query]
    if len(suffix) == 1:
        return topics.index(suffix[0])
    if len(suffix) > 1:
        raise UsageError(f"topic {query!r} is ambiguous: {', '.join(suffix)}")
    near = [t for t in topics if t.startswith(query) or t.split("/", 1)[-1].startswith(query)]
    hint = f"; nearest: {', '.join(near[:8])}" if near else ""
    raise UsageError(f"unknown topic {query!r}{hint}")


def cmd_recommend(args) -> int:
    cfg = _resolve_config("recommend", args)
    k = cfg["k"]
    if k < 1:
        raise UsageError("--k must be >= 1")
    model, stored = serialize.load_model(args.model)
    manifest = _check_model_snapshot(model, stored,
                                     os.path.join(args.snapshot, SNAPSHOT_FILES["manifest"]))
    topic = _resolve_topic(manifest, args.topic)
    ranked = rank_experts(model, topic, k)
    print("# config " + json.dumps({**cfg, "topic": manifest["topics"][topic]}, sort_keys=True))
    if ranked.status != "ok":
        print(f"# status {ranked.status}")
        return 0
    users = manifest["users"]
    for position, (l, score) in enumerate(ranked.entries, start=1):
        print(f"{position},{users[l]},{score:.17g}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config("evaluate", args)
    k_list = _parse_int_list(cfg["k_list"], "--k-list")
    if min(k_list) < 1:
        raise UsageError("--k-list values must be >= 1")
    if len(set(k_list)) < len(k_list):
        raise UsageError("--k-list values must be distinct")
    model, stored = serialize.load_model(args.model)
    paths = _snapshot_paths(args.snapshot)
    manifest = _check_model_snapshot(model, stored, paths["manifest"])
    ledger = serialize.load_reputation(paths["reputation"])
    report = evaluate(model, ledger, k_list, manifest["topics"], manifest["users"])
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    report_path = os.path.join(out, "report.csv")
    serialize.save_report(report, report_path, config=cfg)
    print(f"evaluated {report.evaluated_topics} topics "
          f"({report.skipped_topics} without reputation) -> {report_path}")
    for label, k, prec, mrr, n in report.summary:
        print(f"{label} k={k}: precision {prec:.4f}, mrr {mrr:.4f} over {n} topics")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each `parse_args`
    call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qaexpert",
        description="Find per-topic experts in multi-community Q&A dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse dumps into a model-input snapshot")
    p.add_argument("dirs", nargs="+", help="subsite dump directories (basename = subsite name)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sample-users", type=int, dest="sample_users")
    p.add_argument("--seed", type=int)
    p.add_argument("--vote-buckets", dest="vote_buckets",
                   help="comma-separated question-score bucket edges")
    p.add_argument("--config", help="JSON file with defaults for these flags")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit the joint model on a snapshot")
    p.add_argument("snapshot", help="snapshot directory from ingest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--lambda-x", type=float, dest="lambda_x")
    p.add_argument("--lambda-w", type=float, dest="lambda_w")
    p.add_argument("--lambda-s", type=float, dest="lambda_s")
    p.add_argument("--lambda-t", type=float, dest="lambda_t")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON file with defaults for these flags")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("recommend", help="print top-k experts for a topic")
    p.add_argument("--model", required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--topic", required=True, help="namespaced subsite/tag or bare tag")
    p.add_argument("--k", type=int)
    p.add_argument("--config", help="JSON file with defaults for these flags")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="score rankings against the reputation ledger")
    p.add_argument("--model", required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k-list", dest="k_list")
    p.add_argument("--config", help="JSON file with defaults for these flags")
    p.set_defaults(func=cmd_evaluate)
    return parser


def _one_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI shows it: ``<Category>: <message>``, without the
    source location and line of Python's default format."""
    return f"{category.__name__}: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # only the text of a warning that Python's filters let through changes,
    # and only until main returns
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    # run as ``python -m qaexpert.cli``, this file is ``__main__``: take main
    # from qaexpert.cli, so warnings come from that module, as filters name it
    from qaexpert.cli import main as cli_main
    sys.exit(cli_main())
