"""Stage-by-stage benchmark of the qaexpert pipeline: ingest -> fit -> evaluate/recommend.

    python3 bench/run.py --workload fit-s4 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's corpus is made with
``qaexpert.synthetic.make_corpus`` (untimed, cached under ``bench/.work``),
then whole rounds run until ``--seconds`` have passed.  A round runs the real
CLI stages, each in a fresh interpreter through ``bench/stage.py``: ingest,
fit, evaluate, and a closed loop of recommend queries in one warm process.
Every round's outputs are checked against computations made apart from the
program (``bench/checks.py``).

Every time is rescaled to the host's quiet speed: the stage process times a
fixed reference job just before and after each call, and the call's wall
time is multiplied by ``REFERENCE_S`` over their mean.  The host this was
written on slows both of its CPUs by 1.3-1.5x in stretches of seconds to
minutes, and the program and the reference job slow down alike, so the
rescaled times repeat where raw ones do not.  Metrics are medians over the
run; the raw wall-time medians are logged.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with traced ones, which record spans around the program's
public names (``bench/spans.py``), and prints the per-layer metrics and the
tracing overhead: traced over untraced stage time.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import checks
import spans

# Set in every stage process.  One BLAS thread was measured steadier, and
# about 10% faster for fit, than two on a 2-CPU host.  One dump-parsing
# thread: the SAX callbacks hold the GIL, so a second thread is no faster,
# and one keeps the traced spans strictly nested.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "QA_EXPERT_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
STAGE = os.path.join(BENCH, "stage.py")
STAGES = ("ingest", "fit", "evaluate", "recommend")
STAGE_TIMEOUT = 170
# A run holds at least this many recommend queries, so that ten samples lie
# beyond p90.
MIN_QUERIES = 100
# Seconds the reference job in stage.py takes on a quiet host (a 2-vCPU Xeon
# VM at 2.1 GHz with Python 3.11 and NumPy 2.4, where it takes 5.0 ms in
# quiet stretches and about 7 ms in busy ones).  Every time is rescaled to it.
REFERENCE_S = 0.005

LOW_LAMBDAS = ("--lambda-x", "0.01", "--lambda-w", "0.01", "--lambda-s", "0.01",
               "--lambda-t", "0.01")


@dataclass(frozen=True)
class Workload:
    corpus: dict          # make_corpus keyword arguments besides out_dir and seed
    corpus_seed: int | None  # None: the corpus follows --seed
    fit_args: tuple       # fit flags; always a fixed sweep count with --tol 0
    sweeps: int
    queries: int          # recommend queries per round
    evaluations: int = 1  # evaluate processes per round, each timed


def _fit_args(sweeps, *extra):
    return (*extra, "--max-iters", str(sweeps), "--tol", "0", "--seed", "0")


WORKLOADS = {
    # ROADMAP scale-4 at lambdas 0.01, where the fit keeps live components.
    "fit-s4": Workload(
        corpus=dict(n_subsites=4, topics_per_subsite=20, questions_per_topic=40,
                    n_background=400, n_askers=200, max_background_answers=4),
        corpus_seed=None, fit_args=_fit_args(10, "--rank", "8", *LOW_LAMBDAS),
        sweeps=10, queries=50, evaluations=3),
    # 16x scale-1 questions at the CLI defaults.  The corpus does not follow
    # --seed (only the query order does): its fit collapses to no live
    # component by sweep 4, a deterministic fault counted as failed.
    "ingest-serve-s16": Workload(
        corpus=dict(n_subsites=8, topics_per_subsite=40, questions_per_topic=40,
                    n_background=1600, n_askers=800, max_background_answers=4),
        corpus_seed=0, fit_args=_fit_args(4), sweeps=4, queries=25),
}

END_TO_END = [("setup_s", "s"), ("ingest_s", "s"), ("fit_s", "s"), ("evaluate_s", "s"),
              ("pipeline_s", "s"), ("recommend_p50_s", "s"), ("recommend_p90_s", "s"),
              ("ingest_peak_mib", "MiB"), ("fit_peak_mib", "MiB"), ("snapshot_mib", "MiB")]

PER_LAYER = (
    [(m, "s") for m in spans.GROUPS]
    + [(m, "count") for m in spans.CALLS]
    + [(m, "s") for m in spans.SELF]
    + [(f"sparse_tensor.mttkrp_mode{m}_s", "s") for m in range(4)]
    + [("ingest.rows_parsed", "count"), ("sparse_tensor.mttkrp_flops", "flop_computed"),
       ("sparse_tensor.mttkrp_bytes", "B_computed"), ("coupled.sweeps", "count"),
       ("coupled.live_components", "count"), ("ranking.no_signal", "count")]
    + [(f"cli.{s}_self_s", "s") for s in STAGES]
    + [(f"trace.{s}_overhead", "ratio") for s in STAGES]
)


class BenchError(Exception):
    pass


def corpus_dir(name, wl, seed):
    """Generate (once) and return the workload's corpus directory."""
    seed = seed if wl.corpus_seed is None else wl.corpus_seed
    key = hashlib.sha256(json.dumps(wl.corpus, sort_keys=True).encode()).hexdigest()[:12]
    path = os.path.join(WORK, "corpora", f"{key}-seed{seed}")
    if not os.path.isdir(path):
        sys.path.insert(0, SRC)
        from qaexpert.synthetic import make_corpus

        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        make_corpus(tmp, seed=seed, **wl.corpus)
        os.replace(tmp, path)
    return path


def run_stage(argv, out_dir, trace=False, topics=None, name=None):
    """Run one CLI stage in a fresh interpreter; returns stage.py's result
    plus ``setup_s``, the time from spawn until the CLI was ready."""
    name = name or argv[0]
    result_path = os.path.join(out_dir, f"{name}.result.json")
    log_path = os.path.join(out_dir, f"{name}.log")
    cmd = [sys.executable, STAGE, "--result", result_path]
    if trace:
        cmd.append("--trace")
    if topics is not None:
        cmd += ["--topics", topics]
    env = dict(os.environ, **PINNED_ENV, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--", *argv], cwd=ROOT, env=env, stdout=log,
                              stderr=subprocess.STDOUT, timeout=STAGE_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"stage {name} exited {proc.returncode}; see {log_path}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if any(call["rc"] != 0 for call in result["calls"]):
        raise BenchError(f"qaexpert {name} returned non-zero; see {log_path}")
    result["setup_s"] = result["ready"] - spawned
    return result


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_round(wl, corpus, sites, out_dir, queries, trace):
    """One ingest -> fit -> evaluate (``wl.evaluations`` times) -> recommend
    pass; returns stage results."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    snap, fit = os.path.join(out_dir, "snapshot"), os.path.join(out_dir, "fit")
    model = os.path.join(fit, "model.txt")
    topics_file = os.path.join(out_dir, "topics.txt")
    with open(topics_file, "w", encoding="utf-8") as fh:
        fh.write("\n".join(queries) + "\n")
    r = {"queries": queries, "out": out_dir}
    r["ingest"] = run_stage(["ingest", *(os.path.join(corpus, s) for s in sites),
                             "--out-dir", snap], out_dir, trace)
    r["snapshot_bytes"] = sum(os.path.getsize(os.path.join(snap, f))
                              for f in checks.SNAPSHOT_FILES)
    r["fit"] = run_stage(["fit", snap, "--out-dir", fit, *wl.fit_args], out_dir, trace)
    r["evaluations"] = [
        run_stage(["evaluate", "--model", model, "--snapshot", snap,
                   "--out-dir", os.path.join(out_dir, f"eval{i}")],
                  out_dir, trace, name=f"evaluate{i}")
        for i in range(wl.evaluations)]
    r["evaluate"] = r["evaluations"][0]
    r["recommend"] = run_stage(["recommend", "--model", model, "--snapshot", snap],
                               out_dir, trace, topics=topics_file)
    r["digest"] = _digest([os.path.join(snap, f) for f in checks.SNAPSHOT_FILES]
                          + [model, os.path.join(fit, "objective_history.csv")])
    r["reports"] = {_digest([os.path.join(out_dir, f"eval{i}", "report.csv")])
                    for i in range(wl.evaluations)}
    return r


def check_round(r, wl, expected, truth, first_digest):
    """Check one round's outputs; returns (problems, failed fit, failed queries)."""
    out = r["out"]
    snap = os.path.join(out, "snapshot")
    model = checks.Model(os.path.join(out, "fit", "model.txt"))
    problems = []
    if first_digest is None:
        problems += checks.check_snapshot(snap, expected, truth)
        problems += checks.check_history(os.path.join(out, "fit", "objective_history.csv"),
                                         wl.sweeps)
        ledger = checks.read_ledger(os.path.join(snap, "reputation.csv"))
        problems += checks.check_report(os.path.join(out, "eval0", "report.csv"), model,
                                        expected["topics"], expected["users"], ledger)
    elif r["digest"] != first_digest:
        problems.append("output files differ from the first round's")
    if len(r["reports"]) != 1:
        problems.append("the round's evaluate processes wrote different reports")
    if model.dims != expected["dims"]:
        problems.append(f"model dims {model.dims}, expected {expected['dims']}")
    no_signal = 0
    for topic, call in zip(r["queries"], r["recommend"]["calls"]):
        found, silent = checks.check_recommend(call["out"], model, expected["topics"],
                                               expected["users"], topic)
        problems += found
        no_signal += silent
    return problems, model.live == 0, no_signal


def _median(values):
    return float(statistics.median(values))


def _nearest_rank(values, q):
    ordered = sorted(values)
    return float(ordered[max(0, -(-len(ordered) * q // 100) - 1)])


def scale(call):
    """``REFERENCE_S`` over the reference times just before and after a call."""
    return REFERENCE_S / statistics.fmean(call["reference"])


def seconds(call):
    """A call's wall time rescaled to the host's quiet speed."""
    return call["seconds"] * scale(call)


def stage_calls(r, stage):
    if stage == "evaluate":
        return [c for p in r["evaluations"] for c in p["calls"]]
    return r[stage]["calls"]


def stage_seconds(r, stage, rescale=seconds):
    """The round's time for a stage: its one ingest or fit, the median of
    its evaluate processes or of its recommend queries."""
    return _median([rescale(c) for c in stage_calls(r, stage)])


def end_to_end(rounds):
    med = {s: _median([stage_seconds(r, s) for r in rounds]) for s in STAGES[:3]}
    latencies = [seconds(c) for r in rounds for c in r["recommend"]["calls"]]
    return {
        "setup_s": _median([p["setup_s"] * REFERENCE_S / p["reference"] for r in rounds
                            for p in (r["ingest"], r["fit"], *r["evaluations"], r["recommend"])]),
        "ingest_s": med["ingest"],
        "fit_s": med["fit"],
        "evaluate_s": _median([seconds(c) for r in rounds for c in stage_calls(r, "evaluate")]),
        "pipeline_s": _median([sum(stage_seconds(r, s) for s in STAGES[:3]) for r in rounds]),
        "recommend_p50_s": _nearest_rank(latencies, 50),
        "recommend_p90_s": _nearest_rank(latencies, 90),
        "ingest_peak_mib": _median([r["ingest"]["peak_mib"] for r in rounds]),
        "fit_peak_mib": _median([r["fit"]["peak_mib"] for r in rounds]),
        "snapshot_mib": _median([r["snapshot_bytes"] for r in rounds]) / 2**20,
    }


def layer_metrics(r):
    """Per-layer totals for one traced round, summed over its stages, plus
    any span nesting problems.  Span times are rescaled like their stage's
    call (recommend's by its queries' median factor); the first evaluate
    process stands for the round's evaluates."""
    m = defaultdict(float)
    problems = []
    for stage in STAGES:
        sp = r[stage]["spans"]
        problems += [f"{stage}: {p}" for p in spans.check_nesting(sp)]
        k = _median([scale(c) for c in r[stage]["calls"]])
        selfs = [k * t for t in spans.self_times(sp)]
        for metric, names in spans.GROUPS.items():
            m[metric] += k * sum(e - s for n, s, e, _, _ in sp if n in names)
        for metric, name in spans.CALLS.items():
            m[metric] += sum(1 for s in sp if s[0] == name)
        for metric, name in spans.SELF.items():
            m[metric] += sum(t for s, t in zip(sp, selfs) if s[0] == name)
        m[f"cli.{stage}_self_s"] += sum(t for s, t in zip(sp, selfs) if s[3] is None)
        for name, start, end, _, attrs in sp:
            if name == "ingest.parse_dump":
                m["ingest.rows_parsed"] += attrs["rows"]
            elif name == "sparse_tensor.mttkrp":
                m[f"sparse_tensor.mttkrp_mode{attrs['mode']}_s"] += k * (end - start)
                # Per nonzero and component: three multiplies forming the
                # value-weighted Khatri-Rao row, one add in the scatter.
                m["sparse_tensor.mttkrp_flops"] += 4 * attrs["nnz"] * attrs["rank"]
                # Per nonzero: four int64 indices and one value read, three
                # factor rows gathered, one output row read and written.
                m["sparse_tensor.mttkrp_bytes"] += attrs["nnz"] * (40 + 40 * attrs["rank"])
            elif name == "coupled.fit_joint":
                m["coupled.sweeps"] += attrs["sweeps"]
                m["coupled.live_components"] += attrs["live"]
            elif name == "ranking.rank_experts":
                m["ranking.no_signal"] += attrs["no_signal"]
    return m, problems


def run(name, seed, seconds, trace, wl=None, log=print):
    """Run one workload; returns the result object printed as the last line."""
    wl = wl or WORKLOADS[name]
    if not os.path.isfile(os.path.join(SRC, "qaexpert", "cli.py")):
        raise BenchError(f"no qaexpert sources under {SRC}; run from a source checkout")
    corpus = corpus_dir(name, wl, seed)
    sites = sorted(d for d in os.listdir(corpus) if os.path.isdir(os.path.join(corpus, d)))
    with open(os.path.join(corpus, "corpus_truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    expected = checks.derive_snapshot(corpus, sites)
    order = list(expected["topics"])
    random.Random(seed).shuffle(order)

    out_root = os.path.join(WORK, "out", name)
    shutil.rmtree(out_root, ignore_errors=True)
    rounds, problems = [], []
    ops = defaultdict(lambda: [0, 0])
    need = 2 if trace else max(2, -(-MIN_QUERIES // wl.queries))
    start = time.monotonic()
    longest = 0.0
    while True:
        n = len(rounds)
        began = time.monotonic()
        queries = [order[(n * wl.queries + q) % len(order)] for q in range(wl.queries)]
        traced = trace and n % 2 == 1
        r = run_round(wl, corpus, sites, os.path.join(out_root, f"round{n}"), queries, traced)
        rounds.append(r)
        found, fit_failed, no_signal = check_round(
            r, wl, expected, truth, rounds[0]["digest"] if n else None)
        problems += found
        for op, tried, bad in (("ingest", 1, 0), ("fit", 1, int(fit_failed)),
                               ("evaluate", wl.evaluations, 0),
                               ("recommend", wl.queries, no_signal)):
            ops[op][0] += tried
            ops[op][1] += bad
        now = time.monotonic()
        longest = max(longest, now - began)
        # Start no round that would likely end after ``seconds``.
        if len(rounds) >= need and now - start + longest > seconds:
            break
    attempted = sum(t for t, _ in ops.values())
    failed = sum(b for _, b in ops.values())

    log(f"workload {name} seed {seed}: tensor {expected['dims']} with "
        f"{len(expected['cells'])} nonzeros; {len(rounds)} rounds "
        f"({'alternately untraced and traced' if trace else 'untraced'}) in "
        f"{time.monotonic() - start:.1f} s")
    log("pinned environment: " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    log("operations: " + "; ".join(f"{op} {t} attempted, {b} failed" for op, (t, b) in ops.items()))
    if ops["fit"][1]:
        log("failed fits kept no live component (silent CP collapse); the recommend "
            "queries on their models answer '# status no-signal'")

    walls = " ".join(f"{s} {_median([stage_seconds(r, s, lambda c: c['seconds']) for r in rounds]):.4f}"
                     for s in STAGES)
    refs = [t for r in rounds for s in STAGES for c in stage_calls(r, s) for t in c["reference"]]
    log(f"median wall seconds, not rescaled: {walls}; reference job median "
        f"{_median(refs) * 1e3:.2f} ms, quiet {REFERENCE_S * 1e3:.2f} ms")
    if not trace:
        samples = sum(len(r["recommend"]["calls"]) for r in rounds)
        log(f"recommend latency: {samples} samples, closed loop with one caller")
        values = end_to_end(rounds)
        units = dict(END_TO_END)
    else:
        plain, traced_rounds = rounds[0::2], rounds[1::2]
        per_round = []
        for r in traced_rounds:
            m, nest = layer_metrics(r)
            problems += nest
            per_round.append(m)
        values = {metric: _median([m[metric] for m in per_round]) for metric, _ in PER_LAYER
                  if not metric.startswith("trace.")}
        for stage in STAGES:
            traced = _median([stage_seconds(r, stage) for r in traced_rounds])
            base = _median([stage_seconds(r, stage) for r in plain])
            values[f"trace.{stage}_overhead"] = traced / base
            log(f"{stage}: untraced {base:.4f} s, traced {traced:.4f} s")
        units = dict(PER_LAYER)
    for p in problems[:20]:
        log(f"CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
