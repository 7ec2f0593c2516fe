"""Self-tests for the benchmark: python3 bench/selftest.py

A tiny corpus goes through the same round, check and trace code as the
real workloads in seconds, and every output check must reject a
deliberately corrupted copy of the output it checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import checks
import run

TINY = run.Workload(
    corpus=dict(n_subsites=2, topics_per_subsite=3, questions_per_topic=8,
                n_background=12, n_askers=6),
    corpus_seed=None, fit_args=run._fit_args(5, "--rank", "3", *run.LOW_LAMBDAS),
    sweeps=5, queries=50, evaluations=2)
SEED = 3

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _edit(path, fn):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.logs = []
        cls.plain = run.run("tiny", SEED, 0, False, wl=TINY, log=cls.logs.append)
        out = os.path.join(run.WORK, "out", "tiny", "round0")
        cls.dir = os.path.join(run.WORK, "selftest")
        shutil.rmtree(cls.dir, ignore_errors=True)
        shutil.copytree(out, cls.dir)
        cls.traced = run.run("tiny", SEED, 0, True, wl=TINY, log=cls.logs.append)
        corpus = run.corpus_dir("tiny", TINY, SEED)
        sites = sorted(d for d in os.listdir(corpus) if os.path.isdir(os.path.join(corpus, d)))
        cls.expected = checks.derive_snapshot(corpus, sites)
        with open(os.path.join(corpus, "corpus_truth.json"), encoding="utf-8") as fh:
            cls.truth = json.load(fh)

    def setUp(self):
        self.work = os.path.join(self.dir, "case")
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(self.dir, self.work, ignore=shutil.ignore_patterns("case"))

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def model(self):
        return checks.Model(self.path("fit", "model.txt"))

    # Whole runs -----------------------------------------------------------

    def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(self):
        self.assertTrue(self.plain["correct"], self.logs)
        self.assertEqual(self.plain["failed"], 0)
        self.assertEqual(self.plain["attempted"] % (2 + TINY.evaluations + TINY.queries), 0)
        self.assertEqual(set(self.plain["metrics"]), {m["name"] for m in SPEC["end_to_end"]})
        for m in SPEC["end_to_end"]:
            got = self.plain["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertGreater(got["value"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        self.assertTrue(self.traced["correct"], self.logs)
        self.assertEqual(set(self.traced["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        for m in SPEC["per_layer"]:
            self.assertEqual(self.traced["metrics"][m["name"]]["unit"], m["unit"])
        self.assertEqual(self.traced["metrics"]["coupled.sweeps"]["value"], TINY.sweeps)

    def test_without_sources_the_benchmark_fails_without_a_result(self):
        bare = os.path.join(run.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fit-s4", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)

    def test_each_call_is_rescaled_by_the_reference_times_around_it(self):
        call = {"seconds": 2.0, "reference": (run.REFERENCE_S * 1.5, run.REFERENCE_S * 2.5)}
        self.assertAlmostEqual(run.seconds(call), 1.0)
        for name in ("ingest", "fit", "evaluate0", "evaluate1", "recommend"):
            with open(self.path(f"{name}.result.json"), encoding="utf-8") as fh:
                result = json.load(fh)
            self.assertGreater(result["reference"], 0)
            for c in result["calls"]:
                self.assertEqual(len(c["reference"]), 2)
                self.assertGreater(min(c["reference"]), 0)

    # Each check accepts the real output and rejects a corrupted copy -------

    def test_snapshot_check(self):
        snap = self.path("snapshot")
        self.assertEqual(checks.check_snapshot(snap, self.expected, self.truth), [])
        _edit(os.path.join(snap, "tensor.txt"), lambda ls: ls[:5] + ls[6:])
        self.assertTrue(checks.check_snapshot(snap, self.expected, self.truth))

    def test_snapshot_check_rejects_altered_reputation(self):
        snap = self.path("snapshot")

        def bump(lines):
            user, topic, score = lines[1].split(",")
            return [lines[0], f"{user},{topic},{int(score) + 1}"] + lines[2:]

        _edit(os.path.join(snap, "reputation.csv"), bump)
        self.assertTrue(checks.check_snapshot(snap, self.expected, self.truth))

    def test_snapshot_check_rejects_dropped_membership_pair(self):
        snap = self.path("snapshot")
        _edit(os.path.join(snap, "topic_matrix.txt"), lambda ls: ls[:-1])
        self.assertTrue(checks.check_snapshot(snap, self.expected, self.truth))

    def test_history_check(self):
        hist = self.path("fit", "objective_history.csv")
        self.assertEqual(checks.check_history(hist, TINY.sweeps), [])
        self.assertTrue(checks.check_history(hist, TINY.sweeps + 1))
        _edit(hist, lambda ls: ls[:2] + [ls[2].split(",")[0] + ",1e300"] + ls[3:])
        self.assertTrue(checks.check_history(hist, TINY.sweeps))

    def test_report_check(self):
        report = self.path("eval0", "report.csv")
        ledger = checks.read_ledger(self.path("snapshot", "reputation.csv"))
        args = (self.model(), self.expected["topics"], self.expected["users"], ledger)
        self.assertEqual(checks.check_report(report, *args), [])

        def alter(lines):
            cells = lines[3].split(",")
            cells[2] = repr(float(cells[2]) + 0.125)
            return lines[:3] + [",".join(cells)] + lines[4:]

        _edit(report, alter)
        self.assertTrue(checks.check_report(report, *args))

    def test_recommend_check(self):
        model = self.model()
        self.assertGreater(model.live, 0)
        topics, users = self.expected["topics"], self.expected["users"]
        with open(self.path("recommend.result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        with open(self.path("topics.txt"), encoding="utf-8") as fh:
            queries = fh.read().split()
        for topic, call in zip(queries, result["calls"]):
            self.assertEqual(checks.check_recommend(call["out"], model, topics, users, topic),
                             ([], False))
        lines = result["calls"][0]["out"].splitlines()
        swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
        for bad in ("\n".join(swapped), "\n".join(lines[:-1]),
                    "\n".join(lines[:1] + ["# status no-signal"])):
            problems, _ = checks.check_recommend(bad, model, topics, users, queries[0])
            self.assertTrue(problems)


if __name__ == "__main__":
    unittest.main()
