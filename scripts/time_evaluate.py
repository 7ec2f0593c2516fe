#!/usr/bin/env python3
"""Time `qaexpert.ranking.evaluate` on a snapshot's tables with random
live factors.

Draws a rank-R model whose every topic row and component is nonzero, as a
live fit's are, from ``--seed``, loads the snapshot's manifest and ledger,
and prints the fastest and median of ``--repeat`` warm calls in ms.  It
prints the same for ``--repeat`` loads of the ledger, each with the first
`top_users` call, which ranks the loaded rows.  With ``--report`` it also
writes the last call's ``report.csv``, so two source trees can be compared
byte for byte on the same inputs.
"""

import argparse
import json
import os
import statistics
import time

import numpy as np

from qaexpert import serialize
from qaexpert.ranking import RankingFactors, evaluate


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot", help="snapshot directory from ingest")
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k-list", default="1,3,5,10")
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--report", help="write the report CSV here")
    args = parser.parse_args()

    manifest, _ = serialize.load_manifest(os.path.join(args.snapshot, "manifest.json"))
    loads = []
    for _ in range(args.repeat):
        start = time.perf_counter()
        ledger = serialize.load_reputation(os.path.join(args.snapshot, "reputation.csv"))
        ledger.top_users("")  # the ledger's per-topic order, built once on first use
        loads.append(1e3 * (time.perf_counter() - start))
    topics, users = manifest["topics"], manifest["users"]
    rng = np.random.default_rng(args.seed)
    model = RankingFactors(rng.random((len(topics), args.rank)),
                           rng.random((len(users), args.rank)), rng.random(args.rank) + 0.5)
    k_list = [int(k) for k in args.k_list.split(",")]
    times = []
    for _ in range(args.repeat):
        start = time.perf_counter()
        report = evaluate(model, ledger, k_list, topics, users)
        times.append(1e3 * (time.perf_counter() - start))
    if args.report:
        serialize.save_report(report, args.report)
    print(json.dumps({"topics": len(topics), "users": len(users), "rank": args.rank,
                      "min_ms": round(min(times), 2),
                      "median_ms": round(statistics.median(times), 2),
                      "load_reputation_min_ms": round(min(loads), 2),
                      "load_reputation_median_ms": round(statistics.median(loads), 2)}))


if __name__ == "__main__":
    main()
