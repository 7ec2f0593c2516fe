"""Run one qaexpert CLI stage in a fresh interpreter and report its timings.

    python3 bench/stage.py --result OUT.json [--trace] [--topics FILE] -- CLI-ARGS...

The interpreter imports ``qaexpert.cli`` and builds its parser, stamps
``time.monotonic()`` (the same clock in every process, so the parent can
subtract its spawn stamp to get the set-up time), then calls
``qaexpert.cli.main`` once.  With ``--topics`` it calls ``main`` once per
line of FILE, appending ``--topic LINE`` and capturing what each call
prints: a closed loop of recommend queries in one warm process.  Around
every call, outside its timing, it times a fixed reference job
(`reference`): the median of five when ready and after a single call, one
between two queries.  The parent rescales each call by the reference times
on either side of it.

The result JSON holds the ready stamp, the first reference time, each
call's duration, exit code, reference times before and after, and captured
output, the process's peak resident memory, and with ``--trace`` the spans
recorded around the program's public names.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time

import qaexpert.cli as cli


def reference(repeats=1):
    """Median seconds of a fixed job: an interpreter loop, dict and string
    building, and NumPy passes over an array larger than L2."""
    import numpy as np

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i
        table = {str(i): i for i in range(8000)}
        a = np.arange(200000.0)
        for _ in range(4):
            total += float((a * a).sum())
        del table
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    cli.build_parser()
    ready = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--topics")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = None
    run = cli.main
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
        run = recorder.span(f"cli.{argv[0]}", cli.main)

    calls = []
    before = first = reference(5)
    if args.topics:
        with open(args.topics, encoding="utf-8") as fh:
            topics = fh.read().split()
        for topic in topics:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                rc = run(argv + ["--topic", topic])
                seconds = time.perf_counter() - start
            after = reference()
            calls.append({"seconds": seconds, "rc": rc, "out": out.getvalue(),
                          "reference": (before, after)})
            before = after
    else:
        start = time.perf_counter()
        rc = run(argv)
        seconds = time.perf_counter() - start
        calls.append({"seconds": seconds, "rc": rc, "reference": (before, reference(5))})

    result = {
        "ready": ready,
        "reference": first,
        "calls": calls,
        "peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans if recorder else None,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
