#!/usr/bin/env python3
"""Checks one perfbench run against the committed simulated digests.

Usage:
    check_bench_digest.py RUN_OUTPUT

RUN_OUTPUT holds the last two stdout lines of
`python3 perfbench/run.py --workload NAME` (without --seed): the detail line,
then the result object.  The check fails (exit 1) unless the run reports
`"correct": true` with no failed operation, ran at the seed recorded for its
workload in bench_digests.json, and its digest (events executed, supersteps
completed, the superstep mean's bit pattern, migrations started) equals the
recorded one.  A run at another seed is reported as such: its digest is not
comparable.  A layout or performance change must leave the digest alone; one
that means to change the simulation updates bench_digests.json in the same
commit.
"""

import argparse
import json
import pathlib
import sys

EXPECTED_PATH = pathlib.Path(__file__).resolve().parent / "bench_digests.json"


def check(lines, expected):
    """Returns a list of problems; empty when the run passes."""
    if len(lines) < 2:
        return ["expected a detail line and a result line"]
    detail = json.loads(lines[-2]).get("detail", {})
    result = json.loads(lines[-1])
    problems = []
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"run not correct: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    workload = detail.get("workload")
    want = expected["workloads"].get(workload)
    if want is None:
        return problems + [f"no expected digest for workload {workload!r}"]
    if detail.get("seed") != want["seed"]:
        return problems + [f"{workload} ran at seed {detail.get('seed')}, not "
                           f"the recorded seed {want['seed']}; only a run "
                           f"without --seed can be checked"]
    got = detail.get("digest", {})
    for key, value in want["digest"].items():
        if got.get(key) != value:
            problems.append(f"{workload} digest {key}: got {got.get(key)}, "
                            f"expected {value}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run_output")
    args = ap.parse_args()
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    with open(args.run_output, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    problems = check(lines, expected)
    for p in problems:
        print(f"check_bench_digest: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
