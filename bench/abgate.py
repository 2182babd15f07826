#!/usr/bin/env python3
"""Same-host A/B gate over the repo benchmark (BENCHMARK.json).

Run from the repository root:

    python3 bench/abgate.py BASE

BASE is a git revision.  It is checked out in a git worktree under
.bench_build/ and compared with the working tree: for every workload in
BENCHMARK.json, it runs PAIRS pairs of perfbench/run.py runs, alternating
which side runs first.  Each end_to_end metric is judged by how much worse
the working tree read than BASE in each pair, relative to BASE and in the
metric's worse direction; the two runs of a pair share a time window, so
the host's drift cancels.  The gate fails (exit 1) when

  - a run fails or is not correct;
  - the working tree's share of failed operations is larger than BASE's;
  - a metric is missing from the working tree's output;
  - the median of a metric's per-pair changes exceeds its bound (as in
    BENCHMARK.json), or the lower quartile does: worse by more than the
    bound in four pairs of five.

A metric whose per-pair changes, or BASE's own runs, spread wider than its
bound (between quartiles, relative to the median) is printed as unresolved
and does not fail, unless its lower quartile exceeds the bound.
"""
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

PAIRS = 5
RUN_ARGS = ["--seed", "1", "--seconds", "3", "--trace", "0"]
WORKTREE = os.path.join(".bench_build", "abgate-base")


def quartiles(xs):
    """(q1, median, q3) of xs; for five values, the 2nd, 3rd and 4th."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def relative(delta, ref):
    """delta / |ref|; infinite when ref is 0 and delta is not."""
    if ref == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(ref)


def verdict(metric, base, change):
    """("pass" | "FAIL" | "unresolved", line) for one end_to_end metric.

    metric is its BENCHMARK.json entry; base and change are its values in
    each pair of runs, in pair order, None where a run did not report it."""
    name, bound = metric["name"], metric["bound"]
    if not change or None in change:
        return "FAIL", "%s: missing from the change's output" % name
    if None in base:
        return "pass", "%s: not reported by the base" % name
    sign = 1 if metric["better"] == "lower" else -1
    lo, worse, hi = quartiles([relative(sign * (c - b), b) for b, c in zip(base, change)])
    q1, b, q3 = quartiles(base)
    spread = max(hi - lo, relative(q3 - q1, b))
    line = "%s: base %.4g [%.4g, %.4g], change %.4g, worse by %+.1f%% [%+.1f%%, %+.1f%%] (bound %g%%)" % (
        name, b, q1, q3, statistics.median(change), 100 * worse, 100 * lo, 100 * hi, 100 * bound)
    if lo > bound:
        return "FAIL", line
    if spread > bound:
        return "unresolved", line + ", spread %.1f%%" % (100 * spread)
    return ("FAIL" if worse > bound else "pass"), line


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def share_verdict(base_runs, change_runs):
    b, c = failed_share(base_runs), failed_share(change_runs)
    line = "failed share: base %.4g, change %.4g" % (b, c)
    return ("FAIL" if c > b else "pass"), line


def run(tree, workload):
    """The result JSON of one run in tree, or None if it failed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload] + RUN_ARGS
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if p.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(p.stderr[-2000:] + "\n".join(lines[-20:]) + "\n")
        return None
    return result


def drop_worktree():
    if os.path.exists(WORKTREE):
        subprocess.run(["git", "worktree", "remove", "--force", WORKTREE],
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(WORKTREE, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], check=True)


def gate(benchmark):
    """The number of failing checks over every workload."""
    failures = 0
    for w in benchmark["workloads"]:
        name = w["name"]
        runs = {WORKTREE: [], ".": []}
        for i in range(PAIRS):
            for tree in (WORKTREE, ".") if i % 2 == 0 else (".", WORKTREE):
                r = run(tree, name)
                if r is None:
                    print("%s: FAIL: run %d in %s failed or was not correct" % (name, i + 1, tree))
                    return failures + 1
                runs[tree].append(r)
        checks = [share_verdict(runs[WORKTREE], runs["."])]
        for m in benchmark["end_to_end"]:
            values = {tree: [r["metrics"].get(m["name"], {}).get("value") for r in rs]
                      for tree, rs in runs.items()}
            checks.append(verdict(m, values[WORKTREE], values["."]))
        for status, line in checks:
            print("%s: %s: %s" % (name, status, line))
            failures += status == "FAIL"
        sys.stdout.flush()
    return failures


def main(argv):
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.stderr.write("usage: python3 bench/abgate.py BASE\n")
        return 2
    if not os.path.exists("BENCHMARK.json"):
        sys.stderr.write("abgate: BENCHMARK.json not found; run from the repository root\n")
        return 2
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    drop_worktree()
    os.makedirs(os.path.dirname(WORKTREE), exist_ok=True)
    subprocess.run(["git", "worktree", "add", "--detach", WORKTREE, argv[0]], check=True)
    try:
        print("abgate: base %s vs the working tree, %d pairs per workload, run.py %s" % (
            argv[0], PAIRS, " ".join(RUN_ARGS)), flush=True)
        failures = gate(benchmark)
    finally:
        drop_worktree()
    print("abgate: %s" % ("PASS" if failures == 0 else "FAIL (%d)" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
