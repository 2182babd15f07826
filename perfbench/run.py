#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload commit_file --seed 1 --seconds 10 --trace 0

The program is built with dune (into _build/, without the shared dune
cache) and then run with the same arguments.  Its last line of standard
output is the JSON result; build output goes to standard error.  Exits
non-zero if the sources are missing, the build fails, the run fails a
correctness check, or the run overstays its time limit.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    for need in ("dune-project", os.path.join("lib", "engine"), os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            sys.stderr.write("perfbench: %s not found; run from the repository root\n" % need)
            return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    if build.returncode != 0:
        return build.returncode
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
