#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run one workload.

    python3 perfbench/run.py --workload full-maxk --seed 1 \
        --seconds 10 --trace 0

Every call configures and builds perfbench_e2e (and the maxk library
from ../src) into .bench_build/perfbench at the repository root; after
the first call that only confirms the build is up to date. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit status is the benchmark's own (0 when
every correctness gate passed), or 1 when the build fails or the run
exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_e2e")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; False when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs,
              "--target", "perfbench_e2e"]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["full-maxk", "sampled-relu", "serve-zipf"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (self-test)")
    parser.add_argument("--poison-nan", action="store_true",
                        help="NaN feature row 0; the gates must fire")
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.poison_nan:
        cmd.append("--poison-nan")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
