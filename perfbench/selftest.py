#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, in tiny sizes (seconds).

    python3 perfbench/selftest.py

For every workload, untraced and traced:
  * a clean run exits 0 and prints, as its last line, a JSON result with
    exactly the metrics BENCHMARK.json names for that mode, each with
    the unit it declares, and each also printed by name on its own line;
  * a run with feature row 0 poisoned to NaN reports failures, says it
    is not correct, and exits 1.
A usage error must exit non-zero without printing a result.
Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["full-maxk", "sampled-relu", "serve-zipf"]


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def result_of(out):
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            base = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            label = f"{workload} trace={trace}"

            out = run(*base)
            res = result_of(out)
            check(out.returncode == 0, f"{label}: exit 0")
            check(res is not None and res.get("correct") is True
                  and res.get("failed") == 0 and res.get("attempted", 0) >= 1,
                  f"{label}: correct, 0 failed of >= 1 attempted")
            got = res.get("metrics", {}) if res else {}
            want = {m["name"]: m["unit"] for m in expected[trace]}
            check(set(got) == set(want),
                  f"{label}: exactly the {len(want)} metrics BENCHMARK.json "
                  f"names (missing {sorted(set(want) - set(got))}, extra "
                  f"{sorted(set(got) - set(want))})")
            bad_units = [n for n, u in want.items()
                         if n in got and got[n].get("unit") != u]
            check(not bad_units, f"{label}: declared units ({bad_units})")
            text = out.stdout.splitlines()[:-1]
            unprinted = [n for n, u in want.items()
                         if not any(line.split()[:1] == [n] and
                                    line.split()[-1:] == [u]
                                    for line in text)]
            check(not unprinted,
                  f"{label}: every metric printed with its unit "
                  f"({unprinted})")

            out = run(*base, "--poison-nan")
            res = result_of(out)
            check(out.returncode == 1, f"{label} poisoned: exit 1")
            check(res is not None and res.get("correct") is False
                  and res.get("failed", 0) > 0,
                  f"{label} poisoned: failures counted")

    out = run("--workload", "no-such-workload", "--seed", "1",
              "--seconds", "1", "--trace", "0")
    check(out.returncode != 0 and result_of(out) is None,
          "unknown workload: non-zero exit, no result")

    print(f"{len(failures)} check(s) failed" if failures else
          "perfbench self-test: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
