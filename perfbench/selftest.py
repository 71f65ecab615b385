#!/usr/bin/env python3
"""Self-test of the benchmark itself, in well under a minute once built.

    python3 perfbench/selftest.py

1. The oracle self-test: every outside oracle accepts a real answer from the
   program and rejects the same answer deliberately corrupted.
2. Every workload end to end at small sizes, untraced and traced: the run
   exits 0, its last line is the result object, no operation fails, and it
   reports exactly the metrics BENCHMARK.json lists for that mode.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    proc = subprocess.run(RUN + ["--oracle-selftest"], cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        failures.append("oracle self-test")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--small"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
            print(("ok   " if not problems else "FAIL ") + label + "".join("; " + p for p in problems))
            failures += [f"{label}: {p}" for p in problems]

    if failures:
        print("self-test FAILED:\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
