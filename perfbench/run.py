#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a source checkout.

    python3 perfbench/run.py --workload two-stage --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --reference --seed 1        # README reference figures
    python3 perfbench/run.py --oracle-selftest           # oracles reject corrupted answers

The driver is built with CMake into .bench_build/perfbench (the mcam library
comes from the checkout's own src/ through its top-level CMakeLists.txt) and
then run. Its standard output is passed through; the last line of a workload
run is the result object. The exit code is non-zero, and no result is
printed, when the build fails or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the mcam sources (CMakeLists.txt, src/) are not next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["two-stage", "fewshot", "serve-mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true", help="self-test sizes")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--oracle-selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.reference or args.oracle_selftest):
        parser.error("one of --workload, --reference or --oracle-selftest is required")

    build()
    command = [BINARY, "--seed", str(args.seed)]
    if args.oracle_selftest:
        command = [BINARY, "--oracle-selftest"]
    elif args.reference:
        command.append("--reference")
    else:
        command += ["--workload", args.workload, "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
        if args.small:
            command.append("--small")

    # Tracing is chosen by --trace alone, never by the environment.
    env = {k: v for k, v in os.environ.items() if k not in ("MCAM_TRACE_SAMPLE", "MCAM_BENCH_JSON")}
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as expired:
        sys.stdout.write(expired.stdout or "")
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not args.workload:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        fail("the benchmark printed no result line", 1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
