#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 servebench/run.py --workload lookup_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and compiles
servebench/ (which builds the library's serving path from src/) into
.bench_build/servebench; later runs rebuild incrementally. Build output goes
to standard error; the report and, as its last line, the JSON result go to
standard output. Spans of a traced run are written to
.bench_build/servebench/traces/. Exits non-zero, printing no result, when
the build fails or any check of the run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit_cold", "lookup_zipf", "tiered_churn")
# A run stays under a 180 s budget; the first run's build gets a longer one.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per checkout; a concurrent run waits here.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        commands = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            commands.append(["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        commands.append(["cmake", "--build", build_dir, "-j",
                         str(min(4, os.cpu_count() or 1)),
                         "--target", "servebench"])
        for command in commands:
            try:
                done = subprocess.run(command, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {command[:2]} did not finish: {error}")
            if done.returncode != 0:
                fail(f"build step {command[:2]} failed "
                     f"(exit {done.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.isdir(os.path.join(ROOT, "src", "interpret")):
        fail(f"library sources not found under {ROOT}/src")
    build_dir = os.path.join(ROOT, ".bench_build", "servebench")
    build(build_dir)

    scratch = os.path.join(build_dir, "runs", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    command = [os.path.join(build_dir, "servebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        # The report so far explains the failure; the result line is not
        # printed.
        sys.stderr.write("\n".join(lines) + "\n")
        fail(f"run failed (exit {done.returncode})")
    if not lines or not lines[-1].startswith("{"):
        fail("run printed no result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
