#!/usr/bin/env python3
"""Build and run the campaign benchmark from the root of a checkout.

    python3 campaign_bench/run.py --workload bulk_wal|fleet_10k|live_relay \
        --seed N --seconds S --trace 0|1

Builds campaign_bench (CMake, Release) into .bench_build/campaign_bench,
runs it in a fresh directory under .bench_build, removes that directory,
and passes the binary's stdout through: its last line is the JSON result.
Traced runs also leave the last campaign's spans in
.bench_build/traces/<workload>.jsonl. Build output goes to stderr. Exits
non-zero, without a result, when the library sources are missing or the
build fails; exits non-zero after the result when the run was not correct.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "campaign_bench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "ldp.h")):
        fail("library sources (src/) not found; run from a repository checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(command))
    return os.path.join(BUILD_DIR, "campaign_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["bulk_wal", "fleet_10k", "live_relay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    run_dir = os.path.join(BUILD_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}.jsonl")]
    try:
        done = subprocess.run(command, cwd=run_dir, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # Passed through either way: a run whose correctness gate failed prints
    # its result ("correct": false) and then exits non-zero.
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")


if __name__ == "__main__":
    main()
