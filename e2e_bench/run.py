#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload once.

Usage (from the repository root):
  python3 e2e_bench/run.py --workload lenet_gd --seed 7 --seconds 30 --trace 0

The first call configures and builds the repository's libraries and the
bench into .bench_build/ (CMake, Ninja when available); later calls only
rebuild what changed. The run's last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (whose Chrome trace goes to
.bench_build/trace_<workload>_<seed>.json). Its metric names and units are
checked against BENCHMARK.json. Exits non-zero, without a result line, when
the build fails, the run fails a check, or the run exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                   "--parallel", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[1:])

    expected = expected_metrics(args.trace)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, f"trace_{args.workload}_{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e ran longer than {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"bench_e2e exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, unexpected "
             f"{sorted(set(got) - set(expected))}, units "
             f"{sorted(n for n in got if n in expected and got[n] != expected[n])}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
