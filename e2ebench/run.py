#!/usr/bin/env python3
"""Repo benchmark entry point: build e2ebench/ from source, run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload serve_paper --seed 1 --seconds 10 --trace 0

The first run configures and compiles the hdc library plus the e2e_bench
benchmark binary into .bench_build/e2ebench (a few minutes on one core, ~30 s on
four); later runs only re-check the build. The binary's comment lines are
passed through, and the run ends with its JSON result line once run.py has
checked that the metric names and units match BENCHMARK.json. Exit code 0
only when the build, every correctness check and that comparison succeed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_bench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental build; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    """name -> unit of every metric BENCHMARK.json expects for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    seed = reference["default_seed"] if args.seed is None else args.seed
    expected = expected_metrics(args.trace == 1)
    build()

    workdir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    recorded = reference.get(args.workload, {}).get("cv_accuracy")
    if recorded is not None and seed == reference["default_seed"]:
        command += ["--expect-cv-accuracy", repr(recorded)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(run.stdout, end="")
        fail(f"{args.workload} printed no result line (exit code {run.returncode})")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        fail(f"metrics/units differ from BENCHMARK.json: got {units}, want {expected}")
    print("\n".join(lines))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
