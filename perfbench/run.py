#!/usr/bin/env python3
"""Entry point of the figure-pipeline benchmark.

Builds adsec_perfbench from the checkout's sources under .bench_build/ and
runs one workload in its own process:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: train_zoo, eval_e2e_camera, grid_modular_oracle (see NOTES.md).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics (after a printed layer table) with --trace 1.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "adsec_perfbench")
WORKLOADS = ("train_zoo", "eval_e2e_camera", "grid_modular_oracle")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quietly(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        fail("build step failed: %s" % exc)
    if proc.returncode != 0:
        fail("build step failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no adsec sources beside perfbench/ (src/CMakeLists.txt is missing)")
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        run_quietly(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", BUILD, "--target", "adsec_perfbench", "-j", jobs],
                BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns why the result line breaks the output contract, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    want = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        return "metric names differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ set(want))
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            return "metric %s has no numeric value" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0:
        fail("workload %s exited with %d" % (args.workload, proc.returncode))
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        fail(problem)
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
