#!/usr/bin/env python3
"""Builds and runs the single-process PAST benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload small_hot --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the PAST libraries from src/) into
$CARGO_TARGET_DIR, default .bench_build, runs one workload, and prints the
benchmark's metric table followed by one JSON line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1, its per_layer list (and the spans go to
<build dir>/traces/<workload>-<seed>.jsonl). Exits non-zero when the build
fails, a metric is missing, or any output, decorator or determinism check
failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
RESULT_TAG = "PERFBENCH_RESULT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("PAST sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-%d.jsonl" % (args.workload, args.seed))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # The binary wipes its state on every exit it survives; this covers
        # the rest (a crash or the timeout kill).
        shutil.rmtree(work_dir, ignore_errors=True)

    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            raw = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if raw is None:
        fail("the benchmark printed no result (exit code %d)" % proc.returncode)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    correct = bool(raw["correct"]) and proc.returncode == 0
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            print("perfbench: metric %s missing" % m["name"], file=sys.stderr)
            correct = False
            continue
        if got["unit"] != m["unit"]:
            print("perfbench: metric %s has unit %s, BENCHMARK.json says %s"
                  % (m["name"], got["unit"], m["unit"]), file=sys.stderr)
            correct = False
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
