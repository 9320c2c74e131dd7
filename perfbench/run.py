#!/usr/bin/env python3
"""Build and run the in-situ pipeline benchmark.

    python3 perfbench/run.py --workload clover_insitu --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout. The benchmark compiles the library
from src/ together with perfbench/src into .bench_build/perfbench
(incremental after the first run), runs one workload for --seconds,
streams its report, and prints as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; the traced run also writes a Chrome trace to
.bench_build/perfbench/run/<workload>.trace.json, which this script
parses before it reports.

    python3 perfbench/run.py --test

builds and runs the benchmark's equivalence tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(BUILD, "run")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configure once, then build @p target incrementally."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def trace_ok(path):
    """The trace parses and holds properly nested complete events."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    spans = [e for e in events if e.get("ph") == "X"]
    return bool(spans) and all(e["dur"] >= 0 and e["args"]["self_us"] >=
                               -1e-3 for e in spans)


def run_tests():
    build("perfbench_tests")
    exe = os.path.join(BUILD, "perfbench_tests")
    sys.exit(subprocess.run([exe], cwd=ROOT).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the equivalence tests")
    args = parser.parse_args()
    if args.test:
        run_tests()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = contract()
    names = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload,
                                               ", ".join(names)))
    build("insitu_bench")

    os.makedirs(SCRATCH, exist_ok=True)
    trace_path = os.path.join(SCRATCH, args.workload + ".trace.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    cmd = [os.path.join(BUILD, "insitu_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--scratch", SCRATCH,
           "--trace-out", trace_path]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              universal_newlines=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with %d" % done.returncode)
    print("\n".join(lines[:-1]))
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from the report" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s reported in %s, declared in %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    attempted = int(report["attempted"])
    failed = int(report["failed"])
    if args.trace:
        attempted += 1
        if not trace_ok(trace_path):
            print("perfbench: trace %s does not parse" % trace_path,
                  file=sys.stderr)
            failed += 1
    print(json.dumps({"correct": bool(report["correct"]) and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
