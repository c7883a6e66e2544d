#!/usr/bin/env python3
"""Build and run the pitk benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest        # the benchmark's own unit tests

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only check the build is current.  Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result.  The exit code is
the benchmark's: 0 when every operation succeeded and every result checked
out, nonzero otherwise.  A result whose metrics are not exactly the ones
BENCHMARK.json declares for the run's --trace mode also exits nonzero.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("blocks_n6", "blocks_n48")


def build(root, build_dir, target):
    if not os.path.isfile(os.path.join(root, "src", "pitk.hpp")):
        sys.exit("perfbench: no pitk sources under %s/src; run from a checkout root" % root)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        if res.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def check_result(line, declared):
    """Problems of the result line against the declared metrics and units."""
    try:
        result = json.loads(line)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return ["the last line is not a result object"]
    problems = ["missing metric %s" % n for n in sorted(set(declared) - set(got))]
    problems += ["undeclared metric %s" % n for n in sorted(set(got) - set(declared))]
    problems += ["metric %s in %s, declared %s" % (n, got[n], declared[n])
                 for n in sorted(set(got) & set(declared)) if got[n] != declared[n]]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")

    if args.selftest:
        build(root, build_dir, "perfbench_tests")
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode

    declared = declared_metrics(root, args.trace)
    build(root, build_dir, "perfbench")
    sys.stdout.flush()
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--state-dir", os.path.join(build_dir, "state")]
    res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=175)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    lines = res.stdout.splitlines()
    problems = check_result(lines[-1] if lines else "", declared)
    for p in problems:
        print("perfbench: result does not match BENCHMARK.json: " + p, file=sys.stderr)
    return res.returncode if res.returncode != 0 or not problems else 1


if __name__ == "__main__":
    sys.exit(main())
