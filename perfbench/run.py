#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in the library sources of the checkout) into the
directory named by $CARGO_TARGET_DIR, default .bench_build; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 iff every answer was correct.

Workloads: simon-cold, sr-cold, sr-sweep, service-mix (see
perfbench/src/workload_*.cpp and BENCHMARK.json for why each exists).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                         text=True)
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.exit("perfbench: no result line")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
