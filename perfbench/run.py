#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds (incrementally) and runs one workload of
smache_perfbench; NAME is paper_stream, feature_matrix, many_small, or all.
The last line of standard output is the benchmark's JSON result. The second
form builds and runs the benchmark's own tests.

Everything is built under .bench_build/perfbench in the repository root, a
Release CMake build of the library layers and the benchmark only. Build
output goes to standard error, so standard output carries only results.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(targets):
    for needed in ("CMakeLists.txt", "src", "cmake", "third_party"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found in {ROOT}; the benchmark "
                     "builds the simulator from the repository around it")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    for target in targets:
        cmd += ["--target", target]
    subprocess.run(cmd, stdout=sys.stderr, check=True)


def main(argv):
    try:
        if argv == ["--self-test"]:
            build(["perfbench_tests"])
            return subprocess.run(
                [os.path.join(BUILD, "perfbench_tests")]).returncode
        build(["smache_perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([os.path.join(BUILD, "smache_perfbench")] + argv,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
