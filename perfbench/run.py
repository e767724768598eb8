#!/usr/bin/env python3
"""Builds the TradeFL benchmark from source and runs one workload.

usage (from the repository root):
    python3 perfbench/run.py --workload settle|cgbd --seed N \
        --seconds S --trace 0|1

The benchmark package (perfbench/CMakeLists.txt) compiles the tradefl
libraries from ../src into .bench_build/. Every invocation brings that build
up to date, runs the benchmark's self-tests, then runs the workload. Build
and self-test output go to stderr; the workload's stdout passes through, so
its last line is the result object.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "tflbench", "tflbench_selftest"],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as failure:
        print(f"perfbench: build failed: {failure}", file=sys.stderr)
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "tflbench_selftest")],
                              cwd=ROOT, stdout=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return 0
    bench = subprocess.run([os.path.join(BUILD, "tflbench")] + sys.argv[1:],
                           cwd=ROOT)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
