#!/usr/bin/env python3
"""Builds the fpmix whole-search benchmark from source and runs it.

Run from the root of the repository:

    python3 searchbench/run.py --workload jit-mixed --seed 1 --seconds 20 --trace 0
    python3 searchbench/run.py --oracle-check

The first call configures and builds a Release tree under .bench_build/;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. All other arguments are
passed to the search_bench binary (see README.md in this directory).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "searchbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "searchbench-work")
BINARY = os.path.join(BUILD_DIR, "search_bench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: fpmix sources (src/) not found beside the benchmark")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "search_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    # A child process, not exec: the benchmark reads RUSAGE_CHILDREN, which
    # must not include the compiler processes the build just reaped.
    # Defaults first: explicit arguments given to run.py override them.
    done = subprocess.run([BINARY,
                           "--oracle", os.path.join(HERE, "switch_oracle.tsv"),
                           "--work-dir", WORK_DIR, *sys.argv[1:]])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
