#!/usr/bin/env python3
"""Build the fusion library and the benchmark program, then run one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload resident --seed 1 --seconds 25 --trace 0

The build lands in .bench_build/perfbench (configure once, incremental after
that); scratch cube files go to .bench_build/perfbench/work and are removed
when the run ends. Build output goes to stderr, so the last line on stdout is
the JSON result. Exits non-zero, without a result, when the build
fails (for example when the repository sources are absent).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    return subprocess.run([BINARY, *sys.argv[1:], "--workdir", WORK]).returncode


if __name__ == "__main__":
    sys.exit(main())
