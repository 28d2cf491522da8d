#!/usr/bin/env python3
"""Build and run the SafeCross camera->verdict benchmark.

usage: python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
SafeCross libraries and the benchmark program from source into
.bench_build/e2ebench with CMake and the repository's own flags (-O3,
-march=native); later calls only rebuild what changed. Build output goes to
stderr. The program then runs one measurement with the SAFECROSS_* kernel
knobs unset; its last line on stdout is the JSON result, and its exit code
(0 when every check passed) is this script's.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "e2ebench-work")
RUN_TIMEOUT_S = 175
KNOBS = ("SAFECROSS_GEMM_KERNEL", "SAFECROSS_CONV_BACKEND", "SAFECROSS_SCALE")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no SafeCross sources at %s" % os.path.join(ROOT, "src"))
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            sys.exit("e2ebench: %s not found" % tool)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("e2ebench: build failed (%s)" % e)

    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    # Set-up time runs from here: process creation is part of a cold start.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
