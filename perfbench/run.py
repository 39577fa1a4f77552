#!/usr/bin/env python3
"""Builds and runs the lake benchmark from the root of a checkout.

    python3 perfbench/run.py --workload browse|discover|publish \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the mlake libraries plus the lakebench
program and its self-test) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the self-test, then runs
lakebench with the same arguments. Build output goes to stderr; the last
line of stdout is lakebench's result object. The exit status is
lakebench's, or non-zero when the build or the self-test fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(os.cpu_count() or 1)

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode

    if step(["cmake", "-S", here, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        print("run.py: configure failed", file=sys.stderr)
        return 2
    if step(["cmake", "--build", build_dir, "-j", jobs, "--target",
             "lakebench", "lakebench_selftest"]) != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    if step([os.path.join(build_dir, "lakebench_selftest")]) != 0:
        print("run.py: self-test failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "lakebench")] + sys.argv[1:] + [
        "--dir", os.path.join(build_dir, "run")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: lakebench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
