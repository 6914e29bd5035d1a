#!/usr/bin/env python3
"""Builds and runs the LERA end-to-end benchmark.

    python3 perfbench/run.py --workload scale_cold|dsp_app|server_mix \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/ (the library sources in src/ plus the benchmark binary) into
.bench_build/perfbench; later runs only rebuild what changed. The
binary's output passes through unchanged: its last line is the JSON
result, and the exit code is nonzero when a build step or any
correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lera_perfbench")


def step(command, log):
    """Runs one build command, appending its output to the build log."""
    with open(log, "a") as out:
        return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode == 0


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    open(log, "w").close()
    jobs = str(min(4, os.cpu_count() or 1))
    ok = (os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) or step(
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log))
    ok = ok and step(["cmake", "--build", BUILD, "--target",
                      "lera_perfbench", "-j", jobs], log)
    if not ok:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        sys.stderr.write("perfbench: build failed\n")
    return ok


def main():
    if not build():
        return 1
    command = [BINARY] + sys.argv[1:] + [
        "--trace-dir", os.path.join(ROOT, ".bench_build", "traces"),
        "--paper-expected", os.path.join(HERE, "paper_expected.txt")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
