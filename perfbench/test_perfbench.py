#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root. Runs every workload for a shortened length
on two seeds, untraced and traced, and checks that each run passes, that
it prints every metric BENCHMARK.json declares with its unit, and that
the traced replay matched the untraced answers (a mismatch fails the
run). Then checks that the correctness check trips on a corrupted
answer, and that the benchmark refuses to run without the library
sources. Exits nonzero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (3, 4)
SECONDS = "2"
# Least share of the untraced request time the traced stages must account
# for on the closed-loop workloads.
MIN_ATTRIBUTED_SHARE = 0.95


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def fail(message, run=None):
    print("FAIL", message)
    if run is not None:
        print(run.stdout[-3000:])
        print(run.stderr[-3000:])
    sys.exit(1)


def check_run(spec, workload, seed, trace):
    run = bench("--workload", workload, "--seed", str(seed), "--seconds",
                SECONDS, "--trace", str(trace))
    label = f"{workload} seed {seed} trace {trace}"
    if run.returncode != 0:
        fail(f"{label}: exit {run.returncode}", run)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}", run)
    if (not result["correct"] or result["failed"] != 0
            or result["attempted"] < 1):
        fail(f"{label}: correct={result['correct']} failed={result['failed']}",
             run)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            printed[fields[1]] = fields[3]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            fail(f"{label}: metric {name} missing or not in {unit}", run)
        if not isinstance(got["value"], (int, float)):
            fail(f"{label}: metric {name} has no numeric value", run)
        if printed.get(name) != unit:
            fail(f"{label}: metric {name} not printed with its unit", run)
        if not trace and got["value"] == 0:
            fail(f"{label}: end-to-end metric {name} is 0", run)
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        fail(f"{label}: undeclared metrics in the result", run)
    if not trace and printed.get("failed_ratio") != "ratio":
        fail(f"{label}: failed_ratio not printed", run)
    if not trace and printed.get("max_rate_rps") != "req/s":
        fail(f"{label}: max_rate_rps not printed", run)
    if trace and workload != "server_mix":
        share = result["metrics"]["trace.attributed_share"]["value"]
        if share < MIN_ATTRIBUTED_SHARE:
            fail(f"{label}: only {share} of the request time attributed", run)
    print("ok", label)


def check_corruption_trips(workload):
    run = bench("--workload", workload, "--seed", str(SEEDS[0]), "--seconds",
                SECONDS, "--trace", "0", "--corrupt", "0")
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if run.returncode == 0 or result["correct"] or result["failed"] < 1:
        fail(f"{workload}: a corrupted answer passed the check", run)
    print("ok", workload, "corrupted answer caught")


def check_refuses_without_sources():
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(ROOT, ".bench_build")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        run = bench("--workload", "dsp_app", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        if run.returncode == 0 or '"metrics"' in run.stdout:
            fail("ran without the library sources", run)
    print("ok refuses to run without the library sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # scale_cold is not in BENCHMARK.json (see README.md) but stays tested.
    workloads = [w["name"] for w in spec["workloads"]]
    if "scale_cold" not in workloads:
        workloads.insert(0, "scale_cold")
    for workload in workloads:
        for seed in SEEDS:
            for trace in (0, 1):
                check_run(spec, workload, seed, trace)
        check_corruption_trips(workload)
    check_refuses_without_sources()
    print("all benchmark tests passed")


if __name__ == "__main__":
    main()
