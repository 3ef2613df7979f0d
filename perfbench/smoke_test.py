#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny scale.

Run from the repository root:

    python3 perfbench/smoke_test.py

It runs every workload of BENCHMARK.json untraced and traced through
perfbench/run.py, and asserts that each run passes its correctness checks
and prints every end-to-end (untraced) or per-layer (traced) metric with
the unit BENCHMARK.json gives it. It also checks that run.py fails without
printing a result when only the benchmark files are present. Exit code 0
means every check held.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.0005", "--corpus-entries", "20000", "--setups", "1"]


def run(workload, trace, cwd=ROOT, extra=TINY):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + extra
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(workload, trace, proc, expected):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"FAIL {where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {where}: {result['failed']} failed checks")
    if result["attempted"] < 1:
        sys.exit(f"FAIL {where}: nothing attempted")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        sys.exit(f"FAIL {where}: metrics {sorted(metrics)}, "
                 f"want {sorted(expected)}")
    for name, unit in expected.items():
        got = metrics[name]
        if got["unit"] != unit or not isinstance(got["value"], (int, float)):
            sys.exit(f"FAIL {where}: {name} = {got}, want unit {unit}")
    print(f"ok   {where}: {len(metrics)} metrics, "
          f"{result['attempted']} operations checked")


def check_refuses_without_sources():
    build_dir = (os.environ.get("CARGO_TARGET_DIR")
                 or os.path.join(ROOT, ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("signup", 0, cwd=bare, extra=[])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            sys.exit("FAIL: run.py succeeded without the fpsm sources")
    print("ok   run.py refuses to run without the fpsm sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check_refuses_without_sources()
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(workload, 0, run(workload, 0), end_to_end)
        check_result(workload, 1, run(workload, 1), per_layer)
    print("smoke test passed")


if __name__ == "__main__":
    main()
