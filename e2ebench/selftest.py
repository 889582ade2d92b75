#!/usr/bin/env python3
"""Smoke-scale self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Runs every workload in BENCHMARK.json at a small input scale for one
second, untraced and traced, and checks that:

  * the run exits 0 and prints a host block;
  * the last line is a result object with exactly the keys correct,
    attempted, failed and metrics, and its correctness checks passed;
  * it prints every end-to-end (untraced) or per-layer (traced) metric
    named in BENCHMARK.json, with that metric's unit and a finite value;
  * a traced run's per-layer rows add up to its measured total.

Also checks that an unknown workload is refused without a result line.
Exits 1 on the first failure.
"""
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", trace,
               "--scale", SCALE]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def check_run(workload, trace, specs):
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    host = [line for line in lines if line.startswith("host: ")]
    if not host:
        fail(f"{where}: no host block")
    block = json.loads(host[0][len("host: "):])
    for key in ("nproc", "simd", "compiler", "build_type", "revision"):
        if key not in block:
            fail(f"{where}: host block lacks {key}")

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{where}: correctness checks failed: {proc.stderr[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail(f"{where}: attempted = {result['attempted']}")
    if result["failed"] != 0:
        fail(f"{where}: failed = {result['failed']}")
    metrics = result["metrics"]
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(expected):
        fail(f"{where}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        if metric.get("unit") != expected[name]:
            fail(f"{where}: {name} unit {metric.get('unit')!r}, "
                 f"expected {expected[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {name} value {value!r}")

    if trace == "1":
        text = proc.stdout
        rows = re.search(r"sum of rows\s+([-\d.]+)", text)
        total = re.search(r"measured total\s+([-\d.]+)", text)
        if not rows or not total:
            fail(f"{where}: no per-layer table")
        rows, total = float(rows.group(1)), float(total.group(1))
        if abs(rows - total) > 0.01 * abs(total) + 1e-3:
            fail(f"{where}: per-layer rows sum to {rows}, total {total}")
    print(f"selftest: {where}: ok ({len(metrics)} metrics)")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_run(workload["name"], "0", spec["end_to_end"])
        check_run(workload["name"], "1", spec["per_layer"])

    proc = subprocess.run([str(ROOT / ".bench_build" / "mqd_e2e"),
                           "--workload", "no_such_workload", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("an unknown workload was not refused")
    print("selftest: ok")


if __name__ == "__main__":
    main()
