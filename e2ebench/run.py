#!/usr/bin/env python3
"""Build and run the libmqd end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload posts_text --seed 1 --seconds 20 --trace 0

The first run configures and builds `mqd_e2e` (the library from src/
plus the benchmark sources in e2ebench/src) into .bench_build/ at the
repository root; later runs reuse that build. The stdout of mqd_e2e is
passed through unchanged, so its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "mqd_e2e"
WORKLOADS = ("posts_text", "posts_fanout", "serve_mixed")


def revision():
    """The git revision of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Configures and builds mqd_e2e; returns False on failure. Build
    output goes to stderr so stdout stays that of mqd_e2e."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "mqd_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier in (0, 1] for smoke runs")
    args = parser.parse_args()

    if not build():
        print("error: building mqd_e2e failed", file=sys.stderr)
        return 1
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scale", str(args.scale),
               "--revision", revision()]
    run = subprocess.run(command, stdout=subprocess.PIPE)
    if run.returncode != 0:
        sys.stderr.write(run.stdout.decode())
        print(f"error: mqd_e2e exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
