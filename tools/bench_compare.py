#!/usr/bin/env python3
"""Diffs freshly recorded BENCH_*.json timings against the committed
baselines and fails on regressions past a threshold.

Compares every entry present in both documents, prints the full ratio
table, and exits non-zero when any entry regressed by more than
--threshold (a ratio: 2.0 means "twice as bad as the committed
baseline"). Entries that exist on only one side — new benches, removed
benches, /avx2 tiers absent on the current host — are reported but
never fail the run.

All five artifact schemas are understood:
  core/stream - google-benchmark entries, compared by cpu_time
                normalized to nanoseconds;
  tenant      - the fan-out grid rows, compared by per-post cost
                (keyed tenant/{algo}/tenants={n});
  gap         - the certified lower/upper gaps, compared by gap size
                (keyed gap/lambda={l}/seed={s} and gap/labels={n}).
                These are deterministic at a fixed node budget, so
                when baseline and current used the same budget any
                ratio other than 1.00 is a real certificate change;
  serve       - the overload-drill rows, compared by client-side p99
                latency per lane (serve/rate={r}/{lane}_p99_ms) and
                by time per completed request (serve/rate={r}/
                ns_per_completed — goodput inverted so that, like
                every other entry, a bigger ratio is a regression).
A gap of zero on both sides compares as 1.0 (proven-optimal rows stay
comparable); zero only on the baseline side is an infinite regression.

The default threshold is deliberately loose: CI runners are noisy and
the sanity-mode recordings use minimal repetitions, so this gate is a
catastrophic-regression tripwire (an accidentally disabled kernel
tier, a quadratic slip), not a micro-regression detector. Tighten it
for local runs on a quiet machine:

  tools/bench_baseline.py --suite core --out /tmp/core.json
  tools/bench_compare.py BENCH_core.json /tmp/core.json --threshold 1.3

Pure stdlib; no third-party deps.
"""

import argparse
import json
import sys

# cpu_time multipliers into nanoseconds.
UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_entries(path):
    """Flattens one BENCH_*.json into {name: (value, display_unit)}."""
    with open(path) as f:
        doc = json.load(f)
    entries = {}
    for family in ("bench_micro", "bench_stream"):
        for name, row in doc.get(family, {}).items():
            unit = row.get("time_unit", "ns")
            if unit not in UNITS:
                raise SystemExit(f"{path}: {name}: unknown time unit "
                                 f"'{unit}'")
            entries[name] = (row["cpu_time"] * UNITS[unit], "ns")
    for row in doc.get("bench_tenant", {}).get("rows", []):
        name = f"tenant/{row['algo']}/tenants={row['tenants']}"
        entries[name] = (row["per_post_us"] * UNITS["us"], "ns")
    for row in doc.get("bench_serve", {}).get("rows", []):
        prefix = f"serve/rate={row['rate_x']}"
        entries[f"{prefix}/stream_p99_ms"] = (
            row["stream_p99_ms"] * UNITS["ms"], "ns")
        entries[f"{prefix}/batch_p99_ms"] = (
            row["batch_p99_ms"] * UNITS["ms"], "ns")
        if row.get("goodput_rps", 0) > 0:
            entries[f"{prefix}/ns_per_completed"] = (
                1e9 / row["goodput_rps"], "ns")
    gap_doc = doc.get("bench_gap", {})
    for row in gap_doc.get("gap_vs_lambda", []):
        name = f"gap/lambda={row['lambda_s']}/seed={row['seed']}"
        entries[name] = (float(row["gap"]), "")
    for row in gap_doc.get("gap_vs_labels", []):
        entries[f"gap/labels={row['num_labels']}"] = (
            float(row["gap"]), "")
    if not entries:
        raise SystemExit(f"{path}: no comparable entries (expected "
                         f"bench_micro/bench_stream/bench_tenant/"
                         f"bench_gap/bench_serve)")
    return entries, doc.get("sanity_mode", False)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", help="freshly recorded BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="max allowed cpu_time ratio current/baseline "
                             "(default 3.0: a catastrophic-regression "
                             "tripwire for noisy CI runners)")
    args = parser.parse_args()

    base, _ = load_entries(args.baseline)
    cur, cur_sanity = load_entries(args.current)
    if cur_sanity:
        print("note: current recording is --sanity mode (minimal reps); "
              "ratios are noisy by construction")

    regressed = []
    width = max(len(n) for n in sorted(set(base) | set(cur)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"ratio")
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            value, unit = base[name]
            print(f"{name:<{width}}  {value:>10.0f}{unit:2}  "
                  f"{'absent':>12}  (removed or not run here; ok)")
            continue
        if name not in base:
            value, unit = cur[name]
            print(f"{name:<{width}}  {'absent':>12}  "
                  f"{value:>10.0f}{unit:2}  (new; ok)")
            continue
        base_value, unit = base[name]
        cur_value, _ = cur[name]
        if base_value == 0 and cur_value == 0:
            ratio = 1.0  # e.g. proven-optimal gap rows on both sides
        elif base_value == 0:
            ratio = float("inf")
        else:
            ratio = cur_value / base_value
        flag = ""
        if ratio > args.threshold:
            regressed.append((name, ratio))
            flag = f"  REGRESSED (> {args.threshold}x)"
        print(f"{name:<{width}}  {base_value:>10.0f}{unit:2}  "
              f"{cur_value:>10.0f}{unit:2}  {ratio:5.2f}x{flag}")

    if regressed:
        print(f"\n{len(regressed)} benchmark(s) regressed past "
              f"{args.threshold}x:", file=sys.stderr)
        for name, ratio in regressed:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\nall shared entries within {args.threshold}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
