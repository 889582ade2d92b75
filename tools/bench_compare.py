#!/usr/bin/env python3
"""Diffs freshly recorded BENCH_*.json timings against the committed
baselines and fails on regressions past a threshold.

Compares every entry present in both documents, prints the full ratio
table, and exits non-zero when any entry regressed by more than
--threshold (a ratio: 2.0 means "twice as bad as the committed
baseline"). Entries that exist on only one side — new benches, removed
benches, /avx2 tiers absent on the current host — are reported but
never fail the run.

Every file has the one schema tools/bench_baseline.py writes
("mqd-bench/1"): each entry carries the number compared here (lower is
better, timings normalized to nanoseconds), and an entry whose value is
null (the Figure 13 rows) is recorded but not compared. A file without
a host block, or with an entry that has no revision, is refused: the
numbers would have no provenance. The certified gaps
(gap/lambda={l}/seed={s}, gap/labels={n}) are deterministic at a fixed
node budget, so when baseline and current used the same budget any
ratio other than 1.00 is a real certificate change. A gap of zero on
both sides compares as 1.0 (proven-optimal rows stay comparable); zero
only on the baseline side is an infinite regression.

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

SCHEMA = "mqd-bench/1"


def load_entries(path):
    """The compared entries of one BENCH_*.json as {name: (value,
    unit)}, and its sanity mode."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: schema {doc.get('schema')!r}, want "
                         f"{SCHEMA!r}")
    if not doc.get("host"):
        raise SystemExit(f"{path}: no host block")
    entries = {}
    for name, entry in doc["entries"].items():
        if not entry.get("revision"):
            raise SystemExit(f"{path}: entry {name} has no revision")
        if entry["value"] is not None:
            entries[name] = (entry["value"], entry["unit"])
    if not entries:
        raise SystemExit(f"{path}: no comparable entries")
    return entries, doc["sanity_mode"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", help="freshly recorded BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="max allowed ratio current/baseline "
                             "(default 3.0: a catastrophic-regression "
                             "tripwire for noisy CI runners)")
    args = parser.parse_args()

    base, _ = load_entries(args.baseline)
    cur, cur_sanity = load_entries(args.current)
    if cur_sanity:
        print("note: current recording is --sanity mode (shortest runs); "
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
