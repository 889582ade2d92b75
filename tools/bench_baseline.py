#!/usr/bin/env python3
"""Records the repo's hot-path perf trajectory into BENCH_*.json.

Three suites:
  core    - the pinned-seed select microbenches of bench_micro (the
            BM_*PaperScale / BM_GreedyGainInit / BM_LabelPostsInRange /
            BM_InstanceBuild entries), its text front-end benches
            (BM_Tokenize / BM_SimHash / BM_NearDuplicateTweetStream)
            plus the Figure 13 end-to-end timing bench, written to
            BENCH_core.json with the tenant suite's host block
            (hardware threads, kernel tier, compiler, build type).
  stream  - the bench_stream_micro per-arrival replay benches at the
            Figure 14-15 paper scale (optimized processors side by
            side with their pre-overhaul references, plus the
            deadline-fire and batch-solve heavy regimes), written to
            BENCH_stream.json with the opt-vs-ref speedups computed
            and the same host block as core and tenant.
  gap     - the bench_gap certified-gap sweeps (gap vs lambda at seeds
            11-13, gap vs |L| at seed 11, fixed 20k-node budget),
            written to BENCH_gap.json. Unlike the timing suites these
            numbers are deterministic: the branch-and-bound
            certificate at a fixed node budget is a pure function of
            the seed, so the artifact is machine-independent.
  tenant  - the bench_tenant multi-tenant fan-out sweep (shared scan
            tier and cluster tier at 1k/10k/100k concurrent label-set
            profiles, Figure 14-15 arrival regime), written to
            BENCH_tenant.json with the per-post cost growth ratio —
            the sublinearity evidence — computed per algorithm.
  serve   - the bench_serve overload drill (in-process daemon, open-
            loop arrivals at 1x/10x/100x of the base rate against a
            2 ms service floor), written to BENCH_serve.json with
            per-rate shed counts, goodput, and client-side latency
            percentiles. The service floor makes the shed pattern
            machine-independent; the latency numbers are still timing.

Each suite writes one JSON document so this and future PRs can diff
the recorded numbers. Pure stdlib; no third-party deps.

Usage:
  tools/bench_baseline.py [--suite core|stream|gap|tenant|serve|all]
                          [--build-dir build] [--out BENCH_core.json]
                          [--stream-out BENCH_stream.json]
                          [--gap-out BENCH_gap.json]
                          [--tenant-out BENCH_tenant.json]
                          [--serve-out BENCH_serve.json]
                          [--sanity] [--fig13-scale 0.02]
                          [--only REGEX]   (core or stream suite)

--only re-records in place, in the suite's committed file, just the
entries whose names match REGEX (re.search); each carries its own
`revision` and `recorded_unix`, and every other entry stays as it was.

--sanity is the CI mode: it still runs every binary end to end and
validates the JSON it writes, but at the smallest workload scale and
with no repetitions, and asserts structure only — never timing
thresholds (CI machines are too noisy for that).
"""

import argparse
import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import time

MICRO_FILTER = (
    "BM_GreedySelectPaperScale|BM_ScanSelectPaperScale|"
    "BM_GreedyGainInit|BM_LabelPostsInRange|"
    "BM_InstanceBuild|BM_Kernel|BM_Tokenize$|BM_SimHash$|"
    "BM_NearDuplicateTweetStream"
)

# Required micro-bench entries: the regression trackers future PRs
# compare against. Keep in sync with bench/bench_micro.cc.
REQUIRED_MICRO = [
    "BM_GreedySelectPaperScale",
    "BM_ScanSelectPaperScale",
    "BM_GreedyGainInit",
    "BM_LabelPostsInRange",
    "BM_InstanceBuild",
    # The text front end (tokenizer, SimHash, near-duplicate filter).
    "BM_Tokenize",
    "BM_SimHash",
    "BM_NearDuplicateTweetStream",
]

# The dispatched-kernel bench (core/kernels.h). The scalar variant
# runs everywhere and is required; the /avx2 variant is recorded when
# the host can run it and silently absent otherwise (the binary
# reports it as an errored skip on non-AVX2 hardware).
KERNELS = ["ArgmaxDense"]
REQUIRED_MICRO += [f"BM_Kernel{k}/scalar" for k in KERNELS]
MICRO_FAMILIES = [name.split("/")[0] for name in REQUIRED_MICRO]


# Stream replay benches: each optimized processor paired with its
# verbatim pre-overhaul reference. Keep in sync with
# bench/bench_stream_micro.cc; the pairs drive the speedup table.
STREAM_PAIRS = [
    ("BM_StreamScanReplayPaperScale", "BM_StreamScanRefReplayPaperScale"),
    ("BM_StreamScanPlusReplayPaperScale",
     "BM_StreamScanPlusRefReplayPaperScale"),
    ("BM_StreamGreedyReplayPaperScale",
     "BM_StreamGreedyRefReplayPaperScale"),
    ("BM_StreamGreedyPlusReplayPaperScale",
     "BM_StreamGreedyPlusRefReplayPaperScale"),
    ("BM_StreamScanFireHeavy", "BM_StreamScanRefFireHeavy"),
    ("BM_StreamGreedyBatchHeavy", "BM_StreamGreedyRefBatchHeavy"),
]

REQUIRED_STREAM = [name for pair in STREAM_PAIRS for name in pair]

# Dispatch-tier replay: the paper-scale StreamGreedySC replay pinned
# to each kernel tier. Scalar is required; /avx2 is recorded when
# runnable.
STREAM_TIER_BENCHES = ["BM_StreamGreedyReplayTier"]
REQUIRED_STREAM += [f"{name}/scalar" for name in STREAM_TIER_BENCHES]


def run_benchmark_json(binary, bench_filter, sanity, required,
                       context=None):
    """Runs one google-benchmark binary and returns its entries; when
    `context` is a dict, the JSON context block is copied into it."""
    cmd = [
        binary,
        "--benchmark_filter=" + bench_filter,
        "--benchmark_format=json",
    ]
    if sanity:
        # Keep it a plain seconds value: the "<N>x" iteration syntax
        # needs a newer google-benchmark than some CI images carry.
        cmd.append("--benchmark_min_time=0.01")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    doc = json.loads(out.stdout)
    if context is not None:
        context.update(doc.get("context", {}))
    entries = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("error_occurred"):
            continue  # e.g. the /avx2 tier skipped on non-AVX2 hosts
        entries[bench["name"]] = {
            "real_time": bench["real_time"],
            "cpu_time": bench["cpu_time"],
            "time_unit": bench["time_unit"],
            "iterations": bench["iterations"],
        }
    missing = [name for name in required if name not in entries]
    if missing:
        raise SystemExit(
            f"{os.path.basename(binary)} output missing entries: {missing}")
    return entries


def benchmark_host(build_dir, binary, context):
    """The host block of a google-benchmark binary's run: hardware
    threads and the dispatched kernel tier from its JSON context (the
    same keys the tenant suite records), plus the CMake tree's compiler
    and build type."""
    if "num_cpus" not in context or "simd_tier" not in context:
        raise SystemExit(
            f"{binary} JSON context lacks num_cpus/simd_tier: {context}")
    host = {"nproc": int(context["num_cpus"]), "simd": context["simd_tier"]}
    host.update(build_info(build_dir))
    return host


def select_families(families, required, only, suite):
    """The benchmark filter and required entries for the families whose
    names `only` matches (re.search; a tiered bench by its family name,
    so all its tiers run)."""
    families = [name for name in families if re.search(only, name)]
    if not families:
        raise SystemExit(f"--only {only!r} matches no {suite} bench")
    required = [name for name in required if name.split("/")[0] in families]
    return "^(" + "|".join(families) + ")(/.*)?$", required


def run_micro(build_dir, sanity, only=None):
    """bench_micro's entries and its host block; with `only`, just the
    matching benches."""
    micro_filter, required = MICRO_FILTER, REQUIRED_MICRO
    if only is not None:
        micro_filter, required = select_families(
            MICRO_FAMILIES, REQUIRED_MICRO, only, "core")
    context = {}
    entries = run_benchmark_json(
        os.path.join(build_dir, "bench", "bench_micro"), micro_filter,
        sanity, required, context)
    return entries, benchmark_host(build_dir, "bench_micro", context)


def run_stream_micro(build_dir, sanity, only=None):
    """bench_stream_micro's entries and its host block; with `only`,
    just the matching benches."""
    families = ([name for pair in STREAM_PAIRS for name in pair]
                + STREAM_TIER_BENCHES)
    stream_filter, required = select_families(
        families, REQUIRED_STREAM, only if only is not None else "", "stream")
    context = {}
    entries = run_benchmark_json(
        os.path.join(build_dir, "bench", "bench_stream_micro"),
        stream_filter, sanity, required, context)
    return entries, benchmark_host(build_dir, "bench_stream_micro", context)


def stream_speedups(entries):
    """Reference real_time / optimized real_time, per optimized bench."""
    speedups = {}
    for optimized, reference in STREAM_PAIRS:
        opt_time = entries[optimized]["real_time"]
        ref_time = entries[reference]["real_time"]
        speedups[optimized] = (
            round(ref_time / opt_time, 3) if opt_time > 0 else None)
    return speedups


# One Figure 13 table row: lambda followed by the three per-post
# timings and the two cover sizes (see bench/bench_fig13_time_mqdp.cc).
ROW_RE = re.compile(
    r"^\s*(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(\d+)\s+(\d+)\s*$"
)


def run_fig13(build_dir, scale):
    binary = os.path.join(build_dir, "bench", "bench_fig13_time_mqdp")
    env = dict(os.environ, MQD_BENCH_SCALE=str(scale))
    start = time.monotonic()
    out = subprocess.run([binary], check=True, capture_output=True,
                         text=True, env=env)
    elapsed = time.monotonic() - start
    sections = []
    current = None
    for line in out.stdout.splitlines():
        header = re.match(r"^--- \|L\| = (\d+) ---$", line.strip())
        if header:
            current = {"num_labels": int(header.group(1)), "rows": []}
            sections.append(current)
            continue
        row = ROW_RE.match(line)
        if row and current is not None:
            current["rows"].append({
                "lambda_s": int(row.group(1)),
                "scan_us_per_post": float(row.group(2)),
                "scan_plus_us_per_post": float(row.group(3)),
                "greedy_us_per_post": float(row.group(4)),
                "scan_cover": int(row.group(5)),
                "greedy_cover": int(row.group(6)),
            })
    if not sections or any(not s["rows"] for s in sections):
        raise SystemExit("could not parse bench_fig13_time_mqdp output")
    return {"scale": scale, "wall_seconds": round(elapsed, 3),
            "sections": sections}


# One bench_gap lambda-sweep row: lambda, seed, posts, lower, upper,
# gap, proven (see bench/bench_gap.cc).
GAP_LAMBDA_RE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+([01])\s*$")
# One |L|-sweep row: labels, posts, lower, upper, gap, proven.
GAP_LABELS_RE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+([01])\s*$")


def run_gap(build_dir, sanity):
    binary = os.path.join(build_dir, "bench", "bench_gap")
    env = dict(os.environ)
    if sanity:
        # Shrink the node budget; structure (row counts, columns) is
        # identical, only the certified numbers weaken.
        env["MQD_BENCH_SCALE"] = "0.02"
    start = time.monotonic()
    out = subprocess.run([binary], check=True, capture_output=True,
                         text=True, env=env)
    elapsed = time.monotonic() - start
    section = None
    vs_lambda, vs_labels = [], []
    for line in out.stdout.splitlines():
        stripped = line.strip()
        if stripped.startswith("--- certified gap vs lambda"):
            section = "lambda"
            continue
        if stripped.startswith("--- certified gap vs |L|"):
            section = "labels"
            continue
        if section == "lambda":
            row = GAP_LAMBDA_RE.match(line)
            if row:
                vs_lambda.append({
                    "lambda_s": int(row.group(1)),
                    "seed": int(row.group(2)),
                    "posts": int(row.group(3)),
                    "lower_bound": int(row.group(4)),
                    "upper_bound": int(row.group(5)),
                    "gap": int(row.group(6)),
                    "proven_optimal": row.group(7) == "1",
                })
        elif section == "labels":
            row = GAP_LABELS_RE.match(line)
            if row:
                vs_labels.append({
                    "num_labels": int(row.group(1)),
                    "posts": int(row.group(2)),
                    "lower_bound": int(row.group(3)),
                    "upper_bound": int(row.group(4)),
                    "gap": int(row.group(5)),
                    "proven_optimal": row.group(6) == "1",
                })
    if len(vs_lambda) != 15 or len(vs_labels) != 5:
        raise SystemExit(
            f"could not parse bench_gap output: {len(vs_lambda)} lambda "
            f"rows (want 15), {len(vs_labels)} label rows (want 5)")
    return {"wall_seconds": round(elapsed, 3), "gap_vs_lambda": vs_lambda,
            "gap_vs_labels": vs_labels}


def write_gap(args):
    gap = run_gap(args.build_dir, args.sanity)
    doc = {
        "schema": "mqd-bench-gap/1",
        "revision": git_revision(),
        "recorded_unix": int(time.time()),
        "sanity_mode": args.sanity,
        "workload": {
            "gap": "bench_gap certified B&B gaps on the golden "
                   "generator config (30 min @ 20 posts/min, overlap "
                   "1.4); 20k-node deterministic budget at scale 1",
        },
        "bench_gap": gap,
    }

    with open(args.gap_out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    reread = json.load(open(args.gap_out))
    rows = reread["bench_gap"]
    assert len(rows["gap_vs_lambda"]) == 15
    assert len(rows["gap_vs_labels"]) == 5
    for row in rows["gap_vs_lambda"] + rows["gap_vs_labels"]:
        assert row["lower_bound"] <= row["upper_bound"], row
        assert row["gap"] == row["upper_bound"] - row["lower_bound"], row
    mean_gap = sum(r["gap"] for r in rows["gap_vs_lambda"]) / 15.0
    print(f"wrote {args.gap_out}: 15 lambda rows + 5 label rows, mean "
          f"lambda-sweep gap {mean_gap:.1f} (revision "
          f"{reread['revision']})")


# One bench_tenant table row: algo, tenants, clusters, per-post
# microseconds, shared-tier hit rate, per-derive microseconds (see
# bench/bench_tenant.cc).
TENANT_ROW_RE = re.compile(
    r"^\s*([\w+]+)\s+(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+"
    r"([\d.]+)\s*$")

# bench_tenant's header line: hardware threads and the dispatched
# kernel tier of the recording process.
TENANT_HOST_RE = re.compile(
    r"hardware threads: (\d+); SIMD tier: (\w+)")

# {algo} x {tenants} grid the bench sweeps.
TENANT_ROWS_EXPECTED = 2 * 3


def build_info(build_dir):
    """Compiler and build type of the CMake tree the benches came from."""
    info = {"compiler": "unknown", "build_type": "unknown"}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    info["build_type"] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    compiler = {}
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            for line in f:
                m = re.match(
                    r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)',
                    line)
                if m:
                    compiler[m.group(1)] = m.group(2)
    if compiler:
        info["compiler"] = " ".join(
            compiler[k] for k in ("ID", "VERSION") if k in compiler)
    return info


def run_tenant(build_dir, sanity):
    binary = os.path.join(build_dir, "bench", "bench_tenant")
    env = dict(os.environ)
    if sanity:
        # Shrink the replayed stream; the tenant counts — the variable
        # under test — stay at the full 1k/10k/100k sweep.
        env["MQD_BENCH_SCALE"] = "0.02"
    start = time.monotonic()
    out = subprocess.run([binary], check=True, capture_output=True,
                         text=True, env=env)
    elapsed = time.monotonic() - start
    rows = []
    for line in out.stdout.splitlines():
        row = TENANT_ROW_RE.match(line)
        if row:
            rows.append({
                "algo": row.group(1),
                "tenants": int(row.group(2)),
                "clusters": int(row.group(3)),
                "per_post_us": float(row.group(4)),
                "shared_hit_rate": float(row.group(5)),
                "derive_us": float(row.group(6)),
            })
    host = TENANT_HOST_RE.search(out.stdout)
    if len(rows) != TENANT_ROWS_EXPECTED or host is None:
        raise SystemExit(
            f"could not parse bench_tenant output: {len(rows)} rows "
            f"(want {TENANT_ROWS_EXPECTED}), host line "
            f"{'found' if host else 'missing'}\n{out.stdout}")
    return ({"wall_seconds": round(elapsed, 3), "rows": rows},
            {"nproc": int(host.group(1)), "simd": host.group(2)})


def write_tenant(args):
    tenant, host = run_tenant(args.build_dir, args.sanity)
    host.update(build_info(args.build_dir))
    rows = tenant["rows"]
    # Per-post cost growth over the tenant sweep, per algorithm: the
    # headline sublinearity number (tenants grow 100x).
    growth = {}
    for algo in sorted({r["algo"] for r in rows}):
        sweep = sorted((r for r in rows if r["algo"] == algo),
                       key=lambda r: r["tenants"])
        growth[algo] = {
            "tenant_ratio": round(sweep[-1]["tenants"] / sweep[0]["tenants"]),
            "per_post_cost_ratio": round(
                sweep[-1]["per_post_us"] / sweep[0]["per_post_us"], 3)
            if sweep[0]["per_post_us"] > 0 else None,
        }
    doc = {
        "schema": "mqd-bench-tenant/4",
        "revision": git_revision(),
        "recorded_unix": int(time.time()),
        "sanity_mode": args.sanity,
        "host": host,
        "workload": {
            "tenant": "bench_tenant fan-out sweep at the Figure 14-15 "
                      "arrival regime (|L|=20, 118 posts/min, overlap "
                      "1.4, seed 13, lambda=tau=300s); 3-label "
                      "broad-group profiles at 1k/10k/100k tenants, "
                      "256-post replay windows, shared scan tier + "
                      "StreamGreedySC+ cluster tier; each row the "
                      "median of 5 runs on fresh engines",
        },
        "bench_tenant": tenant,
        "per_post_cost_growth": growth,
    }

    with open(args.tenant_out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    reread = json.load(open(args.tenant_out))
    rows = reread["bench_tenant"]["rows"]
    assert len(rows) == TENANT_ROWS_EXPECTED
    assert max(r["tenants"] for r in rows) >= 100_000, \
        "sweep must reach 100k concurrent profiles"
    for key in ("nproc", "simd", "compiler", "build_type"):
        assert key in reread["host"], key
    for algo, g in reread["per_post_cost_growth"].items():
        # Structure always; the sublinearity threshold only outside
        # --sanity (CI timing is too noisy to gate on). A generous 10x
        # margin against the 100x tenant ratio: sublinear scaling sits
        # near 1x, a per-tenant cost would sit at 100x.
        assert g["per_post_cost_ratio"] is not None, algo
        if not args.sanity:
            assert g["per_post_cost_ratio"] < g["tenant_ratio"] / 10.0, (
                algo, g)
    summary = ", ".join(
        f"{algo}={g['per_post_cost_ratio']}x" for algo, g in
        sorted(reread["per_post_cost_growth"].items()))
    print(f"wrote {args.tenant_out}: {len(rows)} rows; per-post cost "
          f"growth over a 100x tenant increase: {summary} (revision "
          f"{reread['revision']})")


# One bench_serve table row: rate multiplier, request/outcome counts,
# goodput, client-side latency percentiles per lane, wall seconds
# (see bench/bench_serve.cc).
SERVE_ROW_RE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+"
    r"([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*$")

SERVE_RATES_EXPECTED = [1, 10, 100]


def run_serve(build_dir, sanity):
    binary = os.path.join(build_dir, "bench", "bench_serve")
    env = dict(os.environ)
    if sanity:
        # Shrink the per-rate duration; the rates — the variable under
        # test — stay at the full 1x/10x/100x sweep. The binary skips
        # its own shed-contract MQD_CHECKs below full scale.
        env["MQD_BENCH_SCALE"] = "0.02"
    start = time.monotonic()
    out = subprocess.run([binary], check=True, capture_output=True,
                         text=True, env=env)
    elapsed = time.monotonic() - start
    rows = []
    for line in out.stdout.splitlines():
        row = SERVE_ROW_RE.match(line)
        if row:
            rows.append({
                "rate_x": int(row.group(1)),
                "requests": int(row.group(2)),
                "admitted": int(row.group(3)),
                "completed": int(row.group(4)),
                "shed_stream": int(row.group(5)),
                "shed_batch": int(row.group(6)),
                "pre_degraded": int(row.group(7)),
                "goodput_rps": float(row.group(8)),
                "stream_p50_ms": float(row.group(9)),
                "stream_p99_ms": float(row.group(10)),
                "batch_p50_ms": float(row.group(11)),
                "batch_p99_ms": float(row.group(12)),
                "wall_s": float(row.group(13)),
            })
    if [r["rate_x"] for r in rows] != SERVE_RATES_EXPECTED:
        raise SystemExit(
            f"could not parse bench_serve output: rates "
            f"{[r['rate_x'] for r in rows]} (want {SERVE_RATES_EXPECTED})"
            f"\n{out.stdout}")
    return {"wall_seconds": round(elapsed, 3), "rows": rows}


def write_serve(args):
    serve = run_serve(args.build_dir, args.sanity)
    doc = {
        "schema": "mqd-bench-serve/1",
        "revision": git_revision(),
        "recorded_unix": int(time.time()),
        "sanity_mode": args.sanity,
        "workload": {
            "serve": "bench_serve overload drill: in-process daemon "
                     "(2 workers, 2 ms service floor, batch cap 16, "
                     "stream cap 8192, 100 ms budget), open-loop "
                     "arrivals at 1x/10x/100x of 16 req/s, every 4th "
                     "request a stream-lane feed",
        },
        "bench_serve": serve,
    }

    with open(args.serve_out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    reread = json.load(open(args.serve_out))
    rows = reread["bench_serve"]["rows"]
    assert [r["rate_x"] for r in rows] == SERVE_RATES_EXPECTED
    for r in rows:
        # Accounting always holds, at any scale: every request is
        # admitted or shed, every admitted request is answered.
        assert r["admitted"] + r["shed_stream"] + r["shed_batch"] \
            == r["requests"], r
        assert r["completed"] <= r["admitted"], r
    if not args.sanity:
        # The shed contract is deterministic at full scale (the
        # service floor sets capacity; the rates straddle it) — the
        # binary already MQD_CHECKs it, re-asserted here on the JSON.
        for r in rows:
            if r["rate_x"] <= 10:
                assert r["shed_stream"] + r["shed_batch"] == 0, r
            else:
                assert r["shed_batch"] > 0 and r["shed_stream"] == 0, r
                assert r["batch_p99_ms"] <= 100.0, r
    overload = rows[-1]
    print(f"wrote {args.serve_out}: rates {SERVE_RATES_EXPECTED}; at "
          f"{overload['rate_x']}x: {overload['shed_batch']} batch sheds, "
          f"{overload['shed_stream']} stream sheds, batch p99 "
          f"{overload['batch_p99_ms']} ms (revision {reread['revision']})")


def git_revision():
    """The tree the numbers come from: the short HEAD commit, plus
    `+<first 12 hex digits of sha256(git diff HEAD)>` when tracked
    files differ from HEAD. An artifact recorded before its commit so
    names its own tree, not the parent's."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "HEAD"], check=True,
            capture_output=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if not diff:
        return head
    return head + "+" + hashlib.sha256(diff).hexdigest()[:12]


def write_core(args, scale):
    if args.only is not None:
        micro, host = run_micro(args.build_dir, False, args.only)
        doc = rerecord(args.out, "bench_micro", micro, host)
    else:
        doc = fresh_core_doc(args, scale)
        micro = doc["bench_micro"]

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    # Round-trip validation: the artifact must parse and carry every
    # required family, in sanity mode and full mode alike.
    reread = json.load(open(args.out))
    for name in REQUIRED_MICRO:
        assert name in reread["bench_micro"], name
    for key in ("nproc", "simd", "compiler", "build_type"):
        assert key in reread["host"], key
    assert reread["fig13"]["sections"], "fig13 sections empty"
    print(f"wrote {args.out}: recorded {len(micro)} of "
          f"{len(reread['bench_micro'])} microbench entries, "
          f"{len(reread['fig13']['sections'])} fig13 sections (revision "
          f"{git_revision()})")


def fresh_core_doc(args, scale):
    """A whole BENCH_core.json document from one run of every bench."""
    micro, host = run_micro(args.build_dir, args.sanity)
    return {
        "schema": "mqd-bench-core/1",
        "revision": git_revision(),
        "recorded_unix": int(time.time()),
        "sanity_mode": args.sanity,
        "host": host,
        "workload": {
            "micro": "bench_micro paper-scale selects (|L|=20, 1h @ "
                     "118 posts/min, overlap 1.4, seed 13, lambda 60); "
                     "text front end: one tweet through Tokenize / "
                     "SimHash, and a 6h @ 600 tweets/min seed-17 "
                     "stream through a fresh NearDuplicateDetector",
            "fig13": f"bench_fig13_time_mqdp at MQD_BENCH_SCALE={scale}",
        },
        "bench_micro": micro,
        "fig13": run_fig13(args.build_dir, scale),
    }


def fresh_stream_doc(args, entries, host):
    """A whole BENCH_stream.json document around one run's entries."""
    return {
        "schema": "mqd-bench-stream/1",
        "revision": git_revision(),
        "recorded_unix": int(time.time()),
        "sanity_mode": args.sanity,
        "host": host,
        "workload": {
            "stream": "bench_stream_micro per-arrival replays at the "
                      "Figure 14-15 paper scale (|L|=20, 1h @ 118 "
                      "posts/min, overlap 1.4, seed 13, lambda 300s, "
                      "tau 300s; fire-heavy tau=0, batch-heavy "
                      "tau=600s)",
        },
        "bench_stream": entries,
        "speedup_vs_reference": stream_speedups(entries),
    }


def rerecord(path, section, entries, host):
    """The committed document at `path` with `entries` re-recorded in
    place in its `section`. Each re-recorded entry carries its own
    `revision` and `recorded_unix`; every other entry, the file-level
    `revision` and an existing `host` block stay. A file without a host
    block gains this run's."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as err:
        raise SystemExit(f"--only re-records an existing file: {err}")
    revision = git_revision()
    recorded = int(time.time())
    for name, entry in entries.items():
        entry.update({"revision": revision, "recorded_unix": recorded})
        doc[section][name] = entry
    doc.setdefault("host", host)
    return doc


def write_stream(args):
    if args.only is not None:
        entries, host = run_stream_micro(args.build_dir, False, args.only)
        doc = rerecord(args.stream_out, "bench_stream", entries, host)
        doc["speedup_vs_reference"] = stream_speedups(doc["bench_stream"])
        recorded = sorted(entries)
    else:
        entries, host = run_stream_micro(args.build_dir, args.sanity)
        doc = fresh_stream_doc(args, entries, host)
        recorded = sorted(entries)

    with open(args.stream_out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    reread = json.load(open(args.stream_out))
    for name in REQUIRED_STREAM:
        assert name in reread["bench_stream"], name
    for optimized, _ in STREAM_PAIRS:
        assert optimized in reread["speedup_vs_reference"], optimized
    for key in ("nproc", "simd", "compiler", "build_type"):
        assert key in reread["host"], key
    summary = ", ".join(
        f"{name.removeprefix('BM_Stream')}={ratio}x"
        for name, ratio in sorted(reread["speedup_vs_reference"].items()))
    print(f"wrote {args.stream_out}: recorded {len(recorded)} of "
          f"{len(reread['bench_stream'])} stream bench entries (revision "
          f"{git_revision()}); speedups vs reference: {summary}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite",
                        choices=["core", "stream", "gap", "tenant",
                                 "serve", "all"],
                        default="all")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_core.json")
    parser.add_argument("--stream-out", default="BENCH_stream.json")
    parser.add_argument("--gap-out", default="BENCH_gap.json")
    parser.add_argument("--tenant-out", default="BENCH_tenant.json")
    parser.add_argument("--serve-out", default="BENCH_serve.json")
    parser.add_argument("--sanity", action="store_true",
                        help="CI smoke mode: minimal reps, structure-"
                             "only validation, no timing thresholds")
    parser.add_argument("--only", default=None, metavar="REGEX",
                        help="core or stream suite: re-record in place "
                             "only the entries whose names match")
    parser.add_argument("--fig13-scale", type=float, default=None,
                        help="MQD_BENCH_SCALE for the fig13 leg "
                             "(default 0.1; 0.02 in --sanity mode)")
    args = parser.parse_args()
    if args.only is not None and (args.suite not in ("core", "stream")
                                  or args.sanity):
        parser.error("--only needs --suite core or stream and no "
                     "--sanity: it re-records entries of a committed "
                     "full-scale file")

    scale = args.fig13_scale
    if scale is None:
        scale = 0.02 if args.sanity else 0.1

    if args.suite in ("core", "all"):
        write_core(args, scale)
    if args.suite in ("stream", "all"):
        write_stream(args)
    if args.suite in ("gap", "all"):
        write_gap(args)
    if args.suite in ("tenant", "all"):
        write_tenant(args)
    if args.suite in ("serve", "all"):
        write_serve(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
