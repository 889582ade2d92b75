#!/usr/bin/env python3
"""Records the repo's benchmark trajectory into BENCH_<suite>.json.

Five suites, one file each:
  core    - bench_micro's pinned-seed select microbenches (the
            BM_*PaperScale / BM_GreedyGainInit / BM_LabelPostsInRange /
            BM_InstanceBuild entries), its dispatched kernel and its
            text front-end benches (BM_Tokenize / BM_SimHash /
            BM_NearDuplicateTweetStream), plus the Figure 13 timing
            table of bench_fig13_time_mqdp at MQD_BENCH_SCALE 0.1,
            each cell the median of FIG13_INVOCATIONS runs.
  stream  - bench_stream_micro's per-arrival replays at the Figure 14-15
            paper scale: each optimized processor beside its
            pre-overhaul reference, plus the deadline-fire and
            batch-solve heavy regimes.
  gap     - bench_gap's certified-gap sweeps (gap vs lambda at seeds
            11-13, gap vs |L| at seed 11, 20k-node budget). Unlike the
            timing suites these numbers are deterministic: the
            branch-and-bound certificate at a fixed node budget is a
            pure function of the seed.
  tenant  - bench_tenant's multi-tenant fan-out grid (shared scan tier
            and StreamGreedySC+ cluster tier at 1k/10k/100k label-set
            profiles); the per-post cost growth over the sweep is the
            sublinearity evidence. Each row carries the median and
            quartiles of per_post_us and derive_us over the bench's
            own 5 repetitions.
  serve   - bench_serve's overload drill (in-process daemon, open-loop
            arrivals at 1x/10x/100x of the base rate against a 2 ms
            service floor): shed counts, goodput, client-side latency.

The input is what the benches already emit for machines: the
google-benchmark JSON of bench_micro and bench_stream_micro, and the
CSV tables (host.csv among them) every table bench writes under
MQD_BENCH_CSV_DIR.

Every file has one schema, "mqd-bench/1":
  schema, suite, sanity_mode, workload,
  host     - nproc and simd as the bench reports them, plus the CMake
             tree's compiler and build_type;
  entries  - {name: {value, unit, revision, recorded_unix, row}}.
`value` is the one number tools/bench_compare.py compares (lower is
better) in `unit` ("ns" for timings, "" for counts); it is null for an
entry that is recorded but not compared (the Figure 13 rows). `row`
holds the fields the bench emitted for the entry. `revision` names the
tree the entry was recorded from (see git_revision).

Usage:
  tools/bench_baseline.py [--suite core|stream|gap|tenant|serve|all]
                          [--build-dir build] [--out BENCH_<suite>.json]
                          [--sanity] [--only REGEX]

--only re-records in place, in the suite's file, just the entries whose
names match REGEX (re.search); every other entry stays as it was. A
table bench runs whole; a google-benchmark binary runs the families
whose names match. It refuses a host other than the file's.

A google-benchmark entry is the median cpu_time of REPETITIONS runs
of its benchmark, so one slow phase of the host does not become the
committed number; its row holds the medians, the cpu_time quartiles
and the repetition count. A Figure 13 entry is likewise the median of
FIG13_INVOCATIONS whole runs of bench_fig13_time_mqdp: its row holds
each "<algo> us/post" column's median, its "_q1"/"_q3" quartiles, the
run-independent cover sizes and the invocation count.

--sanity is the CI mode: it still runs every binary end to end and
validates the JSON it writes, but at the smallest workload scale and
the shortest minimum time per repetition, and asserts structure only,
never timing thresholds (CI machines are too noisy for that).

Pure stdlib; no third-party deps.
"""

import argparse
import collections
import csv
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

SCHEMA = "mqd-bench/1"

# Time units into nanoseconds.
UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Runs of each google-benchmark entry; its value is their median.
REPETITIONS = 5

# Runs of bench_fig13_time_mqdp behind each fig13/ entry. One run times
# each cell once on a few thousand posts, too short for one reading to
# order the cells.
FIG13_INVOCATIONS = 5

# bench_micro families the core suite records. Keep in sync with
# bench/bench_micro.cc. The dispatched kernel's scalar tier runs
# everywhere and is required; its /avx2 tier is recorded when the host
# can run it (the binary reports it as an errored skip otherwise).
MICRO_FAMILIES = [
    "BM_GreedySelectPaperScale",
    "BM_ScanSelectPaperScale",
    "BM_GreedyGainInit",
    "BM_LabelPostsInRange",
    "BM_InstanceBuild",
    # The text front end (tokenizer, SimHash, near-duplicate filter).
    "BM_Tokenize",
    "BM_SimHash",
    "BM_NearDuplicateTweetStream",
    "BM_KernelArgmaxDense",
]

# Stream replay benches: each optimized processor paired with its
# verbatim pre-overhaul reference. Keep in sync with
# bench/bench_stream_micro.cc; the pairs drive the speedup summary.
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
# Dispatch-tier replay: the paper-scale StreamGreedySC replay pinned to
# each kernel tier; scalar is required, /avx2 recorded when runnable.
STREAM_FAMILIES = ([name for pair in STREAM_PAIRS for name in pair]
                   + ["BM_StreamGreedyReplayTier"])


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


def host_block(build_dir, nproc, simd):
    """The host block of every suite: hardware threads and dispatched
    kernel tier as the bench reported them, plus the compiler and build
    type of the CMake tree the bench came from."""
    host = {"nproc": int(nproc), "simd": simd,
            "compiler": "unknown", "build_type": "unknown"}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    host["build_type"] = line.split("=", 1)[1].strip()
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
        host["compiler"] = " ".join(
            compiler[k] for k in ("ID", "VERSION") if k in compiler)
    return host


def run(cmd, env=None):
    """Stdout of `cmd`; exits with its output when it fails (a bench's
    MQD_CHECK message is on stderr)."""
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise SystemExit(f"{cmd[0]} exited {out.returncode}\n"
                         f"{out.stdout[-4000:]}{out.stderr}")
    return out.stdout


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    return statistics.quantiles(values, n=4, method="inclusive")


def run_gbench(build_dir, binary, families, sanity, only):
    """{name: (value, unit, row)} and host of one google-benchmark
    binary, compared by the median cpu_time of REPETITIONS runs in ns;
    with `only`, just the families whose names match (none: nothing
    runs)."""
    if only is not None:
        families = [name for name in families if re.search(only, name)]
        if not families:
            return {}, None
    cmd = [os.path.join(build_dir, "bench", binary),
           "--benchmark_filter=^(" + "|".join(families) + ")(/.*)?$",
           "--benchmark_format=json",
           f"--benchmark_repetitions={REPETITIONS}"]
    if sanity:
        # Keep it a plain seconds value: the "<N>x" iteration syntax
        # needs a newer google-benchmark than some CI images carry.
        cmd.append("--benchmark_min_time=0.01")
    doc = json.loads(run(cmd))
    runs = collections.defaultdict(list)
    for bench in doc["benchmarks"]:
        # The binary's own _mean/_median/... rows are not entries.
        if bench.get("run_type") != "iteration":
            continue
        if bench.get("error_occurred"):
            continue  # e.g. the /avx2 tier skipped on non-AVX2 hosts
        runs[bench["run_name"]].append(bench)
    entries = {}
    for name, reps in runs.items():
        cpu_q1, cpu, cpu_q3 = quartiles([rep["cpu_time"] for rep in reps])
        row = {"cpu_time": cpu, "cpu_time_q1": cpu_q1,
               "cpu_time_q3": cpu_q3,
               "real_time": statistics.median(
                   rep["real_time"] for rep in reps),
               "time_unit": reps[0]["time_unit"],
               "iterations": reps[0]["iterations"],
               "repetitions": len(reps)}
        entries[name] = (cpu * UNITS[row["time_unit"]], "ns", row)
    context = doc["context"]
    return entries, host_block(build_dir, context["num_cpus"],
                               context["simd_tier"])


def typed(cell):
    """A CSV cell as the number it prints, or as text."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def run_tables(build_dir, binary, scale):
    """{artifact: rows} of the CSV tables a table bench writes, and its
    host; `scale` is its MQD_BENCH_SCALE (None: inherited)."""
    with tempfile.TemporaryDirectory() as csv_dir:
        env = dict(os.environ, MQD_BENCH_CSV_DIR=csv_dir)
        if scale is not None:
            env["MQD_BENCH_SCALE"] = str(scale)
        run([os.path.join(build_dir, "bench", binary)], env)
        tables = {}
        for path in glob.glob(os.path.join(csv_dir, "*.csv")):
            with open(path, newline="") as f:
                tables[os.path.basename(path)[:-len(".csv")]] = [
                    {key: typed(cell) for key, cell in row.items()}
                    for row in csv.DictReader(f)]
    host = tables.pop("host")[0]
    return tables, host_block(build_dir, host["hardware_threads"],
                              host["simd_tier"])


def fig13_rows(build_dir, scale):
    """{entry name: row} of FIG13_INVOCATIONS bench_fig13_time_mqdp
    runs, each timing column as its median and quartiles, and the
    host."""
    cells = collections.defaultdict(list)
    for _ in range(FIG13_INVOCATIONS):
        tables, host = run_tables(build_dir, "bench_fig13_time_mqdp", scale)
        for artifact, rows in tables.items():
            labels = artifact.removeprefix("fig13_time_L")
            for row in rows:
                cells[f"fig13/labels={labels}/lambda={row['lambda(s)']}"] \
                    .append(row)
    merged = {}
    for name, runs in cells.items():
        row = {"invocations": len(runs)}
        for key, value in runs[0].items():
            if key.endswith(" us/post"):
                q1, median, q3 = quartiles([run[key] for run in runs])
                row.update({key: median, f"{key}_q1": q1, f"{key}_q3": q3})
            else:
                # Cover sizes and lambda do not depend on the run.
                assert all(run[key] == value for run in runs), (name, key)
                row[key] = value
        merged[name] = row
    return merged, host


def core(build_dir, sanity, only):
    entries, _ = run_gbench(build_dir, "bench_micro", MICRO_FAMILIES,
                            sanity, only)
    rows, host = fig13_rows(build_dir, 0.02 if sanity else 0.1)
    for name, row in rows.items():
        # Recorded, not compared: the CI tripwire never gated on the
        # Figure 13 table, and this keeps it that way.
        entries[name] = (None, "", row)
    return entries, host


def stream(build_dir, sanity, only):
    return run_gbench(build_dir, "bench_stream_micro", STREAM_FAMILIES,
                      sanity, only)


def gap(build_dir, sanity, only):
    # Sanity shrinks the node budget: same rows, weaker certificates.
    tables, host = run_tables(build_dir, "bench_gap",
                              0.02 if sanity else None)
    entries = {}
    for row in tables["gap_vs_lambda"]:
        name = f"gap/lambda={row['lambda(s)']}/seed={row['seed']}"
        entries[name] = (row["gap"], "", row)
    for row in tables["gap_vs_labels"]:
        entries[f"gap/labels={row['labels']}"] = (row["gap"], "", row)
    return entries, host


def tenant(build_dir, sanity, only):
    # Sanity shrinks the replayed stream; the tenant counts, the
    # variable under test, stay at the full 1k/10k/100k sweep.
    tables, host = run_tables(build_dir, "bench_tenant",
                              0.02 if sanity else None)
    return {f"tenant/{row['algo']}/tenants={row['tenants']}":
            (row["per_post_us"] * UNITS["us"], "ns", row)
            for row in tables["tenant_fanout"]}, host


def serve(build_dir, sanity, only):
    # Sanity shrinks the per-rate duration; the rates stay at the full
    # 1x/10x/100x sweep. The binary MQD_CHECKs its shed contract at
    # full scale only.
    tables, host = run_tables(build_dir, "bench_serve",
                              0.02 if sanity else None)
    entries = {}
    for row in tables["serve_overload"]:
        prefix = f"serve/rate={row['rate_x']}"
        entries[f"{prefix}/stream_p99_ms"] = (
            row["stream_p99_ms"] * UNITS["ms"], "ns", row)
        entries[f"{prefix}/batch_p99_ms"] = (
            row["batch_p99_ms"] * UNITS["ms"], "ns", row)
        if row["goodput_rps"] > 0:
            # Goodput inverted so that, like every other entry, a
            # bigger value is worse.
            entries[f"{prefix}/ns_per_completed"] = (
                1e9 / row["goodput_rps"], "ns", row)
    return entries, host


def check_stream(entries, sanity):
    speedups = []
    for optimized, reference in STREAM_PAIRS:
        opt_time = entries[optimized]["row"]["real_time"]
        ref_time = entries[reference]["row"]["real_time"]
        speedups.append(f"{optimized.removeprefix('BM_Stream')}="
                        f"{round(ref_time / opt_time, 3)}x")
    return "speedups vs reference: " + ", ".join(speedups)


def check_gap(entries, sanity):
    for name, entry in entries.items():
        row = entry["row"]
        assert row["lower"] <= row["upper"], (name, row)
        assert row["gap"] == row["upper"] - row["lower"], (name, row)
    gaps = [entry["value"] for name, entry in entries.items()
            if name.startswith("gap/lambda=")]
    return f"mean lambda-sweep gap {sum(gaps) / len(gaps):.1f}"


def check_tenant(entries, sanity):
    """Per-post cost growth over the tenant sweep, per algorithm: the
    sublinearity number (tenants grow 100x)."""
    summary = []
    for algo in sorted({entry["row"]["algo"] for entry in entries.values()}):
        sweep = sorted((entry["row"] for entry in entries.values()
                        if entry["row"]["algo"] == algo),
                       key=lambda row: row["tenants"])
        for row in sweep:
            for column in ("per_post_us", "derive_us"):
                # Rows recorded before the bench reported its spread
                # have no quartiles.
                if f"{column}_q1" in row:
                    assert (row[f"{column}_q1"] <= row[column]
                            <= row[f"{column}_q3"]), (algo, row)
        tenant_ratio = sweep[-1]["tenants"] / sweep[0]["tenants"]
        assert sweep[0]["per_post_us"] > 0, (algo, sweep[0])
        cost_ratio = sweep[-1]["per_post_us"] / sweep[0]["per_post_us"]
        # The threshold only outside --sanity (CI timing is too noisy
        # to gate on). A generous 10x margin against the tenant ratio:
        # sublinear scaling sits near 1x, a per-tenant cost at 100x.
        if not sanity:
            assert cost_ratio < tenant_ratio / 10.0, (algo, cost_ratio)
        summary.append(f"{algo}={cost_ratio:.3f}x")
    return ("per-post cost growth over a 100x tenant increase: "
            + ", ".join(summary))


def check_serve(entries, sanity):
    for name, entry in entries.items():
        row = entry["row"]
        # Accounting holds at any scale: every request is admitted or
        # shed, every admitted request is answered.
        assert row["admitted"] + row["shed_stream"] + row["shed_batch"] \
            == row["requests"], (name, row)
        assert row["completed"] <= row["admitted"], (name, row)
        if sanity:
            continue
        # The shed contract is deterministic at full scale (the service
        # floor sets capacity; the rates straddle it); the binary
        # already MQD_CHECKs it, re-asserted here on the JSON.
        if row["rate_x"] <= 10:
            assert row["shed_stream"] + row["shed_batch"] == 0, (name, row)
        else:
            assert row["shed_batch"] > 0 and row["shed_stream"] == 0, \
                (name, row)
            assert row["batch_p99_ms"] <= 100.0, (name, row)
    top = entries["serve/rate=100/batch_p99_ms"]["row"]
    return (f"at 100x: {top['shed_batch']} batch sheds, "
            f"{top['shed_stream']} stream sheds, batch p99 "
            f"{top['batch_p99_ms']} ms")


Suite = collections.namedtuple("Suite", "run required check workload")

SUITES = {
    "core": Suite(
        core,
        [name for name in MICRO_FAMILIES if name != "BM_KernelArgmaxDense"]
        + ["BM_KernelArgmaxDense/scalar"]
        + [f"fig13/labels={labels}/lambda={lam}" for labels in (2, 5, 20)
           for lam in (30, 60, 300, 600, 1800)],
        lambda entries, sanity: "",
        "bench_micro paper-scale selects (|L|=20, 1h @ 118 posts/min, "
        "overlap 1.4, seed 13, lambda 60); text front end: one tweet "
        "through Tokenize / SimHash, and a 6h @ 600 tweets/min seed-17 "
        "stream through a fresh NearDuplicateDetector; "
        "bench_fig13_time_mqdp at MQD_BENCH_SCALE=0.1 (0.02 in sanity "
        "mode)"),
    "stream": Suite(
        stream,
        [name for pair in STREAM_PAIRS for name in pair]
        + ["BM_StreamGreedyReplayTier/scalar"],
        check_stream,
        "bench_stream_micro per-arrival replays at the Figure 14-15 paper "
        "scale (|L|=20, 1h @ 118 posts/min, overlap 1.4, seed 13, lambda "
        "300s, tau 300s; fire-heavy tau=0, batch-heavy tau=600s)"),
    "gap": Suite(
        gap,
        [f"gap/lambda={lam}/seed={seed}" for lam in (15, 30, 45, 60, 90)
         for seed in (11, 12, 13)]
        + [f"gap/labels={labels}" for labels in range(2, 7)],
        check_gap,
        "bench_gap certified B&B gaps on the golden generator config "
        "(30 min @ 20 posts/min, overlap 1.4); 20k-node deterministic "
        "budget at scale 1"),
    "tenant": Suite(
        tenant,
        [f"tenant/{algo}/tenants={n}"
         for algo in ("StreamScan", "StreamGreedySC+")
         for n in (1000, 10000, 100000)],
        check_tenant,
        "bench_tenant fan-out sweep at the Figure 14-15 arrival regime "
        "(|L|=20, 118 posts/min, overlap 1.4, seed 13, lambda=tau=300s); "
        "3-label broad-group profiles at 1k/10k/100k tenants, 256-post "
        "replay windows, shared scan tier + StreamGreedySC+ cluster "
        "tier; each row the median of 5 runs on fresh engines"),
    "serve": Suite(
        serve,
        [f"serve/rate={rate}/{lane}_p99_ms" for rate in (1, 10, 100)
         for lane in ("stream", "batch")],
        check_serve,
        "bench_serve overload drill: in-process daemon (2 workers, 2 ms "
        "service floor, batch cap 16, stream cap 8192, 100 ms budget), "
        "open-loop arrivals at 1x/10x/100x of 16 req/s, every 4th "
        "request a stream-lane feed"),
}


def record(name, args):
    """Runs one suite and writes its file: whole, or with --only just
    the matching entries in place."""
    suite = SUITES[name]
    out = args.out or f"BENCH_{name}.json"
    entries, host = suite.run(args.build_dir, args.sanity, args.only)
    if args.only is None:
        doc = {"schema": SCHEMA, "suite": name, "host": host,
               "sanity_mode": args.sanity, "workload": suite.workload,
               "entries": {}}
    else:
        entries = {key: entry for key, entry in entries.items()
                   if re.search(args.only, key)}
        if not entries:
            raise SystemExit(f"--only {args.only!r} matches no {name} entry")
        try:
            with open(out) as f:
                doc = json.load(f)
        except OSError as err:
            raise SystemExit(f"--only re-records an existing file: {err}")
        if doc.get("schema") != SCHEMA:
            raise SystemExit(f"{out}: schema {doc.get('schema')!r}, "
                             f"want {SCHEMA!r}")
        # One host block describes every entry of a file.
        if host != doc["host"]:
            raise SystemExit(f"--only on host {host}, but {out} was "
                             f"recorded on {doc['host']}: re-record the "
                             f"whole suite")
    revision, recorded = git_revision(), int(time.time())
    for key, (value, unit, row) in entries.items():
        doc["entries"][key] = {"value": value, "unit": unit,
                               "revision": revision,
                               "recorded_unix": recorded, "row": row}

    with open(out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    # Round-trip validation, in sanity mode and full mode alike.
    with open(out) as f:
        reread = json.load(f)
    missing = [key for key in suite.required if key not in reread["entries"]]
    assert not missing, f"{out} lacks required entries {missing}"
    for key in ("nproc", "simd", "compiler", "build_type"):
        assert key in reread["host"], key
    summary = suite.check(reread["entries"], reread["sanity_mode"])
    print(f"wrote {out}: recorded {len(entries)} of "
          f"{len(reread['entries'])} entries (revision {revision})"
          + (f"; {summary}" if summary else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default=None,
                        help="output file (default BENCH_<suite>.json)")
    parser.add_argument("--sanity", action="store_true",
                        help="CI smoke mode: shortest runs, structure-"
                             "only validation, no timing thresholds")
    parser.add_argument("--only", default=None, metavar="REGEX",
                        help="re-record in place only the entries whose "
                             "names match")
    args = parser.parse_args()
    if args.suite == "all" and (args.out or args.only):
        parser.error("--out and --only need a single --suite")
    if args.only is not None and args.sanity:
        parser.error("--only re-records entries of a committed full-scale "
                     "file: no --sanity")

    for name in SUITES if args.suite == "all" else [args.suite]:
        record(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
