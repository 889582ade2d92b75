// Google-benchmark microbenchmarks of the hot operations underneath
// the reproduction: coverage checks, per-label scans, greedy picks,
// verifier passes, SimHash fingerprints, posting-list iteration,
// index lookups and tokenization.
#include <benchmark/benchmark.h>

#include <cstring>

#include "core/greedy_sc.h"
#include "core/greedy_state.h"
#include "core/kernels.h"
#include "core/scan.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "index/inverted_index.h"
#include "simhash/simhash.h"
#include "text/tokenizer.h"
#include "util/arena.h"
#include "util/logging.h"
#include "util/rng.h"

namespace mqd {
namespace {

Instance MakeBenchInstance(int num_labels, double posts_per_minute,
                           uint64_t seed) {
  InstanceGenConfig cfg;
  cfg.num_labels = num_labels;
  cfg.duration = 3600.0;
  cfg.posts_per_minute = posts_per_minute;
  cfg.overlap_rate = 1.3;
  cfg.seed = seed;
  auto inst = GenerateInstance(cfg);
  MQD_CHECK(inst.ok());
  return std::move(inst).value();
}

/// The Figure 13 regime at |L| = 20, scaled to a microbench-friendly
/// window: 1h of posts at 0.1x the paper's Table 2 matching rate
/// (118/min), overlap 1.4. This is the workload the BENCH_core.json
/// trajectory pins (tools/bench_baseline.py).
Instance MakePaperScaleInstance() {
  InstanceGenConfig cfg;
  cfg.num_labels = 20;
  cfg.duration = 3600.0;
  cfg.posts_per_minute = 118.0;
  cfg.overlap_rate = 1.4;
  cfg.seed = 13;
  auto inst = GenerateInstance(cfg);
  MQD_CHECK(inst.ok());
  return std::move(inst).value();
}

void BM_CoverageCheck(benchmark::State& state) {
  Instance inst = MakeBenchInstance(4, 60.0, 1);
  UniformLambda model(30.0);
  Rng rng(2);
  for (auto _ : state) {
    const PostId a = static_cast<PostId>(rng.Uniform(inst.num_posts()));
    const PostId b = static_cast<PostId>(rng.Uniform(inst.num_posts()));
    const LabelId label =
        static_cast<LabelId>(std::countr_zero(inst.labels(a)));
    benchmark::DoNotOptimize(model.Covers(inst, a, label, b));
  }
}
BENCHMARK(BM_CoverageCheck);

void BM_ScanSolve(benchmark::State& state) {
  Instance inst =
      MakeBenchInstance(static_cast<int>(state.range(0)), 60.0, 3);
  UniformLambda model(60.0);
  ScanSolver scan;
  for (auto _ : state) {
    auto z = scan.Solve(inst, model);
    benchmark::DoNotOptimize(z);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(inst.num_posts()));
}
BENCHMARK(BM_ScanSolve)->Arg(2)->Arg(8);

void BM_ScanPlusSolve(benchmark::State& state) {
  Instance inst =
      MakeBenchInstance(static_cast<int>(state.range(0)), 60.0, 3);
  UniformLambda model(60.0);
  ScanPlusSolver scan_plus;
  for (auto _ : state) {
    auto z = scan_plus.Solve(inst, model);
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_ScanPlusSolve)->Arg(2)->Arg(8);

void BM_GreedySolve(benchmark::State& state) {
  Instance inst =
      MakeBenchInstance(static_cast<int>(state.range(0)), 60.0, 4);
  UniformLambda model(60.0);
  GreedySCSolver greedy;
  for (auto _ : state) {
    auto z = greedy.Solve(inst, model);
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_GreedySolve)->Arg(2)->Arg(8);

// --- GreedySC / Scan select microbenches on the paper-scale workload.
// These are the entries tools/bench_baseline.py records into
// BENCH_core.json; keep their names stable.

void BM_GreedySelectPaperScale(benchmark::State& state) {
  Instance inst = MakePaperScaleInstance();
  UniformLambda model(60.0);
  GreedySCSolver greedy;
  for (auto _ : state) {
    auto z = greedy.Solve(inst, model);
    benchmark::DoNotOptimize(z);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(inst.num_posts()));
}
BENCHMARK(BM_GreedySelectPaperScale)->Unit(benchmark::kMillisecond);

void BM_ScanSelectPaperScale(benchmark::State& state) {
  Instance inst = MakePaperScaleInstance();
  UniformLambda model(60.0);
  ScanPlusSolver scan_plus;
  for (auto _ : state) {
    auto z = scan_plus.Solve(inst, model);
    benchmark::DoNotOptimize(z);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(inst.num_posts()));
}
BENCHMARK(BM_ScanSelectPaperScale)->Unit(benchmark::kMillisecond);

void BM_GreedyGainInit(benchmark::State& state) {
  Instance inst = MakePaperScaleInstance();
  UniformLambda model(60.0);
  Arena arena;
  for (auto _ : state) {
    arena.Reset();
    internal::GreedyState gs(inst, model, arena);
    benchmark::DoNotOptimize(gs.gain(0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(inst.num_posts()));
}
BENCHMARK(BM_GreedyGainInit);

void BM_LabelPostsInRange(benchmark::State& state) {
  Instance inst = MakePaperScaleInstance();
  Rng rng(9);
  const DimValue span = inst.max_value() - inst.min_value();
  for (auto _ : state) {
    const LabelId a = static_cast<LabelId>(
        rng.Uniform(static_cast<size_t>(inst.num_labels())));
    const DimValue mid = inst.min_value() + rng.NextDouble() * span;
    benchmark::DoNotOptimize(
        inst.LabelPostsInRange(a, mid - 60.0, mid + 60.0).size());
  }
}
BENCHMARK(BM_LabelPostsInRange);

void BM_InstanceBuild(benchmark::State& state) {
  Instance inst = MakePaperScaleInstance();
  for (auto _ : state) {
    InstanceBuilder builder(inst.num_labels());
    for (const Post& p : inst.posts()) {
      builder.Add(p.value, p.labels, p.external_id);
    }
    auto rebuilt = builder.Build();
    MQD_CHECK(rebuilt.ok());
    benchmark::DoNotOptimize(rebuilt->num_pairs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(inst.num_posts()));
}
BENCHMARK(BM_InstanceBuild);

// --- Per-kernel microbenches of the SIMD-dispatched primitives
// (core/kernels.h), each registered in both tiers via
// BENCHMARK_CAPTURE so BM_Kernel*/scalar and BM_Kernel*/avx2 sit side
// by side in one run. These bench kern::Table(level) directly — no
// global dispatch flip — so they are safe to mix with the solver
// benches above.

constexpr size_t kKernelN = 4096;

const kern::KernelTable* KernelTableFor(benchmark::State& state,
                                        simd::Level level) {
  if (level == simd::Level::kAvx2 && !simd::Avx2Available()) {
    state.SkipWithError("AVX2 tier unavailable on this host");
    return nullptr;
  }
  return &kern::Table(level);
}

/// Sorted, duplicate-heavy value array shaped like a label's post
/// values (seconds with sub-second spacing).
std::vector<double> KernelValues() {
  Rng rng(21);
  std::vector<double> v(kKernelN);
  double cur = 0.0;
  for (double& x : v) {
    if (rng.Uniform(8) != 0) cur += rng.NextDouble() * 1.5;
    x = cur;
  }
  return v;
}

/// Rotating probe centers so the membership kernels see a different
/// run each iteration instead of a branch-predicted constant.
std::vector<double> KernelCenters(const std::vector<double>& values) {
  Rng rng(22);
  std::vector<double> centers(256);
  for (double& c : centers) {
    c = values[rng.Uniform(values.size())] + rng.NextDouble() - 0.5;
  }
  return centers;
}

void BM_KernelArgmaxDense(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  Rng rng(24);
  std::vector<int64_t> gains(kKernelN);
  for (int64_t& g : gains) g = static_cast<int64_t>(rng.Uniform(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt->argmax_dense(gains.data(), gains.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelArgmaxDense, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelArgmaxDense, avx2, simd::Level::kAvx2);

void BM_KernelMaterialize(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  Rng rng(25);
  // Sparse range-add pattern: ~1 in 8 slots carries a +-1 boundary,
  // like the gain difference arrays after a select round. The kernel
  // zeroes delta, so each iteration re-seeds it from a template; the
  // memcpy cost is identical across tiers.
  std::vector<int32_t> tmpl(kKernelN, 0);
  for (size_t i = 0; i < kKernelN / 8; ++i) {
    tmpl[rng.Uniform(kKernelN)] += 1;
    tmpl[rng.Uniform(kKernelN)] -= 1;
  }
  std::vector<int32_t> delta(kKernelN);
  std::vector<PostId> ids(kKernelN);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PostId>(i);
  std::vector<int64_t> gains(kKernelN, 0);
  for (auto _ : state) {
    std::memcpy(delta.data(), tmpl.data(), kKernelN * sizeof(int32_t));
    kt->materialize(delta.data(), delta.size(), ids.data(), gains.data());
    benchmark::DoNotOptimize(gains.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelMaterialize, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelMaterialize, avx2, simd::Level::kAvx2);

void BM_KernelPrefixRuns(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  Rng rng(26);
  std::vector<int32_t> tmpl(kKernelN, 0);
  for (size_t i = 0; i < kKernelN / 8; ++i) {
    tmpl[rng.Uniform(kKernelN)] += 1;
    tmpl[rng.Uniform(kKernelN)] -= 1;
  }
  std::vector<int32_t> delta(kKernelN);
  std::vector<int64_t> runs(kKernelN);
  for (auto _ : state) {
    std::memcpy(delta.data(), tmpl.data(), kKernelN * sizeof(int32_t));
    kt->prefix_runs(delta.data(), delta.size(), runs.data());
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelPrefixRuns, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelPrefixRuns, avx2, simd::Level::kAvx2);

void BM_KernelCoverRun(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  const std::vector<double> values = KernelValues();
  const std::vector<double> centers = KernelCenters(values);
  size_t i = 0;
  for (auto _ : state) {
    const kern::RunBounds run = kt->cover_run(
        values.data(), values.size(), centers[i++ & 255], 60.0);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelCoverRun, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelCoverRun, avx2, simd::Level::kAvx2);

void BM_KernelCovererRun(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  const std::vector<double> values = KernelValues();
  const std::vector<double> centers = KernelCenters(values);
  size_t i = 0;
  for (auto _ : state) {
    const kern::RunBounds run = kt->coverer_run(
        values.data(), values.size(), centers[i++ & 255], 60.0);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelCovererRun, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelCovererRun, avx2, simd::Level::kAvx2);

void BM_KernelSumU8(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  Rng rng(27);
  std::vector<uint8_t> flags(kKernelN);
  for (uint8_t& f : flags) f = rng.Uniform(2) != 0 ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt->sum_u8(flags.data(), flags.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelSumU8, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelSumU8, avx2, simd::Level::kAvx2);

void BM_KernelMaxCoverEnd(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  const std::vector<double> values = KernelValues();
  const std::vector<double> centers = KernelCenters(values);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kt->max_cover_end(values.data(), values.size(), centers[i++ & 255],
                          60.0, -1.0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelMaxCoverEnd, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelMaxCoverEnd, avx2, simd::Level::kAvx2);

void BM_KernelLastCover(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  const std::vector<double> values = KernelValues();
  const std::vector<double> centers = KernelCenters(values);
  size_t i = 0;
  for (auto _ : state) {
    const double center = centers[i++ & 255];
    benchmark::DoNotOptimize(kt->last_cover(values.data(), values.size(),
                                            center, 60.0, center + 120.0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelLastCover, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelLastCover, avx2, simd::Level::kAvx2);

void BM_KernelVarCover(benchmark::State& state, simd::Level level) {
  const kern::KernelTable* kt = KernelTableFor(state, level);
  if (kt == nullptr) return;
  Rng rng(28);
  const std::vector<double> values = KernelValues();
  const std::vector<double> centers = KernelCenters(values);
  // Per-element radii like a VariableLambda reach row: same order of
  // magnitude as the membership kernels' fixed 60.0 so the pass rate
  // is comparable.
  std::vector<double> reaches(kKernelN);
  for (double& r : reaches) r = 20.0 + rng.NextDouble() * 40.0;
  std::vector<PostId> ids(kKernelN);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PostId>(i);
  std::vector<int64_t> gains(kKernelN, int64_t{1} << 40);
  size_t i = 0;
  for (auto _ : state) {
    kt->cover_decrement(values.data(), reaches.data(), values.size(),
                        centers[i++ & 255], ids.data(), gains.data());
    benchmark::DoNotOptimize(gains.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelVarCover, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelVarCover, avx2, simd::Level::kAvx2);

void BM_VerifyCover(benchmark::State& state) {
  Instance inst = MakeBenchInstance(4, 120.0, 5);
  UniformLambda model(60.0);
  ScanSolver scan;
  auto z = scan.Solve(inst, model);
  MQD_CHECK(z.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsCover(inst, model, *z));
  }
}
BENCHMARK(BM_VerifyCover);

void BM_SimHash(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::vector<std::string> tokens = tokenizer.Tokenize(
      "obama speaks to the senate about the economy tonight with live "
      "coverage from washington");
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimHash(tokens));
  }
}
BENCHMARK(BM_SimHash);

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::string text =
      "Breaking: Obama speaks to the #senate about the economy "
      "tonight, $GOOG rallies http://t.co/abc123 ...";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_PostingIteration(benchmark::State& state) {
  PostingList list;
  Rng rng(6);
  DocId doc = 0;
  for (int i = 0; i < 100000; ++i) {
    doc += 1 + static_cast<DocId>(rng.Uniform(50));
    list.Add(doc);
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (auto it = list.NewIterator(); it.Valid(); it.Next()) {
      sum += it.Doc();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_PostingIteration);

void BM_IndexMatchAny(benchmark::State& state) {
  InvertedIndex index;
  Rng rng(7);
  const std::vector<std::string> words{"obama",  "senate", "nasdaq",
                                       "stocks", "golf",   "storm",
                                       "police", "nasa"};
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    for (int w = 0; w < 8; ++w) {
      text += words[rng.Uniform(words.size())] + " ";
    }
    MQD_CHECK(index.AddDocument(static_cast<uint64_t>(i), i, text).ok());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.MatchAny({"obama", "nasdaq"}));
  }
}
BENCHMARK(BM_IndexMatchAny);

}  // namespace
}  // namespace mqd

BENCHMARK_MAIN();
