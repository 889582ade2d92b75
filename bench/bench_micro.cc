// Google-benchmark microbenchmarks of the hot operations underneath
// the reproduction: coverage checks, per-label scans, greedy picks,
// verifier passes, SimHash fingerprints, posting-list iteration,
// index lookups and tokenization.
#include <benchmark/benchmark.h>

#include <string>

#include "core/greedy_sc.h"
#include "core/greedy_state.h"
#include "core/kernels.h"
#include "core/scan.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "gen/tweet_gen.h"
#include "index/inverted_index.h"
#include "simhash/dedup.h"
#include "simhash/simhash.h"
#include "text/tokenizer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"

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
  for (auto _ : state) {
    internal::GreedyState gs(inst, model);
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

// --- The SIMD-dispatched dense argmax (core/kernels.h), registered
// in both tiers via BENCHMARK_CAPTURE so BM_KernelArgmaxDense/scalar
// and /avx2 sit side by side in one run. It benches
// kern::ArgmaxDenseFor(level) directly — no global dispatch flip — so
// it is safe to mix with the solver benches above.

constexpr size_t kKernelN = 4096;

void BM_KernelArgmaxDense(benchmark::State& state, simd::Level level) {
  if (level == simd::Level::kAvx2 && !simd::Avx2Available()) {
    state.SkipWithError("AVX2 tier unavailable on this host");
    return;
  }
  const kern::ArgmaxDenseFn argmax = kern::ArgmaxDenseFor(level);
  Rng rng(24);
  std::vector<int64_t> gains(kKernelN);
  for (int64_t& g : gains) g = static_cast<int64_t>(rng.Uniform(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(argmax(gains.data(), gains.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
}
BENCHMARK_CAPTURE(BM_KernelArgmaxDense, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_KernelArgmaxDense, avx2, simd::Level::kAvx2);

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

/// SimHash fingerprints of a seeded tweet stream of the posts_text
/// shape (6 hours at a base rate of 600 tweets/min) pushed through a
/// fresh detector per iteration. The stream is longer than the
/// detector's 100k-fingerprint window, so expiry runs as it does in
/// posts_text.
/// Generated tweets share a small vocabulary, so the fingerprints are
/// low-entropy and some block buckets grow to hundreds of entries.
void BM_NearDuplicateTweetStream(benchmark::State& state) {
  TweetGenConfig config;
  config.duration_seconds = 6 * 3600.0;
  config.base_rate_per_minute = 600.0;
  config.seed = 17;
  auto tweets = GenerateTweetStream(config);
  MQD_CHECK(tweets.ok());
  Tokenizer tokenizer;
  std::vector<uint64_t> fingerprints;
  fingerprints.reserve(tweets->size());
  for (const Tweet& tweet : *tweets) {
    fingerprints.push_back(SimHash(tokenizer.Tokenize(tweet.text)));
  }
  for (auto _ : state) {
    NearDuplicateDetector detector;
    size_t duplicates = 0;
    for (uint64_t fingerprint : fingerprints) {
      duplicates += detector.IsDuplicate(fingerprint) ? 1 : 0;
    }
    benchmark::DoNotOptimize(duplicates);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fingerprints.size()));
}
BENCHMARK(BM_NearDuplicateTweetStream)->Unit(benchmark::kMillisecond);

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

// BENCHMARK_MAIN plus the dispatched kernel tier in the JSON context,
// which tools/bench_baseline.py records in BENCH_core.json's host block.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd_tier", std::string(mqd::simd::LevelName(mqd::simd::Active())));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
