// Google-benchmark microbenchmarks of the streaming hot paths: full
// per-arrival replays of the four StreamMQDP processors at the paper
// scale of Figures 14-15 (|L| = 20, Table 2 matching rate x0.1,
// lambda = tau = 300s), plus deadline-fire-heavy (tau = 0) and
// batch-solve-heavy (large tau) regimes. Every optimized processor is
// benched side by side with its verbatim pre-overhaul reference
// (tests/oracle/stream_reference.h), so the before/after of the
// deadline-heap + incremental-window overhaul lives in one binary. The *PaperScale
// entries are what tools/bench_baseline.py records into
// BENCH_stream.json; keep their names stable.
#include <benchmark/benchmark.h>

#include <string>

#include "gen/instance_gen.h"
#include "oracle/stream_reference.h"
#include "stream/replay.h"
#include "stream/stream_greedy.h"
#include "stream/stream_scan.h"
#include "util/logging.h"
#include "util/simd.h"

namespace mqd {
namespace {

/// The Figure 14-15 regime at |L| = 20: 1h of posts at 0.1x the
/// paper's Table 2 matching rate (118/min), overlap 1.4 — the same
/// workload BENCH_core.json pins for the batch solvers.
const Instance& PaperScaleInstance() {
  static const Instance* const inst = [] {
    InstanceGenConfig cfg;
    cfg.num_labels = 20;
    cfg.duration = 3600.0;
    cfg.posts_per_minute = 118.0;
    cfg.overlap_rate = 1.4;
    cfg.seed = 13;
    auto result = GenerateInstance(cfg);
    MQD_CHECK(result.ok());
    return new Instance(std::move(result).value());
  }();
  return *inst;
}

template <typename Processor>
void ReplayBench(benchmark::State& state, double lambda, double tau,
                 bool variant_flag) {
  const Instance& inst = PaperScaleInstance();
  UniformLambda model(lambda);
  for (auto _ : state) {
    Processor proc(inst, model, tau, variant_flag);
    auto stats = RunStream(inst, &proc);
    MQD_CHECK(stats.ok());
    benchmark::DoNotOptimize(proc.emissions().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(inst.num_posts()));
}

// --- Per-arrival replay at the Figure 14-15 center point
// (lambda = tau = 300s).

void BM_StreamScanReplayPaperScale(benchmark::State& state) {
  ReplayBench<StreamScanProcessor>(state, 300.0, 300.0, false);
}
BENCHMARK(BM_StreamScanReplayPaperScale)->Unit(benchmark::kMillisecond);

void BM_StreamScanRefReplayPaperScale(benchmark::State& state) {
  ReplayBench<StreamScanReferenceProcessor>(state, 300.0, 300.0, false);
}
BENCHMARK(BM_StreamScanRefReplayPaperScale)->Unit(benchmark::kMillisecond);

void BM_StreamScanPlusReplayPaperScale(benchmark::State& state) {
  ReplayBench<StreamScanProcessor>(state, 300.0, 300.0, true);
}
BENCHMARK(BM_StreamScanPlusReplayPaperScale)->Unit(benchmark::kMillisecond);

void BM_StreamScanPlusRefReplayPaperScale(benchmark::State& state) {
  ReplayBench<StreamScanReferenceProcessor>(state, 300.0, 300.0, true);
}
BENCHMARK(BM_StreamScanPlusRefReplayPaperScale)
    ->Unit(benchmark::kMillisecond);

void BM_StreamGreedyReplayPaperScale(benchmark::State& state) {
  ReplayBench<StreamGreedyProcessor>(state, 300.0, 300.0, false);
}
BENCHMARK(BM_StreamGreedyReplayPaperScale)->Unit(benchmark::kMillisecond);

void BM_StreamGreedyRefReplayPaperScale(benchmark::State& state) {
  ReplayBench<StreamGreedyReferenceProcessor>(state, 300.0, 300.0, false);
}
BENCHMARK(BM_StreamGreedyRefReplayPaperScale)
    ->Unit(benchmark::kMillisecond);

void BM_StreamGreedyPlusReplayPaperScale(benchmark::State& state) {
  ReplayBench<StreamGreedyProcessor>(state, 300.0, 300.0, true);
}
BENCHMARK(BM_StreamGreedyPlusReplayPaperScale)
    ->Unit(benchmark::kMillisecond);

void BM_StreamGreedyPlusRefReplayPaperScale(benchmark::State& state) {
  ReplayBench<StreamGreedyReferenceProcessor>(state, 300.0, 300.0, true);
}
BENCHMARK(BM_StreamGreedyPlusRefReplayPaperScale)
    ->Unit(benchmark::kMillisecond);

// --- Dispatch-tier replays: the same paper-scale StreamGreedySC
// replay with the dispatched argmax pinned to one tier, so the scalar
// and AVX2 hot paths sit side by side in one run
// (BM_StreamGreedyReplayTier/scalar vs /avx2). The bench binary is
// single-threaded, so flipping the dispatch level around the measured
// loop is safe; the level is restored before the next registered
// bench runs.

void BM_StreamGreedyReplayTier(benchmark::State& state, simd::Level level) {
  if (level == simd::Level::kAvx2 && !simd::Avx2Available()) {
    state.SkipWithError("AVX2 tier unavailable on this host");
    return;
  }
  const simd::Level prev = simd::Active();
  MQD_CHECK(simd::ForceLevelForTest(level));
  ReplayBench<StreamGreedyProcessor>(state, 300.0, 300.0, false);
  MQD_CHECK(simd::ForceLevelForTest(prev));
}
BENCHMARK_CAPTURE(BM_StreamGreedyReplayTier, scalar, simd::Level::kScalar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StreamGreedyReplayTier, avx2, simd::Level::kAvx2)
    ->Unit(benchmark::kMillisecond);

// --- Deadline-fire-heavy regime: tau = 0 turns every arrival into an
// immediate deadline, stressing the heap's push/pop path (and the
// reference's full O(|L|) rescan) rather than the lazy no-op path.

void BM_StreamScanFireHeavy(benchmark::State& state) {
  ReplayBench<StreamScanProcessor>(state, 300.0, 0.0, true);
}
BENCHMARK(BM_StreamScanFireHeavy)->Unit(benchmark::kMillisecond);

void BM_StreamScanRefFireHeavy(benchmark::State& state) {
  ReplayBench<StreamScanReferenceProcessor>(state, 300.0, 0.0, true);
}
BENCHMARK(BM_StreamScanRefFireHeavy)->Unit(benchmark::kMillisecond);

// --- Batch-solve-heavy regime: tau = 600s grows each greedy window
// to ~1200 posts, the regime where the reference's per-batch rebuild
// and O(window * Covers) gain decrements dominate.

void BM_StreamGreedyBatchHeavy(benchmark::State& state) {
  ReplayBench<StreamGreedyProcessor>(state, 300.0, 600.0, false);
}
BENCHMARK(BM_StreamGreedyBatchHeavy)->Unit(benchmark::kMillisecond);

void BM_StreamGreedyRefBatchHeavy(benchmark::State& state) {
  ReplayBench<StreamGreedyReferenceProcessor>(state, 300.0, 600.0, false);
}
BENCHMARK(BM_StreamGreedyRefBatchHeavy)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mqd

// BENCHMARK_MAIN plus the dispatched kernel tier in the JSON context,
// which tools/bench_baseline.py records in BENCH_stream.json's host
// block.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd_tier", std::string(mqd::simd::LevelName(mqd::simd::Active())));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
