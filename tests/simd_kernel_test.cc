// Differential battery for the one SIMD-dispatched kernel
// (core/kernels.h): argmax_dense is fuzzed scalar-vs-AVX2 over ragged
// lengths, unaligned bases, ties and all-non-positive inputs, and the
// paths that call it (GreedySC, StreamGreedySC/+) run under both
// dispatch tiers asserting identical covers and emission sequences.
// On hardware without AVX2 the differential cases skip (the scalar
// tier is then the only implementation and is exercised by the rest
// of the suite).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "core/greedy_sc.h"
#include "core/kernels.h"
#include "gen/instance_gen.h"
#include "stream/replay.h"
#include "stream/stream_greedy.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"

namespace mqd {
namespace {

/// Ragged sizes crossing the 4-wide vector boundary and GreedySC's
/// 64-post block edge.
const size_t kSizes[] = {0,  1,  2,  3,   4,   5,   7,   8,   9,
                         15, 16, 17, 31,  32,  33,  63,  64,  65,
                         100, 127, 128, 129, 200, 255, 256, 257, 500};

/// Element offsets applied to the base pointer so the AVX2 loads
/// start unaligned (the kernel uses unaligned loads throughout).
const size_t kOffsets[] = {0, 1, 3};

#define SKIP_WITHOUT_AVX2()                            \
  if (!simd::Avx2Available()) {                        \
    GTEST_SKIP() << "AVX2 unavailable on this host";   \
  }

TEST(SimdKernel, ArgmaxDenseMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const kern::ArgmaxDenseFn scalar = kern::ArgmaxDenseFor(simd::Level::kScalar);
  const kern::ArgmaxDenseFn avx2 = kern::ArgmaxDenseFor(simd::Level::kAvx2);
  Rng rng(2);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<int64_t> gains(off + n);
        for (int64_t& g : gains) g = rng.UniformInt(-1, 4);
        // Ties everywhere; also exercise the all-non-positive case.
        if (rep == 0) {
          for (int64_t& g : gains) g = -(g < 0 ? g : 0);
        }
        ASSERT_EQ(scalar(gains.data() + off, n), avx2(gains.data() + off, n))
            << "n=" << n << " off=" << off << " rep=" << rep;
      }
    }
  }
}

// --- Full-path goldens under both dispatch tiers. ---

Instance MakeGoldenInstance(uint64_t seed) {
  InstanceGenConfig cfg;
  cfg.num_labels = 8;
  cfg.duration = 1800.0;
  cfg.posts_per_minute = 40.0;
  cfg.overlap_rate = 1.4;
  cfg.seed = seed;
  auto inst = GenerateInstance(cfg);
  MQD_CHECK(inst.ok());
  return std::move(inst).value();
}

/// Forces `level`, runs `fn`, restores the previous dispatch before
/// returning (so later tests see the process-default tier).
template <typename Fn>
auto AtLevel(simd::Level level, Fn&& fn) {
  const simd::Level prev = simd::Active();
  MQD_CHECK(simd::ForceLevelForTest(level));
  auto result = fn();
  MQD_CHECK(simd::ForceLevelForTest(prev));
  return result;
}

TEST(SimdDispatch, SolverCoversIdenticalAcrossTiers) {
  SKIP_WITHOUT_AVX2();
  for (uint64_t seed : {11u, 29u, 47u}) {
    const Instance inst = MakeGoldenInstance(seed);
    const UniformLambda model(45.0);
    const GreedySCSolver solver;
    auto scalar_cover = AtLevel(simd::Level::kScalar, [&] {
      auto z = solver.Solve(inst, model);
      MQD_CHECK(z.ok());
      return *z;
    });
    auto avx2_cover = AtLevel(simd::Level::kAvx2, [&] {
      auto z = solver.Solve(inst, model);
      MQD_CHECK(z.ok());
      return *z;
    });
    EXPECT_EQ(scalar_cover, avx2_cover) << "seed=" << seed;
  }
}

TEST(SimdDispatch, StreamEmissionsIdenticalAcrossTiers) {
  SKIP_WITHOUT_AVX2();
  const Instance inst = MakeGoldenInstance(17);
  const UniformLambda model(45.0);
  const double tau = 20.0;
  auto run_all = [&] {
    std::vector<Emission> all;
    for (bool stop_at_anchor : {false, true}) {
      StreamGreedyProcessor p(inst, model, tau, stop_at_anchor);
      auto stats = RunStream(inst, &p);
      MQD_CHECK(stats.ok());
      all.insert(all.end(), p.emissions().begin(), p.emissions().end());
    }
    return all;
  };
  auto scalar_emissions = AtLevel(simd::Level::kScalar, run_all);
  auto avx2_emissions = AtLevel(simd::Level::kAvx2, run_all);
  ASSERT_EQ(scalar_emissions.size(), avx2_emissions.size());
  for (size_t i = 0; i < scalar_emissions.size(); ++i) {
    EXPECT_EQ(scalar_emissions[i].post, avx2_emissions[i].post) << i;
    // Emission times must be bit-identical, not approximately equal.
    EXPECT_EQ(scalar_emissions[i].emit_time, avx2_emissions[i].emit_time) << i;
  }
}

}  // namespace
}  // namespace mqd
