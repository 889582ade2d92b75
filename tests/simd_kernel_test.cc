// Differential battery for the SIMD kernel layer (core/kernels.h):
// every kernel is fuzzed scalar-vs-AVX2 over ragged lengths,
// unaligned bases, empty inputs and duplicate values, and the full
// solver / stream paths are run under both dispatch tiers asserting
// identical covers and emission sequences. On hardware without AVX2
// the differential cases skip (the scalar tier is then the only
// implementation and is exercised by the rest of the suite).
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "core/greedy_sc.h"
#include "core/kernels.h"
#include "core/scan.h"
#include "gen/instance_gen.h"
#include "stream/replay.h"
#include "stream/stream_greedy.h"
#include "stream/stream_scan.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"

namespace mqd {
namespace {

/// Ragged sizes crossing every vector-width boundary (8-wide i32,
/// 4-wide i64/double, 32-wide u8) plus the binary/linear hybrid
/// cutoff of the membership kernels.
const size_t kSizes[] = {0,  1,  2,  3,   4,   5,   7,   8,   9,
                         15, 16, 17, 31,  32,  33,  63,  64,  65,
                         100, 127, 128, 129, 200, 255, 256, 257, 500};

/// Byte offsets applied to the kernel base pointers so the AVX2 loads
/// start unaligned (the kernels use unaligned loads throughout).
const size_t kOffsets[] = {0, 1, 3};

struct Tables {
  const kern::KernelTable& scalar;
  const kern::KernelTable& avx2;
};

Tables BothTables() {
  return Tables{kern::Table(simd::Level::kScalar),
                kern::Table(simd::Level::kAvx2)};
}

#define SKIP_WITHOUT_AVX2()                            \
  if (!simd::Avx2Available()) {                        \
    GTEST_SKIP() << "AVX2 unavailable on this host";   \
  }

/// Sorted double array with heavy duplication (ties are where a
/// partition-point or tie-break bug would hide).
std::vector<double> SortedValues(Rng& rng, size_t n) {
  std::vector<double> v(n);
  double x = rng.UniformDouble(-100.0, 100.0);
  for (size_t i = 0; i < n; ++i) {
    // ~40% duplicates, occasional exact integer steps so center ±
    // reach can land exactly on an element.
    if (rng.Uniform(10) >= 4) {
      x += (rng.Uniform(2) != 0u) ? 1.0 : rng.UniformDouble(0.0, 2.0);
    }
    v[i] = x;
  }
  return v;
}

TEST(SimdKernel, ArgmaxDenseMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
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
        ASSERT_EQ(t.scalar.argmax_dense(gains.data() + off, n),
                  t.avx2.argmax_dense(gains.data() + off, n))
            << "n=" << n << " off=" << off << " rep=" << rep;
      }
    }
  }
}

TEST(SimdKernel, MaterializeMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
  Rng rng(3);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      const size_t universe = n + 8;
      std::vector<int32_t> delta(off + n);
      for (size_t i = 0; i < n; ++i) {
        delta[off + i] = static_cast<int32_t>(rng.UniformInt(-3, 3));
      }
      std::vector<PostId> ids(off + n);
      for (size_t i = 0; i < n; ++i) {
        ids[off + i] = static_cast<PostId>(rng.Uniform(universe));
      }
      std::vector<int64_t> gains(universe);
      for (int64_t& g : gains) g = rng.UniformInt(0, 100);

      std::vector<int32_t> delta_b = delta;
      std::vector<int64_t> gains_b = gains;
      t.scalar.materialize(delta.data() + off, n, ids.data() + off,
                           gains.data());
      t.avx2.materialize(delta_b.data() + off, n, ids.data() + off,
                         gains_b.data());
      ASSERT_EQ(gains, gains_b) << "n=" << n << " off=" << off;
      ASSERT_EQ(delta, delta_b);  // both fully zeroed
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(delta[off + i], 0);
    }
  }
}

TEST(SimdKernel, PrefixRunsMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
  Rng rng(4);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      std::vector<int32_t> delta(off + n);
      for (size_t i = 0; i < n; ++i) {
        delta[off + i] = static_cast<int32_t>(rng.UniformInt(-5, 5));
      }
      std::vector<int32_t> delta_b = delta;
      std::vector<int64_t> runs_a(n, -1);
      std::vector<int64_t> runs_b(n, -1);
      t.scalar.prefix_runs(delta.data() + off, n, runs_a.data());
      t.avx2.prefix_runs(delta_b.data() + off, n, runs_b.data());
      ASSERT_EQ(runs_a, runs_b) << "n=" << n << " off=" << off;
      ASSERT_EQ(delta, delta_b);
    }
  }
}

TEST(SimdKernel, CoverRunMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
  Rng rng(5);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<double> padded(off, 0.0);
        const std::vector<double> v = SortedValues(rng, n);
        padded.insert(padded.end(), v.begin(), v.end());
        // Center sometimes an element (exact boundary), reach
        // sometimes integral so center ± reach hits elements exactly.
        const double center =
            (n > 0 && rng.Uniform(2) != 0u)
                ? v[rng.Uniform(n)]
                : rng.UniformDouble(-120.0, 120.0);
        const double reach = (rng.Uniform(2) != 0u)
                                 ? static_cast<double>(rng.Uniform(8))
                                 : rng.UniformDouble(0.0, 10.0);
        const kern::RunBounds ra =
            t.scalar.cover_run(padded.data() + off, n, center, reach);
        const kern::RunBounds rb =
            t.avx2.cover_run(padded.data() + off, n, center, reach);
        ASSERT_EQ(ra.lo, rb.lo) << "n=" << n << " off=" << off;
        ASSERT_EQ(ra.hi, rb.hi) << "n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdKernel, CovererRunMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
  Rng rng(6);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<double> padded(off, 0.0);
        const std::vector<double> v = SortedValues(rng, n);
        padded.insert(padded.end(), v.begin(), v.end());
        const double center =
            (n > 0 && rng.Uniform(2) != 0u)
                ? v[rng.Uniform(n)]
                : rng.UniformDouble(-120.0, 120.0);
        const double reach = (rng.Uniform(2) != 0u)
                                 ? static_cast<double>(rng.Uniform(8))
                                 : rng.UniformDouble(0.0, 10.0);
        const kern::RunBounds ra =
            t.scalar.coverer_run(padded.data() + off, n, center, reach);
        const kern::RunBounds rb =
            t.avx2.coverer_run(padded.data() + off, n, center, reach);
        ASSERT_EQ(ra.lo, rb.lo) << "n=" << n << " off=" << off;
        ASSERT_EQ(ra.hi, rb.hi) << "n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdKernel, SumU8MatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
  Rng rng(7);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      std::vector<uint8_t> flags(off + n);
      for (size_t i = 0; i < n; ++i) {
        flags[off + i] = static_cast<uint8_t>(rng.Uniform(2));
      }
      ASSERT_EQ(t.scalar.sum_u8(flags.data() + off, n),
                t.avx2.sum_u8(flags.data() + off, n))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernel, MaxCoverEndMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
  Rng rng(8);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<double> padded(off, 0.0);
        const std::vector<double> v = SortedValues(rng, n);
        padded.insert(padded.end(), v.begin(), v.end());
        const double center =
            (n > 0 && rng.Uniform(2) != 0u)
                ? v[rng.Uniform(n)]
                : rng.UniformDouble(-120.0, 120.0);
        const double reach = rng.UniformDouble(0.0, 10.0);
        const double init =
            rep == 0 ? -std::numeric_limits<double>::infinity()
                     : rng.UniformDouble(-120.0, 120.0);
        const double a =
            t.scalar.max_cover_end(padded.data() + off, n, center, reach,
                                   init);
        const double b =
            t.avx2.max_cover_end(padded.data() + off, n, center, reach,
                                 init);
        // Bit-level equality (covers -inf == -inf too).
        ASSERT_EQ(a, b) << "n=" << n << " off=" << off << " rep=" << rep;
      }
    }
  }
}

TEST(SimdKernel, LastCoverMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
  Rng rng(9);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<double> padded(off, 0.0);
        const std::vector<double> v = SortedValues(rng, n);
        padded.insert(padded.end(), v.begin(), v.end());
        const double center =
            (n > 0 && rng.Uniform(2) != 0u)
                ? v[rng.Uniform(n)]
                : rng.UniformDouble(-120.0, 120.0);
        const double reach = (rng.Uniform(2) != 0u)
                                 ? static_cast<double>(rng.Uniform(8))
                                 : rng.UniformDouble(0.0, 10.0);
        const double limit = center + reach;
        ASSERT_EQ(
            t.scalar.last_cover(padded.data() + off, n, center, reach,
                                limit),
            t.avx2.last_cover(padded.data() + off, n, center, reach, limit))
            << "n=" << n << " off=" << off << " rep=" << rep;
      }
    }
  }
}

TEST(SimdKernel, CoverDecrementMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const Tables t = BothTables();
  Rng rng(10);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      for (int rep = 0; rep < 8; ++rep) {
        const size_t universe = n + 8;
        std::vector<double> values(off, 0.0);
        const std::vector<double> v = SortedValues(rng, n);
        values.insert(values.end(), v.begin(), v.end());
        // Per-element radii (the kernel's whole point): integral half
        // the time so |value - center| == reach boundaries occur.
        std::vector<double> reaches(off + n);
        for (size_t i = 0; i < n; ++i) {
          reaches[off + i] = (rng.Uniform(2) != 0u)
                                 ? static_cast<double>(rng.Uniform(6))
                                 : rng.UniformDouble(0.0, 8.0);
        }
        // Duplicate ids on purpose: each passing hit must land its own
        // decrement even when a vector lane repeats the target.
        std::vector<PostId> ids(off + n);
        for (size_t i = 0; i < n; ++i) {
          ids[off + i] = static_cast<PostId>(rng.Uniform(universe / 2 + 1));
        }
        const double center = (n > 0 && rng.Uniform(2) != 0u)
                                  ? v[rng.Uniform(n)]
                                  : rng.UniformDouble(-120.0, 120.0);
        std::vector<int64_t> gains_a(universe);
        for (int64_t& g : gains_a) g = rng.UniformInt(0, 50);
        std::vector<int64_t> gains_b = gains_a;
        t.scalar.cover_decrement(values.data() + off, reaches.data() + off,
                                 n, center, ids.data() + off,
                                 gains_a.data());
        t.avx2.cover_decrement(values.data() + off, reaches.data() + off,
                               n, center, ids.data() + off, gains_b.data());
        ASSERT_EQ(gains_a, gains_b)
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
    const ScanPlusSolver scan_plus;
    auto scalar_scan = AtLevel(simd::Level::kScalar, [&] {
      auto z = scan_plus.Solve(inst, model);
      MQD_CHECK(z.ok());
      return *z;
    });
    auto avx2_scan = AtLevel(simd::Level::kAvx2, [&] {
      auto z = scan_plus.Solve(inst, model);
      MQD_CHECK(z.ok());
      return *z;
    });
    EXPECT_EQ(scalar_scan, avx2_scan) << "seed=" << seed;
  }
}

/// Variable-lambda goldens: a directional model routes GreedyState's
/// Select through the cover_decrement kernel, so greedy covers must be
/// tier-invariant there too (the uniform goldens above never touch
/// that path).
TEST(SimdDispatch, VariableLambdaCoversIdenticalAcrossTiers) {
  SKIP_WITHOUT_AVX2();
  for (uint64_t seed : {13u, 31u}) {
    const Instance inst = MakeGoldenInstance(seed);
    const double max_reach = 45.0;
    Rng rng(seed * 0x9e3779b9ULL + 5);
    std::vector<std::vector<DimValue>> table(inst.num_posts());
    for (PostId p = 0; p < static_cast<PostId>(inst.num_posts()); ++p) {
      ForEachLabel(inst.labels(p), [&](LabelId) {
        table[p].push_back(rng.UniformDouble(0.3 * max_reach, max_reach));
      });
    }
    const VariableLambda model(table, max_reach);
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
    for (int variant = 0; variant < 4; ++variant) {
      std::unique_ptr<StreamProcessor> p;
      switch (variant) {
        case 0:
          p = std::make_unique<StreamScanProcessor>(inst, model, tau, false);
          break;
        case 1:
          p = std::make_unique<StreamScanProcessor>(inst, model, tau, true);
          break;
        case 2:
          p = std::make_unique<StreamGreedyProcessor>(inst, model, tau,
                                                      false);
          break;
        default:
          p = std::make_unique<StreamGreedyProcessor>(inst, model, tau,
                                                      true);
          break;
      }
      auto stats = RunStream(inst, p.get());
      MQD_CHECK(stats.ok());
      all.insert(all.end(), p->emissions().begin(), p->emissions().end());
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
