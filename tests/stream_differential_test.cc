#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/coverage.h"
#include "core/types.h"
#include "gen/instance_gen.h"
#include "oracle/stream_reference.h"
#include "stream/replay.h"
#include "stream/stream_greedy.h"
#include "stream/stream_scan.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace mqd {
namespace {

using ::mqd::testing::BuildSingleTenant;
using ::mqd::testing::MakeInstance;
using ::mqd::testing::SingleTenant;

/// Runs `optimized` and `reference` over the same replay and asserts
/// the emission sequences are identical: same posts, in the same
/// order, at bit-identical emit times (== on doubles, no tolerance —
/// the overhauled hot paths must reproduce the reference arithmetic
/// exactly, not approximately). Returns the number of compared
/// emissions.
size_t ExpectIdenticalEmissions(const Instance& inst,
                                StreamProcessor* optimized,
                                StreamProcessor* reference,
                                const std::string& context) {
  auto opt_stats = RunStream(inst, optimized);
  auto ref_stats = RunStream(inst, reference);
  EXPECT_TRUE(opt_stats.ok()) << context;
  EXPECT_TRUE(ref_stats.ok()) << context;
  const auto& opt = optimized->emissions();
  const auto& ref = reference->emissions();
  EXPECT_EQ(opt.size(), ref.size()) << context;
  const size_t n = std::min(opt.size(), ref.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(opt[i].post, ref[i].post)
        << context << " emission " << i << " of " << n;
    EXPECT_EQ(opt[i].emit_time, ref[i].emit_time)
        << context << " emission " << i << " (post " << opt[i].post
        << "): emit times differ by "
        << (opt[i].emit_time - ref[i].emit_time);
    if (::testing::Test::HasFailure()) break;  // don't flood the log
  }
  return n;
}

/// A per-post, per-label radius table deterministically derived from
/// the seed, exercising the VariableLambda (non-fastpath) gain and
/// prune arithmetic.
VariableLambda MakeVariableModel(const Instance& inst, double max_reach,
                                 uint64_t seed) {
  Rng rng(seed * 0x9e3779b9ULL + 17);
  std::vector<std::vector<DimValue>> reaches(inst.num_posts());
  for (PostId p = 0; p < static_cast<PostId>(inst.num_posts()); ++p) {
    ForEachLabel(inst.labels(p), [&](LabelId) {
      reaches[p].push_back(rng.UniformDouble(0.3 * max_reach, max_reach));
    });
  }
  return VariableLambda(std::move(reaches), max_reach);
}

/// The fuzz sweep: random instances over a seed x lambda x tau x
/// overlap grid, every optimized processor against its verbatim
/// pre-overhaul reference, under both uniform and variable lambdas.
/// The grand total of compared emissions must clear 1e5 so ulp-edge
/// deadline ties and batch boundaries actually get sampled.
TEST(StreamDifferentialTest, FuzzedEmissionSequencesMatchReference) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (double overlap : {1.2, 1.8}) {
      InstanceGenConfig cfg;
      cfg.num_labels = 4;
      cfg.duration = 900.0;
      cfg.posts_per_minute = 80.0;
      cfg.overlap_rate = overlap;
      cfg.burst_fraction = 0.3;
      cfg.seed = 5000 + seed;
      auto inst = GenerateInstance(cfg);
      ASSERT_TRUE(inst.ok());
      for (double lambda : {5.0, 12.0}) {
        UniformLambda uniform(lambda);
        VariableLambda variable = MakeVariableModel(*inst, lambda, seed);
        for (const CoverageModel* model :
             {static_cast<const CoverageModel*>(&uniform),
              static_cast<const CoverageModel*>(&variable)}) {
          for (double tau : {0.0, 3.0, 15.0}) {
            const std::string context =
                "seed=" + std::to_string(seed) +
                " overlap=" + std::to_string(overlap) +
                " lambda=" + std::to_string(lambda) +
                " tau=" + std::to_string(tau) +
                (model == &uniform ? " uniform" : " variable");
            for (bool plus : {false, true}) {
              StreamScanProcessor scan(*inst, *model, tau, plus);
              StreamScanReferenceProcessor scan_ref(*inst, *model, tau,
                                                    plus);
              compared += ExpectIdenticalEmissions(
                  *inst, &scan, &scan_ref,
                  context + " scan+=" + std::to_string(plus));
              StreamGreedyProcessor greedy(*inst, *model, tau, plus);
              StreamGreedyReferenceProcessor greedy_ref(*inst, *model, tau,
                                                        plus);
              compared += ExpectIdenticalEmissions(
                  *inst, &greedy, &greedy_ref,
                  context + " greedy+=" + std::to_string(plus));
            }
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GE(compared, 100000u) << "fuzz sweep under-sampled";
}

/// The optimized code paths must actually run during the sweep; a
/// differential test against dead code proves nothing. On this
/// overlap-heavy instance StreamScan+'s cross-label pruning and
/// StreamGreedySC+'s stop at the anchor (which carries the rest of
/// the window into the next batch instead of rebuilding it) both
/// change the output against the base variant, and each + variant
/// still matches its reference.
TEST(StreamDifferentialTest, OptimizedFastPathsAreExercised) {
  InstanceGenConfig cfg;
  cfg.num_labels = 4;
  cfg.duration = 600.0;
  cfg.posts_per_minute = 60.0;
  cfg.overlap_rate = 1.6;
  cfg.seed = 31337;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(8.0);

  const double tau = 4.0;
  StreamScanProcessor scan(*inst, model, tau, false);
  ASSERT_TRUE(RunStream(*inst, &scan).ok());
  StreamScanProcessor scan_plus(*inst, model, tau, true);
  StreamScanReferenceProcessor scan_plus_ref(*inst, model, tau, true);
  EXPECT_GT(ExpectIdenticalEmissions(*inst, &scan_plus, &scan_plus_ref,
                                     "scan+"),
            0u);
  EXPECT_NE(scan_plus.emissions(), scan.emissions())
      << "cross-label pruning never changed the output";

  StreamGreedyProcessor greedy(*inst, model, tau, false);
  ASSERT_TRUE(RunStream(*inst, &greedy).ok());
  StreamGreedyProcessor greedy_plus(*inst, model, tau, true);
  StreamGreedyReferenceProcessor greedy_plus_ref(*inst, model, tau, true);
  EXPECT_GT(ExpectIdenticalEmissions(*inst, &greedy_plus, &greedy_plus_ref,
                                     "greedy+"),
            0u);
  // The + variant differs from the base one only if some batch stopped
  // with part of its window uncovered, which that batch then carried.
  EXPECT_NE(greedy_plus.emissions(), greedy.emissions())
      << "no batch stopped at its anchor";
}

/// Tau-boundary construction: deadlines landing exactly on arrival
/// times, two labels tying on the same deadline (the lower label id
/// must fire first, like the reference's first-minimum scan), and an
/// anchor whose t_ou + lambda deadline equals another post's t_lu +
/// tau. Values are small dyadic rationals so every deadline sum is
/// exact in binary floating point and the ties are genuine, not
/// approximate.
TEST(StreamDifferentialTest, TauBoundaryDeadlineTiesMatchReference) {
  const double tau = 0.5;
  const double lambda = 1.0;
  UniformLambda model(lambda);
  // Label 0 and label 1 both hit deadline 0.75; label 2's anchor
  // deadline t_ou + lambda = 1.25 ties label 0's second round t_lu +
  // tau = 1.25. Post 6 arrives exactly at a pending deadline.
  Instance inst = MakeInstance(3, {{0.25, MaskOf(0)},
                                   {0.25, MaskOf(1)},
                                   {0.25, MaskOf(2)},
                                   {0.5, MaskOf(0) | MaskOf(1)},
                                   {0.75, MaskOf(0) | MaskOf(2)},
                                   {1.0, MaskOf(1)},
                                   {1.25, MaskOf(0) | MaskOf(1)}});
  for (bool plus : {false, true}) {
    StreamScanProcessor scan(inst, model, tau, plus);
    StreamScanReferenceProcessor scan_ref(inst, model, tau, plus);
    size_t n = ExpectIdenticalEmissions(
        inst, &scan, &scan_ref, "tau-boundary scan+=" + std::to_string(plus));
    EXPECT_GT(n, 0u);
    StreamGreedyProcessor greedy(inst, model, tau, plus);
    StreamGreedyReferenceProcessor greedy_ref(inst, model, tau, plus);
    n = ExpectIdenticalEmissions(
        inst, &greedy, &greedy_ref,
        "tau-boundary greedy+=" + std::to_string(plus));
    EXPECT_GT(n, 0u);
  }
}

/// Multi-tenant aliasing audit (DESIGN.md §14): two processors
/// sharing one const Instance + CoverageModel, their replays
/// interleaved arrival by arrival, must emit exactly what fresh
/// sequential runs do. Any hidden mutable state reached through the
/// shared mirrors — a scratch buffer behind a const accessor, a
/// static, a cache keyed on "the" current replay — would let tenant A
/// perturb tenant B here. Different taus make the interleaved batch
/// boundaries genuinely disjoint.
TEST(StreamDifferentialTest, InterleavedTenantsOverOneMirrorMatchSequential) {
  InstanceGenConfig cfg;
  cfg.num_labels = 5;
  cfg.duration = 600.0;
  cfg.posts_per_minute = 70.0;
  cfg.overlap_rate = 1.7;
  cfg.seed = 20250;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda uniform(7.0);
  VariableLambda variable = MakeVariableModel(*inst, 7.0, 42);
  for (const CoverageModel* model :
       {static_cast<const CoverageModel*>(&uniform),
        static_cast<const CoverageModel*>(&variable)}) {
    for (bool plus : {false, true}) {
      const std::string context =
          std::string(model == &uniform ? "uniform" : "variable") +
          " plus=" + std::to_string(plus);
      StreamGreedyProcessor greedy_a(*inst, *model, /*tau=*/2.0, plus);
      StreamGreedyProcessor greedy_b(*inst, *model, /*tau=*/5.0, plus);
      StreamScanProcessor scan_a(*inst, *model, /*tau=*/2.0, plus);
      StreamScanProcessor scan_b(*inst, *model, /*tau=*/5.0, plus);
      for (PostId p = 0; p < static_cast<PostId>(inst->num_posts()); ++p) {
        const double v = inst->value(p);
        for (StreamProcessor* proc :
             {static_cast<StreamProcessor*>(&greedy_a),
              static_cast<StreamProcessor*>(&greedy_b),
              static_cast<StreamProcessor*>(&scan_a),
              static_cast<StreamProcessor*>(&scan_b)}) {
          proc->AdvanceTo(v);
          proc->OnArrival(p);
        }
      }
      greedy_a.Finish();
      greedy_b.Finish();
      scan_a.Finish();
      scan_b.Finish();

      const auto expect_same_as_sequential =
          [&](const StreamProcessor& interleaved, double tau, bool greedy) {
            std::unique_ptr<StreamProcessor> fresh;
            if (greedy) {
              fresh = std::make_unique<StreamGreedyProcessor>(*inst, *model,
                                                              tau, plus);
            } else {
              fresh = std::make_unique<StreamScanProcessor>(*inst, *model,
                                                            tau, plus);
            }
            ASSERT_TRUE(RunStream(*inst, fresh.get()).ok());
            EXPECT_EQ(interleaved.emissions(), fresh->emissions())
                << context << " tau=" << tau
                << (greedy ? " greedy" : " scan");
          };
      expect_same_as_sequential(greedy_a, 2.0, true);
      expect_same_as_sequential(greedy_b, 5.0, true);
      expect_same_as_sequential(scan_a, 2.0, false);
      expect_same_as_sequential(scan_b, 5.0, false);
    }
  }
}

/// Non-dyadic values (0.1 steps) push the deadline sums onto ulp
/// edges where fl(a + tau) comparisons could diverge between two
/// implementations that associate differently; both sides must still
/// agree because they compute the same expressions.
TEST(StreamDifferentialTest, UlpEdgeValuesMatchReference) {
  const double tau = 0.3;
  UniformLambda model(0.7);
  std::vector<std::pair<DimValue, LabelMask>> posts;
  for (int i = 0; i < 40; ++i) {
    posts.push_back({0.1 * i, MaskOf(i % 3)});
    if (i % 4 == 0) {
      posts.push_back({0.1 * i, MaskOf((i + 1) % 3) | MaskOf(i % 3)});
    }
  }
  Instance inst = MakeInstance(3, posts);
  for (bool plus : {false, true}) {
    StreamScanProcessor scan(inst, model, tau, plus);
    StreamScanReferenceProcessor scan_ref(inst, model, tau, plus);
    ExpectIdenticalEmissions(inst, &scan, &scan_ref,
                             "ulp scan+=" + std::to_string(plus));
    StreamGreedyProcessor greedy(inst, model, tau, plus);
    StreamGreedyReferenceProcessor greedy_ref(inst, model, tau, plus);
    ExpectIdenticalEmissions(inst, &greedy, &greedy_ref,
                             "ulp greedy+=" + std::to_string(plus));
  }
}

/// Runs a StreamScan(+) processor masked to `mask` over the whole of
/// `inst` and the reference over the mask's sub-stream, built by an
/// InstanceBuilder loop independent of the mask plumbing, and asserts
/// the same posts (in global ids) at bit-identical times. Returns the
/// number of compared emissions.
size_t ExpectMaskedMatchesSubStream(
    const Instance& inst, const CoverageModel& model, double lambda,
    const std::vector<std::vector<DimValue>>* radii, LabelMask mask,
    double tau, bool plus, const std::string& context) {
  StreamScanProcessor masked(inst, model, tau, plus, mask);
  EXPECT_TRUE(RunStream(inst, &masked).ok()) << context;
  const SingleTenant sub =
      BuildSingleTenant(inst, mask, /*from=*/0, lambda, radii, lambda);
  StreamScanReferenceProcessor reference(sub.sub, *sub.model, tau, plus);
  EXPECT_TRUE(RunStream(sub.sub, &reference).ok()) << context;
  const auto& got = masked.emissions();
  const auto& want = reference.emissions();
  EXPECT_EQ(got.size(), want.size()) << context;
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].post, sub.global_of_local[want[i].post])
        << context << " emission " << i << " of " << n;
    EXPECT_EQ(got[i].emit_time, want[i].emit_time)
        << context << " emission " << i << " (post " << got[i].post
        << "): emit times differ by "
        << (got[i].emit_time - want[i].emit_time);
    if (::testing::Test::HasFailure()) break;
  }
  return n;
}

/// Masked processors on a 64-label instance: a representative's state
/// has one slot per label of its mask, so label ids far above the slot
/// count, bit 63, a single slot, non-contiguous masks and a full
/// 64-slot tree must all reproduce the reference run on the mask's
/// sub-stream. Uniform label popularity keeps label 63 as busy as
/// label 0.
TEST(StreamDifferentialTest, MaskedHighLabelsMatchSubStreamReference) {
  InstanceGenConfig cfg;
  cfg.num_labels = kMaxLabels;
  cfg.duration = 1800.0;
  cfg.posts_per_minute = 500.0;
  cfg.overlap_rate = 3.0;
  cfg.popularity_skew = 0.0;
  cfg.burst_fraction = 0.3;
  cfg.seed = 6464;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  const double lambda = 12.0;
  Rng rng(99);
  std::vector<std::vector<DimValue>> radii(inst->num_posts());
  for (PostId p = 0; p < static_cast<PostId>(inst->num_posts()); ++p) {
    ForEachLabel(inst->labels(p), [&](LabelId) {
      radii[p].push_back(rng.UniformDouble(0.3 * lambda, lambda));
    });
  }
  UniformLambda uniform(lambda);
  VariableLambda variable(radii, lambda);

  LabelMask every_seventh = 0;
  for (LabelId a = 0; a < kMaxLabels; a += 7) every_seventh |= MaskOf(a);
  const LabelMask masks[] = {
      MaskOf(63),                                          // one slot
      MaskOf(0) | MaskOf(63),                              // both ends
      MaskOf(3) | MaskOf(17) | MaskOf(40) | MaskOf(63),    // scattered
      MaskOf(9) | MaskOf(10) | MaskOf(33) | MaskOf(34) | MaskOf(61) |
          MaskOf(62),                                      // a fan-out size
      every_seventh | MaskOf(63),                          // 11 slots
      ~LabelMask{0} << 32,                                 // labels 32..63
      kAllLabels,                                          // 64 slots
  };
  size_t compared = 0;
  for (const LabelMask mask : masks) {
    for (const bool variable_model : {false, true}) {
      const CoverageModel& model =
          variable_model ? static_cast<const CoverageModel&>(variable)
                         : static_cast<const CoverageModel&>(uniform);
      for (const double tau : {0.0, 3.0, 15.0}) {
        for (const bool plus : {false, true}) {
          const std::string context =
              "mask=" + std::to_string(mask) + " tau=" + std::to_string(tau) +
              (variable_model ? " variable" : " uniform") +
              " plus=" + std::to_string(plus);
          const size_t n = ExpectMaskedMatchesSubStream(
              *inst, model, lambda, variable_model ? &radii : nullptr, mask,
              tau, plus, context);
          EXPECT_GT(n, 0u) << context;
          compared += n;
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GE(compared, 100000u) << "masked sweep under-sampled";
}

/// Two slots of a masked processor reach the same deadline: the lower
/// label fires first, although its post arrived second, as in the
/// reference's first-minimum scan. Label 50 is outside the mask and
/// must change nothing.
TEST(StreamDifferentialTest, MaskedDeadlineTieFiresLowestLabelFirst) {
  const double tau = 0.5;
  UniformLambda model(1.0);
  const LabelMask mask = MaskOf(40) | MaskOf(63);
  Instance inst = MakeInstance(kMaxLabels, {{0.25, MaskOf(63)},
                                            {0.25, MaskOf(40)},
                                            {0.5, MaskOf(50)},
                                            {1.5, MaskOf(40) | MaskOf(50)},
                                            {2.0, MaskOf(63)}});
  for (const bool plus : {false, true}) {
    const std::string context = "tie plus=" + std::to_string(plus);
    EXPECT_EQ(ExpectMaskedMatchesSubStream(inst, model, 1.0, nullptr, mask,
                                           tau, plus, context),
              4u)
        << context;
    StreamScanProcessor masked(inst, model, tau, plus, mask);
    ASSERT_TRUE(RunStream(inst, &masked).ok());
    // Both deadlines are 0.25 + tau; label 40's post (id 1) goes first.
    const std::vector<Emission> expected = {
        {1, 0.75}, {0, 0.75}, {3, 2.0}, {4, 2.5}};
    EXPECT_EQ(masked.emissions(), expected) << context;
  }
}

/// Plain StreamScan fires a post once per label whose P_lu it is, but
/// Z is a set: post 2 (labels 0 and 1) is fired by label 0 at 1.5 and
/// by label 1 at 2.5, and is emitted once, at 1.5, as the reference
/// does. Label 2's emission at 2.0 sits between the two fires, so the
/// repeat is found by scanning back past another post.
TEST(StreamDifferentialTest, PostFiredByTwoLabelsIsEmittedOnce) {
  UniformLambda model(1.5);
  const double tau = 5.0;
  Instance inst = MakeInstance(4, {{0.0, MaskOf(0)},
                                   {0.5, MaskOf(2)},
                                   {1.0, MaskOf(0) | MaskOf(1)},
                                   {1.6, MaskOf(3)}});
  StreamScanProcessor scan(inst, model, tau);
  scan.EnableFireLog();
  StreamScanReferenceProcessor reference(inst, model, tau);
  EXPECT_EQ(ExpectIdenticalEmissions(inst, &scan, &reference, "repeat"), 3u);
  const std::vector<Emission> expected = {{2, 1.5}, {1, 2.0}, {3, 3.1}};
  EXPECT_EQ(scan.emissions(), expected);
  const std::vector<StreamScanProcessor::LabelFire> fires = {
      {1.5, 0, 2}, {2.0, 2, 1}, {2.5, 1, 2}, {3.1, 3, 3}};
  EXPECT_EQ(scan.fire_log(), fires);
}

}  // namespace
}  // namespace mqd
