// Golden regression covers for the VariableLambda (Section 6) path of
// GreedySC. The expected ids below were captured from the
// pre-CSR/pre-incremental-gains implementation on fixed generator
// seeds; the exact-path solver must keep reproducing them
// bit-for-bit. (The uniform-lambda fast path is pinned separately by
// the serial/parallel differential tests.)
#include <cstdint>
#include <memory>
#include <vector>

#include "core/branch_bound.h"
#include "core/greedy_sc.h"
#include "core/proportional.h"
#include "gen/instance_gen.h"
#include "greedy_oracle.h"
#include "gtest/gtest.h"
#include "util/logging.h"

namespace mqd {
namespace {

struct GoldenCase {
  uint64_t seed;
  size_t num_posts;
  std::vector<PostId> cover;
};

const std::vector<GoldenCase>& GoldenCases() {
  static const std::vector<GoldenCase>* const cases =
      new std::vector<GoldenCase>{
          {11,
           598,
           {0,   3,   12,  15,  23,  32,  47,  62,  73,  77,  83,  89,
            90,  93,  113, 119, 133, 144, 160, 166, 173, 183, 188, 194,
            199, 204, 211, 219, 222, 235, 237, 240, 246, 250, 258, 275,
            280, 301, 306, 308, 320, 322, 329, 335, 336, 353, 355, 370,
            374, 377, 388, 400, 416, 424, 441, 442, 443, 459, 462, 487,
            500, 503, 510, 520, 528, 536, 541, 555, 560, 561, 573, 582,
            583, 585, 587}},
          {12,
           586,
           {2,   7,   8,   32,  42,  49,  56,  60,  62,  71,  84,  87,
            88,  111, 114, 128, 130, 141, 147, 158, 172, 194, 207, 208,
            214, 231, 247, 248, 253, 263, 271, 288, 292, 303, 306, 315,
            318, 323, 334, 338, 339, 351, 366, 381, 389, 390, 403, 417,
            420, 424, 428, 442, 448, 455, 458, 462, 471, 472, 473, 489,
            499, 504, 511, 523, 537, 539, 542, 564, 568, 572, 577}},
          {13,
           583,
           {1,   6,   11,  28,  33,  36,  48,  59,  68,  72,  75,  87,
            97,  98,  108, 117, 126, 131, 135, 137, 150, 154, 166, 172,
            198, 200, 212, 213, 232, 235, 238, 242, 262, 274, 284, 288,
            290, 302, 308, 320, 325, 329, 344, 354, 362, 366, 375, 381,
            392, 395, 402, 408, 419, 429, 432, 437, 450, 459, 463, 473,
            488, 491, 495, 515, 530, 532, 542, 547, 552, 568, 572, 573,
            575}},
      };
  return *cases;
}

/// Rebuilds the pinned-seed instance + proportional model of the
/// golden cases (shared by the cover and certified-gap fixtures).
struct GoldenSetup {
  Instance inst;
  std::unique_ptr<CoverageModel> model;
};

GoldenSetup MakeGoldenSetup(uint64_t seed, size_t expect_posts) {
  InstanceGenConfig cfg;
  cfg.num_labels = 5;
  cfg.duration = 1800.0;
  cfg.posts_per_minute = 20.0;
  cfg.overlap_rate = 1.4;
  cfg.seed = seed;
  auto inst = GenerateInstance(cfg);
  MQD_CHECK(inst.ok());
  MQD_CHECK(inst->num_posts() == expect_posts)
      << "generator drifted at seed " << seed;
  ProportionalConfig pcfg;
  pcfg.lambda0 = 45.0;
  auto model = ComputeProportionalLambdas(*inst, pcfg);
  MQD_CHECK(model.ok());
  return GoldenSetup{std::move(inst).value(), std::move(model).value()};
}

// Certified-gap golden fixtures: at a pinned deterministic node budget
// the branch-and-bound certificate (lower bound, incumbent size, gap)
// is a pure function of the seed — any drift means the search order,
// the bounds, or the warm start changed.
struct GoldenGapCase {
  uint64_t seed;
  size_t num_posts;
  size_t lower_bound;
  size_t upper_bound;
  size_t gap;
};

constexpr uint64_t kGoldenGapNodeBudget = 20'000;

const std::vector<GoldenGapCase>& GoldenGapCases() {
  static const std::vector<GoldenGapCase>* const cases =
      new std::vector<GoldenGapCase>{
          {11, 598, 58, 75, 17},
          {12, 586, 59, 71, 12},
          {13, 583, 53, 73, 20},
      };
  return *cases;
}

TEST(GoldenCoverTest, CertifiedGapFixturesAtPinnedSeeds) {
  for (const GoldenGapCase& gc : GoldenGapCases()) {
    GoldenSetup setup = MakeGoldenSetup(gc.seed, gc.num_posts);
    BranchAndBoundSolver bnb(
        BranchBoundConfig{.max_nodes = kGoldenGapNodeBudget});
    auto z = bnb.SolveCertified(setup.inst, *setup.model,
                                Deadline::Unbounded());
    ASSERT_TRUE(z.ok()) << z.status();
    EXPECT_EQ(z->lower_bound, gc.lower_bound) << "seed " << gc.seed;
    EXPECT_EQ(z->upper_bound, gc.upper_bound) << "seed " << gc.seed;
    EXPECT_EQ(z->gap, gc.gap) << "seed " << gc.seed;
    EXPECT_EQ(z->upper_bound, z->cover.size());
  }
}

// Anytime monotone-certificate contract at paper scale: shrinking the
// deterministic budget never yields a *smaller* gap than a longer run
// of the same configuration.
TEST(GoldenCoverTest, ShrinkingBudgetNeverImprovesCertificate) {
  for (uint64_t seed : {11, 12, 13}) {
    const size_t posts[] = {598, 586, 583};
    GoldenSetup setup = MakeGoldenSetup(seed, posts[seed - 11]);
    size_t prev_gap = 0;
    size_t prev_upper = 0;
    bool first = true;
    // Descending budgets: each certificate must be no better (no
    // smaller gap, no smaller cover) than the run with more nodes.
    for (uint64_t max_nodes :
         {kGoldenGapNodeBudget, kGoldenGapNodeBudget / 10, uint64_t{1}}) {
      BranchAndBoundSolver bnb(BranchBoundConfig{.max_nodes = max_nodes});
      auto z = bnb.SolveCertified(setup.inst, *setup.model,
                                  Deadline::Unbounded());
      ASSERT_TRUE(z.ok()) << z.status();
      if (!first) {
        EXPECT_GE(z->gap, prev_gap)
            << "seed " << seed << " max_nodes " << max_nodes;
        EXPECT_GE(z->upper_bound, prev_upper)
            << "seed " << seed << " max_nodes " << max_nodes;
      }
      first = false;
      prev_gap = z->gap;
      prev_upper = z->upper_bound;
    }
  }
}

TEST(GoldenCoverTest, VariableLambdaCoversMatchPrePrBehavior) {
  for (const GoldenCase& gc : GoldenCases()) {
    InstanceGenConfig cfg;
    cfg.num_labels = 5;
    cfg.duration = 1800.0;
    cfg.posts_per_minute = 20.0;
    cfg.overlap_rate = 1.4;
    cfg.seed = gc.seed;
    auto inst = GenerateInstance(cfg);
    ASSERT_TRUE(inst.ok());
    ASSERT_EQ(inst->num_posts(), gc.num_posts)
        << "generator drifted at seed " << gc.seed
        << "; this golden test pins solver behavior, not the generator";
    ProportionalConfig pcfg;
    pcfg.lambda0 = 45.0;
    auto model = ComputeProportionalLambdas(*inst, pcfg);
    ASSERT_TRUE(model.ok());
    auto cover = GreedySCSolver().Solve(*inst, **model);
    ASSERT_TRUE(cover.ok());
    EXPECT_EQ(*cover, gc.cover) << "seed " << gc.seed;
    EXPECT_EQ(*cover, testing::TextbookGreedySC(*inst, **model))
        << "seed " << gc.seed;
  }
}

}  // namespace
}  // namespace mqd
