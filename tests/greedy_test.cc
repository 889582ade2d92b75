#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/greedy_sc.h"
#include "core/proportional.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "greedy_oracle.h"
#include "test_helpers.h"

namespace mqd {
namespace {

using ::mqd::testing::MakeInstance;
using ::mqd::testing::TextbookGreedySC;

TEST(GreedyTest, CoversPaperExample) {
  Instance inst = MakeInstance(2, {{0.0, MaskOf(0)},
                                   {1.0, MaskOf(0)},
                                   {2.0, MaskOf(0) | MaskOf(1)},
                                   {3.0, MaskOf(1)}});
  UniformLambda model(1.0);
  GreedySCSolver greedy;
  auto z = greedy.Solve(inst, model);
  ASSERT_TRUE(z.ok());
  EXPECT_TRUE(IsCover(inst, model, *z));
  EXPECT_EQ(z->size(), 2u);
}

TEST(GreedyTest, PicksHubPostCoveringBothLabels) {
  // A central {a,b} post covering everything should be the single
  // greedy pick (it has the maximum set size).
  Instance inst = MakeInstance(2, {{0.0, MaskOf(0)},
                                   {1.0, MaskOf(0) | MaskOf(1)},
                                   {2.0, MaskOf(1)}});
  UniformLambda model(1.0);
  GreedySCSolver greedy;
  auto z = greedy.Solve(inst, model);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(*z, (std::vector<PostId>{1}));
}

TEST(GreedyTest, EmptyInstance) {
  InstanceBuilder b(1);
  auto inst = b.Build();
  ASSERT_TRUE(inst.ok());
  UniformLambda model(1.0);
  GreedySCSolver greedy;
  auto z = greedy.Solve(*inst, model);
  ASSERT_TRUE(z.ok());
  EXPECT_TRUE(z->empty());
}

TEST(GreedyTest, SinglePost) {
  Instance inst = MakeInstance(3, {{5.0, MaskOf(2)}});
  UniformLambda model(0.0);
  GreedySCSolver greedy;
  auto z = greedy.Solve(inst, model);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(*z, (std::vector<PostId>{0}));
}

TEST(GreedyTest, DirectionalCoverageRespected) {
  Instance inst = MakeInstance(1, {{0.0, MaskOf(0)}, {3.0, MaskOf(0)}});
  VariableLambda model({{4.0}, {1.0}}, 4.0);
  GreedySCSolver greedy;
  auto z = greedy.Solve(inst, model);
  ASSERT_TRUE(z.ok());
  // p0 covers both pairs (gain 2) and must be the only pick.
  EXPECT_EQ(*z, (std::vector<PostId>{0}));
}

TEST(GreedyTest, LargeLambdaCollapsesToFewPosts) {
  Rng rng(66);
  auto inst = GenerateTinyInstance(40, 3, 2, 10, &rng);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(100.0);  // everything within reach
  GreedySCSolver greedy;
  auto z = greedy.Solve(*inst, model);
  ASSERT_TRUE(z.ok());
  EXPECT_TRUE(IsCover(*inst, model, *z));
  // One post per label suffices at most (a single post covers a whole
  // label); greedy may still do better via multi-label posts.
  EXPECT_LE(z->size(), 3u);
}

TEST(GreedyTest, NameIsGreedySC) {
  EXPECT_EQ(GreedySCSolver().name(), "GreedySC");
}

// --- Differential battery against the textbook oracle
// (tests/greedy_oracle.h). The block-max argmax must pick exactly the
// post the full first-max scan picks, so every cover is identical.

void ExpectMatchesOracle(const Instance& inst, const CoverageModel& model,
                         const std::string& what) {
  auto z = GreedySCSolver().Solve(inst, model);
  ASSERT_TRUE(z.ok()) << what << ": " << z.status().ToString();
  EXPECT_EQ(*z, TextbookGreedySC(inst, model)) << what;
  EXPECT_TRUE(IsCover(inst, model, *z)) << what;
}

std::unique_ptr<VariableLambda> Proportional(const Instance& inst,
                                             DimValue lambda0) {
  ProportionalConfig config;
  config.lambda0 = lambda0;
  auto model = ComputeProportionalLambdas(inst, config);
  MQD_CHECK(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

TEST(GreedyOracleTest, UniformRandomInstances) {
  Rng rng(55);
  for (int trial = 0; trial < 60; ++trial) {
    // Small integer value ranges make duplicate values and gain ties
    // common.
    auto inst = GenerateTinyInstance(30 + 7 * trial, 4, 3, 20 + 5 * trial,
                                     &rng);
    ASSERT_TRUE(inst.ok());
    ExpectMatchesOracle(*inst, UniformLambda(1.0 + trial % 9),
                        "tiny trial " + std::to_string(trial));
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    InstanceGenConfig config;
    config.num_labels = 6;
    config.duration = 1200.0;
    config.posts_per_minute = 60.0;
    config.overlap_rate = 1.6;
    config.seed = seed;
    auto inst = GenerateInstance(config);
    ASSERT_TRUE(inst.ok());
    for (DimValue lambda : {5.0, 30.0, 120.0}) {
      ExpectMatchesOracle(*inst, UniformLambda(lambda),
                          "seed " + std::to_string(seed) + " lambda " +
                              std::to_string(lambda));
    }
  }
}

TEST(GreedyOracleTest, ProportionalRandomInstances) {
  Rng rng(56);
  for (int trial = 0; trial < 40; ++trial) {
    auto inst = GenerateTinyInstance(40 + 9 * trial, 5, 3, 60 + 6 * trial,
                                     &rng);
    ASSERT_TRUE(inst.ok());
    ExpectMatchesOracle(*inst, *Proportional(*inst, 4.0 + trial % 7),
                        "tiny trial " + std::to_string(trial));
  }
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    InstanceGenConfig config;
    config.num_labels = 5;
    config.duration = 1800.0;
    config.posts_per_minute = 20.0;
    config.overlap_rate = 1.4;
    config.burst_fraction = 0.3;
    config.seed = seed;
    auto inst = GenerateInstance(config);
    ASSERT_TRUE(inst.ok());
    for (DimValue lambda0 : {15.0, 45.0, 180.0}) {
      ExpectMatchesOracle(*inst, *Proportional(*inst, lambda0),
                          "seed " + std::to_string(seed) + " lambda0 " +
                              std::to_string(lambda0));
    }
  }
}

TEST(GreedyOracleTest, SizesAroundTheBlockEdge) {
  Rng rng(57);
  for (int n : {1, 63, 64, 65, 127, 129}) {
    for (int trial = 0; trial < 8; ++trial) {
      auto inst = GenerateTinyInstance(n, 3, 2, n / 2 + 1, &rng);
      ASSERT_TRUE(inst.ok());
      const std::string what =
          "n " + std::to_string(n) + " trial " + std::to_string(trial);
      ExpectMatchesOracle(*inst, UniformLambda(trial % 4), what);
      ExpectMatchesOracle(*inst, *Proportional(*inst, 1.0 + trial % 4),
                          what + " proportional");
    }
  }
}

TEST(GreedyOracleTest, AllEqualGainsTieToSmallestPostId) {
  for (int n : {63, 64, 65, 129, 200}) {
    // Every post at one value: all gains equal n, across every block,
    // and post 0 alone covers everything.
    std::vector<std::pair<DimValue, LabelMask>> same(n, {7.0, MaskOf(0)});
    const Instance flat = MakeInstance(1, same);
    ExpectMatchesOracle(flat, UniformLambda(1.0), "flat n " +
                                                      std::to_string(n));
    EXPECT_EQ(*GreedySCSolver().Solve(flat, UniformLambda(1.0)),
              (std::vector<PostId>{0}));

    // A unit-spaced chain at lambda 1: every interior post ties at
    // gain 3, then after each pick the next tie at gain 3 sits three
    // posts on, often in the next block. First-max picks 1, 4, 7, ...
    std::vector<std::pair<DimValue, LabelMask>> chain;
    for (int i = 0; i < n; ++i) chain.push_back({1.0 * i, MaskOf(0)});
    const Instance line = MakeInstance(1, chain);
    ExpectMatchesOracle(line, UniformLambda(1.0), "chain n " +
                                                      std::to_string(n));
    if (n % 3 == 0) {
      std::vector<PostId> expected;
      for (int i = 1; i < n; i += 3) expected.push_back(i);
      EXPECT_EQ(*GreedySCSolver().Solve(line, UniformLambda(1.0)), expected)
          << "chain n " << n;
    }
  }
}

TEST(GreedyOracleTest, WindowTableEdges) {
  // Labels of 1-5 posts, shorter than the window sweep's four-value
  // step: only its scalar tail runs. Even posts of label 0 also carry
  // label 2, so posts cover pairs in several short labels at once.
  for (int n = 1; n <= 5; ++n) {
    for (int spacing = 1; spacing <= 3; ++spacing) {
      std::vector<std::pair<DimValue, LabelMask>> posts;
      for (int i = 0; i < n; ++i) {
        posts.push_back({1.0 * spacing * i,
                         MaskOf(0) | (i % 2 == 0 ? MaskOf(2) : 0)});
      }
      for (int i = 0; i < 6 - n; ++i) {
        posts.push_back({spacing * i + 0.5, MaskOf(1)});
      }
      const Instance inst = MakeInstance(3, posts);
      for (DimValue lambda : {0.0, 0.5, 1.0, 2.0, 4.0, 100.0}) {
        const std::string what = "short n " + std::to_string(n) +
                                 " spacing " + std::to_string(spacing) +
                                 " lambda " + std::to_string(lambda);
        ExpectMatchesOracle(inst, UniformLambda(lambda), what);
        ExpectMatchesOracle(inst, *Proportional(inst, 1.0 + lambda),
                            what + " proportional");
      }
    }
  }
  // Equal-value bursts longer than four posts, starting at every offset
  // modulo the step, with integer values and lambdas so the window
  // edges fall exactly on the burst: at lambda 2 the burst value is
  // within reach of the last prefix post and of the first suffix post
  // (both two away), at lambda 1 it is not. With no suffix, label 0's
  // burst is its tail, and label 1 always ends in a burst, so their
  // windows end at |LP(a)|: label 0's end marker lands on label 1's
  // first difference-array slot, label 1's on the trailing slot.
  for (int burst = 5; burst <= 9; ++burst) {
    for (int offset = 0; offset <= 4; ++offset) {
      for (int suffix : {0, 2}) {
        std::vector<std::pair<DimValue, LabelMask>> posts;
        const DimValue at = offset + 1.0;
        for (int i = 0; i < offset; ++i) posts.push_back({1.0 * i, MaskOf(0)});
        for (int i = 0; i < burst; ++i) {
          posts.push_back({at, MaskOf(0) | (i % 3 == 0 ? MaskOf(1) : 0)});
        }
        for (int i = 0; i < suffix; ++i) {
          posts.push_back({at + 2.0 + i, MaskOf(0)});
        }
        for (int i = 0; i < 3; ++i) posts.push_back({at + 1.0 * i, MaskOf(1)});
        for (int i = 0; i < burst; ++i) posts.push_back({at + 4.0, MaskOf(1)});
        const Instance inst = MakeInstance(2, posts);
        for (DimValue lambda : {1.0, 2.0, 3.0, 4.0}) {
          const std::string what =
              "burst " + std::to_string(burst) + " offset " +
              std::to_string(offset) + " suffix " + std::to_string(suffix) +
              " lambda " + std::to_string(lambda);
          ExpectMatchesOracle(inst, UniformLambda(lambda), what);
          ExpectMatchesOracle(inst, *Proportional(inst, lambda),
                              what + " proportional");
        }
      }
    }
  }
}

}  // namespace
}  // namespace mqd
