#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>

#include "core/scan.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "obs/metrics.h"
#include "obs/stack_metrics.h"
#include "stream/delay_stats.h"
#include "stream/factory.h"
#include "stream/instant.h"
#include "stream/replay.h"
#include "stream/stream_greedy.h"
#include "stream/stream_scan.h"
#include "test_helpers.h"

namespace mqd {
namespace {

using ::mqd::testing::MakeInstance;

TEST(ReplayTest, RejectsNullProcessor) {
  Instance inst = MakeInstance(1, {{0.0, MaskOf(0)}});
  EXPECT_FALSE(RunStream(inst, nullptr).ok());
}

TEST(ReplayTest, EmptyStream) {
  InstanceBuilder b(1);
  auto inst = b.Build();
  ASSERT_TRUE(inst.ok());
  UniformLambda model(1.0);
  StreamScanProcessor proc(*inst, model, /*tau=*/1.0);
  auto stats = RunStream(*inst, &proc);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_emitted, 0u);
  EXPECT_EQ(stats->num_posts, 0u);
}

TEST(StreamScanTest, SinglePostEmittedWithinTau) {
  Instance inst = MakeInstance(1, {{10.0, MaskOf(0)}});
  UniformLambda model(5.0);
  StreamScanProcessor proc(inst, model, /*tau=*/2.0);
  auto stats = RunStream(inst, &proc);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(proc.emissions().size(), 1u);
  EXPECT_EQ(proc.emissions()[0].post, 0u);
  EXPECT_DOUBLE_EQ(proc.emissions()[0].emit_time, 12.0);  // t_lu + tau
  EXPECT_TRUE(
      ValidateStreamOutput(inst, model, proc.emissions(), 2.0).ok());
}

TEST(StreamScanTest, LambdaDeadlineBeatsTauForOldAnchor) {
  // Posts at 0 and 3, lambda 4, tau 10: the anchor deadline t_ou +
  // lambda = 4 fires before t_lu + tau = 13, emitting the latest
  // uncovered post (3), which covers both.
  Instance inst = MakeInstance(1, {{0.0, MaskOf(0)}, {3.0, MaskOf(0)}});
  UniformLambda model(4.0);
  StreamScanProcessor proc(inst, model, /*tau=*/10.0);
  auto stats = RunStream(inst, &proc);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(proc.emissions().size(), 1u);
  EXPECT_EQ(proc.emissions()[0].post, 1u);
  EXPECT_DOUBLE_EQ(proc.emissions()[0].emit_time, 4.0);
  EXPECT_TRUE(
      ValidateStreamOutput(inst, model, proc.emissions(), 10.0).ok());
}

TEST(StreamScanTest, PostsCoveredByEmittedAreSuppressed) {
  // After the timer emits P_lu, later posts within lambda of it are
  // never reported.
  Instance inst = MakeInstance(
      1, {{0.0, MaskOf(0)}, {0.5, MaskOf(0)}, {1.0, MaskOf(0)}});
  UniformLambda model(2.0);
  StreamScanProcessor proc(inst, model, /*tau=*/0.1);
  auto stats = RunStream(inst, &proc);
  ASSERT_TRUE(stats.ok());
  // t=0 arrives, timer at 0.1 emits it; 0.5 and 1.0 are covered.
  ASSERT_EQ(proc.emissions().size(), 1u);
  EXPECT_EQ(proc.emissions()[0].post, 0u);
}

TEST(StreamScanTest, TauZeroEmitsEveryUncoveredImmediately) {
  Instance inst = MakeInstance(
      1, {{0.0, MaskOf(0)}, {1.5, MaskOf(0)}, {5.0, MaskOf(0)}});
  UniformLambda model(1.0);
  StreamScanProcessor proc(inst, model, /*tau=*/0.0);
  auto stats = RunStream(inst, &proc);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_emitted, 3u);
  EXPECT_DOUBLE_EQ(stats->max_delay, 0.0);
}

TEST(StreamScanTest, MatchesStaticScanWhenTauGeLambda) {
  // Paper Section 5.1: with tau >= lambda StreamScan outputs exactly
  // as Algorithm Scan.
  Rng rng(404);
  for (int trial = 0; trial < 25; ++trial) {
    InstanceGenConfig cfg;
    cfg.num_labels = 3;
    cfg.duration = 300.0;
    cfg.posts_per_minute = 30.0;
    cfg.overlap_rate = 1.3;
    cfg.seed = 9000 + static_cast<uint64_t>(trial);
    auto inst = GenerateInstance(cfg);
    ASSERT_TRUE(inst.ok());
    const double lambda = 10.0;
    UniformLambda model(lambda);
    for (double tau : {lambda, 2 * lambda}) {
      StreamScanProcessor proc(*inst, model, tau);
      auto stats = RunStream(*inst, &proc);
      ASSERT_TRUE(stats.ok());
      ScanSolver scan;
      auto z = scan.Solve(*inst, model);
      ASSERT_TRUE(z.ok());
      EXPECT_EQ(proc.SelectedPosts(), *z)
          << "trial " << trial << " tau " << tau;
    }
  }
}

TEST(StreamScanPlusTest, CrossLabelEmissionCancelsOtherDeadline) {
  // A post carrying {a,b} emitted for label a also covers label b's
  // pending posts, so StreamScan+ emits fewer posts than StreamScan.
  Instance inst = MakeInstance(2, {{0.0, MaskOf(0)},
                                   {0.2, MaskOf(1)},
                                   {0.4, MaskOf(0) | MaskOf(1)}});
  UniformLambda model(1.0);
  StreamScanProcessor plain(inst, model, /*tau=*/0.5);
  StreamScanProcessor plus(inst, model, /*tau=*/0.5, true);
  ASSERT_TRUE(RunStream(inst, &plain).ok());
  ASSERT_TRUE(RunStream(inst, &plus).ok());
  EXPECT_TRUE(
      ValidateStreamOutput(inst, model, plus.emissions(), 0.5).ok());
  EXPECT_LE(plus.emissions().size(), plain.emissions().size());
}

TEST(InstantTest, EmitsAtArrivalAndRefreshesAllLabelCaches) {
  Instance inst = MakeInstance(2, {{0.0, MaskOf(0) | MaskOf(1)},
                                   {0.5, MaskOf(0)},
                                   {0.6, MaskOf(1)},
                                   {3.0, MaskOf(1)}});
  UniformLambda model(1.0);
  InstantStreamProcessor proc(inst, model);
  auto stats = RunStream(inst, &proc);
  ASSERT_TRUE(stats.ok());
  // Post 0 emitted; posts 1, 2 covered by its caches; post 3 beyond
  // lambda of the label-1 cache -> emitted.
  ASSERT_EQ(proc.emissions().size(), 2u);
  EXPECT_EQ(proc.emissions()[0].post, 0u);
  EXPECT_EQ(proc.emissions()[1].post, 3u);
  EXPECT_DOUBLE_EQ(stats->max_delay, 0.0);
  EXPECT_TRUE(ValidateStreamOutput(inst, model, proc.emissions(), 0.0).ok());
}

TEST(InstantTest, TwoApproxWorstCaseShape) {
  // The paper's Figure 5 pattern: equally spaced posts slightly more
  // than lambda apart force instant output to pick ~2x the optimum.
  InstanceBuilder b(1);
  for (int i = 0; i < 9; ++i) {
    b.Add(i * 1.01, MaskOf(0), static_cast<uint64_t>(i));
  }
  auto inst = b.Build();
  ASSERT_TRUE(inst.ok());
  UniformLambda model(1.0);
  InstantStreamProcessor proc(*inst, model);
  ASSERT_TRUE(RunStream(*inst, &proc).ok());
  // Every post is uncovered on arrival: all 9 emitted; the optimum
  // with full knowledge is 5 (every other post): ratio < 2.
  EXPECT_EQ(proc.emissions().size(), 9u);
}

TEST(StreamGreedyTest, BatchEmitsWithinTauAndCovers) {
  Instance inst = MakeInstance(2, {{0.0, MaskOf(0)},
                                   {1.0, MaskOf(0) | MaskOf(1)},
                                   {2.0, MaskOf(1)},
                                   {9.0, MaskOf(0)}});
  UniformLambda model(1.5);
  StreamGreedyProcessor proc(inst, model, /*tau=*/3.0);
  auto stats = RunStream(inst, &proc);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(ValidateStreamOutput(inst, model, proc.emissions(), 3.0).ok());
  // The batch anchored at t=0 sees {0,1,2} and the hub post 1 covers
  // all of them: exactly one emission there, plus the isolated post 9.
  EXPECT_EQ(stats->num_emitted, 2u);
  EXPECT_EQ(proc.SelectedPosts(), (std::vector<PostId>{1, 3}));
}

TEST(StreamGreedyTest, PlusVariantStopsAtAnchorAndReanchors) {
  // Anchor covered early; + re-anchors on the next uncovered post
  // inside the window and fires a new batch at its own deadline.
  Instance inst = MakeInstance(2, {{0.0, MaskOf(0)},
                                   {0.5, MaskOf(0)},
                                   {2.0, MaskOf(1)}});
  UniformLambda model(1.0);
  StreamGreedyProcessor plus(inst, model, /*tau=*/2.5, true);
  auto stats = RunStream(inst, &plus);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(ValidateStreamOutput(inst, model, plus.emissions(), 2.5).ok());
}

struct StreamParam {
  StreamKind kind;
  double lambda;
  double tau;
  uint64_t seed;
};

// gtest's fallback printer dumps the struct's bytes, padding included,
// into the test names gtest_discover_tests registers.
void PrintTo(const StreamParam& p, std::ostream* os) {
  *os << StreamKindName(p.kind) << " lambda=" << p.lambda
      << " tau=" << p.tau << " seed=" << p.seed;
}

class StreamPropertyTest : public ::testing::TestWithParam<StreamParam> {};

TEST_P(StreamPropertyTest, OutputIsValidCoverWithinDelayBudget) {
  const StreamParam p = GetParam();
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 240.0;
  cfg.posts_per_minute = 40.0;
  cfg.overlap_rate = 1.4;
  cfg.burst_fraction = 0.3;
  cfg.seed = p.seed;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(p.lambda);
  auto proc = CreateStreamProcessor(p.kind, *inst, model, p.tau);
  auto stats = RunStream(*inst, proc.get());
  ASSERT_TRUE(stats.ok());
  const double effective_tau =
      p.kind == StreamKind::kInstant ? 0.0 : p.tau;
  EXPECT_TRUE(ValidateStreamOutput(*inst, model, proc->emissions(),
                                   effective_tau)
                  .ok())
      << StreamKindName(p.kind) << ": "
      << ValidateStreamOutput(*inst, model, proc->emissions(),
                              effective_tau);
  EXPECT_LE(stats->max_delay, effective_tau + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamPropertyTest,
    ::testing::Values(
        StreamParam{StreamKind::kStreamScan, 10.0, 5.0, 1},
        StreamParam{StreamKind::kStreamScan, 10.0, 20.0, 2},
        StreamParam{StreamKind::kStreamScan, 5.0, 0.0, 3},
        StreamParam{StreamKind::kStreamScanPlus, 10.0, 5.0, 4},
        StreamParam{StreamKind::kStreamScanPlus, 15.0, 30.0, 5},
        StreamParam{StreamKind::kStreamGreedy, 10.0, 5.0, 6},
        StreamParam{StreamKind::kStreamGreedy, 10.0, 25.0, 7},
        StreamParam{StreamKind::kStreamGreedyPlus, 10.0, 5.0, 8},
        StreamParam{StreamKind::kStreamGreedyPlus, 20.0, 40.0, 9},
        StreamParam{StreamKind::kInstant, 10.0, 0.0, 10}),
    [](const ::testing::TestParamInfo<StreamParam>& info) {
      std::string name(StreamKindName(info.param.kind));
      // gtest parameter names must be alphanumeric.
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

TEST(StreamFactoryTest, NamesMatch) {
  Instance inst = MakeInstance(1, {{0.0, MaskOf(0)}});
  UniformLambda model(1.0);
  for (StreamKind kind :
       {StreamKind::kStreamScan, StreamKind::kStreamScanPlus,
        StreamKind::kStreamGreedy, StreamKind::kStreamGreedyPlus,
        StreamKind::kInstant}) {
    auto proc = CreateStreamProcessor(kind, inst, model, 1.0);
    ASSERT_NE(proc, nullptr);
    EXPECT_EQ(proc->name(), StreamKindName(kind));
  }
}

/// The checked factory guards user-supplied report-delay budgets:
/// NaN, negative and infinite taus are InvalidArgument (an unbounded
/// delay never emits); tau = 0 stays legal — it is the instant-output
/// regime, not a degenerate input.
TEST(StreamFactoryTest, CheckedFactoryValidatesTau) {
  Instance inst = MakeInstance(1, {{0.0, MaskOf(0)}});
  UniformLambda model(1.0);
  for (double bad : {-1.0, -0.001, std::nan(""),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    auto r = CreateStreamProcessorChecked(StreamKind::kStreamScan, inst,
                                          model, bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  for (double good : {0.0, 2.5}) {
    auto r = CreateStreamProcessorChecked(StreamKind::kStreamGreedyPlus,
                                          inst, model, good);
    ASSERT_TRUE(r.ok()) << good;
    EXPECT_NE(*r, nullptr);
  }
}

/// The replay guard drops time-travelling arrivals rather than feed
/// them to the processor. Instances are value-sorted at Build, so a
/// healthy replay must never tick the drop counter — this pins the
/// guard's no-false-positive side (the firing side needs an unsorted
/// feed, which the Instance invariants make unrepresentable).
TEST(ReplayTest, NonMonotoneArrivalsAreDroppedAndCounted) {
  Instance inst = MakeInstance(1, {{0.0, MaskOf(0)}, {1.0, MaskOf(0)}});
  UniformLambda model(10.0);
  const obs::StreamMetrics& metrics = obs::StreamMetricsFor("StreamScan");
  const uint64_t before = metrics.nonmonotone_dropped->Value();
  StreamScanProcessor proc(inst, model, 1.0);
  ASSERT_TRUE(RunStream(inst, &proc).ok());
  EXPECT_EQ(metrics.nonmonotone_dropped->Value(), before);
}

TEST(ValidateStreamOutputTest, CatchesViolations) {
  Instance inst = MakeInstance(1, {{0.0, MaskOf(0)}, {10.0, MaskOf(0)}});
  UniformLambda model(1.0);
  // Uncovered post.
  EXPECT_FALSE(
      ValidateStreamOutput(inst, model, {{0, 0.0}}, 1.0).ok());
  // Delay over budget.
  EXPECT_FALSE(
      ValidateStreamOutput(inst, model, {{0, 5.0}, {1, 10.0}}, 1.0).ok());
  // Emission before arrival.
  EXPECT_FALSE(
      ValidateStreamOutput(inst, model, {{0, -1.0}, {1, 10.0}}, 1.0).ok());
  // Valid.
  EXPECT_TRUE(
      ValidateStreamOutput(inst, model, {{0, 0.5}, {1, 10.5}}, 1.0).ok());
}

TEST(StreamMetricsTest, RegistryDelayHistogramAgreesWithRunStats) {
  // The replay's observability hooks must report the same delay
  // distribution that StreamRunStats computes: one histogram sample
  // per emission, matching max and mean.
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 240.0;
  cfg.posts_per_minute = 40.0;
  cfg.overlap_rate = 1.4;
  cfg.seed = 77;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(10.0);
  auto proc = CreateStreamProcessor(StreamKind::kStreamScan, *inst, model,
                                    5.0);
  ASSERT_NE(proc, nullptr);

  obs::MetricsRegistry::Global().Reset();
  auto stats = RunStream(*inst, proc.get());
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->num_emitted, 0u);

  const obs::StreamMetrics& metrics = obs::StreamMetricsFor(proc->name());
  EXPECT_EQ(metrics.replays->Value(), 1u);
  EXPECT_EQ(metrics.posts->Value(), stats->num_posts);
  EXPECT_EQ(metrics.emissions->Value(), stats->num_emitted);
  EXPECT_EQ(metrics.report_delay_seconds->TotalCount(), stats->num_emitted);
  EXPECT_NEAR(metrics.report_delay_seconds->Max(), stats->max_delay, 1e-9);
  EXPECT_NEAR(metrics.report_delay_seconds->Sum(),
              stats->mean_delay * static_cast<double>(stats->num_emitted),
              1e-6);
  // stream-scan honors tau = 5, so the replay saw no violations.
  EXPECT_EQ(metrics.tau_violations->Value(), 0u);
  EXPECT_EQ(metrics.replay_seconds->TotalCount(), 1u);
}

/// Deliberately broken processor: claims tau = 0 but reports every
/// post one second late, so every emission is a contract violation.
class LateTestProcessor final : public StreamProcessor {
 public:
  using StreamProcessor::StreamProcessor;
  std::string_view name() const override { return "TestLate"; }
  void AdvanceTo(double) override {}
  void OnArrival(PostId post) override { pending_.push_back(post); }
  void Finish() override {
    for (PostId p : pending_) Emit(p, inst_.value(p) + 1.0);
  }
  double tau() const override { return 0.0; }

 private:
  std::vector<PostId> pending_;
};

TEST(StreamMetricsTest, TauViolationsCountedForLateEmissions) {
  Instance inst = MakeInstance(2, {{0.0, MaskOf(0)}, {3.0, MaskOf(1)}});
  UniformLambda model(10.0);

  // instant honors its tau = 0 (emits at arrival): no violations.
  obs::MetricsRegistry::Global().Reset();
  InstantStreamProcessor instant(inst, model);
  ASSERT_TRUE(RunStream(inst, &instant).ok());
  EXPECT_EQ(obs::StreamMetricsFor(instant.name()).tau_violations->Value(),
            0u);

  // The late processor breaks its claimed bound on both posts.
  LateTestProcessor late(inst, model);
  ASSERT_TRUE(RunStream(inst, &late).ok());
  const obs::StreamMetrics& metrics = obs::StreamMetricsFor(late.name());
  EXPECT_EQ(metrics.emissions->Value(), 2u);
  EXPECT_EQ(metrics.tau_violations->Value(), 2u);
  EXPECT_NEAR(metrics.report_delay_seconds->Max(), 1.0, 1e-9);
}

}  // namespace
}  // namespace mqd
