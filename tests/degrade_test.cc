#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coverage.h"
#include "core/degrade.h"
#include "core/greedy_sc.h"
#include "core/opt_dp.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "obs/stack_metrics.h"
#include "test_helpers.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace mqd {
namespace {

using ::mqd::testing::MakeInstance;

/// Scriptable rung: fails with a fixed Status, throws, or answers with
/// a fixed cover.
class StubSolver final : public Solver {
 public:
  enum class Mode { kSucceed, kFail, kThrow };

  StubSolver(std::string name, Mode mode, Status failure = Status::OK(),
             std::vector<PostId> cover = {})
      : name_(std::move(name)),
        mode_(mode),
        failure_(std::move(failure)),
        cover_(std::move(cover)) {}

  std::string_view name() const override { return name_; }

  Result<std::vector<PostId>> SolveWithBudget(
      const Instance&, const CoverageModel&,
      const Deadline&) const override {
    ++calls_;
    switch (mode_) {
      case Mode::kSucceed:
        return cover_;
      case Mode::kFail:
        return failure_;
      case Mode::kThrow:
        throw std::runtime_error("stub rung misbehaved");
    }
    return Status::Internal("unreachable");
  }

  int calls() const { return calls_; }

 private:
  std::string name_;
  Mode mode_;
  Status failure_;
  std::vector<PostId> cover_;
  mutable int calls_ = 0;
};

Instance TinyInstance() {
  return MakeInstance(2, {{0.0, MaskOf(0)},
                          {1.0, MaskOf(0) | MaskOf(1)},
                          {2.0, MaskOf(1)}});
}

TEST(DegradeTest, FirstRungAnswersUndegraded) {
  Instance inst = TinyInstance();
  UniformLambda model(10.0);
  std::vector<std::unique_ptr<Solver>> rungs;
  rungs.push_back(std::make_unique<StubSolver>(
      "top", StubSolver::Mode::kSucceed, Status::OK(),
      std::vector<PostId>{1}));
  rungs.push_back(std::make_unique<StubSolver>(
      "bottom", StubSolver::Mode::kSucceed, Status::OK(),
      std::vector<PostId>{0, 1, 2}));
  DegradingSolver solver(std::move(rungs));
  DegradeOutcome out =
      solver.SolveDegrading(inst, model, Deadline::Unbounded());
  EXPECT_EQ(out.rung, "top");
  EXPECT_EQ(out.rung_index, 0u);
  EXPECT_FALSE(out.degraded);
  EXPECT_TRUE(out.failures.empty());
  EXPECT_EQ(out.cover, std::vector<PostId>({1}));
}

TEST(DegradeTest, DeadlineFailureFallsThroughAndCountsMetrics) {
  Instance inst = TinyInstance();
  UniformLambda model(10.0);
  const uint64_t expired_before =
      obs::GetRobustMetrics().deadline_expired->Value();
  const uint64_t degraded_before =
      obs::DegradedTotalFor("second").Value();
  std::vector<std::unique_ptr<Solver>> rungs;
  rungs.push_back(std::make_unique<StubSolver>(
      "first", StubSolver::Mode::kFail,
      Status::DeadlineExceeded("first ran out of budget")));
  rungs.push_back(std::make_unique<StubSolver>(
      "second", StubSolver::Mode::kSucceed, Status::OK(),
      std::vector<PostId>{0, 2}));
  DegradingSolver solver(std::move(rungs));
  DegradeOutcome out =
      solver.SolveDegrading(inst, model, Deadline::Unbounded());
  EXPECT_EQ(out.rung, "second");
  EXPECT_EQ(out.rung_index, 1u);
  EXPECT_TRUE(out.degraded);
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(obs::GetRobustMetrics().deadline_expired->Value(),
            expired_before + 1);
  EXPECT_EQ(obs::DegradedTotalFor("second").Value(), degraded_before + 1);
}

TEST(DegradeTest, ThrowingRungIsContainedAsInternalFailure) {
  Instance inst = TinyInstance();
  UniformLambda model(10.0);
  std::vector<std::unique_ptr<Solver>> rungs;
  rungs.push_back(
      std::make_unique<StubSolver>("boom", StubSolver::Mode::kThrow));
  rungs.push_back(std::make_unique<StubSolver>(
      "safety", StubSolver::Mode::kSucceed, Status::OK(),
      std::vector<PostId>{1}));
  DegradingSolver solver(std::move(rungs));
  DegradeOutcome out =
      solver.SolveDegrading(inst, model, Deadline::Unbounded());
  EXPECT_EQ(out.rung, "safety");
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].code(), StatusCode::kInternal);
}

/// Every rung failing lands on the implicit trivial rung, which is
/// always a valid lambda-cover — the ladder is total.
TEST(DegradeTest, AllRungsFailingLandsOnTrivialCover) {
  Instance inst = TinyInstance();
  UniformLambda model(0.1);  // tight lambda: only the full set covers
  std::vector<std::unique_ptr<Solver>> rungs;
  rungs.push_back(std::make_unique<StubSolver>(
      "a", StubSolver::Mode::kFail, Status::Internal("a failed")));
  rungs.push_back(
      std::make_unique<StubSolver>("b", StubSolver::Mode::kThrow));
  DegradingSolver solver(std::move(rungs));
  DegradeOutcome out =
      solver.SolveDegrading(inst, model, Deadline::Unbounded());
  EXPECT_EQ(out.rung, "trivial");
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.failures.size(), 2u);
  EXPECT_EQ(out.cover, std::vector<PostId>({0, 1, 2}));
  EXPECT_TRUE(IsCover(inst, model, out.cover));
}

/// An already-expired budget forces every real rung to fail fast, and
/// the ladder must still answer (with the trivial cover) instead of
/// timing out: the service still responds with a valid cover and the
/// outcome shows which rung answered.
TEST(DegradeTest, ExpiredBudgetStillAnswersWithValidCover) {
  InstanceGenConfig cfg;
  cfg.num_labels = 5;
  cfg.duration = 1200.0;
  cfg.posts_per_minute = 120.0;
  cfg.overlap_rate = 1.5;
  cfg.seed = 2026;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(10.0);

  DegradingSolver ladder;
  DegradeOutcome out =
      ladder.SolveDegrading(*inst, model, Deadline::AfterSeconds(-1.0));
  EXPECT_EQ(out.rung, "trivial");
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.failures.size(), 3u);  // GreedySC, Scan+, Scan
  for (const Status& failure : out.failures) {
    EXPECT_EQ(failure.code(), StatusCode::kDeadlineExceeded)
        << failure.ToString();
  }
  EXPECT_TRUE(IsCover(*inst, model, out.cover));
}

/// The acceptance shape from the issue: a paper-scale instance on
/// which OPT alone cannot meet the budget (its end-pattern DP blows
/// the state-space guard or the deadline long before finishing), yet
/// the ladder still answers inside the budget on a cheaper rung, and
/// the degradation metric records which one.
TEST(DegradeTest, PaperScaleOptExceedsBudgetButLadderAnswers) {
  InstanceGenConfig cfg;
  cfg.num_labels = 5;
  cfg.duration = 1200.0;
  cfg.posts_per_minute = 120.0;
  cfg.overlap_rate = 1.5;
  cfg.seed = 404;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(30.0);

  // A work guard low enough that OPT gives up on this instance after
  // a deterministic amount of work — the rung failure must come from
  // the guard, not from racing the wall clock, or the test would
  // flake under sanitizer slowdowns (and the shared deadline would
  // already be spent when GreedySC's turn comes).
  OptConfig tight;
  tight.max_transitions = 2'000'000;

  // Sanity: OPT alone cannot answer on this instance.
  const double budget_seconds = 30.0;
  OptDpSolver opt(tight);
  auto opt_alone = opt.SolveWithBudget(
      *inst, model, Deadline::AfterSeconds(budget_seconds));
  ASSERT_FALSE(opt_alone.ok());

  const uint64_t degraded_before =
      obs::DegradedTotalFor("GreedySC").Value();
  std::vector<std::unique_ptr<Solver>> rungs;
  rungs.push_back(std::make_unique<OptDpSolver>(tight));
  rungs.push_back(std::make_unique<GreedySCSolver>());
  DegradingSolver ladder(std::move(rungs));
  Stopwatch watch;
  DegradeOutcome out = ladder.SolveDegrading(
      *inst, model, Deadline::AfterSeconds(budget_seconds));
  EXPECT_LT(watch.ElapsedSeconds(), budget_seconds);
  EXPECT_EQ(out.rung, "GreedySC");
  EXPECT_EQ(out.rung_index, 1u);
  EXPECT_TRUE(out.degraded);
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_TRUE(out.failures[0].code() == StatusCode::kResourceExhausted ||
              out.failures[0].code() == StatusCode::kDeadlineExceeded)
      << out.failures[0].ToString();
  EXPECT_TRUE(IsCover(*inst, model, out.cover));
  EXPECT_EQ(obs::DegradedTotalFor("GreedySC").Value(),
            degraded_before + 1);
}

/// With a sane budget the full ladder answers on the first rung, and
/// the budgeted path returns exactly what the unbudgeted path does
/// (the deadline plumbing must not perturb the hot path).
TEST(DegradeTest, UnboundedBudgetMatchesPlainSolve) {
  InstanceGenConfig cfg;
  cfg.num_labels = 4;
  cfg.duration = 600.0;
  cfg.posts_per_minute = 60.0;
  cfg.seed = 77;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(12.0);

  DegradingSolver ladder;
  DegradeOutcome out =
      ladder.SolveDegrading(*inst, model, Deadline::Unbounded());
  EXPECT_EQ(out.rung_index, 0u);
  EXPECT_FALSE(out.degraded);
  EXPECT_TRUE(IsCover(*inst, model, out.cover));

  GreedySCSolver greedy;
  auto plain = greedy.Solve(*inst, model);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(out.cover, *plain);

  auto budgeted =
      greedy.SolveWithBudget(*inst, model, Deadline::AfterSeconds(3600.0));
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(*plain, *budgeted);
}

}  // namespace
}  // namespace mqd
