// Contract tests of BatchSolver's claim loop: exception and bad-job
// isolation into per-slot Status, the submission-order guarantee over
// 10k jobs, the serial configuration, and concurrent SolveAll calls on
// one solver. These are the tests the TSan preset is aimed at.
#include "parallel/batch_solver.h"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/instance_gen.h"
#include "test_helpers.h"

namespace mqd {
namespace {

/// A Solver that always throws; BatchSolver must convert the exception
/// into a per-job kInternal Status instead of crashing the batch.
class ThrowingSolver final : public Solver {
 public:
  std::string_view name() const override { return "Throwing"; }
  Result<std::vector<PostId>> SolveWithBudget(
      const Instance&, const CoverageModel&,
      const Deadline&) const override {
    throw std::runtime_error("injected solver failure");
  }
};

TEST(BatchSolverTest, ExceptionBecomesStatusAndIsolatesTheJob) {
  const Instance inst = testing::MakeInstance(1, {{0.0, 1}, {100.0, 1}});
  ThrowingSolver throwing;
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{.instance = &inst,
                          .kind = SolverKind::kScan,
                          .lambda = 1.0});
  jobs.push_back(BatchJob{.instance = &inst, .lambda = 1.0,
                          .solver = &throwing});
  jobs.push_back(BatchJob{.instance = nullptr, .lambda = 1.0});
  jobs.push_back(BatchJob{.instance = &inst,
                          .kind = SolverKind::kScanPlus,
                          .lambda = -5.0});
  jobs.push_back(BatchJob{.instance = &inst,
                          .kind = SolverKind::kScanPlus,
                          .lambda = std::numeric_limits<double>::quiet_NaN()});

  BatchSolver solver(4);
  const std::vector<BatchJobResult> results = solver.SolveAll(jobs);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].cover.size(), 2u);
  EXPECT_EQ(results[1].status.code(), StatusCode::kInternal);
  EXPECT_NE(results[1].status.message().find("injected solver failure"),
            std::string::npos);
  EXPECT_EQ(results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[3].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[4].status.code(), StatusCode::kInvalidArgument);
}

TEST(BatchSolverTest, TenThousandJobsKeepSubmissionOrder) {
  // Five tiny instances with 1..5 posts, all farther apart than
  // lambda=0 reaches: the cover of instance k is exactly its k+1
  // posts, so every result slot proves which job it belongs to.
  std::vector<Instance> instances;
  for (int k = 0; k < 5; ++k) {
    std::vector<std::pair<DimValue, LabelMask>> posts;
    for (int i = 0; i <= k; ++i) posts.push_back({i * 10.0, 1});
    instances.push_back(testing::MakeInstance(1, posts));
  }
  constexpr size_t kJobs = 10000;
  std::vector<BatchJob> jobs;
  jobs.reserve(kJobs);
  for (size_t j = 0; j < kJobs; ++j) {
    jobs.push_back(BatchJob{.instance = &instances[j % 5],
                            .kind = SolverKind::kScan,
                            .lambda = 0.0});
  }
  BatchSolver solver(8);
  const std::vector<BatchJobResult> results = solver.SolveAll(jobs);
  ASSERT_EQ(results.size(), kJobs);
  for (size_t j = 0; j < kJobs; ++j) {
    ASSERT_TRUE(results[j].status.ok()) << j;
    ASSERT_EQ(results[j].cover.size(), j % 5 + 1)
        << "result " << j << " does not match job " << j;
  }
}

TEST(BatchSolverTest, EmptyBatchAndSerialPool) {
  BatchSolver serial(1);
  EXPECT_TRUE(serial.SolveAll({}).empty());

  const Instance inst = testing::MakeInstance(1, {{0.0, 1}});
  std::vector<BatchJob> jobs{
      BatchJob{.instance = &inst, .kind = SolverKind::kScan, .lambda = 1.0}};
  const std::vector<BatchJobResult> results = serial.SolveAll(jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].cover, std::vector<PostId>{0});
}

/// Two threads share one const solver, each with its own job list:
/// SolveAll keeps no state between calls, so neither batch may see the
/// other's jobs, and every slot must equal the serial cover.
TEST(BatchSolverTest, ConcurrentSolveAllCallsStayIndependent) {
  std::vector<Instance> instances;
  for (uint64_t seed : {5u, 9u}) {
    InstanceGenConfig cfg;
    cfg.num_labels = 4;
    cfg.duration = 600.0;
    cfg.posts_per_minute = 60.0;
    cfg.seed = seed;
    auto inst = GenerateInstance(cfg);
    ASSERT_TRUE(inst.ok());
    instances.push_back(std::move(inst).value());
  }
  std::vector<BatchJob> lists[2];
  for (size_t t = 0; t < 2; ++t) {
    for (int rep = 0; rep < 25; ++rep) {
      for (double lambda : {0.0, 20.0, 90.0}) {
        lists[t].push_back(BatchJob{
            .instance = &instances[t],
            .kind = t == 0 ? SolverKind::kScanPlus : SolverKind::kGreedySC,
            .lambda = lambda + rep});
      }
    }
  }

  const BatchSolver solver(4);
  std::vector<BatchJobResult> got[2];
  std::thread other([&] { got[1] = solver.SolveAll(lists[1]); });
  got[0] = solver.SolveAll(lists[0]);
  other.join();

  for (size_t t = 0; t < 2; ++t) {
    ASSERT_EQ(got[t].size(), lists[t].size());
    for (size_t j = 0; j < lists[t].size(); ++j) {
      const BatchJob& job = lists[t][j];
      const UniformLambda model(job.lambda);
      auto serial = CreateSolver(job.kind)->Solve(*job.instance, model);
      ASSERT_TRUE(serial.ok());
      ASSERT_TRUE(got[t][j].status.ok()) << t << "/" << j;
      ASSERT_EQ(got[t][j].cover, *serial) << "list " << t << " job " << j;
    }
  }
}

}  // namespace
}  // namespace mqd
