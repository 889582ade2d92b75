// Differential tests of the batch engine: for hundreds of randomized
// instances every BatchSolver slot must hold a **byte-identical** cover
// to the serial solver at 1, 2, and 8 threads, including the lambda
// edge cases (lambda = 0, lambda >= span), degenerate instances (empty,
// single post) and variable-lambda models, and the batch metrics must
// match the serial ground truth.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "obs/metrics.h"
#include "obs/stack_metrics.h"
#include "parallel/batch_solver.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace mqd {
namespace {

const SolverKind kKinds[] = {SolverKind::kScan, SolverKind::kScanPlus,
                             SolverKind::kGreedySC,
                             SolverKind::kGreedySCLazy};

const int kThreadCounts[] = {1, 2, 8};

/// A directional (post-specific lambda) model over `inst`: per-post
/// reaches derived from a hash of the post id, max_reach dominating
/// all of them.
std::unique_ptr<VariableLambda> HashedVariableLambda(const Instance& inst) {
  std::vector<std::vector<DimValue>> reaches(inst.num_posts());
  DimValue max_reach = 0.0;
  for (PostId p = 0; p < inst.num_posts(); ++p) {
    const int k = MaskCount(inst.labels(p));
    for (int i = 0; i < k; ++i) {
      const DimValue r = static_cast<DimValue>((p * 7 + i * 3) % 13);
      reaches[p].push_back(r);
      max_reach = std::max(max_reach, r);
    }
  }
  return std::make_unique<VariableLambda>(std::move(reaches), max_reach);
}

/// Lambdas probing the interesting regimes of an instance: degenerate
/// zero, a tiny positive, a mid-range value, and >= span (one pick per
/// label covers everything).
std::vector<double> EdgeLambdas(const Instance& inst) {
  const double span = inst.max_value() - inst.min_value();
  return {0.0, span > 0 ? span / 64.0 : 0.5, span > 0 ? span / 7.0 : 1.0,
          span + 1.0};
}

/// Batch jobs plus the serial cover each one must reproduce.
struct BatchCase {
  std::vector<BatchJob> jobs;
  std::vector<std::vector<PostId>> expected;

  /// One job per solver kind for (inst, lambda); `inst` must outlive
  /// the case.
  void Add(const Instance& inst, double lambda) {
    UniformLambda model(lambda);
    for (SolverKind kind : kKinds) {
      auto serial = CreateSolver(kind)->Solve(inst, model);
      ASSERT_TRUE(serial.ok()) << SolverKindName(kind);
      jobs.push_back(
          BatchJob{.instance = &inst, .kind = kind, .lambda = lambda});
      expected.push_back(std::move(serial).value());
    }
  }
};

/// Solves the whole case as one batch at every thread count; each slot
/// must be a valid cover equal to its serial solve.
void ExpectBatchMatchesSerial(const BatchCase& batch) {
  for (int threads : kThreadCounts) {
    const std::vector<BatchJobResult> results =
        BatchSolver(threads).SolveAll(batch.jobs);
    ASSERT_EQ(results.size(), batch.jobs.size());
    for (size_t j = 0; j < results.size(); ++j) {
      const BatchJob& job = batch.jobs[j];
      ASSERT_TRUE(results[j].status.ok()) << j;
      ASSERT_EQ(results[j].cover, batch.expected[j])
          << SolverKindName(job.kind) << " diverged at " << threads
          << " threads, lambda=" << job.lambda
          << ", n=" << job.instance->num_posts();
      ASSERT_TRUE(
          IsCover(*job.instance, UniformLambda(job.lambda), results[j].cover));
    }
  }
}

TEST(ParallelDifferentialTest, TinyRandomInstancesAllKindsAllThreads) {
  // ~160 tiny instances: every shape of label overlap and clustering
  // the generator can produce at this size, each solved at four
  // lambdas x four kinds in one batch at three thread counts.
  Rng rng(20260807);
  std::vector<Instance> instances;
  instances.reserve(160);
  BatchCase batch;
  for (int trial = 0; trial < 160; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform(40));
    const int labels = 1 + static_cast<int>(rng.Uniform(5));
    const int per_post = 1 + static_cast<int>(rng.Uniform(labels));
    auto inst = GenerateTinyInstance(n, labels, per_post, 60, &rng);
    ASSERT_TRUE(inst.ok());
    const Instance& stored = instances.emplace_back(std::move(inst).value());
    for (double lambda : EdgeLambdas(stored)) batch.Add(stored, lambda);
  }
  ExpectBatchMatchesSerial(batch);
}

TEST(ParallelDifferentialTest, MediumGeneratedInstances) {
  // A few realistic-size instances with bursts.
  std::vector<Instance> instances;
  instances.reserve(3);
  BatchCase batch;
  for (uint64_t seed : {7u, 21u, 77u}) {
    InstanceGenConfig cfg;
    cfg.num_labels = 6;
    cfg.duration = 1200.0;
    cfg.posts_per_minute = 90.0;
    cfg.overlap_rate = 1.4;
    cfg.burst_fraction = 0.3;
    cfg.seed = seed;
    auto inst = GenerateInstance(cfg);
    ASSERT_TRUE(inst.ok());
    const Instance& stored = instances.emplace_back(std::move(inst).value());
    for (double lambda : {0.0, 15.0, 120.0, 1300.0}) {
      batch.Add(stored, lambda);
    }
  }
  ExpectBatchMatchesSerial(batch);
}

TEST(ParallelDifferentialTest, EmptyAndSinglePostInstances) {
  InstanceBuilder empty_builder(3);
  auto empty = empty_builder.Build();
  ASSERT_TRUE(empty.ok());
  const Instance single =
      testing::MakeInstance(2, {{5.0, MaskOf(0) | MaskOf(1)}});
  BatchCase batch;
  for (double lambda : {0.0, 10.0}) batch.Add(*empty, lambda);
  for (double lambda : {0.0, 1.0, 100.0}) batch.Add(single, lambda);
  ExpectBatchMatchesSerial(batch);
}

TEST(ParallelDifferentialTest, BatchSolverMatchesSerialPerJob) {
  // One batch mixing instance sizes, kinds, lambdas and variable-
  // lambda models (set through BatchJob::model); every slot must equal
  // the one-at-a-time serial solve.
  Rng rng(4242);
  std::vector<Instance> instances;
  for (int i = 0; i < 24; ++i) {
    const int n = static_cast<int>(rng.Uniform(50));  // 0 = empty ok
    if (n == 0) {
      InstanceBuilder builder(2);
      auto inst = builder.Build();
      ASSERT_TRUE(inst.ok());
      instances.push_back(std::move(inst).value());
    } else {
      auto inst = GenerateTinyInstance(n, 4, 2, 80, &rng);
      ASSERT_TRUE(inst.ok());
      instances.push_back(std::move(inst).value());
    }
  }

  std::vector<BatchJob> jobs;
  std::vector<std::unique_ptr<VariableLambda>> models;
  std::vector<std::vector<PostId>> expected;
  for (size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const SolverKind kind = kKinds[i % 4];
    const double span = inst.max_value() - inst.min_value();
    for (double lambda : {0.0, 7.0, span + 1.0}) {
      jobs.push_back(
          BatchJob{.instance = &inst, .kind = kind, .lambda = lambda});
      UniformLambda model(lambda);
      auto serial = CreateSolver(kind)->Solve(inst, model);
      ASSERT_TRUE(serial.ok());
      expected.push_back(std::move(serial).value());
    }
    const VariableLambda& variable =
        *models.emplace_back(HashedVariableLambda(inst));
    jobs.push_back(BatchJob{.instance = &inst, .kind = kind,
                            .model = &variable});
    auto serial = CreateSolver(kind)->Solve(inst, variable);
    ASSERT_TRUE(serial.ok());
    expected.push_back(std::move(serial).value());
  }

  for (int threads : kThreadCounts) {
    BatchSolver solver(threads);
    const std::vector<BatchJobResult> results = solver.SolveAll(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
      ASSERT_TRUE(results[j].status.ok()) << j;
      ASSERT_EQ(results[j].cover, expected[j])
          << "batch job " << j << " diverged at " << threads << " threads";
    }
  }
}

TEST(ParallelDifferentialTest, BatchMetricsMatchSerialGroundTruth) {
  // The observability counters are part of the determinism contract:
  // whatever the thread count, a batch must report the same job count,
  // error count, and cover-size distribution as the serial run.
  Rng rng(1717);
  std::vector<Instance> instances;
  for (int i = 0; i < 8; ++i) {
    auto inst = GenerateTinyInstance(20 + i, 4, 2, 80, &rng);
    ASSERT_TRUE(inst.ok());
    instances.push_back(std::move(inst).value());
  }

  std::vector<BatchJob> jobs;
  double expected_cover_sum = 0.0;
  for (size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const SolverKind kind = kKinds[i % 4];
    jobs.push_back(BatchJob{.instance = &inst, .kind = kind, .lambda = 7.0});
    UniformLambda model(7.0);
    auto serial = CreateSolver(kind)->Solve(inst, model);
    ASSERT_TRUE(serial.ok());
    expected_cover_sum += static_cast<double>(serial->size());
  }
  // One broken job: the error path must count it without a cover.
  jobs.push_back(BatchJob{.instance = nullptr,
                          .kind = SolverKind::kScan,
                          .lambda = 7.0});
  const size_t ok_jobs = jobs.size() - 1;

  for (int threads : kThreadCounts) {
    obs::MetricsRegistry::Global().Reset();
    BatchSolver solver(threads);
    const std::vector<BatchJobResult> results = solver.SolveAll(jobs);
    ASSERT_EQ(results.size(), jobs.size());

    const obs::BatchMetrics& batch = obs::GetBatchMetrics();
    EXPECT_EQ(batch.jobs->Value(), jobs.size()) << threads << " threads";
    EXPECT_EQ(batch.job_errors->Value(), 1u) << threads << " threads";
    EXPECT_EQ(batch.last_batch_jobs->Value(),
              static_cast<double>(jobs.size()));
    EXPECT_EQ(batch.cover_size->TotalCount(), ok_jobs)
        << threads << " threads";
    EXPECT_EQ(batch.cover_size->Sum(), expected_cover_sum)
        << threads << " threads";
    EXPECT_EQ(batch.job_seconds->TotalCount(), ok_jobs);

    // Each successful job solves exactly once; summed across the
    // per-algorithm labels the solver family must agree with the
    // batch counter.
    double solves = 0.0;
    for (const obs::MetricSample& sample :
         obs::MetricsRegistry::Global().Snapshot().samples) {
      if (sample.name == "mqd_solver_solve_total") solves += sample.value;
    }
    EXPECT_EQ(solves, static_cast<double>(ok_jobs))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace mqd
