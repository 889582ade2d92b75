// Stress and contract tests of the work-stealing ThreadPool and the
// BatchSolver built on it: construction/teardown under load, exception
// propagation into Status, submission from many producer threads, and
// the submission-order guarantee over 10k jobs. These are the tests
// the TSan preset is aimed at.
#include "util/thread_pool.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver.h"
#include "parallel/batch_solver.h"
#include "test_helpers.h"

namespace mqd {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int runs = 0;
  pool.Submit([&] { ++runs; });
  pool.Submit([&] { ++runs; });
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(pool.TryRunOneTask());
}

TEST(ThreadPoolTest, DrainsAllTasksOnDestruction) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor must finish the queue, not drop it.
  }
  EXPECT_EQ(runs.load(), 1000);
}

TEST(ThreadPoolTest, RepeatedConstructionTeardownUnderLoad) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> runs{0};
    {
      ThreadPool pool(1 + round % 4);
      for (int i = 0; i < 200; ++i) {
        pool.Submit([&] { runs.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    ASSERT_EQ(runs.load(), 200) << "round " << round;
  }
}

TEST(ThreadPoolTest, SubmissionFromMultipleProducerThreads) {
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  std::atomic<int> runs{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&] {
        for (int i = 0; i < kTasksPerProducer; ++i) {
          pool.Submit(
              [&] { runs.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (std::thread& t : producers) t.join();
  }
  EXPECT_EQ(runs.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolTest, TasksSubmittedFromWorkersComplete) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&pool, &runs] {
        // Nested submission (a worker feeding its own deque).
        pool.Submit([&runs] {
          runs.fetch_add(1, std::memory_order_relaxed);
        });
      });
    }
  }
  EXPECT_EQ(runs.load(), 50);
}

/// The hardened task contract: a throwing Submit task must not take
/// the process down (pre-hardening it escaped WorkerLoop into
/// std::terminate). The first exception is captured for
/// TakeFirstError*; the pool keeps running.
TEST(ThreadPoolTest, ThrowingSubmitTaskIsCapturedNotFatal) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([] { throw std::runtime_error("task blew up"); });
      pool.Submit([&] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
    // Give the workers time to drain by tearing down (dtor drains).
  }
  EXPECT_EQ(runs.load(), 8);
}

TEST(ThreadPoolTest, TakeFirstErrorStatusReportsAndClears) {
  ThreadPool pool(0);  // inline execution: deterministic capture
  pool.Submit([] { throw std::runtime_error("first failure"); });
  pool.Submit([] { throw std::logic_error("second failure"); });
  const Status status = pool.TakeFirstErrorStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("first failure"), std::string::npos)
      << status.ToString();
  // Take drains: the second exception was dropped, the slot is clear.
  EXPECT_TRUE(pool.TakeFirstErrorStatus().ok());
  EXPECT_EQ(pool.TakeFirstError(), nullptr);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, WorksWithNullPoolAndZeroItems) {
  size_t sum = 0;
  ParallelFor(nullptr, 10, 3, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45u);
  ParallelFor(nullptr, 0, 1, [&](size_t, size_t) { FAIL(); });
}

TEST(ParallelForTest, NestedForkJoinDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(&pool, 8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ParallelFor(&pool, 16, 1, [&](size_t b, size_t e) {
        for (size_t j = b; j < e; ++j) {
          total.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      ParallelFor(&pool, 1000, 10,
                  [&](size_t begin, size_t) {
                    if (begin == 500) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool stays usable after a failed loop.
  std::atomic<int> runs{0};
  ParallelFor(&pool, 100, 10, [&](size_t begin, size_t end) {
    runs.fetch_add(static_cast<int>(end - begin),
                   std::memory_order_relaxed);
  });
  EXPECT_EQ(runs.load(), 100);
}

/// A Solver that always throws; BatchSolver must convert the exception
/// into a per-job kInternal Status instead of crashing the batch.
class ThrowingSolver final : public Solver {
 public:
  std::string_view name() const override { return "Throwing"; }
  Result<std::vector<PostId>> Solve(const Instance&,
                                    const CoverageModel&) const override {
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

  BatchSolver solver(4);
  const std::vector<BatchJobResult> results = solver.SolveAll(jobs);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].cover.size(), 2u);
  EXPECT_EQ(results[1].status.code(), StatusCode::kInternal);
  EXPECT_NE(results[1].status.message().find("injected solver failure"),
            std::string::npos);
  EXPECT_EQ(results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[3].status.code(), StatusCode::kInvalidArgument);
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
  EXPECT_EQ(serial.pool(), nullptr);

  const Instance inst = testing::MakeInstance(1, {{0.0, 1}});
  std::vector<BatchJob> jobs{
      BatchJob{.instance = &inst, .kind = SolverKind::kScan, .lambda = 1.0}};
  const std::vector<BatchJobResult> results = serial.SolveAll(jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].cover, std::vector<PostId>{0});
}

TEST(BatchSolverTest, BorrowedPoolIsShared) {
  ThreadPool pool(3);
  const Instance inst = testing::MakeInstance(1, {{0.0, 1}, {50.0, 1}});
  BatchSolver a(&pool);
  BatchSolver b(&pool);
  std::vector<BatchJob> jobs(
      200,
      BatchJob{.instance = &inst, .kind = SolverKind::kScan, .lambda = 1.0});
  const auto ra = a.SolveAll(jobs);
  const auto rb = b.SolveAll(jobs);
  for (const auto& r : ra) ASSERT_TRUE(r.status.ok());
  for (const auto& r : rb) ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(a.pool(), &pool);
}

}  // namespace
}  // namespace mqd
