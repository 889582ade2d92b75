#ifndef MQD_PARALLEL_BATCH_SOLVER_H_
#define MQD_PARALLEL_BATCH_SOLVER_H_

#include <memory>
#include <vector>

#include "core/coverage.h"
#include "core/solver.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mqd {

/// One (instance, lambda-model, algorithm) solve request. The
/// instance (and model/solver, when given) are borrowed and must
/// outlive the SolveAll call.
struct BatchJob {
  const Instance* instance = nullptr;
  SolverKind kind = SolverKind::kScanPlus;
  /// Uniform coverage threshold, used when `model` is null.
  double lambda = 0.0;
  /// Optional coverage-model override (e.g. a VariableLambda).
  const CoverageModel* model = nullptr;
  /// Optional solver override; takes precedence over `kind`. Lets
  /// callers batch custom Solver implementations (and lets tests
  /// inject throwing solvers to exercise error propagation).
  const Solver* solver = nullptr;
};

/// Outcome of one job. `cover` is meaningful iff `status.ok()`.
struct BatchJobResult {
  Status status;
  std::vector<PostId> cover;
  double elapsed_seconds = 0.0;
};

/// Fans a batch of MQDP jobs across a work-stealing pool and collects
/// the outcomes **in submission order**: results[i] always belongs to
/// jobs[i], no matter which thread solved it or when it finished.
/// Each job runs the serial solver for its kind; independent jobs are
/// the unit of parallelism.
///
/// Failure isolation: a job that returns an error -- or throws; the
/// engine catches and converts exceptions into
/// StatusCode::kInternal -- fails only its own slot. Covers are
/// bit-identical to solving each job serially, at every thread count.
class BatchSolver {
 public:
  /// Self-owned pool with `num_threads` total threads (the calling
  /// thread counts as one; 0 = all hardware threads, 1 = serial).
  explicit BatchSolver(int num_threads = 0);

  /// Borrows `pool` (may be null for serial).
  explicit BatchSolver(ThreadPool* pool);

  ~BatchSolver();

  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  /// Solves all jobs; results align index-for-index with `jobs`.
  std::vector<BatchJobResult> SolveAll(
      const std::vector<BatchJob>& jobs) const;

  /// The pool jobs run on (null when serial).
  ThreadPool* pool() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace mqd

#endif  // MQD_PARALLEL_BATCH_SOLVER_H_
