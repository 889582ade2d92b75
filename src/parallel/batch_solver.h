#ifndef MQD_PARALLEL_BATCH_SOLVER_H_
#define MQD_PARALLEL_BATCH_SOLVER_H_

#include <vector>

#include "core/coverage.h"
#include "core/solver.h"
#include "util/status.h"

namespace mqd {

/// Resolves a user-facing thread-count knob: 0 means "all hardware
/// threads", anything else is clamped to >= 1.
int ResolveNumThreads(int requested);

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

/// Solves a batch of MQDP jobs on several threads and collects the
/// outcomes **in submission order**: results[i] always belongs to
/// jobs[i], no matter which thread solved it or when it finished.
/// Each job runs the serial solver for its kind; independent jobs are
/// the unit of parallelism.
///
/// Each SolveAll call starts min(threads - 1, jobs - 1) helper threads.
/// The helpers and the calling thread claim job indices from one
/// atomic counter, and each writes only the slots it claimed; every
/// helper is joined before SolveAll returns. A helper that cannot
/// start, or that a `pool.task` fault ends, costs only parallelism:
/// the caller claims whatever is left.
///
/// Failure isolation: a job that returns an error -- or throws; the
/// engine catches and converts exceptions into
/// StatusCode::kInternal -- fails only its own slot. Covers are
/// bit-identical to solving each job serially, at every thread count.
/// SolveAll is const and keeps no state between calls, so concurrent
/// calls on one solver are independent.
class BatchSolver {
 public:
  /// `num_threads` total threads (the calling thread counts as one;
  /// 0 = all hardware threads, 1 = serial).
  explicit BatchSolver(int num_threads = 0)
      : num_threads_(ResolveNumThreads(num_threads)) {}

  /// Solves all jobs; results align index-for-index with `jobs`.
  std::vector<BatchJobResult> SolveAll(
      const std::vector<BatchJob>& jobs) const;

 private:
  int num_threads_;
};

}  // namespace mqd

#endif  // MQD_PARALLEL_BATCH_SOLVER_H_
