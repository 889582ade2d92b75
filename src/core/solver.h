#ifndef MQD_CORE_SOLVER_H_
#define MQD_CORE_SOLVER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "util/deadline.h"
#include "util/result.h"

namespace mqd {

/// A static (offline) MQDP solver: given <P, lambda> it returns a
/// lambda-cover Z of P. Exact solvers return a minimum-cardinality
/// cover; approximate solvers carry a provable bound (see each
/// implementation).
class Solver {
 public:
  virtual ~Solver() = default;

  /// Human-readable algorithm name as the paper uses it ("Scan",
  /// "GreedySC", "OPT", ...).
  virtual std::string_view name() const = 0;

  /// Computes a lambda-cover. The returned PostIds are sorted
  /// ascending and duplicate-free.
  virtual Result<std::vector<PostId>> Solve(
      const Instance& inst, const CoverageModel& model) const = 0;

  /// Budgeted Solve: polls `deadline` at coarse loop boundaries
  /// (greedy round, label sweep, DP step) and unwinds with
  /// kDeadlineExceeded / kCancelled once it trips. With an unbounded
  /// deadline the checks reduce to a dead branch, so the result is
  /// bit-identical to Solve. The base implementation ignores the
  /// budget; solvers with long inner loops override it.
  virtual Result<std::vector<PostId>> SolveWithBudget(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const {
    (void)deadline;
    return Solve(inst, model);
  }
};

/// The algorithms of Sections 4 (plus exact references used by the
/// evaluation).
enum class SolverKind {
  kScan,         // Algorithm 3
  kScanPlus,     // Scan with cross-label pruning
  kGreedySC,     // Algorithm 2
  kOpt,          // Algorithm 1 (exact DP; uniform lambda only)
  kBranchAndBound,  // exact branch-and-bound reference
};

std::string_view SolverKindName(SolverKind kind);

/// Factory for the built-in solvers. The returned solver is already
/// wrapped with metrics instrumentation (see WrapSolverWithMetrics).
std::unique_ptr<Solver> CreateSolver(SolverKind kind);

/// Decorates `inner` so every Solve records into the global metrics
/// registry (the mqd_solver_* family of obs/stack_metrics, labeled
/// with the inner solver's name): solve count and latency, instance
/// size, lambda, cover size, error count. Wrapping an already-wrapped
/// solver (or nullptr) returns it unchanged. Benchmarks that want the
/// raw algorithm instantiate the concrete solver classes directly.
std::unique_ptr<Solver> WrapSolverWithMetrics(std::unique_ptr<Solver> inner);

namespace internal {
/// Sorts ascending and removes duplicates in place (the Solver output
/// contract).
void CanonicalizeSelection(std::vector<PostId>* selection);
}  // namespace internal

}  // namespace mqd

#endif  // MQD_CORE_SOLVER_H_
