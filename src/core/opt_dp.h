#ifndef MQD_CORE_OPT_DP_H_
#define MQD_CORE_OPT_DP_H_

#include <cstddef>

#include "core/solver.h"

namespace mqd {

/// Resource guards for the exact DP: the number of end-patterns per
/// position is O(|P|^|L|), so unguarded instances can exhaust memory.
/// The solver fails with ResourceExhausted instead of thrashing.
struct OptConfig {
  /// Maximum number of distinct end-patterns kept at any position.
  size_t max_states_per_level = 2'000'000;
  /// Maximum candidate patterns enumerated at one position.
  size_t max_candidates_per_step = 4'000'000;
  /// Maximum total transitions (candidate x predecessor pairs)
  /// examined over the whole run — the actual work bound, since each
  /// position costs O(candidates * previous-level states).
  uint64_t max_transitions = 2'000'000'000;
};

/// Algorithm OPT (paper Algorithm 1): exact dynamic programming over
/// j-end-patterns.
///
/// The DP sweeps posts in value order keeping, for every feasible
/// end-pattern xi (the per-label index of the latest selected post
/// carrying that label), the minimum cardinality h_{j,xi} of a
/// (lambda, j)-cover with that end-pattern. Transitions extend
/// consistent (j-1)-patterns with the newly selected posts. Time
/// O(|P|^{2|L|+1}); feasible for small |L| and lambda, exactly as the
/// paper reports (Section 7.4: |L| up to 2-3).
///
/// Requires a uniform lambda (the paper notes the variable-lambda
/// adaptation but at reduced efficiency; use BranchAndBoundSolver as
/// the exact reference for directional coverage).
class OptDpSolver final : public Solver {
 public:
  explicit OptDpSolver(OptConfig config = {}) : config_(config) {}

  std::string_view name() const override { return "OPT"; }

  /// Deadline is polled per DP position and, inside a position, every
  /// few thousand examined transitions (candidate x predecessor
  /// pairs). Polling per transition — not per candidate pattern —
  /// matters: a position with few candidates but millions of carried
  /// end-patterns would otherwise run an entire position's worth of
  /// work (seconds on adversarial label counts) past the budget.
  Result<std::vector<PostId>> SolveWithBudget(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const override;

 private:
  OptConfig config_;
};

}  // namespace mqd

#endif  // MQD_CORE_OPT_DP_H_
