#ifndef MQD_CORE_BRANCH_BOUND_H_
#define MQD_CORE_BRANCH_BOUND_H_

#include <cstdint>

#include "core/bounds.h"
#include "core/solver.h"

namespace mqd {

/// Per-run search statistics of the branch-and-bound solver (the
/// per-node counters the obs layer exports as mqd_gap_*).
struct BranchBoundStats {
  uint64_t nodes = 0;              // search nodes expanded
  uint64_t pruned_by_bound = 0;    // subtrees cut by the residual bound
  uint64_t incumbent_updates = 0;  // times a smaller cover was found
  uint64_t max_depth = 0;          // deepest chosen-set size reached
  bool node_budget_exhausted = false;
  bool interrupted = false;        // deadline tripped mid-search
};

/// A cover together with a proven optimality certificate:
/// lower_bound <= |OPT| <= upper_bound == cover.size(), so the true
/// optimum lies within `gap` of the answer; gap == 0 means the cover
/// is proven minimum. The certificate is anytime-monotone: a run
/// granted a larger node/time budget never returns a larger gap than
/// a shorter run of the same configuration (the search order is
/// deterministic, so a longer run's incumbent/bound state extends the
/// shorter run's).
struct CertifiedCover {
  std::vector<PostId> cover;   // always a valid lambda-cover
  size_t lower_bound = 0;
  size_t upper_bound = 0;      // == cover.size()
  size_t gap = 0;              // upper_bound - lower_bound
  bool proven_optimal = false;
  LowerBoundReport root_bounds;  // the pre-search bound breakdown
  BranchBoundStats stats;
};

struct BranchBoundConfig {
  /// Hard cap on expanded search nodes; Solve fails with
  /// ResourceExhausted beyond it, SolveCertified returns the incumbent
  /// with a non-zero gap. Also the deterministic anytime knob: at a
  /// fixed max_nodes the certificate is machine-independent.
  uint64_t max_nodes = 50'000'000;
  /// Compute the LP dual-ascent root bound in addition to the cheap
  /// counting bound (see core/bounds.h).
  bool use_lp_bound = true;
};

/// Exact branch-and-bound solver over the set-cover formulation.
///
/// Branches on the uncovered (post, label) pair with the fewest
/// candidate coverers (one child per candidate — some selected post
/// must cover that pair), seeded with GreedySC's cover as the warm
/// incumbent, bounded at the root by core/bounds.h (LP dual ascent +
/// per-label counting) and at every node by the admissible residual
/// bound ceil(sum_a stab_a(residual) / s). Handles uniform and
/// directional (variable-lambda) coverage alike.
///
/// Exponential in the worst case; exact tier for test oracles,
/// NP-hardness gadgets and offline certification. The Solver entry
/// points fail with ResourceExhausted / kDeadlineExceeded when a
/// budget trips; SolveCertified degrades to a non-zero certified gap
/// instead (anytime behavior).
class BranchAndBoundSolver final : public Solver {
 public:
  explicit BranchAndBoundSolver(BranchBoundConfig config = {})
      : config_(config) {}

  std::string_view name() const override { return "BnB"; }

  /// Deadline is polled every few thousand search nodes.
  Result<std::vector<PostId>> SolveWithBudget(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const override;

  /// Anytime certified solve: never fails on deadline expiry once a
  /// warm-start cover exists — it returns the incumbent plus the best
  /// bound proven so far instead. Fails only when the budget expires
  /// before any cover could be built at all.
  Result<CertifiedCover> SolveCertified(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const;

 private:
  BranchBoundConfig config_;
};

}  // namespace mqd

#endif  // MQD_CORE_BRANCH_BOUND_H_
