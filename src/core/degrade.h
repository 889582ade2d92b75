#ifndef MQD_CORE_DEGRADE_H_
#define MQD_CORE_DEGRADE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/solver.h"

namespace mqd {

/// The answer of a DegradingSolver run: which ladder rung produced the
/// cover and what happened on the rungs above it.
struct DegradeOutcome {
  std::vector<PostId> cover;   // always a valid lambda-cover
  std::string rung;            // name of the rung that answered
  size_t rung_index = 0;       // position in the full ladder
  bool degraded = false;       // answered below the first rung tried
  /// Status of each rung that was tried and failed, in order.
  std::vector<Status> failures;
  double elapsed_seconds = 0.0;
  /// Set when the answering rung was a CertifyingSolver (the
  /// WithCertified ladder): a proven optimality certificate
  /// lower_bound <= |OPT| <= cover.size() with gap = the difference.
  bool certified = false;
  size_t lower_bound = 0;
  size_t certified_gap = 0;
  bool proven_optimal = false;
};

/// Policy solver implementing the degradation ladder: try each rung
/// under the remaining budget and, when a rung exhausts the deadline
/// (or fails for any other reason), fall through to the next cheaper
/// one. The implicit last rung returns the trivial all-posts cover,
/// which is always a valid lambda-cover (every post covers itself for
/// each of its labels), so Solve is total: it can time out only if the
/// caller's deadline machinery itself is broken.
///
/// The default ladder is GreedySC -> Scan+ -> Scan -> trivial. Callers
/// wanting the exact answer first prepend OPT via `WithOpt`. Every
/// successful non-first rung increments
/// mqd_robust_degraded_total{rung}; every rung failure caused by the
/// deadline increments mqd_robust_deadline_expired_total.
class DegradingSolver final : public Solver {
 public:
  /// The default ladder (GreedySC -> Scan+ -> Scan).
  DegradingSolver();

  /// A custom ladder, tried in order (test seam; also how WithOpt is
  /// built). Rungs must be non-null. The trivial rung is always
  /// appended implicitly.
  explicit DegradingSolver(std::vector<std::unique_ptr<Solver>> rungs);

  /// OPT -> GreedySC -> Scan+ -> Scan (the exact-first ladder).
  static std::unique_ptr<DegradingSolver> WithOpt();

  /// BnB-certified -> GreedySC -> Scan+ -> Scan: the quality-certified
  /// serving ladder. The top rung is anytime — under a budget it
  /// answers with GreedySC's cover plus a proven gap certificate
  /// rather than failing — so it only falls through when even the
  /// warm start cannot finish; DegradeOutcome then carries the
  /// certificate fields. `max_nodes` caps the search (the
  /// deterministic anytime knob; see BranchBoundConfig).
  static std::unique_ptr<DegradingSolver> WithCertified(
      uint64_t max_nodes = 50'000'000);

  std::string_view name() const override { return "Degrading"; }

  Result<std::vector<PostId>> Solve(
      const Instance& inst, const CoverageModel& model) const override;

  Result<std::vector<PostId>> SolveWithBudget(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const override;

  /// Full-fidelity entry point: the rung taken, per-rung failures and
  /// wall time alongside the cover. The ladder is tried from rung
  /// `first_rung` down (a caller that is already overloaded skips the
  /// expensive top rungs); a `first_rung` past the last rung answers
  /// with the trivial cover. Only rungs below `first_rung` count as
  /// degraded.
  DegradeOutcome SolveDegrading(const Instance& inst,
                                const CoverageModel& model,
                                const Deadline& deadline,
                                size_t first_rung = 0) const;

 private:
  std::vector<std::unique_ptr<Solver>> rungs_;
};

namespace internal {
/// The implicit bottom rung: every post selected. Always a valid
/// lambda-cover.
std::vector<PostId> TrivialCover(const Instance& inst);
}  // namespace internal

}  // namespace mqd

#endif  // MQD_CORE_DEGRADE_H_
