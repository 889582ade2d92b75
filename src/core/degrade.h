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
};

/// The degradation ladder: try each rung under the remaining budget
/// and, when a rung exhausts the deadline (or fails for any other
/// reason), fall through to the next cheaper one. The implicit last
/// rung returns the trivial all-posts cover, which is always a valid
/// lambda-cover (every post covers itself for each of its labels), so
/// SolveDegrading is total: it can time out only if the caller's
/// deadline machinery itself is broken.
///
/// The default ladder is GreedySC -> Scan+ -> Scan -> trivial. Every
/// successful non-first rung increments mqd_robust_degraded_total{rung};
/// every rung failure caused by the deadline increments
/// mqd_robust_deadline_expired_total.
class DegradingSolver final {
 public:
  /// The default ladder (GreedySC -> Scan+ -> Scan).
  DegradingSolver();

  /// A custom ladder, tried in order (test seam). Rungs must be
  /// non-null. The trivial rung is always appended implicitly.
  explicit DegradingSolver(std::vector<std::unique_ptr<Solver>> rungs);

  /// The rung taken, per-rung failures and wall time alongside the
  /// cover. The ladder is tried from rung `first_rung` down (a caller
  /// that is already overloaded skips the expensive top rungs); a
  /// `first_rung` past the last rung answers with the trivial cover.
  /// Only rungs below `first_rung` count as degraded.
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
