#ifndef MQD_CORE_SCAN_H_
#define MQD_CORE_SCAN_H_

#include <vector>

#include "core/solver.h"

namespace mqd {

/// Algorithm Scan (paper Algorithm 3): one forward sweep per label
/// list LP(a), picking for each leftmost-uncovered post the candidate
/// whose coverage extends furthest right. With a uniform lambda this
/// is exactly the paper's "last post within lambda" rule and is
/// optimal per label; the union over labels is an s-approximation
/// where s = max labels per post. Runs in O(sum_a |LP(a)|) for uniform
/// lambda.
///
/// With a variable (directional) lambda the same sweep applies with
/// reach = Reach(candidate, a); it remains a correct cover and
/// coincides with Scan when the reach is constant.
class ScanSolver final : public Solver {
 public:
  std::string_view name() const override { return "Scan"; }

  /// Deadline is polled once per label sweep.
  Result<std::vector<PostId>> SolveWithBudget(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const override;
};

/// Label processing order for ScanPlus (the optimization is
/// order-sensitive; the paper notes effectiveness "depends on the
/// ordering of the labels processed by Scan").
enum class LabelOrder {
  kById,        // ascending label id (paper default)
  kSizeAsc,     // fewest relevant posts first
  kSizeDesc,    // most relevant posts first
};

/// Algorithm Scan+ : like Scan, but when a post is selected for one
/// label, every (post, label) pair it covers is removed from the lists
/// of labels not yet processed, so later sweeps skip already-covered
/// posts.
class ScanPlusSolver final : public Solver {
 public:
  explicit ScanPlusSolver(LabelOrder order = LabelOrder::kById)
      : order_(order) {}

  std::string_view name() const override { return "Scan+"; }

  /// Deadline is polled once per label sweep.
  Result<std::vector<PostId>> SolveWithBudget(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const override;

 private:
  LabelOrder order_;
};

}  // namespace mqd

#endif  // MQD_CORE_SCAN_H_
