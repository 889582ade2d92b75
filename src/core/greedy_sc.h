#ifndef MQD_CORE_GREEDY_SC_H_
#define MQD_CORE_GREEDY_SC_H_

#include "core/solver.h"

namespace mqd {

/// Algorithm GreedySC (paper Algorithm 2): reduce MQDP to set cover
/// with universe U = {(post, label)} and one set per post (the pairs
/// that post lambda-covers); greedily pick the post covering the most
/// still-uncovered pairs, ties toward the smallest PostId.
/// Approximation ratio ln(|P| |L|) [Feige 98]. The argmax is a
/// block-max index over the residual gains (internal::GreedyState), so
/// a round costs O(|P|/64 + the PostId span its selection touched).
class GreedySCSolver final : public Solver {
 public:
  std::string_view name() const override { return "GreedySC"; }

  Result<std::vector<PostId>> Solve(const Instance& inst,
                                    const CoverageModel& model) const override;

  /// Deadline is polled once per greedy round (one cover element per
  /// round), so a budgeted run stops between selections, never inside
  /// the gain-maintenance hot path.
  Result<std::vector<PostId>> SolveWithBudget(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const override;
};

}  // namespace mqd

#endif  // MQD_CORE_GREEDY_SC_H_
