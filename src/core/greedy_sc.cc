#include "core/greedy_sc.h"

#include <vector>

#include "core/greedy_state.h"

namespace mqd {

Result<std::vector<PostId>> GreedySCSolver::SolveWithBudget(
    const Instance& inst, const CoverageModel& model,
    const Deadline& deadline) const {
  internal::GreedyState state(inst, model);
  DeadlineChecker budget(deadline);
  std::vector<PostId> out;
  while (state.remaining() > 0) {
    MQD_RETURN_NOT_OK(budget.Check("GreedySC"));
    const PostId best = state.Best();
    if (best == kInvalidPost) {
      return Status::Internal("GreedySC stalled with uncovered pairs");
    }
    out.push_back(best);
    state.Select(best);
  }
  internal::CanonicalizeSelection(&out);
  return out;
}

}  // namespace mqd
