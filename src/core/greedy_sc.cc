#include "core/greedy_sc.h"

#include <span>
#include <vector>

#include "core/greedy_state.h"
#include "core/solve_scratch.h"
#include "obs/stack_metrics.h"

namespace mqd {

namespace {

using internal::GreedyState;

Result<std::vector<PostId>> Rounds(const Instance& inst, GreedyState& state,
                                   const Deadline& deadline, Arena& arena) {
  DeadlineChecker budget(deadline);
  const std::span<PostId> out = arena.AllocSpan<PostId>(inst.num_posts());
  size_t out_size = 0;
  while (state.remaining() > 0) {
    MQD_RETURN_NOT_OK(budget.Check("GreedySC"));
    const PostId best = state.Best();
    if (best == kInvalidPost) {
      return Status::Internal("GreedySC stalled with uncovered pairs");
    }
    out[out_size++] = best;
    state.Select(best);
  }
  return std::vector<PostId>(out.begin(), out.begin() + out_size);
}

}  // namespace

Result<std::vector<PostId>> GreedySCSolver::SolveWithBudget(
    const Instance& inst, const CoverageModel& model,
    const Deadline& deadline) const {
  SolveScratch::Session session(SolveScratch::ThreadLocal());
  Arena& arena = session.arena();
  GreedyState state(inst, model, arena);
  Result<std::vector<PostId>> result = Rounds(inst, state, deadline, arena);
  const obs::SolverMetrics& metrics = obs::SolverMetricsFor(name());
  metrics.gain_fastpath->Increment(state.fastpath_updates());
  metrics.gain_exact->Increment(state.exact_updates());
  if (!result.ok()) return result;
  std::vector<PostId> out = std::move(result).value();
  internal::CanonicalizeSelection(&out);
  return out;
}

}  // namespace mqd
