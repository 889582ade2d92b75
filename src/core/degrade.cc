#include "core/degrade.h"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/greedy_sc.h"
#include "core/scan.h"
#include "obs/stack_metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace mqd {

namespace internal {

std::vector<PostId> TrivialCover(const Instance& inst) {
  std::vector<PostId> all(inst.num_posts());
  std::iota(all.begin(), all.end(), PostId{0});
  return all;
}

}  // namespace internal

namespace {

std::vector<std::unique_ptr<Solver>> DefaultRungs() {
  std::vector<std::unique_ptr<Solver>> rungs;
  rungs.push_back(std::make_unique<GreedySCSolver>());
  rungs.push_back(std::make_unique<ScanPlusSolver>());
  rungs.push_back(std::make_unique<ScanSolver>());
  return rungs;
}

bool IsDeadlineFailure(const Status& st) {
  return st.code() == StatusCode::kDeadlineExceeded ||
         st.code() == StatusCode::kCancelled;
}

}  // namespace

DegradingSolver::DegradingSolver() : rungs_(DefaultRungs()) {}

DegradingSolver::DegradingSolver(std::vector<std::unique_ptr<Solver>> rungs)
    : rungs_(std::move(rungs)) {
  for (const auto& rung : rungs_) MQD_CHECK(rung != nullptr);
}

DegradeOutcome DegradingSolver::SolveDegrading(
    const Instance& inst, const CoverageModel& model,
    const Deadline& deadline, size_t first_rung) const {
  const obs::RobustMetrics& robust = obs::GetRobustMetrics();
  DegradeOutcome outcome;
  Stopwatch watch;
  for (size_t i = first_rung; i < rungs_.size(); ++i) {
    const Solver& rung = *rungs_[i];
    Result<std::vector<PostId>> result = [&]() -> Result<std::vector<PostId>> {
      // A rung must never take the ladder down with it: anything it
      // throws (fault injection, bad_alloc under pressure) becomes a
      // failure and the next rung gets its turn.
      try {
        return rung.SolveWithBudget(inst, model, deadline);
      } catch (const std::exception& e) {
        return Status::Internal(std::string(rung.name()) +
                                " threw: " + e.what());
      } catch (...) {
        return Status::Internal(std::string(rung.name()) +
                                " threw a non-exception");
      }
    }();
    if (result.ok()) {
      outcome.cover = std::move(result).value();
      outcome.rung = std::string(rung.name());
      outcome.rung_index = i;
      outcome.degraded = i > first_rung;
      if (outcome.degraded) obs::DegradedTotalFor(outcome.rung).Increment();
      outcome.elapsed_seconds = watch.ElapsedSeconds();
      return outcome;
    }
    Status st = result.status();
    if (IsDeadlineFailure(st)) robust.deadline_expired->Increment();
    outcome.failures.push_back(std::move(st));
  }
  // Bottom rung: the all-posts cover. Zero compute, always valid.
  outcome.cover = internal::TrivialCover(inst);
  outcome.rung = "trivial";
  outcome.rung_index = rungs_.size();
  outcome.degraded = true;
  obs::DegradedTotalFor(outcome.rung).Increment();
  outcome.elapsed_seconds = watch.ElapsedSeconds();
  return outcome;
}

}  // namespace mqd
