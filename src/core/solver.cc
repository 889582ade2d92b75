#include "core/solver.h"

#include <algorithm>

#include "core/branch_bound.h"
#include "core/greedy_sc.h"
#include "core/opt_dp.h"
#include "core/scan.h"
#include "obs/stack_metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace mqd {

namespace {

/// Decorator recording the mqd_solver_* metric family around Solve.
/// Construction resolves the handles once; Solve itself only touches
/// atomics, so wrapping costs nanoseconds per call.
class InstrumentedSolver : public Solver {
 public:
  explicit InstrumentedSolver(std::unique_ptr<Solver> inner)
      : inner_(std::move(inner)),
        metrics_(obs::SolverMetricsFor(inner_->name())),
        trace_name_("solve:" + std::string(inner_->name())) {}

  std::string_view name() const override { return inner_->name(); }

  Result<std::vector<PostId>> Solve(
      const Instance& inst, const CoverageModel& model) const override {
    return SolveWithBudget(inst, model, Deadline::Unbounded());
  }

  Result<std::vector<PostId>> SolveWithBudget(
      const Instance& inst, const CoverageModel& model,
      const Deadline& deadline) const override {
    obs::TraceSpan span(trace_name_);
    metrics_.instance_posts->Observe(
        static_cast<double>(inst.num_posts()));
    metrics_.last_lambda->Set(model.MaxReach());
    Stopwatch watch;
    Result<std::vector<PostId>> result =
        inner_->SolveWithBudget(inst, model, deadline);
    metrics_.solve_seconds->Observe(watch.ElapsedSeconds());
    metrics_.solves->Increment();
    if (result.ok()) {
      metrics_.cover_size->Observe(static_cast<double>(result->size()));
    } else {
      metrics_.errors->Increment();
    }
    return result;
  }

 private:
  std::unique_ptr<Solver> inner_;
  const obs::SolverMetrics& metrics_;
  std::string trace_name_;
};

}  // namespace

std::string_view SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kScan:
      return "Scan";
    case SolverKind::kScanPlus:
      return "Scan+";
    case SolverKind::kGreedySC:
      return "GreedySC";
    case SolverKind::kOpt:
      return "OPT";
    case SolverKind::kBranchAndBound:
      return "BnB";
  }
  return "?";
}

std::unique_ptr<Solver> WrapSolverWithMetrics(std::unique_ptr<Solver> inner) {
  if (inner == nullptr) return inner;
  if (dynamic_cast<InstrumentedSolver*>(inner.get()) != nullptr) {
    return inner;
  }
  return std::make_unique<InstrumentedSolver>(std::move(inner));
}

std::unique_ptr<Solver> CreateSolver(SolverKind kind) {
  const auto make = [kind]() -> std::unique_ptr<Solver> {
    switch (kind) {
      case SolverKind::kScan:
        return std::make_unique<ScanSolver>();
      case SolverKind::kScanPlus:
        return std::make_unique<ScanPlusSolver>();
      case SolverKind::kGreedySC:
        return std::make_unique<GreedySCSolver>();
      case SolverKind::kOpt:
        return std::make_unique<OptDpSolver>();
      case SolverKind::kBranchAndBound:
        return std::make_unique<BranchAndBoundSolver>();
    }
    MQD_LOG(Fatal) << "unknown solver kind";
    return nullptr;
  };
  return WrapSolverWithMetrics(make());
}

namespace internal {

void CanonicalizeSelection(std::vector<PostId>* selection) {
  std::sort(selection->begin(), selection->end());
  selection->erase(std::unique(selection->begin(), selection->end()),
                   selection->end());
}

}  // namespace internal

}  // namespace mqd
