#include "parallel/batch_solver.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <system_error>
#include <thread>

#include "obs/stack_metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace mqd {

namespace {

/// Runs one job into its slot. Never throws: a bad job, an error
/// Status and a solver exception all end up in `slot->status`.
void SolveOne(const BatchJob& job, const obs::BatchMetrics& metrics,
              BatchJobResult* slot) {
  metrics.jobs->Increment();
  if (job.instance == nullptr) {
    slot->status = Status::InvalidArgument("job has a null instance");
    metrics.job_errors->Increment();
    return;
  }
  // Negated so a NaN lambda is rejected too.
  if (job.model == nullptr && !(job.lambda >= 0.0)) {
    slot->status = Status::InvalidArgument(
        "job lambda must be a non-negative number");
    metrics.job_errors->Increment();
    return;
  }
  Stopwatch watch;
  try {
    const UniformLambda uniform(job.model != nullptr ? 0.0 : job.lambda);
    const CoverageModel& model =
        job.model != nullptr ? *job.model
                             : static_cast<const CoverageModel&>(uniform);
    Result<std::vector<PostId>> cover =
        job.solver != nullptr
            ? job.solver->Solve(*job.instance, model)
            : CreateSolver(job.kind)->Solve(*job.instance, model);
    if (cover.ok()) {
      slot->cover = std::move(cover).value();
    } else {
      slot->status = cover.status();
    }
  } catch (const std::exception& e) {
    slot->status = Status::Internal(std::string("solver threw: ") + e.what());
  } catch (...) {
    slot->status = Status::Internal("solver threw a non-std exception");
  }
  slot->elapsed_seconds = watch.ElapsedSeconds();
  metrics.job_seconds->Observe(slot->elapsed_seconds);
  if (slot->status.ok()) {
    metrics.cover_size->Observe(static_cast<double>(slot->cover.size()));
  } else {
    metrics.job_errors->Increment();
  }
}

/// The pool.task fault site, probed once per helper before it claims
/// work. True when an injected fault (returned or thrown) fired.
bool HelperFaultFired() {
  if (!FaultInjector::Global().armed()) return false;
  try {
    return !FaultInjector::Global().MaybeInject("pool.task").ok();
  } catch (...) {
    return true;
  }
}

}  // namespace

int ResolveNumThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<BatchJobResult> BatchSolver::SolveAll(
    const std::vector<BatchJob>& jobs) const {
  obs::TraceSpan span("batch:solve_all");
  const obs::BatchMetrics& metrics = obs::GetBatchMetrics();
  metrics.last_batch_jobs->Set(static_cast<double>(jobs.size()));
  std::vector<BatchJobResult> results(jobs.size());
  // Slot i is written only by the thread that claimed index i, so
  // submission order falls out of the indexing with no sorting.
  std::atomic<size_t> next{0};
  const auto claim_jobs = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < jobs.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      SolveOne(jobs[i], metrics, &results[i]);
    }
  };
  const size_t helpers =
      jobs.empty() ? 0
                   : std::min(static_cast<size_t>(num_threads_ - 1),
                              jobs.size() - 1);
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) {
    try {
      threads.emplace_back([&] {
        if (!HelperFaultFired()) claim_jobs();
      });
    } catch (const std::system_error&) {
      break;  // The caller claims what this helper would have.
    }
  }
  claim_jobs();
  for (std::thread& thread : threads) thread.join();
  return results;
}

}  // namespace mqd
