#include "parallel/batch_solver.h"

#include <exception>
#include <string>

#include "obs/stack_metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace mqd {

BatchSolver::BatchSolver(int num_threads) {
  const int total = ResolveNumThreads(num_threads);
  if (total > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(total - 1);
    pool_ = owned_pool_.get();
  }
}

BatchSolver::BatchSolver(ThreadPool* pool) : pool_(pool) {}

BatchSolver::~BatchSolver() = default;

std::vector<BatchJobResult> BatchSolver::SolveAll(
    const std::vector<BatchJob>& jobs) const {
  obs::TraceSpan span("batch:solve_all");
  const obs::BatchMetrics& metrics = obs::GetBatchMetrics();
  metrics.last_batch_jobs->Set(static_cast<double>(jobs.size()));
  std::vector<BatchJobResult> results(jobs.size());
  // Pessimistic initialization: a slot whose body never ran (its chunk
  // aborted before reaching it) must read as a typed error, never as
  // an OK empty cover -- "no answer" beats "silent partial answer".
  for (BatchJobResult& slot : results) {
    slot.status = Status::Internal("job was not executed");
  }
  // Grain 1: jobs are coarse units; the work-stealing pool balances
  // uneven instance sizes. Slot i of `results` is owned by whichever
  // thread claimed chunk i -- no cross-slot writes, so submission
  // order falls out of the indexing with no post-hoc sorting.
  // ParallelFor rethrows the first chunk exception after every chunk
  // finished; the per-job try/catch below makes that unreachable for
  // solver failures, but the conversion stays (belt and braces): any
  // escape becomes per-job statuses on the unexecuted slots instead of
  // an exception out of SolveAll.
  try {
  ParallelFor(pool_, jobs.size(), /*grain=*/1,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  const BatchJob& job = jobs[i];
                  BatchJobResult& slot = results[i];
                  slot.status = Status::OK();
                  Stopwatch watch;
                  if (job.instance == nullptr) {
                    slot.status =
                        Status::InvalidArgument("job has a null instance");
                    metrics.jobs->Increment();
                    metrics.job_errors->Increment();
                    continue;
                  }
                  if (job.model == nullptr && job.lambda < 0.0) {
                    slot.status = Status::InvalidArgument(
                        "job lambda must be non-negative");
                    metrics.jobs->Increment();
                    metrics.job_errors->Increment();
                    continue;
                  }
                  try {
                    const UniformLambda uniform(
                        job.model != nullptr ? 0.0 : job.lambda);
                    const CoverageModel& model =
                        job.model != nullptr
                            ? *job.model
                            : static_cast<const CoverageModel&>(uniform);
                    Result<std::vector<PostId>> cover =
                        job.solver != nullptr
                            ? job.solver->Solve(*job.instance, model)
                            : CreateSolver(job.kind)->Solve(*job.instance,
                                                            model);
                    if (cover.ok()) {
                      slot.cover = std::move(cover).value();
                    } else {
                      slot.status = cover.status();
                    }
                  } catch (const std::exception& e) {
                    slot.status = Status::Internal(
                        std::string("solver threw: ") + e.what());
                  } catch (...) {
                    slot.status =
                        Status::Internal("solver threw a non-std exception");
                  }
                  slot.elapsed_seconds = watch.ElapsedSeconds();
                  metrics.jobs->Increment();
                  metrics.job_seconds->Observe(slot.elapsed_seconds);
                  if (slot.status.ok()) {
                    metrics.cover_size->Observe(
                        static_cast<double>(slot.cover.size()));
                  } else {
                    metrics.job_errors->Increment();
                  }
                }
              });
  } catch (const std::exception& e) {
    const Status failure =
        Status::Internal(std::string("batch execution failed: ") + e.what());
    for (BatchJobResult& slot : results) {
      if (slot.status.code() == StatusCode::kInternal &&
          slot.status.message() == "job was not executed") {
        slot.status = failure;
      }
    }
  }
  // Helper tasks killed by injected pool.task faults are captured at
  // pool level; the caller thread still ran every chunk, so the batch
  // is complete. Drain the pool-level error so it cannot leak into an
  // unrelated later TakeFirstError call (the per-slot statuses already
  // carry any real failures).
  if (pool_ != nullptr) (void)pool_->TakeFirstError();
  return results;
}

}  // namespace mqd
