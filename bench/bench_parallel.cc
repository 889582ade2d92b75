// Scaling benchmark of the thread-parallel batch solver engine: a
// 50-instance batch (one instance per simulated user query-set) solved
// with Scan+ and GreedySC at 1/2/4/8 threads. Prints the table (and
// writes it as CSV under MQD_BENCH_CSV_DIR), and verifies on every run
// that each thread count returned bit-identical covers to the serial
// engine -- the determinism contract the differential tests enforce
// exhaustively.
//
// Speedup expectations assume real cores; on a single-core machine
// all thread counts degenerate to ~1x (the header's host line and
// host.csv record the hardware threads so readers can tell these
// apart).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "gen/instance_gen.h"
#include "parallel/batch_solver.h"
#include "util/logging.h"
#include "util/timer.h"

namespace mqd {
namespace {

struct AlgoSetup {
  const char* label;
  SolverKind kind;
  double lambda;
};

void Run() {
  bench::PrintHeader(
      "parallel batch-solver scaling (engine benchmark, not a paper "
      "figure)",
      "50-instance batch (|L|=5, ~30min @ 120 posts/min each) x "
      "{Scan+, GreedySC} x {1,2,4,8} threads",
      "linear-ish batch speedup up to the core count; identical covers "
      "at every thread count");

  const size_t batch_size = bench::Scaled(50, 4);
  std::vector<Instance> instances;
  instances.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    InstanceGenConfig cfg;
    cfg.num_labels = 5;
    cfg.duration = 30 * 60.0;
    cfg.posts_per_minute = bench::ScaledRate(120.0);
    cfg.overlap_rate = 1.3;
    cfg.seed = 1000 + i;
    auto inst = GenerateInstance(cfg);
    MQD_CHECK(inst.ok());
    instances.push_back(std::move(inst).value());
  }

  const std::vector<AlgoSetup> algos{
      {"Scan+", SolverKind::kScanPlus, 60.0},
      {"GreedySC", SolverKind::kGreedySC, 60.0},
  };
  const std::vector<int> thread_counts{1, 2, 4, 8};

  bench::PrintSection("batch scaling (50 instances per batch)");
  TablePrinter table({"algorithm", "threads", "seconds", "speedup",
                      "jobs/s", "identical"});
  for (const AlgoSetup& algo : algos) {
    std::vector<BatchJob> jobs;
    jobs.reserve(instances.size());
    for (const Instance& inst : instances) {
      jobs.push_back(BatchJob{.instance = &inst,
                              .kind = algo.kind,
                              .lambda = algo.lambda});
    }
    std::vector<BatchJobResult> reference;
    double serial_seconds = 0.0;
    for (int threads : thread_counts) {
      BatchSolver solver(threads);
      Stopwatch watch;
      std::vector<BatchJobResult> results = solver.SolveAll(jobs);
      const double seconds = watch.ElapsedSeconds();
      bool identical = true;
      for (const BatchJobResult& r : results) MQD_CHECK(r.status.ok());
      if (threads == 1) {
        reference = results;
        serial_seconds = seconds;
      } else {
        for (size_t j = 0; j < results.size(); ++j) {
          identical = identical && results[j].cover == reference[j].cover;
        }
      }
      MQD_CHECK(identical) << "covers diverged at " << threads
                           << " threads";
      const double speedup = seconds > 0.0 ? serial_seconds / seconds : 0.0;
      table.AddRow({algo.label, std::to_string(threads),
                    FormatDouble(seconds, 4), FormatDouble(speedup, 3),
                    FormatDouble(jobs.size() / std::max(seconds, 1e-9), 2),
                    identical ? "yes" : "NO"});
    }
  }
  table.Print(std::cout);
  bench::MaybeWriteCsv("bench_parallel_batch", table);

  bench::MaybeWriteMetrics("bench_parallel");
}

}  // namespace
}  // namespace mqd

int main() {
  mqd::Run();
  return 0;
}
