// Reproduces Figure 13 (a-c): per-post execution time of the static
// MQDP algorithms on one day of posts, for varying lambda, at |L| = 2,
// 5, 20. Paper shapes: Scan/Scan+ orders of magnitude faster than
// GreedySC and insensitive to lambda; GreedySC gets faster as lambda
// grows (fewer greedy rounds) and slower as |L| grows.
#include <iostream>

#include "bench_common.h"
#include "core/greedy_sc.h"
#include "core/scan.h"
#include "gen/instance_gen.h"
#include "util/logging.h"

namespace mqd {
namespace {

double MatchRate(int L) { return bench::ScaledRate(0.1 * (58.0 * L + 20.0)); }

void Run() {
  bench::PrintHeader(
      "Figure 13 (a-c): MQDP execution time per post vs lambda",
      "24h synthetic stream (Table 2 rates x0.1), lambda in "
      "{30s..30min}, |L| in {2,5,20}; values are microseconds/post",
      "Scan orders of magnitude faster than GreedySC and flat in "
      "lambda; GreedySC speeds up with lambda, slows with |L|");

  ScanSolver scan;
  ScanPlusSolver scan_plus;
  GreedySCSolver greedy;

  for (int L : {2, 5, 20}) {
    bench::PrintSection(StrFormat("|L| = %d", L));
    InstanceGenConfig cfg;
    cfg.num_labels = L;
    cfg.duration = 24 * 3600.0;
    cfg.posts_per_minute = MatchRate(L);
    cfg.overlap_rate = 1.0 + 0.02 * L;
    cfg.seed = 7 + static_cast<uint64_t>(L);
    auto inst = GenerateInstance(cfg);
    MQD_CHECK(inst.ok());
    std::cout << "posts: " << inst->num_posts() << "\n";

    TablePrinter table({"lambda(s)", "Scan us/post", "Scan+ us/post",
                        "GreedySC us/post", "scan_size", "greedy_size"});
    double scan_first = 0, scan_last = 0, greedy_first = 0,
           greedy_last = 0;
    const std::vector<double> lambdas{30.0, 60.0, 300.0, 600.0, 1800.0};
    for (double lambda : lambdas) {
      UniformLambda model(lambda);
      auto t_scan = RunTimedSolve(scan, *inst, model);
      auto t_plus = RunTimedSolve(scan_plus, *inst, model);
      auto t_greedy = RunTimedSolve(greedy, *inst, model);
      MQD_CHECK(t_scan.ok() && t_plus.ok() && t_greedy.ok());
      table.AddNumericRow(
          {lambda, t_scan->micros_per_post, t_plus->micros_per_post,
           t_greedy->micros_per_post,
           static_cast<double>(t_scan->selection.size()),
           static_cast<double>(t_greedy->selection.size())},
          3);
      if (lambda == lambdas.front()) {
        scan_first = t_scan->micros_per_post;
        greedy_first = t_greedy->micros_per_post;
      }
      if (lambda == lambdas.back()) {
        scan_last = t_scan->micros_per_post;
        greedy_last = t_greedy->micros_per_post;
      }
    }
    table.Print(std::cout);
    bench::MaybeWriteCsv(StrFormat("fig13_time_L%d", L), table);
    std::cout << "checks: GreedySC/Scan time ratio at small lambda: "
              << FormatDouble(greedy_first / std::max(scan_first, 1e-9), 1)
              << "x; GreedySC time small->large lambda: "
              << FormatDouble(greedy_first, 2) << " -> "
              << FormatDouble(greedy_last, 2) << " us/post"
              << (greedy_last <= greedy_first
                      ? "  [OK: faster at larger lambda]"
                      : "  [note: no speedup at this scale]")
              << "; Scan flat: " << FormatDouble(scan_first, 2) << " -> "
              << FormatDouble(scan_last, 2) << " us/post\n";
  }
}

}  // namespace
}  // namespace mqd

int main() {
  mqd::Run();
  return 0;
}
