#ifndef MQD_BENCH_BENCH_COMMON_H_
#define MQD_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>

#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "util/string_util.h"

namespace mqd::bench {

/// Prints the standard banner every reproduction binary starts with:
/// which paper artifact it regenerates, what qualitative shape the
/// paper reports and the host it runs on (hardware threads, SIMD
/// tier), so the console output is self-describing. The host also
/// goes to `host.csv` through MaybeWriteCsv.
void PrintHeader(std::string_view artifact, std::string_view setup,
                 std::string_view paper_expectation);

inline void PrintSection(std::string_view title) {
  std::cout << "\n--- " << title << " ---\n";
}

/// Scales an integer workload knob by MQD_BENCH_SCALE, keeping a
/// sensible minimum.
inline size_t Scaled(size_t base, size_t minimum = 1) {
  const double scaled = static_cast<double>(base) * BenchScale();
  const size_t v = static_cast<size_t>(scaled);
  return v < minimum ? minimum : v;
}

inline double ScaledRate(double base) { return base * BenchScale(); }

/// Writes the table as `<MQD_BENCH_CSV_DIR>/<artifact>.csv` when the
/// env var is set (plot-ready artifacts next to the console output);
/// silently does nothing otherwise.
void MaybeWriteCsv(std::string_view artifact, const TablePrinter& table);

/// Writes a metrics-registry snapshot as
/// `<MQD_METRICS_JSON_DIR>/<artifact>.metrics.json` when the env var
/// is set; silently does nothing otherwise. Call at the end of a bench
/// to keep solver/stream/batch metrics next to the CSV artifacts.
void MaybeWriteMetrics(std::string_view artifact);

}  // namespace mqd::bench

#endif  // MQD_BENCH_BENCH_COMMON_H_
