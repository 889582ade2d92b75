#include "bench_common.h"

#include <cstdlib>
#include <fstream>
#include <thread>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "util/simd.h"

namespace mqd::bench {

void PrintHeader(std::string_view artifact, std::string_view setup,
                 std::string_view paper_expectation) {
  const std::string threads =
      std::to_string(std::thread::hardware_concurrency());
  const std::string tier(simd::LevelName(simd::Active()));
  std::cout << "==========================================================\n"
            << "Reproduction of " << artifact << "\n"
            << "  (Cheng, Arvanitis, Chrobak, Hristidis: Multi-Query\n"
            << "   Diversification in Microblogging Posts, EDBT 2014)\n"
            << "Setup: " << setup << "\n"
            << "Paper reports: " << paper_expectation << "\n"
            << "Workload scale: " << FormatDouble(BenchScale(), 3)
            << "x (set MQD_BENCH_SCALE to change)\n"
            << "Host: " << threads << " hardware threads, SIMD tier " << tier
            << "\n"
            << "==========================================================\n";
  TablePrinter host({"hardware_threads", "simd_tier"});
  host.AddRow({threads, tier});
  MaybeWriteCsv("host", host);
}

void MaybeWriteCsv(std::string_view artifact, const TablePrinter& table) {
  const char* dir = std::getenv("MQD_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path =
      std::string(dir) + "/" + std::string(artifact) + ".csv";
  std::ofstream file(path);
  if (!file) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  table.PrintCsv(file);
  std::cerr << "wrote " << path << "\n";
}

void MaybeWriteMetrics(std::string_view artifact) {
  const char* dir = std::getenv("MQD_METRICS_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path =
      std::string(dir) + "/" + std::string(artifact) + ".metrics.json";
  const Status status =
      obs::WriteJsonFile(obs::MetricsRegistry::Global().Snapshot(), path);
  if (!status.ok()) {
    std::cerr << "warning: " << status << "\n";
    return;
  }
  std::cerr << "wrote " << path << "\n";
}

}  // namespace mqd::bench
