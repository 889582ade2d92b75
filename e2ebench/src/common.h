#ifndef MQD_E2EBENCH_COMMON_H_
#define MQD_E2EBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "trace.h"
#include "util/result.h"
#include "util/status.h"

namespace mqd::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time of one run.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Input-size multiplier (< 1 for smoke runs).
  double scale = 1.0;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports every end-to-end metric, each read in that
/// workload's own terms (README.md has the mapping). Keep in sync with
/// BENCHMARK.json; the self-test checks both lists against it.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"query_ms_p50", "ms"},
    {"ok_share", "ratio"},
};

/// Per-layer metrics of traced runs; a layer a workload bypasses reads 0.
/// The latency.* metrics belong with the end-to-end ones but spread too
/// much across runs on a shared 4-vCPU host to carry a bound, so they
/// are reported here, unbounded.
inline constexpr MetricSpec kPerLayer[] = {
    {"latency.query_ms_p99", "ms"},
    {"latency.stream_ms_p50", "ms"},
    {"latency.stream_ms_p99", "ms"},
    {"text.tokenize_ns_per_post", "ns"},
    {"pipeline.match_ns_per_post", "ns"},
    {"pipeline.matched_ratio", "ratio"},
    {"simhash.dedup_ns_per_matched", "ns"},
    {"simhash.duplicate_ratio", "ratio"},
    {"core.build_ns_per_post", "ns"},
    {"stream.subscribe_us_per_tenant", "us"},
    {"stream.run_ns_per_post", "ns"},
    {"stream.clusters", "count"},
    {"stream.fanout_amplification", "ratio"},
    {"stream.shared_hit_rate", "ratio"},
    {"stream.derive_us_per_tenant", "us"},
    {"posts.remainder_ns_per_post", "ns"},
    {"serve.parse_ns", "ns"},
    {"serve.submit_us", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.solve_ms.greedysc", "ms"},
    {"serve.solve_ms.scan_plus", "ms"},
    {"serve.solve_ms.scan", "ms"},
    {"serve.rung_share.greedysc", "ratio"},
    {"serve.rung_share.scan_plus", "ratio"},
    {"serve.rung_share.scan", "ratio"},
    {"serve.degraded_share", "ratio"},
    {"serve.format_ns", "ns"},
    {"serve.sender_late_ms_p99", "ms"},
    {"serve.remainder_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// What one workload run reports: end-to-end values (untraced runs
/// print them) and per-layer values (traced runs print them), keyed by
/// the names above.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  /// Records a correctness failure; the run then reports correct=false.
  void Fail(const std::string& what) {
    std::fprintf(stderr, "correctness: %s\n", what.c_str());
    correct = false;
  }
};

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process so far, in MB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Runs `make` (a workload's set-up, returning
/// Result<std::unique_ptr<T>>) at least 3 times, and more while the
/// total stays under a second, so setup_s is a median of enough samples
/// even when one set-up takes milliseconds. The last result is kept in
/// `out`.
template <typename T, typename Make>
Status RepeatSetup(Make make, std::unique_ptr<T>* out, double* median_seconds) {
  constexpr size_t kMinRepeats = 3;
  constexpr size_t kMaxRepeats = 25;
  constexpr double kBudgetSeconds = 1.0;
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < kMinRepeats ||
         (total < kBudgetSeconds && seconds.size() < kMaxRepeats)) {
    out->reset();
    const int64_t start = NowNs();
    Result<std::unique_ptr<T>> made = make();
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    total += seconds.back();
    if (!made.ok()) return made.status();
    *out = std::move(made).value();
  }
  *median_seconds = Median(seconds);
  return Status::OK();
}

/// The workloads (posts.cc, serve.cc).
RunResult RunPostsText(const Options& options);
RunResult RunPostsFanout(const Options& options);
RunResult RunServeMixed(const Options& options);

}  // namespace mqd::e2e

#endif  // MQD_E2EBENCH_COMMON_H_
