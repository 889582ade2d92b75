// Serving-daemon load drill: the in-process Server under an open-loop
// paced workload at 1x / 10x / 100x of a base arrival rate. Three
// claims under test (the PR 10 acceptance bar):
//
//  * headroom: at 1x and 10x the bounded queues never fill — zero
//    sheds, every request admitted and answered;
//
//  * overload is shed deterministically by lane priority: at 100x the
//    offered batch load exceeds worker capacity, so the batch lane
//    sheds (queue_full with a retry-after hint) while the stream lane
//    — which outranks batch on every pop — sheds nothing;
//
//  * admitted requests meet their deadline: the batch queue is
//    bounded, so p99 latency of admitted solves stays within the
//    100 ms budget even while the lane is shedding.
//
// The service_floor_ms knob makes the drill machine-independent: the
// per-solve floor (2 ms) dominates the real solve cost on the small
// instance, so worker capacity is hard-bounded by workers/floor
// regardless of host speed, and overload at 100x is guaranteed
// arithmetically (offered batch load >= 1.2x the bound). The drill is
// deliberately slow-motion: at 10x the 16-slot batch queue absorbs
// ~130 ms of OS scheduler stall before a single shed, which keeps the
// zero-shed contract robust on noisy shared machines.
//
// Every 4th request is a stream-lane feed (4 posts from the replay
// cursor; feeds past the end of the instance answer delivered=0),
// the rest are batch-lane solves at the server's default lambda and
// budget. Latency is measured client-side, submit to callback, for
// admitted+completed requests only (sheds answer inline).
//
// tools/bench_baseline.py records the table's CSV export
// (MQD_BENCH_CSV_DIR) into BENCH_serve.json; keep the columns stable.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/instance_gen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/logging.h"

namespace mqd {
namespace {

constexpr int kWorkers = 2;
constexpr double kFloorMs = 2.0;
constexpr size_t kBatchCap = 16;
constexpr size_t kStreamCap = 8192;
constexpr double kBudgetMs = 100.0;
/// Requests per second at rate 1x; 3/4 of them are batch solves.
/// Batch-lane capacity is at most kWorkers/kFloorMs = 1000 solves/s
/// (the floor is a hard per-solve minimum), so 10x offers 120
/// solves/s (~12-24% utilization) and 100x offers 1200 solves/s —
/// overload by construction on any host.
constexpr double kBaseRate = 16.0;

/// Small fixed instance: real solve cost stays far below the service
/// floor, so the floor — not the host — sets worker capacity.
Instance DrillInstance() {
  InstanceGenConfig cfg;
  cfg.num_labels = 12;
  cfg.duration = 600.0;
  cfg.posts_per_minute = 60.0;
  cfg.overlap_rate = 1.4;
  cfg.seed = 7;
  auto inst = GenerateInstance(cfg);
  MQD_CHECK(inst.ok());
  return std::move(inst).value();
}

double PercentileMs(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(pct * static_cast<double>(values.size() - 1)));
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

struct RateResult {
  size_t requests = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t shed_stream = 0;
  uint64_t shed_batch = 0;
  uint64_t pre_degraded = 0;
  double goodput_rps = 0.0;
  double stream_p50_ms = 0.0;
  double stream_p99_ms = 0.0;
  double batch_p50_ms = 0.0;
  double batch_p99_ms = 0.0;
  double wall_s = 0.0;
};

RateResult RunRate(const Instance& inst, double rate_x, double seconds) {
  ServeConfig cfg;
  cfg.workers = kWorkers;
  cfg.service_floor_ms = kFloorMs;
  cfg.admission.batch_capacity = kBatchCap;
  cfg.admission.stream_capacity = kStreamCap;
  cfg.admission.default_budget_ms = kBudgetMs;
  auto server = Server::Create(inst, cfg);
  MQD_CHECK(server.ok());

  const double rate = kBaseRate * rate_x;
  const size_t total =
      std::max<size_t>(16, static_cast<size_t>(rate * seconds));

  std::mutex mu;
  std::condition_variable cv;
  size_t answered = 0;
  std::vector<double> stream_lat, batch_lat;
  stream_lat.reserve(total / 4 + 1);
  batch_lat.reserve(total);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < total; ++i) {
    // Open loop: sleep until the scheduled arrival; a sender that
    // falls behind submits immediately and the backlog is the
    // server's problem — exactly how overload arrives in production.
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(static_cast<double>(i) / rate));
    ServeRequest req;
    req.id = std::to_string(i);
    const bool is_feed = (i % 4 == 3);
    if (is_feed) {
      req.verb = ServeVerb::kFeed;
      req.posts = 4;
    } else {
      req.verb = ServeVerb::kSolve;  // server-default lambda + budget
    }
    const Clock::time_point submit = Clock::now();
    (*server)->Submit(req, [&, is_feed, submit](const ServeResponse& resp) {
      const double lat_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - submit)
              .count();
      std::lock_guard<std::mutex> lock(mu);
      if (resp.outcome == ServeOutcome::kOk) {
        (is_feed ? stream_lat : batch_lat).push_back(lat_ms);
      }
      if (++answered == total) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return answered == total; });
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const ServeStatsSnapshot stats = (*server)->Stats();
  MQD_CHECK((*server)->Drain().ok());

  RateResult row;
  row.requests = total;
  row.admitted = stats.admitted[0] + stats.admitted[1];
  row.completed = stats.completed[0] + stats.completed[1];
  row.shed_stream = stats.shed[0];
  row.shed_batch = stats.shed[1];
  row.pre_degraded = stats.pre_degraded;
  row.wall_s = wall_s;
  row.goodput_rps =
      wall_s > 0.0 ? static_cast<double>(row.completed) / wall_s : 0.0;
  row.stream_p50_ms = PercentileMs(stream_lat, 0.50);
  row.stream_p99_ms = PercentileMs(stream_lat, 0.99);
  row.batch_p50_ms = PercentileMs(batch_lat, 0.50);
  row.batch_p99_ms = PercentileMs(batch_lat, 0.99);
  return row;
}

void Run() {
  bench::PrintHeader(
      "serving-daemon overload drill (no paper counterpart)",
      "in-process Server, 2 workers, 2 ms service floor, batch queue "
      "cap 16, stream cap 8192, 100 ms budget; open-loop arrivals at "
      "1x/10x/100x of 16 req/s, every 4th a stream feed",
      "n/a — the daemon's contract: zero sheds at <= 10x, "
      "deterministic batch-lane (never stream-lane) sheds at 100x, "
      "p99 of admitted solves within the 100 ms budget");

  const Instance inst = DrillInstance();
  const double seconds = std::max(0.25, 3.0 * BenchScale());
  std::cout << "Instance: " << inst.num_posts() << " posts; "
            << FormatDouble(seconds, 2) << " s per rate\n";

  TablePrinter table({"rate_x", "requests", "admitted", "completed",
                      "shed_stream", "shed_batch", "pre_degraded",
                      "goodput_rps", "stream_p50_ms", "stream_p99_ms",
                      "batch_p50_ms", "batch_p99_ms", "wall_s"});
  std::vector<std::pair<double, RateResult>> rows;
  for (double rate_x : {1.0, 10.0, 100.0}) {
    const RateResult row = RunRate(inst, rate_x, seconds);
    rows.emplace_back(rate_x, row);
    table.AddRow({std::to_string(static_cast<int>(rate_x)),
                  std::to_string(row.requests), std::to_string(row.admitted),
                  std::to_string(row.completed),
                  std::to_string(row.shed_stream),
                  std::to_string(row.shed_batch),
                  std::to_string(row.pre_degraded),
                  FormatDouble(row.goodput_rps, 1),
                  FormatDouble(row.stream_p50_ms, 3),
                  FormatDouble(row.stream_p99_ms, 3),
                  FormatDouble(row.batch_p50_ms, 3),
                  FormatDouble(row.batch_p99_ms, 3),
                  FormatDouble(row.wall_s, 3)});
  }
  table.Print(std::cout);
  bench::MaybeWriteCsv("serve_overload", table);

  bench::PrintSection("Contract checks");
  // The shed contract is deterministic by construction (the floor
  // sets capacity, the rates straddle it), but the margins assume the
  // full request counts; the sanity scale's short bursts are
  // structure-only, matching the other benches.
  const bool full_scale = BenchScale() >= 1.0;
  for (const auto& [rate_x, row] : rows) {
    if (rate_x <= 10.0) {
      std::cout << "rate " << static_cast<int>(rate_x) << "x: sheds "
                << (row.shed_stream + row.shed_batch) << " (want 0)\n";
      if (full_scale) {
        MQD_CHECK(row.shed_stream + row.shed_batch == 0);
      }
    } else {
      std::cout << "rate " << static_cast<int>(rate_x)
                << "x: batch sheds " << row.shed_batch
                << " (want > 0), stream sheds " << row.shed_stream
                << " (want 0), batch p99 "
                << FormatDouble(row.batch_p99_ms, 3) << " ms (want <= "
                << FormatDouble(kBudgetMs, 0) << ")\n";
      if (full_scale) {
        MQD_CHECK(row.shed_batch > 0);
        MQD_CHECK(row.shed_stream == 0);
        MQD_CHECK(row.batch_p99_ms <= kBudgetMs);
      }
    }
  }
  if (!full_scale) {
    std::cout << "contract checks reported only (need full scale for "
              << "the capacity margins)\n";
  }
  bench::MaybeWriteMetrics("serve");
}

}  // namespace
}  // namespace mqd

int main() {
  mqd::Run();
  return 0;
}
