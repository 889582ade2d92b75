// The request path of `mqd serve`: one client thread sends an open-loop,
// seeded Poisson schedule of `solve` and `feed` lines to an in-process
// Server with two workers. Each line is parsed with ParseServeRequest
// and submitted with Server::Submit; each response is formatted with
// ServeResponse::Format into an in-memory sink, as the transport would
// write it. Latency runs from a request's scheduled send time to its
// response line being written, so a stalled generator or server is
// charged to every request it delays.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "core/coverage.h"
#include "core/greedy_sc.h"
#include "core/instance.h"
#include "core/scan.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/factory.h"
#include "trace.h"
#include "util/rng.h"

namespace mqd::e2e {
namespace {

// A ~36k-post, 20-label instance (an hour at 600 posts/min), on which
// GreedySC takes 8-16 ms depending on lambda. At 75 requests/s the
// solves keep the two workers about a third busy: Poisson bunches
// queue without a growing backlog, and the median request rarely waits,
// so queueing does not amplify host noise into query_ms_p50 (at half
// busy it did, to 0.24 of the median across seeds on 4 vCPUs). A
// 30-second run has ~1700 solves and ~560 feeds. Set-up checks that the
// feeds of the schedule never run past the end of the instance.
constexpr int kServeLabels = 20;
constexpr double kServeSeconds = 3600.0;
constexpr double kServeRatePerMinute = 600.0;
constexpr double kLambdas[] = {300.0, 60.0, 30.0};
constexpr size_t kNumLambdas = std::size(kLambdas);
constexpr double kSolveShare = 0.75;
constexpr uint32_t kFeedPosts = 16;
constexpr double kRequestsPerSecond = 75.0;
constexpr int kWorkers = 2;
// Ladder rungs as the server names them, top first.
constexpr std::string_view kRungs[] = {"GreedySC", "Scan+", "Scan"};
constexpr size_t kNumRungs = std::size(kRungs);

struct Scheduled {
  int64_t offset_ns;  // from the start of the schedule
  bool solve;
  size_t lambda_index;
  std::string line;
};

struct ServeWorkload {
  Instance inst;
  std::unique_ptr<Server> server;
  std::vector<Scheduled> schedule;
  // Reference answers: cover size per (rung, lambda), and the emission
  // count of an offline replay after each cursor position.
  size_t cover_size[kNumRungs][kNumLambdas] = {};
  std::vector<size_t> emitted_at;
};

// One request's timestamps (ns) and its response line. The client
// thread writes the send-side fields, the callback the rest.
struct Record {
  int64_t due = 0;
  int64_t send = 0;
  int64_t parsed = 0;     // traced requests only
  int64_t submitted = 0;  // traced requests only
  int64_t callback = 0;   // traced requests only
  int64_t done = 0;
  bool traced = false;
  bool completed = false;
  std::string line;
};

Result<std::unique_ptr<ServeWorkload>> Setup(const Options& options) {
  auto w = std::make_unique<ServeWorkload>();
  InstanceGenConfig config;
  config.num_labels = kServeLabels;
  config.duration = kServeSeconds * options.scale;
  config.posts_per_minute = kServeRatePerMinute;
  config.seed = options.seed;
  MQD_ASSIGN_OR_RETURN(w->inst, GenerateInstance(config));

  const GreedySCSolver greedy;
  const ScanPlusSolver scan_plus;
  const ScanSolver scan;
  const Solver* rungs[kNumRungs] = {&greedy, &scan_plus, &scan};
  for (size_t r = 0; r < kNumRungs; ++r) {
    for (size_t l = 0; l < kNumLambdas; ++l) {
      const UniformLambda model(kLambdas[l]);
      MQD_ASSIGN_OR_RETURN(std::vector<PostId> cover,
                           rungs[r]->Solve(w->inst, model));
      if (!IsCover(w->inst, model, cover)) {
        return Status::Internal(std::string(kRungs[r]) +
                                " reference is not a lambda-cover");
      }
      w->cover_size[r][l] = cover.size();
    }
  }

  ServeConfig serve;
  serve.workers = kWorkers;
  {
    const UniformLambda model(serve.lambda);
    std::unique_ptr<StreamProcessor> processor = CreateStreamProcessor(
        serve.stream_kind, w->inst, model, serve.tau);
    w->emitted_at.reserve(w->inst.num_posts() + 1);
    w->emitted_at.push_back(0);
    for (PostId p = 0; p < w->inst.num_posts(); ++p) {
      processor->AdvanceTo(w->inst.value(p));
      processor->OnArrival(p);
      w->emitted_at.push_back(processor->emissions().size());
    }
  }

  Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 3);
  size_t solves = 0, feeds = 0;
  double t = 0.0;
  while (true) {
    t += rng.Exponential(kRequestsPerSecond);
    if (t >= options.seconds) break;
    Scheduled s;
    s.offset_ns = static_cast<int64_t>(t * 1e9);
    s.solve = rng.Bernoulli(kSolveShare);
    s.line = std::to_string(w->schedule.size());
    if (s.solve) {
      s.lambda_index = solves++ % kNumLambdas;
      char buf[48];
      std::snprintf(buf, sizeof(buf), " solve lambda=%g", kLambdas[s.lambda_index]);
      s.line += buf;
    } else {
      s.lambda_index = 0;
      s.line += " feed posts=" + std::to_string(kFeedPosts);
      ++feeds;
    }
    w->schedule.push_back(std::move(s));
  }
  if (w->schedule.empty()) return Status::InvalidArgument("empty schedule");
  if (feeds * kFeedPosts > w->inst.num_posts()) {
    return Status::InvalidArgument(
        std::to_string(feeds) + " feeds of " + std::to_string(kFeedPosts) +
        " posts run past the " + std::to_string(w->inst.num_posts()) +
        "-post instance; use fewer --seconds");
  }

  MQD_ASSIGN_OR_RETURN(w->server, Server::Create(w->inst, serve));
  return w;
}

// Value of `key=` in a response line; empty when absent.
std::string_view Field(std::string_view line, std::string_view key) {
  size_t pos = 0;
  while ((pos = line.find(key, pos)) != std::string_view::npos) {
    if ((pos == 0 || line[pos - 1] == ' ') && pos + key.size() < line.size() &&
        line[pos + key.size()] == '=') {
      const size_t begin = pos + key.size() + 1;
      return line.substr(begin, line.find(' ', begin) - begin);
    }
    pos += key.size();
  }
  return {};
}

double Number(std::string_view text) {
  return text.empty() ? -1.0 : std::strtod(std::string(text).c_str(), nullptr);
}

}  // namespace

RunResult RunServeMixed(const Options& options) {
  RunResult result;
  std::unique_ptr<ServeWorkload> w;
  double setup_s = 0.0;
  Status setup = RepeatSetup([&] { return Setup(options); }, &w, &setup_s);
  if (!setup.ok()) {
    result.Fail("set-up: " + setup.ToString());
    return result;
  }

  const size_t n = w->schedule.size();
  std::vector<Record> records(n);
  std::mutex sink_mu;
  std::string sink;
  sink.reserve(n * 96);
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t completed = 0;

  // Open loop: request i is due at start + offset_i whatever happened
  // to earlier ones. Traced runs trace every other request, so traced
  // and untraced requests share the same load and the difference in
  // their latency is the tracing overhead.
  const int64_t start = NowNs() + 20'000'000;
  for (size_t i = 0; i < n; ++i) {
    Record& r = records[i];
    r.due = start + w->schedule[i].offset_ns;
    r.traced = options.trace && i % 2 == 0;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(r.due)));
    r.send = NowNs();
    Result<ServeRequest> request = ParseServeRequest(w->schedule[i].line);
    if (r.traced) r.parsed = NowNs();
    if (!request.ok()) {
      result.Fail("request line rejected: " + request.status().ToString());
      std::lock_guard<std::mutex> lock(done_mu);
      ++completed;
      continue;
    }
    w->server->Submit(std::move(request).value(), [&, i](const ServeResponse& response) {
      Record& rec = records[i];
      if (rec.traced) rec.callback = NowNs();
      std::string line = response.Format();
      {
        std::lock_guard<std::mutex> lock(sink_mu);
        sink += line;
        sink += '\n';
      }
      rec.done = NowNs();
      rec.line = std::move(line);
      {
        std::lock_guard<std::mutex> lock(done_mu);
        rec.completed = true;
        ++completed;
      }
      done_cv.notify_one();
    });
    if (r.traced) r.submitted = NowNs();
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    if (!done_cv.wait_for(lock, std::chrono::seconds(60),
                          [&] { return completed == n; })) {
      result.Fail("responses missing after 60 s");
    }
  }
  // Every callback has run (or Drain sheds what is left) before the
  // records they write go away.
  Status drained = w->server->Drain();
  if (!drained.ok()) result.Fail("drain: " + drained.ToString());

  // Check every response and collect the samples.
  std::vector<double> solve_ms, feed_ms, late_ms;
  std::vector<double> traced_ms, untraced_ms, queue_wait_ms;
  std::vector<double> rung_elapsed[kNumRungs];
  size_t ok = 0, ok_solves = 0, degraded = 0, ok_feeds = 0, rung_ok[kNumRungs] = {};
  uint64_t max_cursor = 0;
  double solve_busy_ms = 0.0;
  Tracer tracer;
  double traced_total_s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Record& r = records[i];
    const Scheduled& s = w->schedule[i];
    late_ms.push_back(static_cast<double>(r.send - r.due) * 1e-6);
    if (!r.completed || r.line.empty()) continue;
    const std::string_view line = r.line;
    const size_t space = line.find(' ');
    const std::string_view outcome =
        space == std::string_view::npos ? "" : line.substr(space + 1, 2);
    if (line.substr(0, space) != std::to_string(i)) {
      result.Fail("response id mismatch: " + r.line);
      continue;
    }
    if (outcome != "ok") continue;
    ++ok;
    const double latency_ms = static_cast<double>(r.done - r.due) * 1e-6;
    (s.solve ? solve_ms : feed_ms).push_back(latency_ms);
    if (options.trace) (r.traced ? traced_ms : untraced_ms).push_back(latency_ms);

    double elapsed_ms = 0.0;
    if (s.solve) {
      ++ok_solves;
      const std::string_view rung = Field(line, "rung");
      const double cover = Number(Field(line, "cover"));
      elapsed_ms = std::max(0.0, Number(Field(line, "elapsed_ms")));
      solve_busy_ms += elapsed_ms;
      if (Field(line, "degraded") == "1") ++degraded;
      const size_t index = static_cast<size_t>(
          std::find(std::begin(kRungs), std::end(kRungs), rung) -
          std::begin(kRungs));
      const double expected =
          index < kNumRungs
              ? static_cast<double>(w->cover_size[index][s.lambda_index])
              : static_cast<double>(w->inst.num_posts());  // trivial rung
      if (cover != expected) {
        result.Fail("solve cover differs from the offline reference: " + r.line);
      }
      if (index < kNumRungs) {
        ++rung_ok[index];
        rung_elapsed[index].push_back(elapsed_ms);
      }
    } else {
      ++ok_feeds;
      const double cursor = Number(Field(line, "cursor"));
      const double emitted = Number(Field(line, "emitted"));
      if (cursor < 0 || cursor > static_cast<double>(w->inst.num_posts()) ||
          emitted != static_cast<double>(
                          w->emitted_at[static_cast<size_t>(cursor)])) {
        result.Fail("feed differs from the offline replay: " + r.line);
      } else {
        max_cursor = std::max(max_cursor, static_cast<uint64_t>(cursor));
      }
    }

    if (r.traced) {
      // The request's span tree, from the timestamps taken around each
      // call. Queue wait and solve come from the server-reported
      // elapsed_ms (feeds report none, so their few-microsecond service
      // counts as queue wait). A woken worker can preempt the client
      // inside Submit and serve the request before Submit returns; that
      // overlap is service, so the submit span ends where service began.
      const int64_t service_start = std::max(
          r.parsed, r.callback - static_cast<int64_t>(elapsed_ms * 1e6));
      const int64_t submit_end = std::min(r.submitted, service_start);
      const int32_t root =
          tracer.Record("serve.request", Tracer::kNoParent, r.due, r.done);
      tracer.Record("serve.late", root, r.due, r.send);
      tracer.Record("serve.parse", root, r.send, r.parsed);
      tracer.Record("serve.submit", root, r.parsed, submit_end);
      tracer.Record("serve.queue_wait", root, submit_end, service_start);
      if (s.solve) {
        tracer.Record("serve.solve", root, service_start, r.callback);
      }
      tracer.Record("serve.format", root, r.callback, r.done);
      queue_wait_ms.push_back(static_cast<double>(service_start - submit_end) *
                              1e-6);
      traced_total_s += latency_ms * 1e-3;
    }
  }
  const uint64_t expected_cursor = uint64_t{kFeedPosts} * ok_feeds;
  if (max_cursor != expected_cursor) {
    result.Fail("final feed cursor " + std::to_string(max_cursor) +
                ", expected " + std::to_string(expected_cursor));
  }
  result.attempted = n;
  result.failed = n - ok;

  // Throughput is set by the server, not the generator: ok solves per
  // second of server-reported solve time, i.e. the solve rate one busy
  // worker sustains.
  result.end_to_end = {
      {"setup_s", setup_s},
      {"peak_rss_mb", PeakRssMb()},
      {"throughput_per_s",
       solve_busy_ms > 0.0 ? static_cast<double>(ok_solves) * 1e3 / solve_busy_ms
                           : 0.0},
      {"query_ms_p50", Quantile(solve_ms, 0.50)},
      {"ok_share", static_cast<double>(ok) / static_cast<double>(n)},
  };
  const double run_s = static_cast<double>(records.back().due - start) * 1e-9;
  std::printf("serve: %zu requests (%zu solves, %zu feeds ok), %zu posts, "
              "%.1f req/s offered, workers %.1f%% busy solving, sink %zu bytes\n",
              n, ok_solves, ok_feeds, w->inst.num_posts(), kRequestsPerSecond,
              run_s > 0.0 ? 100.0 * solve_busy_ms * 1e-3 / (run_s * kWorkers) : 0.0,
              sink.size());
  for (const auto& [kind, samples] : {std::pair{"solve", &solve_ms},
                                      std::pair{"feed", &feed_ms}}) {
    std::printf("serve: %zu %s latencies, ms p50 %.3f p99 %.3f max %.3f\n",
                samples->size(), kind, Quantile(*samples, 0.5),
                Quantile(*samples, 0.99), Quantile(*samples, 1.0));
  }
  if (!options.trace) return result;

  const auto self = tracer.SelfSeconds();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double traced = static_cast<double>(queue_wait_ms.size());
  auto mean = [&](const char* name, double scale) {
    return traced > 0.0 ? self_of(name) * scale / traced : 0.0;
  };
  auto share = [&](size_t count) {
    return ok_solves > 0
               ? static_cast<double>(count) / static_cast<double>(ok_solves)
               : 0.0;
  };
  result.per_layer = {
      {"latency.query_ms_p99", Quantile(solve_ms, 0.99)},
      {"latency.stream_ms_p50", Quantile(feed_ms, 0.50)},
      {"latency.stream_ms_p99", Quantile(feed_ms, 0.99)},
      {"serve.parse_ns", mean("serve.parse", 1e9)},
      {"serve.submit_us", mean("serve.submit", 1e6)},
      {"serve.queue_wait_ms_p50", Quantile(queue_wait_ms, 0.50)},
      {"serve.queue_wait_ms_p99", Quantile(queue_wait_ms, 0.99)},
      {"serve.solve_ms.greedysc", Median(rung_elapsed[0])},
      {"serve.solve_ms.scan_plus", Median(rung_elapsed[1])},
      {"serve.solve_ms.scan", Median(rung_elapsed[2])},
      {"serve.rung_share.greedysc", share(rung_ok[0])},
      {"serve.rung_share.scan_plus", share(rung_ok[1])},
      {"serve.rung_share.scan", share(rung_ok[2])},
      {"serve.degraded_share", share(degraded)},
      {"serve.format_ns", mean("serve.format", 1e9)},
      {"serve.sender_late_ms_p99", Quantile(late_ms, 0.99)},
      {"serve.remainder_ms", mean("serve.request", 1e3)},
      {"trace.overhead_pct",
       100.0 * (Median(traced_ms) / Median(untraced_ms) - 1.0)},
  };
  std::vector<LayerRow> rows;
  for (const char* layer : {"serve.late", "serve.parse", "serve.submit",
                            "serve.queue_wait", "serve.solve", "serve.format"}) {
    rows.push_back(LayerRow{layer, self_of(layer)});
  }
  rows.push_back(LayerRow{"remainder", self_of("serve.request")});
  PrintLayerTable("serve_mixed per-layer self time over " +
                      std::to_string(queue_wait_ms.size()) + " traced requests",
                  rows, traced_total_s, traced, 1e3, "ms/request");
  std::printf("tracing overhead: median latency traced %.4f ms vs untraced "
              "%.4f ms\n",
              Median(traced_ms), Median(untraced_ms));
  return result;
}

}  // namespace mqd::e2e
