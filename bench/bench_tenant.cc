// Multi-tenant fan-out bench: how the MultiTenantStream engine scales
// with concurrent label-set profiles at the Figure 14-15 arrival rate
// (|L| = 20, 118 posts/min, overlap 1.4, lambda = tau = 300 s). The
// claim under test: per-post cost is sublinear in tenant count. The
// shared scan tier absorbs every arrival once no matter how many
// tenants subscribe, and the cluster tier's work scales with distinct
// (mask, join) subscriptions — which the Section 7.1 broad-group
// profile generator saturates long before the tenant counts swept
// here — not with tenants.
//
// The replay is windowed — 256-post RunUntil batches, one cluster
// sweep per batch — matching how a serving layer drains a firehose.
// One replay takes a few milliseconds, too short to time once, so
// every row is the median of kRepeats runs, each on a fresh engine,
// with the quartiles of those runs beside each timing as its spread.
// tools/bench_baseline.py records the table's CSV export
// (MQD_BENCH_CSV_DIR) into BENCH_tenant.json; keep the columns stable.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/coverage.h"
#include "gen/instance_gen.h"
#include "gen/profile_gen.h"
#include "stream/factory.h"
#include "stream/multi_tenant.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mqd {
namespace {

/// The Figure 14-15 regime. MQD_BENCH_SCALE shrinks the stream
/// duration only; tenant counts are the variable under test and stay
/// fixed so the committed artifact really shows 100k profiles.
Instance PaperScaleInstance() {
  InstanceGenConfig cfg;
  cfg.num_labels = 20;
  cfg.duration = std::max(60.0, 3600.0 * BenchScale());
  cfg.posts_per_minute = 118.0;
  cfg.overlap_rate = 1.4;
  cfg.seed = 13;
  auto inst = GenerateInstance(cfg);
  MQD_CHECK(inst.ok());
  return std::move(inst).value();
}

/// One sweep batch: the engine advances all clusters once per RunUntil
/// call, so the batch size sets the sweep cadence a serving layer
/// would run at.
constexpr PostId kBatchPosts = 256;

/// Timed runs per row; the row reports their medians and quartiles.
constexpr int kRepeats = 5;

/// Quartiles of one timing over a row's runs.
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

struct RowStats {
  double per_post_us = 0.0;
  double derive_us = 0.0;
  size_t clusters = 0;
  double shared_hit_rate = 0.0;
};

/// One engine run: subscribe `num_tenants` fuzzed 3-label profiles at
/// epoch 0, replay the stream in 256-post windows, then derive a
/// 200-tenant sample of emission sequences (the per-query cost a
/// serving layer would pay).
RowStats RunEngine(const Instance& inst, const CoverageModel& model,
                   StreamKind kind, double tau, size_t num_tenants) {
  Rng rng(num_tenants * 2654435761ULL + static_cast<uint64_t>(kind));
  auto profiles =
      GenerateLabelMaskProfiles(inst.num_labels(), 3, num_tenants, &rng);
  MQD_CHECK(profiles.ok());
  auto engine = MultiTenantStream::Create(inst, model, kind, tau);
  MQD_CHECK(engine.ok());
  std::vector<TenantId> ids;
  ids.reserve(num_tenants);
  for (LabelMask mask : *profiles) {
    auto id = (*engine)->Subscribe(mask);
    MQD_CHECK(id.ok());
    ids.push_back(*id);
  }

  const PostId num_posts = inst.num_posts();
  Stopwatch replay;
  PostId cursor = 0;
  while (cursor < num_posts) {
    cursor = std::min<PostId>(num_posts, cursor + kBatchPosts);
    MQD_CHECK((*engine)->RunUntil(cursor).ok());
  }
  const double replay_s = replay.ElapsedSeconds();
  (*engine)->Finish();

  RowStats row;
  row.per_post_us = replay_s * 1e6 / static_cast<double>(num_posts);
  row.clusters = (*engine)->num_clusters();
  row.shared_hit_rate = (*engine)->shared_hit_rate();

  const size_t sample = std::min<size_t>(200, ids.size());
  const size_t stride = std::max<size_t>(1, ids.size() / sample);
  Stopwatch derive;
  size_t derived = 0, emissions = 0;
  for (size_t i = 0; i < ids.size() && derived < sample; i += stride) {
    auto e = (*engine)->TenantEmissions(ids[i]);
    MQD_CHECK(e.ok());
    emissions += e->size();
    ++derived;
  }
  MQD_CHECK(emissions > 0);
  row.derive_us =
      derive.ElapsedSeconds() * 1e6 / static_cast<double>(derived);
  return row;
}

/// Inclusive quartiles (linear interpolation between order
/// statistics, as Python's statistics.quantiles(method="inclusive")).
Spread Quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

struct RowSpread {
  Spread per_post_us;
  Spread derive_us;
  size_t clusters = 0;
  double shared_hit_rate = 0.0;
};

/// kRepeats RunEngine calls: timing quartiles and the
/// (run-independent) shape columns.
RowSpread RunRow(const Instance& inst, const CoverageModel& model,
                 StreamKind kind, double tau, size_t num_tenants) {
  RowSpread row;
  std::vector<double> per_post_us, derive_us;
  for (int r = 0; r < kRepeats; ++r) {
    const RowStats run = RunEngine(inst, model, kind, tau, num_tenants);
    per_post_us.push_back(run.per_post_us);
    derive_us.push_back(run.derive_us);
    row.clusters = run.clusters;
    row.shared_hit_rate = run.shared_hit_rate;
  }
  row.per_post_us = Quartiles(std::move(per_post_us));
  row.derive_us = Quartiles(std::move(derive_us));
  return row;
}

void Run() {
  bench::PrintHeader(
      "multi-tenant stream fan-out scaling (no paper counterpart)",
      "Figure 14-15 arrival regime (|L|=20, 118 posts/min, overlap "
      "1.4, lambda=tau=300s), 3-label profiles, tenants subscribed at "
      "epoch 0, 256-post replay windows, median and quartiles of 5 runs "
      "per row",
      "n/a — the engine's contract: per-post cost sublinear in tenant "
      "count");

  const Instance inst = PaperScaleInstance();
  UniformLambda model(300.0);
  const double tau = 300.0;
  std::cout << "Stream: " << inst.num_posts() << " posts\n";

  const std::vector<size_t> tenant_counts = {1000, 10000, 100000};
  TablePrinter table({"algo", "tenants", "clusters", "per_post_us",
                      "per_post_us_q1", "per_post_us_q3", "shared_hit_rate",
                      "derive_us", "derive_us_q1", "derive_us_q3"});
  // per_post_us at the sweep's endpoints, per algorithm, for the
  // sublinearity shape check.
  std::vector<double> first_cost, last_cost;
  for (StreamKind kind :
       {StreamKind::kStreamScan, StreamKind::kStreamGreedyPlus}) {
    for (size_t i = 0; i < tenant_counts.size(); ++i) {
      const size_t n = tenant_counts[i];
      const RowSpread row = RunRow(inst, model, kind, tau, n);
      table.AddRow({std::string(StreamKindName(kind)), std::to_string(n),
                    std::to_string(row.clusters),
                    FormatDouble(row.per_post_us.median, 3),
                    FormatDouble(row.per_post_us.q1, 3),
                    FormatDouble(row.per_post_us.q3, 3),
                    FormatDouble(row.shared_hit_rate, 3),
                    FormatDouble(row.derive_us.median, 3),
                    FormatDouble(row.derive_us.q1, 3),
                    FormatDouble(row.derive_us.q3, 3)});
      const double cost = row.per_post_us.median;
      if (i == 0) first_cost.push_back(cost);
      if (i + 1 == tenant_counts.size()) last_cost.push_back(cost);
    }
  }
  table.Print(std::cout);
  bench::MaybeWriteCsv("tenant_fanout", table);

  bench::PrintSection("Shape check");
  const double ratio = static_cast<double>(tenant_counts.back()) /
                       static_cast<double>(tenant_counts.front());
  for (size_t i = 0; i < first_cost.size(); ++i) {
    const StreamKind kind = i == 0 ? StreamKind::kStreamScan
                                   : StreamKind::kStreamGreedyPlus;
    std::cout << StreamKindName(kind) << ": per-post cost grew "
              << FormatDouble(last_cost[i] / first_cost[i], 2) << "x over a "
              << FormatDouble(ratio, 0)
              << "x tenant increase (sublinear when << tenant ratio)\n";
  }

  bench::MaybeWriteMetrics("tenant");
}

}  // namespace
}  // namespace mqd

int main() {
  mqd::Run();
  return 0;
}
