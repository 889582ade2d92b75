#include "obs/stack_metrics.h"

#include <map>
#include <mutex>
#include <string>

namespace mqd::obs {

namespace {

/// Shared bucket specs. Latency buckets are deliberately coarse-lo /
/// wide-hi: the edge buckets saturate, so outliers are still counted.
LinearBuckets SolveSecondsBuckets() { return LinearBuckets(0.0, 1.0, 50); }
LinearBuckets CoverSizeBuckets() { return LinearBuckets(0.0, 4096.0, 64); }
LinearBuckets InstancePostsBuckets() {
  return LinearBuckets(0.0, 65536.0, 64);
}
LinearBuckets DelaySecondsBuckets() { return LinearBuckets(0.0, 120.0, 60); }
LinearBuckets ReplaySecondsBuckets() { return LinearBuckets(0.0, 2.0, 40); }
LinearBuckets DigestSecondsBuckets() { return LinearBuckets(0.0, 2.0, 40); }
LinearBuckets RenderSecondsBuckets() { return LinearBuckets(0.0, 0.5, 50); }
LinearBuckets FanoutBuckets() { return LinearBuckets(0.0, 64.0, 64); }

/// Per-algorithm handle cache. The structs (and the cache itself) are
/// reachable from the static, so LeakSanitizer is content, and handles
/// stay valid through static teardown.
template <typename Metrics>
class LabeledFamily {
 public:
  using Factory = Metrics* (*)(const LabelSet& labels);

  explicit LabeledFamily(Factory factory) : factory_(factory) {}

  const Metrics& For(std::string_view algorithm) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(algorithm);
    if (it != cache_.end()) return *it->second;
    Metrics* metrics =
        factory_(LabelSet{{"algorithm", std::string(algorithm)}});
    cache_.emplace(std::string(algorithm), metrics);
    return *metrics;
  }

 private:
  Factory factory_;
  std::mutex mu_;
  std::map<std::string, Metrics*, std::less<>> cache_;
};

}  // namespace

const SolverMetrics& SolverMetricsFor(std::string_view algorithm) {
  static LabeledFamily<SolverMetrics>* const family =
      new LabeledFamily<SolverMetrics>(+[](const LabelSet& labels) {
        MetricsRegistry& reg = MetricsRegistry::Global();
        return new SolverMetrics{
            &reg.MustCounter("mqd_solver_solve_total", labels),
            &reg.MustCounter("mqd_solver_solve_errors_total", labels),
            &reg.MustHistogram("mqd_solver_solve_seconds",
                               SolveSecondsBuckets(), labels),
            &reg.MustHistogram("mqd_solver_cover_size", CoverSizeBuckets(),
                               labels),
            &reg.MustHistogram("mqd_solver_instance_posts",
                               InstancePostsBuckets(), labels),
            &reg.MustGauge("mqd_solver_last_lambda", labels),
        };
      });
  return family->For(algorithm);
}

const StreamMetrics& StreamMetricsFor(std::string_view algorithm) {
  static LabeledFamily<StreamMetrics>* const family =
      new LabeledFamily<StreamMetrics>(+[](const LabelSet& labels) {
        MetricsRegistry& reg = MetricsRegistry::Global();
        return new StreamMetrics{
            &reg.MustCounter("mqd_stream_replays_total", labels),
            &reg.MustCounter("mqd_stream_posts_total", labels),
            &reg.MustCounter("mqd_stream_emissions_total", labels),
            &reg.MustCounter("mqd_stream_tau_violations_total", labels),
            &reg.MustHistogram("mqd_stream_report_delay_seconds",
                               DelaySecondsBuckets(), labels),
            &reg.MustHistogram("mqd_stream_replay_seconds",
                               ReplaySecondsBuckets(), labels),
            &reg.MustCounter("mqd_stream_nonmonotone_dropped_total", labels),
        };
      });
  return family->For(algorithm);
}

const PipelineMetrics& GetPipelineMetrics() {
  static const PipelineMetrics* const metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return new PipelineMetrics{
        &reg.MustCounter("mqd_pipeline_posts_checked_total"),
        &reg.MustCounter("mqd_pipeline_posts_matched_total"),
        &reg.MustHistogram("mqd_pipeline_match_fanout", FanoutBuckets()),
        &reg.MustCounter("mqd_pipeline_duplicates_dropped_total"),
        &reg.MustHistogram("mqd_pipeline_digest_seconds",
                           DigestSecondsBuckets()),
        &reg.MustHistogram("mqd_pipeline_stream_digest_seconds",
                           DigestSecondsBuckets()),
        &reg.MustHistogram("mqd_pipeline_render_seconds",
                           RenderSecondsBuckets()),
    };
  }();
  return *metrics;
}

const BatchMetrics& GetBatchMetrics() {
  static const BatchMetrics* const metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return new BatchMetrics{
        &reg.MustCounter("mqd_batch_jobs_total"),
        &reg.MustCounter("mqd_batch_job_errors_total"),
        &reg.MustHistogram("mqd_batch_job_seconds", SolveSecondsBuckets()),
        &reg.MustHistogram("mqd_batch_cover_size", CoverSizeBuckets()),
        &reg.MustGauge("mqd_batch_last_batch_jobs"),
    };
  }();
  return *metrics;
}

const RobustMetrics& GetRobustMetrics() {
  static const RobustMetrics* const metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return new RobustMetrics{
        &reg.MustCounter("mqd_robust_deadline_expired_total"),
        &reg.MustCounter("mqd_robust_io_rejects_total"),
        &reg.MustCounter("mqd_robust_checkpoints_saved_total"),
        &reg.MustCounter("mqd_robust_checkpoints_restored_total"),
    };
  }();
  return *metrics;
}

const GapMetrics& GetGapMetrics() {
  static const GapMetrics* const metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return new GapMetrics{
        &reg.MustCounter("mqd_gap_certified_solves_total"),
        &reg.MustCounter("mqd_gap_proven_optimal_total"),
        &reg.MustCounter("mqd_gap_interrupted_total"),
        &reg.MustCounter("mqd_gap_certify_errors_total"),
        &reg.MustCounter("mqd_gap_bb_nodes_total"),
        &reg.MustCounter("mqd_gap_bb_pruned_total"),
        &reg.MustCounter("mqd_gap_bb_incumbent_updates_total"),
        // Gaps are small integers; the fine low buckets matter.
        &reg.MustHistogram("mqd_gap_certified_gap",
                           LinearBuckets(0.0, 64.0, 64)),
        &reg.MustHistogram("mqd_gap_certify_seconds", SolveSecondsBuckets()),
        &reg.MustGauge("mqd_gap_last_gap"),
        &reg.MustGauge("mqd_gap_last_lower_bound"),
    };
  }();
  return *metrics;
}

const TenantMetrics& GetTenantMetrics() {
  static const TenantMetrics* const metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return new TenantMetrics{
        &reg.MustGauge("mqd_tenant_active"),
        &reg.MustGauge("mqd_tenant_clusters"),
        &reg.MustCounter("mqd_tenant_arrivals_total"),
        &reg.MustCounter("mqd_tenant_fanout_deliveries_total"),
        &reg.MustCounter("mqd_tenant_shared_state_hits_total"),
        &reg.MustCounter("mqd_tenant_evictions_total"),
        &reg.MustCounter("mqd_tenant_restores_total"),
        &reg.MustCounter("mqd_tenant_quarantined_total"),
    };
  }();
  return *metrics;
}

const ServeLaneMetrics& ServeLaneMetricsFor(std::string_view lane) {
  static LabeledFamily<ServeLaneMetrics>* const family =
      new LabeledFamily<ServeLaneMetrics>(+[](const LabelSet& labels) {
        // LabeledFamily labels with "algorithm"; rebrand as "lane".
        LabelSet lane_labels;
        for (const auto& [key, value] : labels) {
          lane_labels.emplace_back(key == "algorithm" ? "lane" : key, value);
        }
        MetricsRegistry& reg = MetricsRegistry::Global();
        return new ServeLaneMetrics{
            &reg.MustCounter("mqd_serve_requests_total", lane_labels),
            &reg.MustCounter("mqd_serve_admitted_total", lane_labels),
            &reg.MustCounter("mqd_serve_shed_total", lane_labels),
            &reg.MustCounter("mqd_serve_completed_total", lane_labels),
            &reg.MustCounter("mqd_serve_errors_total", lane_labels),
            &reg.MustGauge("mqd_serve_queue_depth", lane_labels),
            // Serving latencies live well below a second when healthy;
            // the saturating top bucket still counts the overloaded tail.
            &reg.MustHistogram("mqd_serve_latency_seconds",
                               LinearBuckets(0.0, 0.5, 50), lane_labels),
        };
      });
  return family->For(lane);
}

namespace {

/// rung -> Counter cache for mqd_serve_pre_degraded_total{rung}.
struct PreDegradedCounter {
  Counter* counter;
};

}  // namespace

Counter& ServePreDegradedFor(std::string_view rung) {
  static LabeledFamily<PreDegradedCounter>* const family =
      new LabeledFamily<PreDegradedCounter>(+[](const LabelSet& labels) {
        LabelSet rung_labels;
        for (const auto& [key, value] : labels) {
          rung_labels.emplace_back(key == "algorithm" ? "rung" : key, value);
        }
        return new PreDegradedCounter{&MetricsRegistry::Global().MustCounter(
            "mqd_serve_pre_degraded_total", rung_labels)};
      });
  return *family->For(rung).counter;
}

const ServeMetrics& GetServeMetrics() {
  static const ServeMetrics* const metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return new ServeMetrics{
        &reg.MustCounter("mqd_serve_drains_total"),
        &reg.MustCounter("mqd_serve_drain_shed_total"),
        &reg.MustCounter("mqd_serve_tenant_rejects_total"),
        &reg.MustCounter("mqd_serve_fault_rejects_total"),
    };
  }();
  return *metrics;
}

namespace {

/// rung -> Counter cache for mqd_robust_degraded_total{rung}.
struct DegradedCounter {
  Counter* counter;
};

}  // namespace

Counter& DegradedTotalFor(std::string_view rung) {
  static LabeledFamily<DegradedCounter>* const family =
      new LabeledFamily<DegradedCounter>(+[](const LabelSet& labels) {
        // LabeledFamily labels with "algorithm"; rebrand as "rung".
        LabelSet rung_labels;
        for (const auto& [key, value] : labels) {
          rung_labels.emplace_back(key == "algorithm" ? "rung" : key, value);
        }
        return new DegradedCounter{&MetricsRegistry::Global().MustCounter(
            "mqd_robust_degraded_total", rung_labels)};
      });
  return *family->For(rung).counter;
}

}  // namespace mqd::obs
