#ifndef MQD_OBS_STACK_METRICS_H_
#define MQD_OBS_STACK_METRICS_H_

#include <string_view>

#include "obs/metrics.h"

namespace mqd::obs {

/// Pre-registered handles for the built-in instrumentation of libmqd.
/// Each accessor registers its metrics in MetricsRegistry::Global() on
/// first use and caches the handles, so instrumented hot paths never
/// touch the registry lock.
///
/// Naming conventions (see DESIGN.md):
///   mqd_<subsystem>_<what>[_total|_seconds]
/// Counters end in `_total`, latency histograms in `_seconds`;
/// per-algorithm families carry an `algorithm` label.

/// Per-solver-algorithm family (label algorithm="Scan", "Scan+",
/// ...). Recorded by the InstrumentedSolver decorator in core/solver.
struct SolverMetrics {
  Counter* solves;               // mqd_solver_solve_total
  Counter* errors;               // mqd_solver_solve_errors_total
  LatencyHistogram* solve_seconds;    // mqd_solver_solve_seconds
  LatencyHistogram* cover_size;       // mqd_solver_cover_size
  LatencyHistogram* instance_posts;   // mqd_solver_instance_posts
  Gauge* last_lambda;            // mqd_solver_last_lambda
};

const SolverMetrics& SolverMetricsFor(std::string_view algorithm);

/// Per-stream-algorithm family (label algorithm="StreamScan", ...).
/// Recorded by stream/replay during RunStream; `mqd serve` adds each
/// feed's delivered posts and new emissions to posts/emissions as the
/// feed completes.
struct StreamMetrics {
  Counter* replays;              // mqd_stream_replays_total
  Counter* posts;                // mqd_stream_posts_total
  Counter* emissions;            // mqd_stream_emissions_total
  Counter* tau_violations;       // mqd_stream_tau_violations_total
  LatencyHistogram* report_delay_seconds;  // mqd_stream_report_delay_seconds
  LatencyHistogram* replay_seconds;        // mqd_stream_replay_seconds
  // Arrivals whose timestamp ran backwards (or was NaN) during replay;
  // such posts are skipped instead of being emitted past-deadline.
  Counter* nonmonotone_dropped;  // mqd_stream_nonmonotone_dropped_total
};

const StreamMetrics& StreamMetricsFor(std::string_view algorithm);

/// Pipeline-wide metrics (matcher, diversifier, digest).
struct PipelineMetrics {
  Counter* posts_checked;        // mqd_pipeline_posts_checked_total
  Counter* posts_matched;        // mqd_pipeline_posts_matched_total
  LatencyHistogram* match_fanout;     // mqd_pipeline_match_fanout
  Counter* duplicates_dropped;   // mqd_pipeline_duplicates_dropped_total
  LatencyHistogram* digest_seconds;   // mqd_pipeline_digest_seconds
  LatencyHistogram* stream_digest_seconds;  // mqd_pipeline_stream_digest_...
  LatencyHistogram* render_seconds;   // mqd_pipeline_render_seconds
};

const PipelineMetrics& GetPipelineMetrics();

/// Batch-solver metrics (parallel/batch_solver).
struct BatchMetrics {
  Counter* jobs;                 // mqd_batch_jobs_total
  Counter* job_errors;           // mqd_batch_job_errors_total
  LatencyHistogram* job_seconds;      // mqd_batch_job_seconds
  LatencyHistogram* cover_size;       // mqd_batch_cover_size
  Gauge* last_batch_jobs;        // mqd_batch_last_batch_jobs
};

const BatchMetrics& GetBatchMetrics();

/// Robustness metrics (core/degrade ladder, hardened ingestion, stream
/// checkpointing). The `DegradedTotalFor` family is labeled with the
/// ladder rung that produced the answer ("GreedySC", "Scan+", "Scan",
/// "trivial"); only non-first-choice rungs count as degraded.
struct RobustMetrics {
  Counter* deadline_expired;     // mqd_robust_deadline_expired_total
  Counter* io_rejects;           // mqd_robust_io_rejects_total
  Counter* checkpoints_saved;    // mqd_robust_checkpoints_saved_total
  Counter* checkpoints_restored; // mqd_robust_checkpoints_restored_total
};

const RobustMetrics& GetRobustMetrics();

/// mqd_robust_degraded_total{rung}: answers produced by a fallback
/// rung of the degradation ladder.
Counter& DegradedTotalFor(std::string_view rung);

/// Optimality-gap engine metrics (core/bounds + core/branch_bound).
/// Recorded by BranchAndBoundSolver::SolveCertified, so every
/// quality-certified answer — direct, `mqd solve --certify-gap` or
/// bench_gap — shows up here.
struct GapMetrics {
  Counter* certified_solves;   // mqd_gap_certified_solves_total
  Counter* proven_optimal;     // mqd_gap_proven_optimal_total
  Counter* interrupted;        // mqd_gap_interrupted_total
  Counter* certify_errors;     // mqd_gap_certify_errors_total
  Counter* nodes;              // mqd_gap_bb_nodes_total
  Counter* pruned;             // mqd_gap_bb_pruned_total
  Counter* incumbent_updates;  // mqd_gap_bb_incumbent_updates_total
  LatencyHistogram* gap;       // mqd_gap_certified_gap
  LatencyHistogram* certify_seconds;  // mqd_gap_certify_seconds
  Gauge* last_gap;             // mqd_gap_last_gap
  Gauge* last_lower_bound;     // mqd_gap_last_lower_bound
};

const GapMetrics& GetGapMetrics();

/// Multi-tenant serving metrics (stream/multi_tenant). Gauges track
/// the engine's current registry shape; the delivery counters grow by
/// each RunUntil batch's deltas as the batch completes, and the event
/// counters on each evict/restore/quarantine.
struct TenantMetrics {
  Gauge* active_tenants;       // mqd_tenant_active
  Gauge* clusters;             // mqd_tenant_clusters
  Counter* arrivals;           // mqd_tenant_arrivals_total
  Counter* fanout_deliveries;  // mqd_tenant_fanout_deliveries_total
  Counter* shared_hits;        // mqd_tenant_shared_state_hits_total
  Counter* evictions;          // mqd_tenant_evictions_total
  Counter* restores;           // mqd_tenant_restores_total
  Counter* quarantines;        // mqd_tenant_quarantined_total
};

const TenantMetrics& GetTenantMetrics();

/// Serving-daemon per-lane family (src/serve, label lane="stream" |
/// "batch"): admission funnel counters, live queue depth and
/// enqueue-to-response latency. shed counts every rejected request
/// regardless of reason (queue_full / deadline_unmeetable / draining).
struct ServeLaneMetrics {
  Counter* submitted;            // mqd_serve_requests_total
  Counter* admitted;             // mqd_serve_admitted_total
  Counter* shed;                 // mqd_serve_shed_total
  Counter* completed;            // mqd_serve_completed_total
  Counter* errors;               // mqd_serve_errors_total
  Gauge* queue_depth;            // mqd_serve_queue_depth
  LatencyHistogram* latency_seconds;  // mqd_serve_latency_seconds
};

const ServeLaneMetrics& ServeLaneMetricsFor(std::string_view lane);

/// mqd_serve_pre_degraded_total{rung}: batch solves that admission
/// started below the full ladder ("ScanPlus", "Scan").
Counter& ServePreDegradedFor(std::string_view rung);

/// Unlabeled daemon-wide counters.
struct ServeMetrics {
  Counter* drains;               // mqd_serve_drains_total
  Counter* drain_shed;           // mqd_serve_drain_shed_total
  Counter* tenant_rejects;       // mqd_serve_tenant_rejects_total
  Counter* fault_rejects;        // mqd_serve_fault_rejects_total
};

const ServeMetrics& GetServeMetrics();

}  // namespace mqd::obs

#endif  // MQD_OBS_STACK_METRICS_H_
