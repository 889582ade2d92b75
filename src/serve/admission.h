#ifndef MQD_SERVE_ADMISSION_H_
#define MQD_SERVE_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <string_view>

#include "serve/protocol.h"

namespace mqd {

/// Queue-aware admission thresholds. All decisions are pure functions
/// of queue depth (not wall time), so overload behavior is
/// deterministic for a given submission order — the CI smoke relies
/// on that.
struct AdmissionConfig {
  /// Lane capacities. The stream lane is sized for bursts (arrivals
  /// are cheap to apply); the batch lane is sized for the solve
  /// service time.
  size_t stream_capacity = 4096;
  size_t batch_capacity = 32;
  /// Default per-request deadline budget when the client sends none.
  /// 0 = unbounded.
  double default_budget_ms = 0.0;
  /// Tenant admission cap for subscribe (0 = unlimited).
  size_t max_tenants = 0;
};

struct AdmissionDecision {
  bool admit = true;
  /// When !admit: "queue_full" | "deadline_unmeetable" | "draining".
  std::string_view shed_reason;
  /// Client backoff hint: roughly when a slot should free up.
  double retry_after_ms = 0.0;
  /// Batch lane: first allowed ladder rung (0 GreedySC, 1 Scan+,
  /// 2 Scan).
  int ladder_start = 0;
  /// Effective deadline budget assigned to the request (ms, 0 =
  /// unbounded).
  double budget_ms = 0.0;
};

/// Decides admit/shed/pre-degrade from the current lane depth. A
/// batch request queued at depth >= ceil(0.5 * batch_capacity) starts
/// the ladder at Scan+ (skips GreedySC), at depth >= ceil(0.8 *
/// batch_capacity) at Scan.
/// Thread-safe; the service-time EWMA is a relaxed atomic (hints may
/// lag a beat — admission itself never depends on it unless a budget
/// makes the estimated wait provably unmeetable).
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  AdmissionDecision Decide(ServeLane lane, size_t queue_depth,
                           double requested_budget_ms, bool draining) const;

  /// Workers report each completed batch solve.
  void RecordBatchServiceSeconds(double seconds);
  double EwmaBatchServiceMs() const;

  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  size_t scan_plus_depth_;
  size_t scan_depth_;
  std::atomic<double> ewma_service_ms_{0.0};
};

}  // namespace mqd

#endif  // MQD_SERVE_ADMISSION_H_
