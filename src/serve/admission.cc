#include "serve/admission.h"

#include <algorithm>
#include <cmath>

namespace mqd {
namespace {

// Floor for retry-after hints before the EWMA warms up: claiming
// retry_after_ms=0 on a shed would invite an immediate hot retry.
constexpr double kColdServiceMs = 1.0;

// Batch pre-degrade thresholds as fractions of the batch capacity.
constexpr double kScanPlusFrac = 0.5;
constexpr double kScanFrac = 0.8;

// EWMA smoothing for the observed batch service time that feeds
// retry-after hints and the estimated-wait shed.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config),
      scan_plus_depth_(static_cast<size_t>(std::ceil(
          kScanPlusFrac * static_cast<double>(config.batch_capacity)))),
      scan_depth_(static_cast<size_t>(std::ceil(
          kScanFrac * static_cast<double>(config.batch_capacity)))) {}

AdmissionDecision AdmissionController::Decide(ServeLane lane,
                                              size_t queue_depth,
                                              double requested_budget_ms,
                                              bool draining) const {
  AdmissionDecision d;
  d.budget_ms = requested_budget_ms >= 0.0 ? requested_budget_ms
                                           : config_.default_budget_ms;
  const double service_ms = std::max(EwmaBatchServiceMs(), kColdServiceMs);
  if (draining) {
    d.admit = false;
    d.shed_reason = "draining";
    // No slot will ever free up here; hint one full queue's worth so
    // clients back off long enough to find the replacement process.
    d.retry_after_ms = static_cast<double>(config_.batch_capacity) * service_ms;
    return d;
  }
  const size_t capacity = lane == ServeLane::kStream
                              ? config_.stream_capacity
                              : config_.batch_capacity;
  if (queue_depth >= capacity) {
    d.admit = false;
    d.shed_reason = "queue_full";
    d.retry_after_ms = static_cast<double>(queue_depth) * service_ms;
    return d;
  }
  if (lane == ServeLane::kBatch) {
    // Pre-degrade: the deeper the queue, the cheaper the rung the
    // solve is allowed to start at.
    if (queue_depth >= scan_depth_) {
      d.ladder_start = 2;
    } else if (queue_depth >= scan_plus_depth_) {
      d.ladder_start = 1;
    }
    // With a finite budget, shed requests whose estimated queue wait
    // already exceeds it: they would only burn a worker slot to
    // return a trivial cover.
    if (d.budget_ms > 0.0) {
      const double est_wait_ms = static_cast<double>(queue_depth) * service_ms;
      if (est_wait_ms > d.budget_ms) {
        d.admit = false;
        d.shed_reason = "deadline_unmeetable";
        d.retry_after_ms = est_wait_ms;
        return d;
      }
    }
  }
  return d;
}

void AdmissionController::RecordBatchServiceSeconds(double seconds) {
  const double sample_ms = seconds * 1e3;
  double prev = ewma_service_ms_.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev == 0.0
               ? sample_ms
               : prev + kEwmaAlpha * (sample_ms - prev);
  } while (!ewma_service_ms_.compare_exchange_weak(
      prev, next, std::memory_order_relaxed));
}

double AdmissionController::EwmaBatchServiceMs() const {
  return ewma_service_ms_.load(std::memory_order_relaxed);
}

}  // namespace mqd
