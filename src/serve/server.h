#ifndef MQD_SERVE_SERVER_H_
#define MQD_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/coverage.h"
#include "core/degrade.h"
#include "core/instance.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "stream/factory.h"
#include "stream/multi_tenant.h"

namespace mqd::obs {
struct StreamMetrics;
}  // namespace mqd::obs

namespace mqd {

struct ServeConfig {
  /// Stream engine for the feed/finish verbs.
  StreamKind stream_kind = StreamKind::kStreamScanPlus;
  double lambda = 60.0;
  double tau = 10.0;
  /// Worker threads draining the queue (>= 1).
  int workers = 2;
  AdmissionConfig admission;
  /// Deliberate minimum service time per batch solve (load-drill
  /// knob: makes overload reproducible on any machine). 0 = off.
  double service_floor_ms = 0.0;
  /// true switches to tenant mode: feed drives a MultiTenantStream and
  /// subscribe/unsubscribe/emissions manage per-tenant profiles, with
  /// subscribe shed once `admission.max_tenants` (> 0) are active.
  bool tenant_mode = false;
  /// Single-stream mode: drain checkpoints the replay state here
  /// (PR 5 snapshot format) and Create restores from it when the file
  /// exists — the kill/restore story of the daemon.
  std::string checkpoint_path;
};

struct ServeStatsSnapshot {
  uint64_t submitted[2] = {0, 0};   // indexed by ServeLane
  uint64_t admitted[2] = {0, 0};
  uint64_t shed[2] = {0, 0};
  uint64_t completed[2] = {0, 0};
  uint64_t errors[2] = {0, 0};
  uint64_t pre_degraded = 0;
  uint64_t drain_shed = 0;
  uint64_t tenant_rejects = 0;
  uint64_t emitted = 0;
  PostId cursor = 0;
  size_t depth_stream = 0;
  size_t depth_batch = 0;
  size_t tenants = 0;
  bool draining = false;
  double ewma_batch_ms = 0.0;
};

/// The serving daemon core: admission -> bounded two-lane queue ->
/// worker pool over the degradation ladder and the stream engine.
/// Transport-agnostic — stdio/TCP framing lives in serve/transport.
///
/// Threading: Submit and Stats are safe from any thread. Stream-lane
/// requests are serialized by the queue (one replay engine); batch
/// solves are read-only on the instance and run concurrently.
/// Exactly-once responses: every Submit invokes its callback exactly
/// once — inline (shed/error/inline verb), from a worker, or from the
/// drain sweep (shed reason=draining).
class Server {
 public:
  /// `inst` must outlive the server. Fails if the stream engine can't
  /// be built (bad tau/kind) or a configured checkpoint exists but is
  /// corrupt/mismatched (fail loudly rather than serve from a wrong
  /// cursor).
  static Result<std::unique_ptr<Server>> Create(const Instance& inst,
                                                const ServeConfig& config);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void Submit(ServeRequest req, ServeResponseCallback callback);

  /// Synchronous convenience wrapper around Submit (tests, bench).
  ServeResponse Call(const ServeRequest& req);

  /// Graceful shutdown: stop admitting, let in-flight requests
  /// complete, shed everything still queued with reason=draining,
  /// then checkpoint the stream state (single-stream mode with a
  /// configured path). Idempotent.
  Status Drain();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  ServeStatsSnapshot Stats() const;
  PostId cursor() const { return cursor_.load(std::memory_order_relaxed); }
  const ServeConfig& config() const { return config_; }
  /// Set when Create restored the replay cursor from a checkpoint.
  bool restored_from_checkpoint() const { return restored_; }

 private:
  Server(const Instance& inst, const ServeConfig& config);

  Status Init();
  void WorkerLoop();
  void Execute(ServeLane lane, QueuedRequest item);
  ServeResponse ExecuteLocked(ServeLane lane, const QueuedRequest& item);
  ServeResponse HandleInline(const ServeRequest& req);
  ServeResponse DoSolve(const QueuedRequest& item);
  ServeResponse DoFeed(const ServeRequest& req);
  ServeResponse DoFinish(const ServeRequest& req);
  ServeResponse DoSubscribe(const ServeRequest& req);
  ServeResponse DoUnsubscribe(const ServeRequest& req);
  ServeResponse DoEmissions(const ServeRequest& req);
  std::string FormatStats() const;

  const Instance& inst_;
  const ServeConfig config_;
  UniformLambda model_;
  AdmissionController admission_;
  RequestQueue queue_;

  /// GreedySC -> Scan+ -> Scan (trivial rung implicit); admission's
  /// AdmissionDecision::ladder_start picks the first rung tried.
  DegradingSolver ladder_;

  /// Single-stream mode.
  std::unique_ptr<StreamProcessor> processor_;
  /// The processor's mqd_stream_* family, fetched once in Init.
  const obs::StreamMetrics* stream_metrics_ = nullptr;
  /// Tenant mode.
  std::unique_ptr<MultiTenantStream> tenants_;

  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  std::mutex drain_mu_;
  bool drained_ = false;
  bool restored_ = false;
  /// Set by finish; only stream-lane requests (one in service at a
  /// time) touch it.
  bool finished_ = false;

  std::atomic<uint32_t> cursor_{0};
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> submitted_[2] = {{0}, {0}};
  std::atomic<uint64_t> admitted_[2] = {{0}, {0}};
  std::atomic<uint64_t> shed_[2] = {{0}, {0}};
  std::atomic<uint64_t> completed_[2] = {{0}, {0}};
  std::atomic<uint64_t> errors_[2] = {{0}, {0}};
  std::atomic<uint64_t> pre_degraded_{0};
  std::atomic<uint64_t> drain_shed_{0};
  std::atomic<uint64_t> tenant_rejects_{0};
  std::atomic<uint64_t> tenant_count_{0};
};

}  // namespace mqd

#endif  // MQD_SERVE_SERVER_H_
