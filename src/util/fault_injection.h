#ifndef MQD_UTIL_FAULT_INJECTION_H_
#define MQD_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace mqd {

/// One configured fault at a named site.
struct FaultSpec {
  /// Probability in [0, 1] that a pass through the site fires.
  double probability = 0.0;
  /// Busy-wait latency injected on fire (seconds); 0 = none. Applied
  /// before the error, mimicking a slow-then-failing dependency.
  double latency_seconds = 0.0;
  /// Error returned on fire. kOk means latency-only faults.
  StatusCode code = StatusCode::kInternal;
  /// Fire as a thrown std::runtime_error instead of a Status — models
  /// misbehaving third-party code (the chaos test's pool.task
  /// schedules use this).
  bool throw_exception = false;
};

/// Deterministic, seeded fault-injection registry.
///
/// Sites are string literals ("io.read_instance", "pool.task", ...)
/// compiled into production code via MQD_FAULT_POINT. Disarmed — the
/// default — a site costs one relaxed atomic load and a predicted
/// branch; nothing else in the process changes, so production binaries
/// carry the sites for free.
///
/// Built-in sites: io.read_instance, stream.replay, pool.task (probed
/// once by each BatchSolver helper thread before it claims work; a fire
/// ends that helper and the caller finishes the batch),
/// io.write_checkpoint (probed between the flushed tmp
/// write and the rename in WriteStreamCheckpointToFile; a fire models
/// a torn write — the previous on-disk snapshot survives), the
/// multi-tenant pair tenant.fanout (probed on each per-cluster
/// delivery; a fire quarantines that cluster only — see
/// stream/multi_tenant.h) and tenant.evict (probed in EvictTenant; a fire
/// returns the fault and leaves the tenant subscribed), and the
/// serving-daemon trio serve.accept (transport framing; a fire
/// rejects the line/connection, the loop survives), serve.queue
/// (probed in Server::Submit before admission; a fire answers the
/// request with the fault) and serve.worker (probed at execution
/// start; a fire fails that one request, the worker survives — throw
/// specs included).
///
/// Armed, firing is a pure function of (seed, site, hit index): the
/// k-th pass through a site either always fires or never fires for a
/// given seed. Replaying a schedule therefore reproduces the exact
/// same faults, which is what lets the chaos harness shrink failures.
///
/// Thread safety: fully safe. Arm/Disarm/SetFault may race
/// MaybeInject from other threads (e.g. a batch helper thread
/// probing pool.task while another thread re-arms the schedule); the armed path serializes on an internal mutex, and the
/// disarmed fast path stays a single relaxed atomic load. Hit
/// counters are atomic so concurrent passes through a site each get a
/// distinct hit index.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms the registry with a seed. Faults fire only while armed.
  void Arm(uint64_t seed);
  /// Disarms and clears all sites and counters.
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Configures `spec` for `site`, replacing any previous spec.
  void SetFault(std::string_view site, const FaultSpec& spec);

  /// Parses a comma-separated schedule "site:prob[:latency_ms][:throw]"
  /// (e.g. "io.read_instance:0.5,pool.task:0.1:5:throw") and arms with
  /// `seed`. Used by the MQD_FAULTS / MQD_FAULT_SEED environment
  /// variables and the CLI --faults flag. Fails closed: numbers must
  /// be finite and fully consumed (no "nan", "inf" or trailing
  /// garbage), and a malformed entry anywhere leaves the registry
  /// disarmed with zero sites configured — never a partial spec.
  Status ArmFromSpec(std::string_view spec, uint64_t seed);

  /// Reads MQD_FAULTS / MQD_FAULT_SEED and arms if the former is set.
  /// Called once from main()s that opt in. Returns OK when unset.
  Status ArmFromEnv();

  /// The injection point body. OK when disarmed, the site is
  /// unconfigured, or this hit does not fire. May throw when the spec
  /// says so.
  Status MaybeInject(std::string_view site);

  /// Total times a site was passed / fired since arming (testing).
  uint64_t Hits(std::string_view site) const;
  uint64_t Fires(std::string_view site) const;

 private:
  FaultInjector() = default;

  struct Site {
    std::string name;
    FaultSpec spec;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> fires{0};
  };

  Site* Find(std::string_view site);
  const Site* Find(std::string_view site) const;

  std::atomic<bool> armed_{false};
  // Guards seed_ and sites_ (including the Site objects' lifetime):
  // Disarm deletes them, and an in-flight MaybeInject on another
  // thread must never observe a deleted entry. Only the armed path
  // locks; the disarmed fast path is the armed_ load alone.
  mutable std::mutex mu_;
  uint64_t seed_ = 0;
  std::vector<Site*> sites_;
};

/// Injection point: returns the fault Status from the enclosing
/// function when the site fires. Usable in any Status- or
/// Result-returning function (Result converts from Status).
#define MQD_FAULT_POINT(site)                                          \
  do {                                                                 \
    if (::mqd::FaultInjector::Global().armed()) {                      \
      ::mqd::Status _fault =                                           \
          ::mqd::FaultInjector::Global().MaybeInject(site);            \
      if (!_fault.ok()) return _fault;                                 \
    }                                                                  \
  } while (false)

}  // namespace mqd

#endif  // MQD_UTIL_FAULT_INJECTION_H_
