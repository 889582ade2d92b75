#ifndef MQD_UTIL_DEADLINE_H_
#define MQD_UTIL_DEADLINE_H_

#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace mqd {

/// A time budget, passed by const reference down the solve/stream call
/// stacks. Copyable and cheap: a flag and one steady-clock time point.
///
/// The default-constructed Deadline is unbounded: expired() is a single
/// branch with no clock read, so budget-aware code paths cost nothing
/// when no budget is set (unbudgeted solves stay bit-identical).
class Deadline {
 public:
  /// Unbounded.
  Deadline() = default;

  static Deadline Unbounded() { return Deadline(); }

  /// Expires `seconds` from now on the steady clock. Negative or zero
  /// budgets produce an already-expired deadline; NaN is treated as
  /// unbounded (a NaN budget is "no budget", not "no time").
  static Deadline AfterSeconds(double seconds);

  /// True when nothing can ever expire this deadline.
  bool unbounded() const { return !bounded_; }

  /// Clock read when bounded.
  bool expired() const {
    return bounded_ && std::chrono::steady_clock::now() >= at_;
  }

  /// OK while live; kDeadlineExceeded once tripped. `what` names the
  /// interrupted operation in the message.
  Status Check(const char* what) const;

 private:
  bool bounded_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Amortizes Deadline::expired() for tight loops: the clock is only
/// read every `stride`-th call, and never when the deadline is
/// unbounded. Once tripped it stays tripped, so callers can hoist the
/// expensive unwind out of the loop body.
///
/// Pick the stride so one stride's worth of work costs well under the
/// budget's resolution; the solvers use per-outer-iteration checkers
/// (stride 1, one clock read per greedy round / label sweep) and
/// strided checkers inside enumeration loops.
class DeadlineChecker {
 public:
  explicit DeadlineChecker(const Deadline& deadline, uint32_t stride = 1)
      : deadline_(deadline),
        stride_(stride == 0 ? 1 : stride),
        active_(!deadline.unbounded()) {}

  /// One poll. Unbounded deadlines cost a single predictable branch.
  bool Expired() {
    if (!active_ || tripped_) return tripped_;
    if (++count_ < stride_) return false;
    count_ = 0;
    tripped_ = deadline_.expired();
    return tripped_;
  }

  /// Status form of Expired() for MQD_RETURN_NOT_OK-style call sites.
  Status Check(const char* what) {
    if (!Expired()) return Status::OK();
    return deadline_.Check(what);
  }

 private:
  const Deadline& deadline_;
  uint32_t stride_;
  uint32_t count_ = 0;
  bool active_;
  bool tripped_ = false;
};

}  // namespace mqd

#endif  // MQD_UTIL_DEADLINE_H_
