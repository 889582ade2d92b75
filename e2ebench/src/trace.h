#ifndef MQD_E2EBENCH_TRACE_H_
#define MQD_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mqd::e2e {

/// Monotonic clock in nanoseconds (steady_clock), the one time base of
/// every span and latency sample in the benchmark.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for traced runs. Spans are recorded by the
/// benchmark around its calls into each library layer; a span's self
/// time is its duration minus the durations of its direct children, so
/// the self times of one span tree add up exactly to the root's
/// duration. Thread-safe (serve callbacks record from worker threads).
class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;

  /// Records a finished span [start_ns, end_ns]. `name` must outlive
  /// the tracer (string literals). Returns the span's index, usable as
  /// a parent.
  int32_t Record(std::string_view name, int32_t parent, int64_t start_ns,
                 int64_t end_ns);
  /// Opens a span now; Close sets its end.
  int32_t Open(std::string_view name, int32_t parent);
  void Close(int32_t span);

  /// Self time per span name, in seconds.
  std::map<std::string, double, std::less<>> SelfSeconds() const;

 private:
  struct Span {
    std::string_view name;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span over a scope; a null tracer records nothing, so untraced
/// runs pay one branch per span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name,
             int32_t parent = Tracer::kNoParent)
      : tracer_(tracer),
        index_(tracer ? tracer->Open(name, parent) : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// One row of a per-layer table: a layer's self time over the traced
/// work, in seconds.
struct LayerRow {
  std::string layer;
  double seconds;
};

/// Prints a per-layer table normalised by `units` (posts or requests)
/// in `scale` units per second (1e9 for ns, 1e3 for ms). The rows
/// must include the remainder; their sum is printed next to the
/// measured total so a reader can see they agree.
void PrintLayerTable(const std::string& title, const std::vector<LayerRow>& rows,
                     double total_seconds, double units, double scale,
                     const std::string& unit);

}  // namespace mqd::e2e

#endif  // MQD_E2EBENCH_TRACE_H_
