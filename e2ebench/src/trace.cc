#include "trace.h"

#include <cstdio>

namespace mqd::e2e {

int32_t Tracer::Record(std::string_view name, int32_t parent, int64_t start_ns,
                       int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t Tracer::Open(std::string_view name, int32_t parent) {
  const int64_t now = NowNs();
  return Record(name, parent, now, now);
}

void Tracer::Close(int32_t span) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

std::map<std::string, double, std::less<>> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != kNoParent) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double, std::less<>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[std::string(spans_[i].name)] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

void PrintLayerTable(const std::string& title, const std::vector<LayerRow>& rows,
                     double total_seconds, double units, double scale,
                     const std::string& unit) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-28s %14s %8s\n", "layer", unit.c_str(), "share");
  double sum = 0.0;
  for (const LayerRow& row : rows) {
    const double per_unit = row.seconds * scale / units;
    std::printf("  %-28s %14.3f %7.1f%%\n", row.layer.c_str(), per_unit,
                total_seconds > 0.0 ? 100.0 * row.seconds / total_seconds : 0.0);
    sum += row.seconds;
  }
  std::printf("  %-28s %14.3f %7.1f%%\n", "sum of rows", sum * scale / units,
              total_seconds > 0.0 ? 100.0 * sum / total_seconds : 0.0);
  std::printf("  %-28s %14.3f\n", "measured total",
              total_seconds * scale / units);
}

}  // namespace mqd::e2e
