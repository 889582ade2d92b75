#include "stream/factory.h"

#include <cmath>

#include "stream/instant.h"
#include "stream/stream_greedy.h"
#include "stream/stream_scan.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace mqd {

std::string_view StreamKindName(StreamKind kind) {
  switch (kind) {
    case StreamKind::kStreamScan:
      return "StreamScan";
    case StreamKind::kStreamScanPlus:
      return "StreamScan+";
    case StreamKind::kStreamGreedy:
      return "StreamGreedySC";
    case StreamKind::kStreamGreedyPlus:
      return "StreamGreedySC+";
    case StreamKind::kInstant:
      return "StreamInstant";
  }
  return "?";
}

std::unique_ptr<StreamProcessor> CreateStreamProcessor(
    StreamKind kind, const Instance& inst, const CoverageModel& model,
    double tau, LabelMask mask) {
  switch (kind) {
    case StreamKind::kStreamScan:
      return std::make_unique<StreamScanProcessor>(
          inst, model, tau, /*cross_label_pruning=*/false, mask);
    case StreamKind::kStreamScanPlus:
      return std::make_unique<StreamScanProcessor>(
          inst, model, tau, /*cross_label_pruning=*/true, mask);
    case StreamKind::kStreamGreedy:
      return std::make_unique<StreamGreedyProcessor>(
          inst, model, tau, /*stop_at_anchor=*/false, mask);
    case StreamKind::kStreamGreedyPlus:
      return std::make_unique<StreamGreedyProcessor>(
          inst, model, tau, /*stop_at_anchor=*/true, mask);
    case StreamKind::kInstant:
      return std::make_unique<InstantStreamProcessor>(inst, model, mask);
  }
  MQD_LOG(Fatal) << "unknown stream kind";
  return nullptr;
}

Result<std::unique_ptr<StreamProcessor>> CreateStreamProcessorChecked(
    StreamKind kind, const Instance& inst, const CoverageModel& model,
    double tau) {
  if (std::isnan(tau) || tau < 0.0) {
    return Status::InvalidArgument(
        StrFormat("tau must be a non-negative finite delay, got %g", tau));
  }
  if (std::isinf(tau)) {
    return Status::InvalidArgument(
        "tau must be finite (an unbounded report delay never emits)");
  }
  return CreateStreamProcessor(kind, inst, model, tau);
}

}  // namespace mqd
