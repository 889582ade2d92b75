#ifndef MQD_STREAM_FACTORY_H_
#define MQD_STREAM_FACTORY_H_

#include <memory>
#include <string_view>

#include "stream/stream_solver.h"
#include "util/result.h"

namespace mqd {

/// The StreamMQDP algorithms of Section 5.
enum class StreamKind {
  kStreamScan,       // delayed per-label scan
  kStreamScanPlus,   // + cross-label pruning
  kStreamGreedy,     // windowed GreedySC, cover whole window
  kStreamGreedyPlus, // windowed GreedySC, stop once the anchor is covered
  kInstant,          // tau = 0 cache-based output (Scan == GreedySC here)
};

std::string_view StreamKindName(StreamKind kind);

/// Creates a fresh processor for one replay. `tau` is ignored by
/// kInstant (it is identically 0 there). `mask` restricts the
/// processor to those labels (StreamProcessor's relevant-label mask).
std::unique_ptr<StreamProcessor> CreateStreamProcessor(
    StreamKind kind, const Instance& inst, const CoverageModel& model,
    double tau, LabelMask mask = kAllLabels);

/// CreateStreamProcessor with `tau` validated instead of MQD_CHECKed:
/// negative, NaN or infinite report-delay budgets come straight from
/// user input (CLI flags, request parameters) and get an
/// InvalidArgument rather than a process abort. tau = 0 is legal (the
/// instant-output regime).
Result<std::unique_ptr<StreamProcessor>> CreateStreamProcessorChecked(
    StreamKind kind, const Instance& inst, const CoverageModel& model,
    double tau);

}  // namespace mqd

#endif  // MQD_STREAM_FACTORY_H_
