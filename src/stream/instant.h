#ifndef MQD_STREAM_INSTANT_H_
#define MQD_STREAM_INSTANT_H_

#include <vector>

#include "stream/stream_solver.h"

namespace mqd {

/// Instant-output streaming (tau = 0, Section 5.1/5.2: identical for
/// the Scan- and GreedySC-based families): a per-label cache holds the
/// most recently selected relevant post; a new arrival not covered by
/// its caches is emitted immediately and refreshes the cache of every
/// label it carries. Approximation 2s.
class InstantStreamProcessor final : public StreamProcessor {
 public:
  InstantStreamProcessor(const Instance& inst, const CoverageModel& model,
                         LabelMask mask = kAllLabels);

  std::string_view name() const override { return "StreamInstant"; }
  void AdvanceTo(double) override {}
  void OnArrival(PostId post) override;
  void Finish() override {}
  /// Instant output: every emission has zero delay.
  double tau() const override { return 0.0; }

 private:
  std::vector<PostId> cache_;  // latest selected post per label
};

}  // namespace mqd

#endif  // MQD_STREAM_INSTANT_H_
