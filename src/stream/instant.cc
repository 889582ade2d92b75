#include "stream/instant.h"

namespace mqd {

InstantStreamProcessor::InstantStreamProcessor(const Instance& inst,
                                               const CoverageModel& model,
                                               LabelMask mask)
    : StreamProcessor(inst, model, mask),
      cache_(static_cast<size_t>(inst.num_labels()), kInvalidPost) {}

void InstantStreamProcessor::OnArrival(PostId post) {
  bool covered = true;
  ForEachLabel(labels(post), [&](LabelId a) {
    if (cache_[a] == kInvalidPost ||
        !model_.Covers(inst_, cache_[a], a, post)) {
      covered = false;
    }
  });
  if (covered) return;
  Emit(post, inst_.value(post));
  ForEachLabel(labels(post), [&](LabelId a) { cache_[a] = post; });
}

}  // namespace mqd
