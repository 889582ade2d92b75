#ifndef MQD_STREAM_REPLAY_H_
#define MQD_STREAM_REPLAY_H_

#include "stream/stream_solver.h"
#include "util/result.h"

namespace mqd {

/// Statistics of one stream replay.
struct StreamRunStats {
  size_t num_posts = 0;
  size_t num_emitted = 0;
  double max_delay = 0.0;
  double mean_delay = 0.0;
  /// Wall-clock processing time of the replay (the efficiency metric
  /// of Figures 14-15), in seconds.
  double processing_seconds = 0.0;
  double processing_micros_per_post() const {
    return num_posts == 0 ? 0.0 : processing_seconds * 1e6 / num_posts;
  }
};

/// Replays the instance (post value = arrival timestamp) through the
/// processor and collects delay statistics.
///
/// Robustness: arrivals whose timestamp runs backwards (or is NaN) are
/// skipped with mqd_stream_nonmonotone_dropped_total rather than fed
/// to the processor (feeding them would emit posts past their
/// deadline); an armed "stream.replay" fault aborts the replay with
/// its typed Status.
Result<StreamRunStats> RunStream(const Instance& inst,
                                 StreamProcessor* processor);

/// RunStream starting mid-stream at `first_post`: the tail of a replay
/// interrupted after posts [0, first_post) were delivered. Used with
/// stream/checkpoint to resume a restored processor; the emission
/// sequence (restored prefix + resumed tail) matches an uninterrupted
/// RunStream exactly. Stats cover only the resumed tail's posts but
/// the full emission set; the mqd_stream_* counters and histograms
/// take only this call's work: the arrivals it delivers and the
/// emissions it appends.
Result<StreamRunStats> ResumeStream(const Instance& inst,
                                    StreamProcessor* processor,
                                    PostId first_post);

}  // namespace mqd

#endif  // MQD_STREAM_REPLAY_H_
