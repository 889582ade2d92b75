#ifndef MQD_PIPELINE_ONLINE_H_
#define MQD_PIPELINE_ONLINE_H_

#include <deque>
#include <string>
#include <vector>

#include "core/types.h"
#include "pipeline/matcher.h"
#include "simhash/dedup.h"
#include "util/result.h"

namespace mqd {

/// A push-based diversified feed: the truly online form of the
/// Figure-1 streaming path. Unlike StreamingDiversifier (which replays
/// a recorded stream through the simulator), OnlineFeed holds no
/// global instance — callers push posts as they arrive and collect
/// emissions; state is O(pending + |L|).
///
/// The algorithm is StreamScan / StreamScan+ (Section 5.1): per label
/// it tracks the latest emitted post and the pending uncovered posts,
/// and reports the latest uncovered post at
/// min(t_latest + tau, t_oldest + lambda). Equivalence with the replay
/// implementation is asserted test-side on shared workloads.
class OnlineFeed {
 public:
  struct Options {
    double lambda = 600.0;
    double tau = 30.0;
    /// StreamScan+ cross-label updates.
    bool cross_label_pruning = true;
    /// Drop SimHash near-duplicates before diversification.
    bool dedup = true;
  };

  struct Output {
    uint64_t post_id;
    double post_time;
    double emit_time;
  };

  OnlineFeed(TopicMatcher matcher, Options options);

  /// Pushes the next post (finite, non-decreasing times required;
  /// non-finite and out-of-order posts are rejected). Returns the
  /// emissions this arrival (and the clock advance to it) triggered —
  /// usually empty, occasionally one or more posts whose deadlines
  /// fired.
  Result<std::vector<Output>> Push(uint64_t post_id, double time,
                                   std::string_view text);

  /// Advances the clock without an arrival (call periodically in quiet
  /// streams so deadlines fire on time). A NaN `now` is ignored.
  std::vector<Output> AdvanceTo(double now);

  /// Flushes every pending decision (end of stream / shutdown).
  std::vector<Output> Flush();

  size_t matched() const { return matched_; }
  size_t duplicates_dropped() const { return duplicates_dropped_; }
  size_t emitted() const { return emitted_; }

 private:
  struct Pending {
    uint64_t id;
    double time;
    LabelMask labels;
    /// Number of label deques still referencing this entry; the ring
    /// front is trimmed once it drops to zero.
    int refs = 0;
    bool emitted = false;
  };
  struct LabelState {
    /// Global indices (ring_base_-relative) of uncovered posts.
    std::deque<size_t> uncovered;
    double lc_time = 0.0;
    bool has_lc = false;
  };

  Pending& Entry(size_t global_index) {
    return ring_[global_index - ring_base_];
  }
  double Deadline(const LabelState& state);
  void Fire(LabelId a, double when, std::vector<Output>* out);
  void Drain(double now, std::vector<Output>* out);
  void TrimRing();

  TopicMatcher matcher_;
  Options options_;
  NearDuplicateDetector dedup_;
  std::vector<LabelState> labels_;
  /// Pending posts; global index of ring_[i] is ring_base_ + i.
  std::deque<Pending> ring_;
  size_t ring_base_ = 0;
  double last_time_ = -1e300;
  size_t matched_ = 0;
  size_t duplicates_dropped_ = 0;
  size_t emitted_ = 0;
};

}  // namespace mqd

#endif  // MQD_PIPELINE_ONLINE_H_
