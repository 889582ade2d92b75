#ifndef MQD_STREAM_STREAM_SOLVER_H_
#define MQD_STREAM_STREAM_SOLVER_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/types.h"
#include "util/logging.h"
#include "util/status.h"

namespace mqd {

/// One output decision of a streaming algorithm: `post` was reported
/// at simulated time `emit_time` (>= the post's timestamp; the
/// reporting delay is emit_time - value(post) and must not exceed the
/// algorithm's tau).
struct Emission {
  PostId post;
  double emit_time;
  bool operator==(const Emission&) const = default;
};

inline constexpr double kNeverDeadline =
    std::numeric_limits<double>::infinity();

/// Tolerance for deadline arithmetic on doubles: an emission within
/// kTauSlack of timestamp + tau is on-time. Shared by the replay
/// driver's violation counter and delay_stats' contract checker so
/// the two delay accountings cannot drift.
inline constexpr double kTauSlack = 1e-9;

/// Uniform-lambda membership runs over an ascending value array: the
/// half-open position range [lo, hi) of the elements that pass. Each
/// predicate is monotone in v, so the run is one partition-point pair.
/// The two sides round differently and must not be merged; they agree
/// in exact arithmetic but can split a rounding-edge element apart.
///  * CoverRun, coveree side (the reference's Covers test): v passes
///    iff fl(v - center) is in [-reach, reach].
///  * CovererRun, coverer side (the reference's batch-init rule): v
///    passes iff center is in [fl(v - reach), fl(v + reach)].
inline std::pair<size_t, size_t> CoverRun(std::span<const double> values,
                                          double center, double reach) {
  auto lo = std::partition_point(values.begin(), values.end(), [&](double v) {
    return v - center < -reach;
  });
  auto hi = std::partition_point(
      lo, values.end(), [&](double v) { return v - center <= reach; });
  return {static_cast<size_t>(lo - values.begin()),
          static_cast<size_t>(hi - values.begin())};
}

inline std::pair<size_t, size_t> CovererRun(std::span<const double> values,
                                            double center, double reach) {
  auto lo = std::partition_point(values.begin(), values.end(), [&](double v) {
    return v + reach < center;
  });
  auto hi = std::partition_point(
      lo, values.end(), [&](double v) { return v - reach <= center; });
  return {static_cast<size_t>(lo - values.begin()),
          static_cast<size_t>(hi - values.begin())};
}

/// The default relevant-label mask of a stream processor: every label.
inline constexpr LabelMask kAllLabels = ~LabelMask{0};

/// A StreamMQDP algorithm. The replay driver (stream/replay.h) feeds
/// posts in timestamp order, advancing the simulated clock so that
/// internal timers (tau/lambda deadlines) fire exactly when they
/// would in a live system.
///
/// Contract:
///  * AdvanceTo(now) is called with non-decreasing `now` and must fire
///    every internal deadline <= now, in deadline order;
///  * OnArrival(p) is called after AdvanceTo(value(p));
///  * Deliver(posts) is that pair for each post of an ascending run,
///    in one call: the multi-tenant engine hands a cluster
///    representative each 64-post word of its matches this way, and a
///    final processor overrides it so the pair is inlined rather than
///    two virtual calls per post;
///  * Finish() fires all remaining deadlines (end of stream);
///  * processors must only inspect posts that have arrived (the shared
///    Instance carries the whole stream for convenience, but peeking
///    at the future would falsify the evaluation).
///
/// Relevant-label mask: a processor serves only the labels in `mask`
/// and reads every post's labels through labels(p), which intersects
/// them with the mask. It is then, field for field, the processor of
/// the sub-stream of posts relevant to the mask, run in the same
/// global post ids: the multi-tenant engine (stream/multi_tenant.h)
/// runs its cluster representatives this way over the one shared post
/// table, delivering only posts whose masked labels are non-empty.
class StreamProcessor {
 public:
  StreamProcessor(const Instance& inst, const CoverageModel& model,
                  LabelMask mask = kAllLabels)
      : inst_(inst), model_(model), mask_(mask) {}
  virtual ~StreamProcessor() = default;

  virtual std::string_view name() const = 0;
  virtual void AdvanceTo(double now) = 0;
  virtual void OnArrival(PostId post) = 0;
  /// AdvanceTo(value(p)) then OnArrival(p), for each p in `posts`
  /// (ascending ids).
  virtual void Deliver(std::span<const PostId> posts) {
    for (PostId p : posts) {
      AdvanceTo(inst_.value(p));
      OnArrival(p);
    }
  }
  virtual void Finish() = 0;

  /// The algorithm's report-delay bound; emissions later than
  /// timestamp + tau violate the StreamMQDP contract. Defaults to
  /// "no deadline" for processors without a tau knob.
  virtual double tau() const { return kNeverDeadline; }

  /// All emissions so far, in emission-time order.
  const std::vector<Emission>& emissions() const { return emissions_; }

  /// The output Z as sorted PostIds.
  std::vector<PostId> SelectedPosts() const;

  /// The stream's post table (used by checkpointing to fingerprint
  /// the instance a snapshot belongs to).
  const Instance& instance() const { return inst_; }

  /// Replaces the emission log wholesale — the checkpoint-restore
  /// path, which hands a fresh processor the killed run's emissions
  /// before the algorithm state is rebuilt. Rejects out-of-range or
  /// duplicated posts, posts carrying no label of the mask, and posts
  /// emitted before their timestamp (Emit's repeat scan relies on
  /// that), without touching current state.
  Status RestoreEmissionLog(std::vector<Emission> emissions);

 protected:
  /// Records an emission; a post already emitted (e.g. for another
  /// label) is not re-added (Z is a set). No emission precedes its
  /// post's timestamp, so while emission times do not decrease an
  /// earlier emission of `post` lies in the log's suffix emitted at or
  /// after value(post), which the loop scans backwards. Times do not
  /// decrease under a uniform lambda, nor for StreamScan, StreamGreedy
  /// or instant output; StreamScan+ under a variable lambda can step
  /// back in time (DESIGN.md §11) but never emits a post twice. No tau
  /// bound is checked here: replay counts late emissions.
  void Emit(PostId post, double time) {
    const double arrival = inst_.value(post);
    MQD_DCHECK(time >= arrival);
    MQD_DCHECK(emissions_.empty() || time >= emissions_.back().emit_time ||
               !model_.IsUniform());
    for (auto it = emissions_.rbegin();
         it != emissions_.rend() && it->emit_time >= arrival; ++it) {
      if (it->post == post) return;
    }
    emissions_.push_back(Emission{post, time});
  }

  /// The labels of `post` this processor serves. Every label read of
  /// a processor goes through here, never through inst_.labels.
  LabelMask labels(PostId post) const { return inst_.labels(post) & mask_; }

  const Instance& inst_;
  const CoverageModel& model_;

 private:
  LabelMask mask_;
  std::vector<Emission> emissions_;
};

}  // namespace mqd

#endif  // MQD_STREAM_STREAM_SOLVER_H_
