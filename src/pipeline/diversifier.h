#ifndef MQD_PIPELINE_DIVERSIFIER_H_
#define MQD_PIPELINE_DIVERSIFIER_H_

#include <memory>
#include <vector>

#include "core/proportional.h"
#include "core/solver.h"
#include "gen/tweet_gen.h"
#include "pipeline/matcher.h"
#include "stream/factory.h"
#include "stream/replay.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mqd {

/// Which post attribute is the diversity dimension F.
enum class DiversityDimension { kTime, kSentiment };

/// End-to-end configuration of the Figure-1 pipeline.
struct PipelineConfig {
  DiversityDimension dimension = DiversityDimension::kTime;
  double lambda = 600.0;
  /// Drop SimHash near-duplicates before diversification (the paper's
  /// pre-processing step).
  bool dedup = true;
  SolverKind solver = SolverKind::kScan;
  /// Use the Section-6 post-specific lambda instead of the fixed one.
  bool proportional = false;
  ProportionalConfig proportional_config;
};

/// Result of one offline (static MQDP) pipeline run.
struct PipelineResult {
  /// The matched, deduplicated posts as an optimizer instance.
  Instance instance;
  /// Selected representatives (ids into `instance`).
  std::vector<PostId> selection;
  /// The same representatives as original tweet ids.
  std::vector<uint64_t> selected_tweet_ids;
  size_t matched = 0;
  size_t duplicates_removed = 0;
};

/// Offline pipeline: tweets -> match -> dedup -> MQDP solver.
class Diversifier {
 public:
  Diversifier(TopicMatcher matcher, PipelineConfig config);

  Result<PipelineResult> Run(const std::vector<Tweet>& tweets) const;

 private:
  TopicMatcher matcher_;
  PipelineConfig config_;
};

/// Outcome of one user's pipeline inside a batch run; `result` is
/// meaningful iff `status.ok()`.
struct BatchPipelineOutcome {
  Status status;
  PipelineResult result;
};

/// The digest service's fan-out: each subscribed user brings their own
/// query set (matcher) and pipeline configuration, and every user's
/// digest over the same tweet window is computed concurrently on one
/// work-stealing pool. Outcomes align index-for-index with the users
/// passed at construction, and each equals what that user's
/// Diversifier::Run would produce serially.
class BatchDiversifier {
 public:
  /// `num_threads` total threads (the calling thread counts as one;
  /// 0 = all hardware threads, 1 = serial).
  BatchDiversifier(std::vector<Diversifier> users, int num_threads);
  ~BatchDiversifier();

  BatchDiversifier(const BatchDiversifier&) = delete;
  BatchDiversifier& operator=(const BatchDiversifier&) = delete;

  size_t num_users() const { return users_.size(); }

  std::vector<BatchPipelineOutcome> RunAll(
      const std::vector<Tweet>& tweets) const;

 private:
  std::vector<Diversifier> users_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Streaming configuration (Figure 1's second input path).
struct StreamPipelineConfig {
  double lambda = 600.0;
  double tau = 60.0;
  StreamKind algorithm = StreamKind::kStreamScan;
  bool dedup = true;
};

/// Result of one streaming pipeline run.
struct StreamPipelineResult {
  Instance instance;
  std::vector<Emission> emissions;
  std::vector<uint64_t> selected_tweet_ids;
  StreamRunStats stats;
  size_t matched = 0;
  size_t duplicates_removed = 0;
};

/// Streaming pipeline: replays the tweet stream through matching,
/// dedup and a StreamMQDP processor (the processor sees posts in
/// arrival order only). The diversity dimension is time, as in the
/// paper's streaming setting.
class StreamingDiversifier {
 public:
  StreamingDiversifier(TopicMatcher matcher, StreamPipelineConfig config);

  Result<StreamPipelineResult> Run(const std::vector<Tweet>& tweets) const;

 private:
  TopicMatcher matcher_;
  StreamPipelineConfig config_;
};

}  // namespace mqd

#endif  // MQD_PIPELINE_DIVERSIFIER_H_
