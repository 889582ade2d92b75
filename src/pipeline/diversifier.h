#ifndef MQD_PIPELINE_DIVERSIFIER_H_
#define MQD_PIPELINE_DIVERSIFIER_H_

#include <vector>

#include "core/proportional.h"
#include "core/solver.h"
#include "gen/tweet_gen.h"
#include "pipeline/matcher.h"
#include "stream/factory.h"
#include "stream/replay.h"
#include "util/result.h"

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
