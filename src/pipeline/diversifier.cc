#include "pipeline/diversifier.h"

#include <algorithm>
#include <memory>

#include "obs/stack_metrics.h"
#include "obs/trace.h"
#include "sentiment/scorer.h"
#include "simhash/dedup.h"
#include "simhash/simhash.h"
#include "text/tokenizer.h"

namespace mqd {

namespace {

struct MatchedBatch {
  Instance instance;
  size_t matched = 0;
  size_t duplicates_removed = 0;
};

/// Shared front half of both pipelines: match, dedup, build the
/// instance. `use_sentiment` selects the diversity dimension.
Result<MatchedBatch> MatchAndBuild(const TopicMatcher& matcher,
                                   const std::vector<Tweet>& tweets,
                                   bool dedup, bool use_sentiment) {
  const Tokenizer& tokenizer = matcher.tokenizer();
  SentimentScorer scorer;
  NearDuplicateDetector detector;
  InstanceBuilder builder(matcher.num_labels());
  MatchedBatch batch{Instance{}, 0, 0};
  for (const Tweet& tweet : tweets) {
    const std::vector<std::string> tokens = tokenizer.Tokenize(tweet.text);
    const LabelMask mask = matcher.MatchTokens(tokens);
    if (mask == 0) continue;
    ++batch.matched;
    if (dedup && detector.IsDuplicate(SimHash(tokens))) {
      ++batch.duplicates_removed;
      continue;
    }
    const double value =
        use_sentiment ? scorer.Score(tweet.text) : tweet.time;
    builder.Add(value, mask, tweet.id);
  }
  if (batch.duplicates_removed > 0) {
    obs::GetPipelineMetrics().duplicates_dropped->Increment(
        batch.duplicates_removed);
  }
  MQD_ASSIGN_OR_RETURN(batch.instance, builder.Build());
  return batch;
}

std::vector<uint64_t> ToTweetIds(const Instance& inst,
                                 const std::vector<PostId>& selection) {
  std::vector<uint64_t> ids;
  ids.reserve(selection.size());
  for (PostId p : selection) ids.push_back(inst.post(p).external_id);
  return ids;
}

}  // namespace

Diversifier::Diversifier(TopicMatcher matcher, PipelineConfig config)
    : matcher_(std::move(matcher)), config_(config) {}

Result<PipelineResult> Diversifier::Run(
    const std::vector<Tweet>& tweets) const {
  obs::ScopedTimer timer(obs::GetPipelineMetrics().digest_seconds);
  obs::TraceSpan span("pipeline:digest");
  MatchedBatch batch{Instance{}, 0, 0};
  MQD_ASSIGN_OR_RETURN(
      batch, MatchAndBuild(
                 matcher_, tweets, config_.dedup,
                 config_.dimension == DiversityDimension::kSentiment));

  PipelineResult result;
  result.matched = batch.matched;
  result.duplicates_removed = batch.duplicates_removed;
  result.instance = std::move(batch.instance);

  std::unique_ptr<CoverageModel> model;
  if (config_.proportional) {
    std::unique_ptr<VariableLambda> variable;
    MQD_ASSIGN_OR_RETURN(variable,
                         ComputeProportionalLambdas(
                             result.instance, config_.proportional_config));
    model = std::move(variable);
  } else {
    model = std::make_unique<UniformLambda>(config_.lambda);
  }

  const std::unique_ptr<Solver> solver = CreateSolver(config_.solver);
  MQD_ASSIGN_OR_RETURN(result.selection,
                       solver->Solve(result.instance, *model));
  result.selected_tweet_ids = ToTweetIds(result.instance, result.selection);
  return result;
}

StreamingDiversifier::StreamingDiversifier(TopicMatcher matcher,
                                           StreamPipelineConfig config)
    : matcher_(std::move(matcher)), config_(config) {}

Result<StreamPipelineResult> StreamingDiversifier::Run(
    const std::vector<Tweet>& tweets) const {
  obs::ScopedTimer timer(obs::GetPipelineMetrics().stream_digest_seconds);
  obs::TraceSpan span("pipeline:stream_digest");
  MatchedBatch batch{Instance{}, 0, 0};
  MQD_ASSIGN_OR_RETURN(batch,
                       MatchAndBuild(matcher_, tweets, config_.dedup,
                                     /*use_sentiment=*/false));

  StreamPipelineResult result;
  result.matched = batch.matched;
  result.duplicates_removed = batch.duplicates_removed;
  result.instance = std::move(batch.instance);

  UniformLambda model(config_.lambda);
  MQD_ASSIGN_OR_RETURN(
      const std::unique_ptr<StreamProcessor> processor,
      CreateStreamProcessorChecked(config_.algorithm, result.instance, model,
                                   config_.tau));
  MQD_ASSIGN_OR_RETURN(result.stats,
                       RunStream(result.instance, processor.get()));
  result.emissions = processor->emissions();
  result.selected_tweet_ids =
      ToTweetIds(result.instance, processor->SelectedPosts());
  return result;
}

}  // namespace mqd
