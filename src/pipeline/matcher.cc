#include "pipeline/matcher.h"

#include "obs/stack_metrics.h"
#include "util/string_util.h"

namespace mqd {

Result<TopicMatcher> TopicMatcher::Create(std::vector<Topic> topics,
                                          TokenizerOptions options) {
  if (topics.empty()) {
    return Status::InvalidArgument("need at least one topic");
  }
  if (topics.size() > static_cast<size_t>(kMaxLabels)) {
    return Status::ResourceExhausted(
        StrFormat("at most %d topics per matcher", kMaxLabels));
  }
  for (size_t i = 0; i < topics.size(); ++i) {
    if (topics[i].keywords.empty()) {
      return Status::InvalidArgument(
          StrFormat("topic %zu has no keywords", i));
    }
  }
  return TopicMatcher(std::move(topics), options);
}

TopicMatcher::TopicMatcher(std::vector<Topic> topics,
                           TokenizerOptions options)
    : topics_(std::move(topics)), tokenizer_(options) {
  for (size_t i = 0; i < topics_.size(); ++i) {
    const LabelMask bit = MaskOf(static_cast<LabelId>(i));
    for (const std::string& raw : topics_[i].keywords) {
      // Normalize keywords through the same tokenizer as post text so
      // "Obama" matches "obama".
      for (const std::string& token : tokenizer_.Tokenize(raw)) {
        keyword_labels_[token] |= bit;
      }
    }
  }
}

LabelMask TopicMatcher::Match(std::string_view text) const {
  return MatchTokens(tokenizer_.Tokenize(text));
}

LabelMask TopicMatcher::MatchTokens(
    const std::vector<std::string>& tokens) const {
  LabelMask mask = 0;
  for (const std::string& token : tokens) {
    if (const LabelMask* labels = keyword_labels_.Find(token)) {
      mask |= *labels;
    }
    // A hashtag also matches its bare keyword ("#obama" ~ "obama").
    if (!token.empty() && (token[0] == '#' || token[0] == '$')) {
      if (const LabelMask* labels =
              keyword_labels_.Find(std::string_view(token).substr(1))) {
        mask |= *labels;
      }
    }
  }
  const obs::PipelineMetrics& metrics = obs::GetPipelineMetrics();
  metrics.posts_checked->Increment();
  if (mask != 0) {
    metrics.posts_matched->Increment();
    metrics.match_fanout->Observe(static_cast<double>(MaskCount(mask)));
  }
  return mask;
}

}  // namespace mqd
