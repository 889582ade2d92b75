#ifndef MQD_PIPELINE_MATCHER_H_
#define MQD_PIPELINE_MATCHER_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "text/tokenizer.h"
#include "topics/topic_model.h"
#include "util/result.h"
#include "util/string_table.h"

namespace mqd {

/// The matching module of Figure 1: maps a post's text to the set of
/// subscribed query topics it is relevant to. Matching follows
/// Section 7.1: a post matches a topic when it contains at least one
/// of the topic's keywords.
class TopicMatcher {
 public:
  /// `topics[i]` becomes label i; at most kMaxLabels topics.
  static Result<TopicMatcher> Create(std::vector<Topic> topics,
                                     TokenizerOptions options = {});

  int num_labels() const { return static_cast<int>(topics_.size()); }
  const std::vector<Topic>& topics() const { return topics_; }

  /// Labels whose keyword sets intersect the text's tokens (0 = the
  /// post is irrelevant to every query and leaves the pipeline).
  LabelMask Match(std::string_view text) const;
  LabelMask MatchTokens(const std::vector<std::string>& tokens) const;

  /// The tokenizer keywords were normalized with; callers that match
  /// pre-tokenized text must tokenize it with this one.
  const Tokenizer& tokenizer() const { return tokenizer_; }

 private:
  TopicMatcher(std::vector<Topic> topics, TokenizerOptions options);

  std::vector<Topic> topics_;
  Tokenizer tokenizer_;
  StringTable<LabelMask> keyword_labels_;
};

}  // namespace mqd

#endif  // MQD_PIPELINE_MATCHER_H_
