#include <gtest/gtest.h>

#include "core/verifier.h"
#include "gen/tweet_gen.h"
#include "pipeline/diversifier.h"
#include "pipeline/matcher.h"
#include "stream/delay_stats.h"

namespace mqd {
namespace {

std::vector<Topic> TwoTopics() {
  Topic politics;
  politics.name = "politics";
  politics.keywords = {"obama", "senate", "congress"};
  Topic finance;
  finance.name = "finance";
  finance.keywords = {"nasdaq", "stocks", "earnings"};
  return {politics, finance};
}

Tweet MakeTweet(uint64_t id, double time, std::string text) {
  Tweet t;
  t.id = id;
  t.time = time;
  t.text = std::move(text);
  return t;
}

TEST(MatcherTest, MatchesAnyKeyword) {
  auto matcher = TopicMatcher::Create(TwoTopics());
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ(matcher->Match("obama adresses the nation"), MaskOf(0));
  EXPECT_EQ(matcher->Match("nasdaq closes higher"), MaskOf(1));
  EXPECT_EQ(matcher->Match("senate debates nasdaq rules"),
            MaskOf(0) | MaskOf(1));
  EXPECT_EQ(matcher->Match("weather is nice"), LabelMask{0});
}

TEST(MatcherTest, CaseAndHashtagNormalization) {
  auto matcher = TopicMatcher::Create(TwoTopics());
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ(matcher->Match("OBAMA wins"), MaskOf(0));
  EXPECT_EQ(matcher->Match("#obama trending"), MaskOf(0));
  EXPECT_EQ(matcher->Match("$NASDAQ up"), MaskOf(1));
}

TEST(MatcherTest, RejectsDegenerateTopics) {
  EXPECT_FALSE(TopicMatcher::Create({}).ok());
  Topic empty;
  empty.name = "empty";
  EXPECT_FALSE(TopicMatcher::Create({empty}).ok());
}

TEST(DiversifierTest, EndToEndTimeDimension) {
  std::vector<Tweet> tweets;
  // Dense run of politics tweets at t=0..9, one finance tweet, one
  // unmatched tweet.
  for (int i = 0; i < 10; ++i) {
    tweets.push_back(MakeTweet(static_cast<uint64_t>(i), i,
                               "obama speech update number"));
  }
  tweets.push_back(MakeTweet(100, 5.5, "nasdaq rallies on earnings"));
  tweets.push_back(MakeTweet(101, 6.0, "lunch was fine"));

  auto matcher = TopicMatcher::Create(TwoTopics());
  ASSERT_TRUE(matcher.ok());
  PipelineConfig config;
  config.lambda = 3.0;
  config.dedup = false;
  config.solver = SolverKind::kGreedySC;
  Diversifier diversifier(*std::move(matcher), config);
  auto result = diversifier.Run(tweets);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->matched, 11u);  // the chatter tweet never enters
  EXPECT_EQ(result->instance.num_posts(), 11u);
  UniformLambda model(config.lambda);
  EXPECT_TRUE(IsCover(result->instance, model, result->selection));
  // 10 politics posts over 10s with lambda 3 need 2; finance needs 1.
  EXPECT_LE(result->selection.size(), 3u);
  EXPECT_EQ(result->selected_tweet_ids.size(), result->selection.size());
}

TEST(DiversifierTest, DedupRemovesRetweets) {
  std::vector<Tweet> tweets;
  tweets.push_back(MakeTweet(
      1, 0.0, "obama speaks to the senate about the economy tonight"));
  tweets.push_back(MakeTweet(
      2, 1.0, "rt obama speaks to the senate about the economy tonight"));
  auto matcher = TopicMatcher::Create(TwoTopics());
  ASSERT_TRUE(matcher.ok());
  PipelineConfig config;
  config.lambda = 10.0;
  config.dedup = true;
  Diversifier diversifier(*std::move(matcher), config);
  auto result = diversifier.Run(tweets);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matched, 2u);
  EXPECT_EQ(result->duplicates_removed, 1u);
  EXPECT_EQ(result->instance.num_posts(), 1u);
}

TEST(DiversifierTest, UsesMatcherTokenizerOptions) {
  // Posts must be tokenized the way the matcher normalized its
  // keywords: a one-letter keyword survives only min_token_length 1.
  Topic files;
  files.name = "files";
  files.keywords = {"x"};
  TokenizerOptions tokenizer_options;
  tokenizer_options.min_token_length = 1;
  auto matcher = TopicMatcher::Create({files}, tokenizer_options);
  ASSERT_TRUE(matcher.ok());
  ASSERT_EQ(matcher->Match("x files"), MaskOf(0));
  PipelineConfig config;
  config.lambda = 10.0;
  Diversifier diversifier(*std::move(matcher), config);
  auto result = diversifier.Run({MakeTweet(1, 0.0, "x files")});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matched, 1u);
  EXPECT_EQ(result->instance.num_posts(), 1u);
}

TEST(DiversifierTest, SentimentDimension) {
  std::vector<Tweet> tweets;
  tweets.push_back(MakeTweet(1, 0.0, "obama great amazing win"));
  tweets.push_back(MakeTweet(2, 1.0, "obama terrible awful crisis"));
  tweets.push_back(MakeTweet(3, 2.0, "obama wonderful fantastic"));
  auto matcher = TopicMatcher::Create(TwoTopics());
  ASSERT_TRUE(matcher.ok());
  PipelineConfig config;
  config.dimension = DiversityDimension::kSentiment;
  config.lambda = 0.3;
  config.dedup = false;
  Diversifier diversifier(*std::move(matcher), config);
  auto result = diversifier.Run(tweets);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->instance.num_posts(), 3u);
  // Positive tweets cluster near +1, the negative one near -1: one
  // representative from each side.
  EXPECT_EQ(result->selection.size(), 2u);
}

TEST(DiversifierTest, ProportionalMode) {
  std::vector<Tweet> tweets;
  for (int i = 0; i < 60; ++i) {
    tweets.push_back(
        MakeTweet(static_cast<uint64_t>(i), i * 0.5, "obama news update"));
  }
  for (int i = 0; i < 4; ++i) {
    tweets.push_back(MakeTweet(static_cast<uint64_t>(100 + i),
                               100.0 + i * 40.0, "obama town hall"));
  }
  auto matcher = TopicMatcher::Create(TwoTopics());
  ASSERT_TRUE(matcher.ok());
  PipelineConfig config;
  config.proportional = true;
  config.proportional_config.lambda0 = 10.0;
  config.dedup = false;
  Diversifier diversifier(*std::move(matcher), config);
  auto result = diversifier.Run(tweets);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->selection.empty());
}

TEST(StreamingDiversifierTest, EndToEndCoversAndRespectsTau) {
  TweetGenConfig gen;
  gen.duration_seconds = 1200.0;
  gen.base_rate_per_minute = 60.0;
  gen.seed = 23;
  auto tweets = GenerateTweetStream(gen);
  ASSERT_TRUE(tweets.ok());

  Topic sports;
  sports.name = "sports";
  sports.keywords = {"golf", "nfl", "football", "basketball", "nba"};
  Topic finance;
  finance.name = "finance";
  finance.keywords = {"stocks", "market", "nasdaq", "earnings"};
  auto matcher = TopicMatcher::Create({sports, finance});
  ASSERT_TRUE(matcher.ok());

  for (StreamKind kind : {StreamKind::kStreamScan,
                          StreamKind::kStreamGreedyPlus}) {
    StreamPipelineConfig config;
    config.lambda = 60.0;
    config.tau = 20.0;
    config.algorithm = kind;
    auto matcher2 = TopicMatcher::Create({sports, finance});
    ASSERT_TRUE(matcher2.ok());
    StreamingDiversifier diversifier(*std::move(matcher2), config);
    auto result = diversifier.Run(*tweets);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(result->matched, 50u);
    UniformLambda model(config.lambda);
    EXPECT_TRUE(ValidateStreamOutput(result->instance, model,
                                     result->emissions, config.tau)
                    .ok());
    EXPECT_LT(result->emissions.size(), result->instance.num_posts());
  }
}

}  // namespace
}  // namespace mqd
