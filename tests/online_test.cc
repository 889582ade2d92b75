#include <limits>

#include <gtest/gtest.h>

#include "gen/tweet_gen.h"
#include "pipeline/diversifier.h"
#include "pipeline/online.h"
#include "util/logging.h"

namespace mqd {
namespace {

std::vector<Topic> TwoTopics() {
  Topic politics;
  politics.name = "politics";
  politics.keywords = {"obama", "senate"};
  Topic finance;
  finance.name = "finance";
  finance.keywords = {"nasdaq", "stocks"};
  return {politics, finance};
}

OnlineFeed MakeFeed(OnlineFeed::Options options) {
  auto matcher = TopicMatcher::Create(TwoTopics());
  MQD_CHECK(matcher.ok());
  return OnlineFeed(*std::move(matcher), options);
}

TEST(OnlineFeedTest, EmitsWithinTauAndCovers) {
  OnlineFeed::Options options;
  options.lambda = 10.0;
  options.tau = 2.0;
  options.dedup = false;
  OnlineFeed feed = MakeFeed(options);

  auto out1 = feed.Push(1, 0.0, "obama speaks");
  ASSERT_TRUE(out1.ok());
  EXPECT_TRUE(out1->empty());  // decision still pending
  // Advancing past t_lu + tau fires the deadline.
  auto fired = feed.AdvanceTo(5.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].post_id, 1u);
  EXPECT_DOUBLE_EQ(fired[0].emit_time, 2.0);
  EXPECT_LE(fired[0].emit_time - fired[0].post_time, options.tau);

  // A later post within lambda of the emitted one is suppressed.
  auto out2 = feed.Push(2, 6.0, "obama again");
  ASSERT_TRUE(out2.ok());
  EXPECT_TRUE(feed.Flush().empty());
  EXPECT_EQ(feed.emitted(), 1u);
  EXPECT_EQ(feed.matched(), 2u);
}

TEST(OnlineFeedTest, RejectsOutOfOrderPosts) {
  OnlineFeed feed = MakeFeed({});
  ASSERT_TRUE(feed.Push(1, 10.0, "obama").ok());
  EXPECT_FALSE(feed.Push(2, 5.0, "senate").ok());
}

TEST(OnlineFeedTest, RejectsNonFiniteTimes) {
  OnlineFeed::Options options;
  options.lambda = 10.0;
  options.tau = 2.0;
  options.dedup = false;
  OnlineFeed feed = MakeFeed(options);
  ASSERT_TRUE(feed.Push(1, 10.0, "obama").ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    auto r = feed.Push(2, bad, "senate");
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // The rejected pushes left the out-of-order check armed.
  EXPECT_FALSE(feed.Push(3, 5.0, "senate").ok());

  // A NaN clock fires nothing and does not move the clock: the
  // pending post (deadline 12) still fires at its deadline.
  EXPECT_TRUE(feed.AdvanceTo(std::numeric_limits<double>::quiet_NaN())
                  .empty());
  EXPECT_FALSE(feed.Push(4, 9.0, "senate").ok());
  const auto fired = feed.AdvanceTo(12.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].post_id, 1u);
  EXPECT_DOUBLE_EQ(fired[0].emit_time, 12.0);
  EXPECT_EQ(feed.emitted(), 1u);
}

TEST(OnlineFeedTest, UnmatchedPostsIgnored) {
  OnlineFeed feed = MakeFeed({});
  auto out = feed.Push(1, 0.0, "nothing relevant here");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(feed.matched(), 0u);
  EXPECT_TRUE(feed.Flush().empty());
}

TEST(OnlineFeedTest, UsesMatcherTokenizerOptions) {
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
  OnlineFeed feed(*std::move(matcher), {});
  ASSERT_TRUE(feed.Push(1, 0.0, "x files").ok());
  EXPECT_EQ(feed.matched(), 1u);
}

TEST(OnlineFeedTest, DedupDropsRetweets) {
  OnlineFeed::Options options;
  options.dedup = true;
  OnlineFeed feed = MakeFeed(options);
  ASSERT_TRUE(
      feed.Push(1, 0.0, "obama speaks to the senate about jobs").ok());
  ASSERT_TRUE(
      feed.Push(2, 1.0, "rt obama speaks to the senate about jobs").ok());
  EXPECT_EQ(feed.matched(), 2u);
  EXPECT_EQ(feed.duplicates_dropped(), 1u);
}

TEST(OnlineFeedTest, MatchesReplayedStreamScanOnSharedWorkload) {
  // The online implementation must reproduce the replay simulator's
  // StreamScan/StreamScan+ output exactly (same posts, same times).
  TweetGenConfig gen;
  gen.duration_seconds = 1800.0;
  gen.base_rate_per_minute = 90.0;
  gen.seed = 99;
  auto tweets = GenerateTweetStream(gen);
  ASSERT_TRUE(tweets.ok());

  for (bool plus : {false, true}) {
    // Replay path.
    auto matcher = TopicMatcher::Create(TwoTopics());
    ASSERT_TRUE(matcher.ok());
    StreamPipelineConfig config;
    config.lambda = 60.0;
    config.tau = 15.0;
    config.dedup = false;
    config.algorithm =
        plus ? StreamKind::kStreamScanPlus : StreamKind::kStreamScan;
    StreamingDiversifier replay(*std::move(matcher), config);
    auto replay_result = replay.Run(*tweets);
    ASSERT_TRUE(replay_result.ok());

    // Online path.
    OnlineFeed::Options options;
    options.lambda = config.lambda;
    options.tau = config.tau;
    options.cross_label_pruning = plus;
    options.dedup = false;
    OnlineFeed feed = MakeFeed(options);
    std::vector<OnlineFeed::Output> online_outputs;
    for (const Tweet& tweet : *tweets) {
      auto out = feed.Push(tweet.id, tweet.time, tweet.text);
      ASSERT_TRUE(out.ok());
      online_outputs.insert(online_outputs.end(), out->begin(),
                            out->end());
    }
    auto flushed = feed.Flush();
    online_outputs.insert(online_outputs.end(), flushed.begin(),
                          flushed.end());

    ASSERT_EQ(online_outputs.size(), replay_result->emissions.size())
        << (plus ? "StreamScan+" : "StreamScan");
    for (size_t i = 0; i < online_outputs.size(); ++i) {
      const Emission& expected = replay_result->emissions[i];
      const Post& post = replay_result->instance.post(expected.post);
      EXPECT_EQ(online_outputs[i].post_id, post.external_id) << i;
      EXPECT_NEAR(online_outputs[i].emit_time, expected.emit_time, 1e-9)
          << i;
    }
  }
}

TEST(OnlineFeedTest, MemoryStaysBounded) {
  // The pending ring must not grow with stream length (posts are
  // resolved within max(lambda, tau)).
  OnlineFeed::Options options;
  options.lambda = 5.0;
  options.tau = 1.0;
  options.dedup = false;
  OnlineFeed feed = MakeFeed(options);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(feed.Push(static_cast<uint64_t>(i), i * 0.1,
                          i % 2 == 0 ? "obama news" : "nasdaq news")
                    .ok());
  }
  feed.Flush();
  EXPECT_GT(feed.emitted(), 100u);
  EXPECT_EQ(feed.matched(), 20000u);
}

}  // namespace
}  // namespace mqd
