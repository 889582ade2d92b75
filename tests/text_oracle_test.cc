// Differential battery for the text front end: the library's tokenizer,
// matcher, SimHash and near-duplicate detector against the plain
// bodies in text_oracle.h, which they must reproduce exactly.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/news_gen.h"
#include "gen/tweet_gen.h"
#include "pipeline/matcher.h"
#include "simhash/dedup.h"
#include "simhash/simhash.h"
#include "text_oracle.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace mqd {
namespace {

using ::mqd::testing::OracleIsStopword;
using ::mqd::testing::OracleMatcher;
using ::mqd::testing::OracleNearDuplicateDetector;
using ::mqd::testing::OracleSimHash;
using ::mqd::testing::OracleStopwords;
using ::mqd::testing::OracleTokenize;

std::vector<Topic> BroadTopics() {
  std::vector<Topic> topics;
  for (const BroadTopicSpec& spec : BuiltinBroadTopics()) {
    Topic topic;
    topic.name = spec.name;
    topic.keywords = spec.keywords;
    topics.push_back(std::move(topic));
  }
  return topics;
}

/// Every TokenizerOptions combination the tokenizer branches on.
std::vector<TokenizerOptions> AllOptions() {
  std::vector<TokenizerOptions> all;
  for (bool tags : {false, true}) {
    for (size_t min_len : {0, 1, 2, 3}) {
      for (bool stop : {false, true}) {
        all.push_back(TokenizerOptions{tags, min_len, stop});
      }
    }
  }
  return all;
}

std::string Describe(const TokenizerOptions& o) {
  return "keep_tag_prefixes=" + std::to_string(o.keep_tag_prefixes) +
         " min_token_length=" + std::to_string(o.min_token_length) +
         " remove_stopwords=" + std::to_string(o.remove_stopwords);
}

/// Text built from fragments the tokenizer branches on: URL schemes
/// and their marks, tag prefixes, apostrophes, every whitespace byte,
/// mixed case, stopwords, and raw bytes (>= 0x80 included).
std::string FuzzText(Rng* rng) {
  static const char* const kFragments[] = {
      "http", "https", "HTTP", "www", "WWW", "://", ":", ".", "/",
      "#",    "$",     "##",   "'",   "don't", "_",  "x",  "Ab",
      "obama", "#Obama", "$goog", "the", "RT", "rt", "it's", "a",
      " ",    "\t",    "\n",   "\v",  "\f",  "\r", "  ", "9",
      "http://t.co/x", "www.example.com", "https:x", "wwwx.", "httpx",
      "caf\xC3\xA9", "\xE9t\xE9", "\x80", "\xFF", "na\xEFve"};
  constexpr size_t kCount = sizeof(kFragments) / sizeof(kFragments[0]);
  std::string text;
  const size_t parts = rng->Uniform(24);
  for (size_t i = 0; i < parts; ++i) {
    if (rng->Bernoulli(0.2)) {
      text.push_back(static_cast<char>(rng->Uniform(256)));
    } else {
      text += kFragments[rng->Uniform(kCount)];
    }
  }
  return text;
}

TEST(TextOracleTest, StopwordsMatchOracle) {
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::string word = FuzzText(&rng);
    ASSERT_EQ(IsStopword(word), OracleIsStopword(word)) << word;
  }
  for (const char* word : {"", "a", "the", "yourselves", "rt", "The", "obama"}) {
    EXPECT_EQ(IsStopword(word), OracleIsStopword(word)) << word;
  }
}

/// Every one-byte edit of `word` over a few bytes: each byte replaced,
/// each byte deleted, and a byte inserted at each position.
std::vector<std::string> OneByteEdits(const std::string& word) {
  std::vector<std::string> edits;
  for (size_t i = 0; i <= word.size(); ++i) {
    for (char c : {'a', 'z', '_', '0', '#', '\xE9'}) {
      if (i < word.size()) {
        std::string replaced = word;
        replaced[i] = c;
        edits.push_back(replaced);
      }
      edits.push_back(word.substr(0, i) + c + word.substr(i));
    }
    if (i < word.size()) {
      edits.push_back(word.substr(0, i) + word.substr(i + 1));
    }
  }
  return edits;
}

TEST(TextOracleTest, EveryStopwordAndItsEditsMatchOracle) {
  size_t stopwords = 0;
  for (const std::string& word : OracleStopwords()) {
    ASSERT_TRUE(IsStopword(word)) << word;
    ++stopwords;
    for (const std::string& edit : OneByteEdits(word)) {
      ASSERT_EQ(IsStopword(edit), OracleIsStopword(edit))
          << "\"" << edit << "\" (edit of \"" << word << "\")";
    }
  }
  EXPECT_GT(stopwords, 100u);
}

/// Keywords shaped for the flat table's hash, which reads at most the
/// first and last 8 bytes and the length: keys on both sides of every
/// read-width boundary, and over-16-byte keys that differ only in the
/// bytes between the two words.
std::vector<Topic> HashShapedTopics() {
  std::vector<Topic> topics(4);
  topics[0].keywords = {"a", "q", "zz", "z9", "abc", "_x_"};
  topics[1].keywords = {"abcd", "obama", "senate", "abcdefg", "abcdefh",
                        "abcdefgh", "abcdefgi", "bbcdefgh"};
  topics[2].keywords = {"abcdefghi", "abcdefghijklmnop", "abcdefghijklmnoq",
                        "abcdefghxjklmnop", "#nasdaq", "$goog"};
  topics[3].keywords = {"abcdefghxijklmnop", "abcdefghxxijklmnop",
                        "abcdefgh0123456789ijklmnop",
                        "abcdefgh9123456789ijklmnop", "obama"};
  return topics;
}

/// Tokens to look up against HashShapedTopics: every keyword, its
/// one-byte edits and its '#'/'$' forms, plus middle-byte twins that
/// are not keywords.
std::vector<std::string> HashShapedQueries() {
  std::vector<std::string> queries = {
      "abcdefghyijklmnop",  "abcdefghxijklmnoq",
      "abcdefgh1123456789ijklmnop", "abcdefghyyijklmnop",
      "abcdefghXijklmnop",  "#abcdefghxijklmnop",
      "$abcdefghyijklmnop", "#obama", "$obama", "##obama", "#nasdaq",
      "nasdaq", "$goog", "#goog", "goog", "#$goog", "#", "$",
      "#nokeyword", "nokeyword", ""};
  for (const Topic& topic : HashShapedTopics()) {
    for (const std::string& keyword : topic.keywords) {
      queries.push_back(keyword);
      queries.push_back("#" + keyword);
      queries.push_back("$" + keyword);
      for (const std::string& edit : OneByteEdits(keyword)) {
        queries.push_back(edit);
      }
    }
  }
  return queries;
}

TEST(TextOracleTest, HashShapedKeywordsMatchOracle) {
  // Lookups go straight to MatchTokens one token at a time, and in
  // runs, so each key is checked whatever the tokenizer keeps.
  const std::vector<std::string> queries = HashShapedQueries();
  for (const TokenizerOptions& options : AllOptions()) {
    auto matcher = TopicMatcher::Create(HashShapedTopics(), options);
    ASSERT_TRUE(matcher.ok());
    const OracleMatcher oracle(HashShapedTopics(), options);
    size_t hits = 0;
    for (const std::string& query : queries) {
      const std::vector<std::string> one = {query};
      const LabelMask mask = matcher->MatchTokens(one);
      ASSERT_EQ(mask, oracle.MatchTokens(one))
          << "\"" << query << "\" " << Describe(options);
      hits += mask != 0 ? 1 : 0;
    }
    EXPECT_GT(hits, 0u) << Describe(options);
    for (size_t begin = 0; begin < queries.size(); begin += 7) {
      const std::vector<std::string> run(
          queries.begin() + static_cast<std::ptrdiff_t>(begin),
          queries.begin() + static_cast<std::ptrdiff_t>(
                                std::min(begin + 7, queries.size())));
      ASSERT_EQ(matcher->MatchTokens(run), oracle.MatchTokens(run))
          << "run at " << begin << " " << Describe(options);
    }
  }
  // The middle-byte twins share a hash and still resolve exactly.
  const TokenizerOptions options;
  auto matcher = TopicMatcher::Create(HashShapedTopics(), options);
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ(matcher->MatchTokens({"abcdefghxijklmnop"}), MaskOf(3));
  EXPECT_EQ(matcher->MatchTokens({"abcdefghyijklmnop"}), 0u);
  EXPECT_EQ(matcher->MatchTokens({"#obama"}), MaskOf(1) | MaskOf(3));
  EXPECT_EQ(matcher->MatchTokens({"#nokeyword"}), 0u);
}

TEST(TextOracleTest, LargeKeywordTableMatchesOracle) {
  // Thousands of keywords grow the table many times, and 300 keys that
  // share their first and last 8 bytes and their length hash alike, so
  // one probe chain runs through all of them.
  Rng rng(23);
  auto random_word = [&rng](size_t length) {
    std::string word;
    for (size_t i = 0; i < length; ++i) {
      word.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    return word;
  };
  std::vector<Topic> topics(40);
  std::vector<std::string> keywords;
  for (int i = 0; i < 6000; ++i) {
    keywords.push_back(random_word(1 + rng.Uniform(40)));
  }
  for (int i = 0; i < 300; ++i) {
    keywords.push_back("abcdefgh" + std::to_string(1000 + i) + "ijklmnop");
  }
  for (size_t i = 0; i < keywords.size(); ++i) {
    topics[rng.Uniform(topics.size())].keywords.push_back(keywords[i]);
  }
  for (Topic& topic : topics) topic.keywords.push_back(random_word(5));

  // Every random keyword, stopwords and 1-byte words included, is kept.
  TokenizerOptions options;
  options.min_token_length = 1;
  options.remove_stopwords = false;
  auto matcher = TopicMatcher::Create(topics, options);
  ASSERT_TRUE(matcher.ok());
  const OracleMatcher oracle(topics, options);
  std::vector<std::string> queries;
  for (const std::string& keyword : keywords) {
    queries.push_back(keyword);
    queries.push_back("#" + keyword);
    std::string twin = keyword;
    twin[twin.size() / 2] ^= 1;
    queries.push_back(twin);
  }
  for (int i = 0; i < 20000; ++i) {
    queries.push_back(random_word(1 + rng.Uniform(24)));
  }
  for (int i = 0; i < 300; ++i) {
    queries.push_back("abcdefgh" + std::to_string(2000 + i) + "ijklmnop");
  }
  size_t hits = 0;
  for (const std::string& query : queries) {
    const std::vector<std::string> one = {query};
    const LabelMask mask = matcher->MatchTokens(one);
    ASSERT_EQ(mask, oracle.MatchTokens(one)) << "\"" << query << "\"";
    hits += mask != 0 ? 1 : 0;
  }
  EXPECT_GE(hits, 2 * keywords.size());
}

TEST(TextOracleTest, EveryByteInEveryContextMatchesOracle) {
  // Each byte alone, inside a word, after a URL scheme, and ending a
  // skipped URL chunk: pins the class of all 256 bytes.
  for (const TokenizerOptions& options : AllOptions()) {
    const Tokenizer tokenizer(options);
    for (int b = 0; b < 256; ++b) {
      const std::string byte(1, static_cast<char>(b));
      for (const std::string& text :
           {byte, "ab" + byte + "cd", "http" + byte + "x yz",
            "www" + byte + "x yz", "http://x" + byte + "yz", byte + "#ab",
            "#" + byte + "ab"}) {
        ASSERT_EQ(tokenizer.Tokenize(text), OracleTokenize(text, options))
            << "byte " << b << " in \"" << text << "\" " << Describe(options);
      }
    }
  }
}

TEST(TextOracleTest, TokensPastTheStackBufferMatchOracle) {
  // The tokenizer builds a token in a 64-byte stack buffer and moves it
  // to a heap string when it outgrows that. Tokens around and past 64
  // bytes, grown by one run or by runs joined with apostrophes (one
  // token, no separator), between short tokens that must start on the
  // stack again.
  Rng rng(31);
  const std::string alnum =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
  auto word = [&](size_t length) {
    std::string out;
    for (size_t i = 0; i < length; ++i) {
      out.push_back(alnum[rng.Uniform(alnum.size())]);
    }
    return out;
  };
  for (const TokenizerOptions& options : AllOptions()) {
    const Tokenizer tokenizer(options);
    for (size_t length : {63, 64, 65, 127, 128, 129, 300}) {
      const std::string a = word(length);
      const std::string b = word(length + 1);
      std::string runs;
      while (runs.size() < length) runs += word(9) + "'";
      for (const std::string& text :
           {a, "#" + a, "$" + b, a + " " + b, "x " + a + " yz " + b + " q",
            runs, runs + " ab " + runs, "http" + a + " ok", "Www" + b,
            "https" + a + ":" + b + " ok"}) {
        ASSERT_EQ(tokenizer.Tokenize(text), OracleTokenize(text, options))
            << "\"" << text << "\" " << Describe(options);
      }
    }
  }
}

TEST(TextOracleTest, FuzzedTextMatchesOracle) {
  Rng rng(11);
  for (const TokenizerOptions& options : AllOptions()) {
    const Tokenizer tokenizer(options);
    auto matcher = TopicMatcher::Create(BroadTopics(), options);
    ASSERT_TRUE(matcher.ok());
    const OracleMatcher oracle_matcher(BroadTopics(), options);
    for (int i = 0; i < 3000; ++i) {
      const std::string text = FuzzText(&rng);
      const std::vector<std::string> tokens = tokenizer.Tokenize(text);
      ASSERT_EQ(tokens, OracleTokenize(text, options))
          << "\"" << text << "\" " << Describe(options);
      ASSERT_EQ(matcher->MatchTokens(tokens), oracle_matcher.MatchTokens(tokens))
          << "\"" << text << "\" " << Describe(options);
      ASSERT_EQ(SimHash(tokens), OracleSimHash(tokens)) << "\"" << text << "\"";
    }
  }
}

TEST(TextOracleTest, TweetStreamsMatchOracle) {
  const TokenizerOptions options;
  const Tokenizer tokenizer(options);
  auto matcher = TopicMatcher::Create(BroadTopics(), options);
  ASSERT_TRUE(matcher.ok());
  const OracleMatcher oracle_matcher(BroadTopics(), options);
  for (uint64_t seed : {1, 2, 3}) {
    TweetGenConfig config;
    config.duration_seconds = 2 * 3600.0;
    config.seed = seed;
    auto tweets = GenerateTweetStream(config);
    ASSERT_TRUE(tweets.ok());
    ASSERT_GT(tweets->size(), 10000u);
    NearDuplicateDetector dedup;
    OracleNearDuplicateDetector oracle_dedup(3, 100000);
    NearDuplicateDetector narrow(2, 64);
    OracleNearDuplicateDetector oracle_narrow(2, 64);
    size_t duplicates = 0;
    for (const Tweet& tweet : *tweets) {
      const std::vector<std::string> tokens = tokenizer.Tokenize(tweet.text);
      ASSERT_EQ(tokens, OracleTokenize(tweet.text, options)) << tweet.text;
      const LabelMask mask = matcher->MatchTokens(tokens);
      ASSERT_EQ(mask, oracle_matcher.MatchTokens(tokens)) << tweet.text;
      const uint64_t fingerprint = SimHash(tokens);
      ASSERT_EQ(fingerprint, OracleSimHash(tokens)) << tweet.text;
      if (mask == 0) continue;
      const bool duplicate = dedup.IsDuplicate(fingerprint);
      ASSERT_EQ(duplicate, oracle_dedup.IsDuplicate(fingerprint))
          << "seed " << seed << " tweet " << tweet.id;
      ASSERT_EQ(narrow.IsDuplicate(fingerprint),
                oracle_narrow.IsDuplicate(fingerprint))
          << "seed " << seed << " tweet " << tweet.id;
      duplicates += duplicate ? 1 : 0;
    }
    EXPECT_GT(duplicates, 0u) << "seed " << seed;
  }
}

TEST(TextOracleTest, SimHashAcrossLaneDrainBoundaries) {
  // 255 tokens fill a one-byte lane; lists around 255 and 510 cross
  // the drain. A repeated token drives every set bit's lane to the
  // list length, the case a late drain would wrap.
  Rng rng(5);
  for (size_t length : {0, 1, 254, 255, 256, 509, 510, 511, 600}) {
    std::vector<std::string> random_tokens;
    std::vector<std::string> repeated(length, "obama");
    std::vector<std::string> mixed;
    for (size_t i = 0; i < length; ++i) {
      random_tokens.push_back("t" + std::to_string(rng.Next()));
      mixed.push_back(i % 3 == 0 ? "senate" : "tok" + std::to_string(i % 7));
    }
    EXPECT_EQ(SimHash(random_tokens), OracleSimHash(random_tokens)) << length;
    EXPECT_EQ(SimHash(repeated), OracleSimHash(repeated)) << length;
    EXPECT_EQ(SimHash(mixed), OracleSimHash(mixed)) << length;
  }
  EXPECT_EQ(SimHash(std::vector<std::string>(256, "obama")), HashToken("obama"));
}

TEST(TextOracleTest, SimHashAroundTheInPlaceThresholdLimit) {
  // Below 128 tokens SimHash thresholds the byte lanes in place with
  // one add of 128 - (n / 2 + 1); from 128 on it drains into counters.
  // One token repeated n times puts every set bit's lane at n, the
  // lane's maximum; two alternating tokens put every bit they disagree
  // on at exactly n / 2 (a tie at even n, which must read 0) or
  // n / 2 + 1, where the rounding of n / 2 decides.
  Rng rng(29);
  for (size_t length : {0, 1, 2, 3, 126, 127, 128, 129, 255, 256}) {
    std::vector<std::string> random_tokens;
    std::vector<std::string> repeated(length, "senate");
    std::vector<std::string> alternating;
    for (size_t i = 0; i < length; ++i) {
      random_tokens.push_back("r" + std::to_string(rng.Next()));
      alternating.push_back(i % 2 == 0 ? "obama" : "senate");
    }
    EXPECT_EQ(SimHash(random_tokens), OracleSimHash(random_tokens)) << length;
    EXPECT_EQ(SimHash(repeated), OracleSimHash(repeated)) << length;
    EXPECT_EQ(SimHash(alternating), OracleSimHash(alternating)) << length;
    if (length > 0) {
      EXPECT_EQ(SimHash(repeated), HashToken("senate")) << length;
    }
  }
}

TEST(TextOracleTest, LowEntropyDedupMatchesOracle) {
  // Few base fingerprints, each repeated with 0-5 flipped bits, so
  // buckets grow long and entries expire constantly at small windows.
  for (uint64_t window : {1, 5, 64, 100000}) {
    for (int max_distance = 0; max_distance <= 3; ++max_distance) {
      Rng rng(window * 31 + static_cast<uint64_t>(max_distance));
      std::vector<uint64_t> bases(6);
      for (uint64_t& base : bases) base = rng.Next();
      bases[1] = bases[0] ^ 0xFFFF;  // shares three blocks with bases[0]
      NearDuplicateDetector detector(max_distance, window);
      OracleNearDuplicateDetector oracle(max_distance, window);
      size_t duplicates = 0;
      for (int i = 0; i < 6000; ++i) {
        uint64_t fingerprint = bases[rng.Uniform(bases.size())];
        const uint64_t flips = rng.Uniform(6);
        for (uint64_t f = 0; f < flips; ++f) {
          fingerprint ^= uint64_t{1} << rng.Uniform(64);
        }
        const bool duplicate = detector.IsDuplicate(fingerprint);
        ASSERT_EQ(duplicate, oracle.IsDuplicate(fingerprint))
            << "window " << window << " max_distance " << max_distance
            << " step " << i;
        duplicates += duplicate ? 1 : 0;
      }
      EXPECT_GT(duplicates, 0u);
    }
  }
}

TEST(TextOracleTest, FullKeySpaceDedupMatchesOracle) {
  // Uniform fingerprints use nearly every 16-bit block value, so each
  // table's index grows through every capacity to its 65536-slot
  // direct map; near copies of recent fingerprints keep duplicates
  // coming.
  for (uint64_t window : {3000, 100000}) {
    Rng rng(window);
    NearDuplicateDetector detector(3, window);
    OracleNearDuplicateDetector oracle(3, window);
    std::vector<uint64_t> seen;
    size_t duplicates = 0;
    for (int i = 0; i < 120000; ++i) {
      uint64_t fingerprint = rng.Next();
      if (!seen.empty() && rng.Bernoulli(0.3)) {
        const size_t back =
            rng.Uniform(std::min<size_t>(seen.size(), 2 * window));
        fingerprint = seen[seen.size() - 1 - back];
        const uint64_t flips = rng.Uniform(5);
        for (uint64_t f = 0; f < flips; ++f) {
          fingerprint ^= uint64_t{1} << rng.Uniform(64);
        }
      }
      seen.push_back(fingerprint);
      const bool duplicate = detector.IsDuplicate(fingerprint);
      ASSERT_EQ(duplicate, oracle.IsDuplicate(fingerprint))
          << "window " << window << " step " << i;
      duplicates += duplicate ? 1 : 0;
    }
    EXPECT_GT(duplicates, 0u);
  }
}

}  // namespace
}  // namespace mqd
