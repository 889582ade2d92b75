// Randomized robustness ("fuzz-lite") tests: no crash, no hang, and
// basic invariants on arbitrary inputs for the parsing/serialization
// surfaces and the text pipeline.
#include <sstream>

#include <gtest/gtest.h>

#include "core/io.h"
#include "sentiment/scorer.h"
#include "simhash/simhash.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace mqd {
namespace {

std::string RandomString(Rng* rng, size_t max_len) {
  // Bytes across the printable + some control range.
  const size_t len = rng->Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->UniformInt(1, 126)));
  }
  return out;
}

TEST(FuzzTest, TokenizerNeverEmitsInvalidTokens) {
  Rng rng(1);
  Tokenizer tokenizer;
  for (int i = 0; i < 2000; ++i) {
    const std::string input = RandomString(&rng, 120);
    for (const std::string& token : tokenizer.Tokenize(input)) {
      ASSERT_FALSE(token.empty());
      // Tokens are lowercase alnum/_ with optional leading #/$.
      const size_t start =
          (token[0] == '#' || token[0] == '$') ? 1 : 0;
      ASSERT_GT(token.size(), start);
      for (size_t c = start; c < token.size(); ++c) {
        const char ch = token[c];
        ASSERT_TRUE((ch >= 'a' && ch <= 'z') ||
                    (ch >= '0' && ch <= '9') || ch == '_')
            << "token '" << token << "' from input '" << input << "'";
      }
    }
  }
}

TEST(FuzzTest, InstanceReaderNeverCrashesOnGarbage) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    std::stringstream garbage(RandomString(&rng, 200));
    auto result = ReadInstance(garbage);
    // Either a parse error or a valid (possibly empty-ish) instance —
    // never a crash.
    if (result.ok()) {
      EXPECT_GE(result->num_labels(), 1);
    }
  }
}

TEST(FuzzTest, InstanceReaderHandlesMutatedValidFiles) {
  Rng rng(4);
  InstanceBuilder builder(3);
  for (int i = 0; i < 20; ++i) {
    builder.Add(i, MaskOf(static_cast<LabelId>(i % 3)),
                static_cast<uint64_t>(i));
  }
  auto inst = builder.Build();
  ASSERT_TRUE(inst.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteInstance(*inst, buffer).ok());
  const std::string valid = buffer.str();
  for (int i = 0; i < 500; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
    std::stringstream in(mutated);
    auto result = ReadInstance(in);  // must not crash
    (void)result;
  }
}

TEST(FuzzTest, SentimentAndSimhashTotalOnArbitraryText) {
  Rng rng(5);
  SentimentScorer scorer;
  Tokenizer tokenizer;
  for (int i = 0; i < 2000; ++i) {
    const std::string text = RandomString(&rng, 200);
    const double score = scorer.Score(text);
    EXPECT_GE(score, -1.0);
    EXPECT_LE(score, 1.0);
    (void)SimHash(tokenizer.Tokenize(text));
  }
}

}  // namespace
}  // namespace mqd
