// Randomized robustness ("fuzz-lite") tests: no crash, no hang, and
// basic invariants on arbitrary inputs for the parsing/serialization
// surfaces and the text pipeline.
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "core/io.h"
#include "index/inverted_index.h"
#include "index_forge.h"
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

TEST(FuzzTest, IndexLoadNeverCrashesOnForgedInput) {
  // Mutate body bytes of a saved index and recompute the checksum, so
  // every mutant reaches Load's structural checks. Each must either be
  // rejected or answer every query with ids of real documents.
  Rng rng(6);
  const std::vector<std::string> words{"obama", "senate", "nasdaq",
                                       "storm", "golf"};
  InvertedIndex sample;
  for (int i = 0; i < 40; ++i) {
    std::string text;
    for (int w = 0; w < 3; ++w) text += words[rng.Uniform(words.size())] + " ";
    ASSERT_TRUE(sample.AddDocument(static_cast<uint64_t>(i), i, text).ok());
  }
  std::stringstream saved;
  ASSERT_TRUE(sample.Save(saved).ok());
  const std::string valid = saved.str();
  const size_t body_begin = testing::kIndexMagic.size();
  const size_t body_size = valid.size() - body_begin - sizeof(uint64_t);

  auto check_ids = [](const std::vector<DocId>& ids, size_t num_docs) {
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    for (DocId d : ids) ASSERT_LT(d, num_docs);
  };
  int loaded_mutants = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      mutated[body_begin + rng.Uniform(body_size)] =
          static_cast<char>(rng.Uniform(256));
    }
    testing::ResealIndex(&mutated);
    std::stringstream in(mutated);
    auto loaded = InvertedIndex::Load(in);
    if (!loaded.ok()) continue;
    ++loaded_mutants;
    const size_t n = loaded->num_documents();
    check_ids(loaded->MatchAny(words), n);
    for (const std::string& word : words) {
      check_ids(loaded->MatchAny({word}), n);
      check_ids(loaded->MatchAnyInRange({word}, 5.0, 25.0), n);
    }
  }
  // Mutated ids and timestamps often stay valid; the loop must have
  // exercised queries on loaded mutants, not only rejections.
  EXPECT_GT(loaded_mutants, 0);
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
