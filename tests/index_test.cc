#include <algorithm>
#include <cctype>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "index/searcher.h"
#include "util/rng.h"

namespace mqd {
namespace {

TEST(PostingListTest, RoundTripAndCompression) {
  PostingList list;
  EXPECT_TRUE(list.empty());
  std::vector<DocId> docs{0, 1, 5, 130, 131, 1000000};
  for (DocId d : docs) list.Add(d);
  EXPECT_EQ(list.size(), docs.size());
  EXPECT_EQ(list.ToVector(), docs);
  // Small gaps take one byte each; the whole list stays tiny.
  EXPECT_LT(list.byte_size(), docs.size() * 4);
}

TEST(PostingListTest, IteratorSeek) {
  PostingList list;
  for (DocId d : {2u, 4u, 8u, 16u, 32u}) list.Add(d);
  auto it = list.NewIterator();
  it.SeekTo(5);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Doc(), 8u);
  it.SeekTo(8);  // no-op when already there
  EXPECT_EQ(it.Doc(), 8u);
  it.SeekTo(33);
  EXPECT_FALSE(it.Valid());
}

TEST(PostingListTest, LargeRandomRoundTrip) {
  Rng rng(7);
  PostingList list;
  std::vector<DocId> docs;
  DocId current = 0;
  for (int i = 0; i < 5000; ++i) {
    current += 1 + static_cast<DocId>(rng.Uniform(1000));
    docs.push_back(current);
    list.Add(current);
  }
  EXPECT_EQ(list.ToVector(), docs);
}

TEST(InvertedIndexTest, AddAndLookup) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(100, 1.0, "obama speaks to senate").ok());
  ASSERT_TRUE(index.AddDocument(101, 2.0, "nasdaq rallies on earnings").ok());
  ASSERT_TRUE(index.AddDocument(102, 3.0, "senate votes on economy").ok());
  EXPECT_EQ(index.num_documents(), 3u);

  const PostingList* senate = index.Postings("senate");
  ASSERT_NE(senate, nullptr);
  EXPECT_EQ(senate->ToVector(), (std::vector<DocId>{0, 2}));
  EXPECT_EQ(index.Postings("absent"), nullptr);
  EXPECT_EQ(index.external_id(1), 101u);
  EXPECT_EQ(index.timestamp(2), 3.0);
}

TEST(InvertedIndexTest, QueryTermNormalization) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(1, 1.0, "Obama at the White House").ok());
  // Query term is normalized through the same tokenizer.
  EXPECT_NE(index.Postings("OBAMA"), nullptr);
  EXPECT_NE(index.Postings("  obama  "), nullptr);
}

TEST(InvertedIndexTest, RejectsOutOfOrderTimestamps) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(1, 5.0, "abc def").ok());
  EXPECT_FALSE(index.AddDocument(2, 4.0, "ghi jkl").ok());
}

TEST(InvertedIndexTest, RejectsNonFiniteTimestamps) {
  // A NaN compares false against everything, so without its own check
  // it passes the ordering test and lets any later time in after it.
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(1, 1.0, "zebra").ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_FALSE(index.AddDocument(2, bad, "zebra").ok()) << bad;
  }
  EXPECT_FALSE(index.AddDocument(3, 0.5, "zebra").ok());
  EXPECT_EQ(index.num_documents(), 1u);
  EXPECT_TRUE(index.MatchAnyInRange({"zebra"}, 0.0, 0.75).empty());
}

TEST(InvertedIndexTest, DuplicateTokensIndexedOnce) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(1, 1.0, "goal goal goal").ok());
  const PostingList* goal = index.Postings("goal");
  ASSERT_NE(goal, nullptr);
  EXPECT_EQ(goal->size(), 1u);
}

TEST(InvertedIndexTest, MatchAnyUnionsSorted) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(1, 1.0, "obama economy").ok());
  ASSERT_TRUE(index.AddDocument(2, 2.0, "nasdaq rally").ok());
  ASSERT_TRUE(index.AddDocument(3, 3.0, "obama nasdaq").ok());
  EXPECT_EQ(index.MatchAny({"obama", "nasdaq"}),
            (std::vector<DocId>{0, 1, 2}));
  EXPECT_EQ(index.MatchAny({"economy"}), (std::vector<DocId>{0}));
  EXPECT_TRUE(index.MatchAny({"absent"}).empty());
}

TEST(InvertedIndexTest, MatchAnyInRange) {
  InvertedIndex index;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        index.AddDocument(static_cast<uint64_t>(i), i, "senate news").ok());
  }
  EXPECT_EQ(index.MatchAnyInRange({"senate"}, 3.0, 6.0),
            (std::vector<DocId>{3, 4, 5, 6}));
  EXPECT_TRUE(index.MatchAnyInRange({"senate"}, 20.0, 30.0).empty());
}

/// Randomized differential: MatchAny, MatchAnyInRange and
/// Searcher::Search against a brute-force scan of the documents. The
/// timestamps are integers with runs of equal values, and range edges
/// land exactly on them, between them and outside the stream, with
/// t_begin > t_end included. Queries mix absent terms, repeated terms
/// and an upper-case spelling of a present one.
TEST(InvertedIndexTest, QueriesMatchBruteForceScan) {
  const std::vector<std::string> vocab{"storm", "senate", "nasdaq", "golf",
                                       "obama", "coast",  "rally"};
  const std::vector<std::string> query_pool{
      "storm", "senate", "nasdaq", "golf", "obama", "coast",
      "rally", "absent", "zebra",  "Storm", "NASDAQ"};
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  };
  Rng rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    InvertedIndex index;
    std::vector<std::set<std::string>> doc_terms;
    std::vector<double> times;
    const size_t n = rng.Uniform(120);
    double t = static_cast<double>(rng.Uniform(5));
    for (size_t d = 0; d < n; ++d) {
      // About half the steps repeat the previous timestamp.
      if (d > 0 && rng.Uniform(2) == 0) t += 1.0 + rng.Uniform(3);
      std::string text;
      std::set<std::string> terms;
      const size_t words = rng.Uniform(5);
      for (size_t w = 0; w < words; ++w) {
        const std::string& word = vocab[rng.Uniform(vocab.size())];
        text += word + " ";
        terms.insert(word);
      }
      ASSERT_TRUE(index.AddDocument(1000 + d, t, text).ok());
      doc_terms.push_back(terms);
      times.push_back(t);
    }
    ASSERT_EQ(index.num_documents(), n);

    for (int q = 0; q < 20; ++q) {
      std::vector<std::string> query;
      const size_t k = rng.Uniform(5);
      for (size_t i = 0; i < k; ++i) {
        query.push_back(query_pool[rng.Uniform(query_pool.size())]);
      }
      if (!query.empty() && rng.Uniform(3) == 0) query.push_back(query[0]);

      // Range edges: a present timestamp, half a step off one, or a
      // point outside the stream; the pair is not reordered.
      auto edge = [&]() {
        if (n > 0 && rng.Uniform(3) != 0) {
          return times[rng.Uniform(n)] + 0.5 * rng.UniformInt(-1, 1);
        }
        return static_cast<double>(rng.UniformInt(-5, 400));
      };
      const double t_begin = edge();
      const double t_end = edge();

      std::vector<DocId> any, in_range;
      std::vector<SearchHit> ranked;
      for (DocId d = 0; d < n; ++d) {
        int score = 0;
        for (const std::string& term : query) {
          score += static_cast<int>(doc_terms[d].count(lower(term)));
        }
        if (score == 0) continue;
        any.push_back(d);
        ranked.push_back(SearchHit{d, score});
        if (t_begin <= times[d] && times[d] <= t_end) in_range.push_back(d);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const SearchHit& a, const SearchHit& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.doc > b.doc;
                });

      EXPECT_EQ(index.MatchAny(query), any) << "trial " << trial;
      EXPECT_EQ(index.MatchAnyInRange(query, t_begin, t_end), in_range)
          << "trial " << trial << " range [" << t_begin << ", " << t_end
          << "]";
      const std::vector<SearchHit> hits = Searcher(&index).Search(query);
      ASSERT_EQ(hits.size(), ranked.size()) << "trial " << trial;
      for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].doc, ranked[i].doc) << "trial " << trial;
        EXPECT_EQ(hits[i].score, ranked[i].score) << "trial " << trial;
      }
    }
  }
}

TEST(SearcherTest, CoordinationRanking) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(1, 1.0, "obama speech").ok());
  ASSERT_TRUE(index.AddDocument(2, 2.0, "obama economy senate").ok());
  ASSERT_TRUE(index.AddDocument(3, 3.0, "weather report").ok());
  Searcher searcher(&index);
  auto hits = searcher.Search({"obama", "economy", "senate"});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 1u);  // doc 1 matches 3 terms
  EXPECT_EQ(hits[0].score, 3);
  EXPECT_EQ(hits[1].doc, 0u);
  EXPECT_EQ(hits[1].score, 1);
}

TEST(SearcherTest, LimitAndRecencyTieBreak) {
  InvertedIndex index;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        index.AddDocument(static_cast<uint64_t>(i), i, "senate").ok());
  }
  Searcher searcher(&index);
  auto hits = searcher.Search({"senate"}, /*limit=*/2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 4u);  // most recent first on equal score
  EXPECT_EQ(hits[1].doc, 3u);
}

TEST(SearcherTest, SearchInRange) {
  InvertedIndex index;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        index.AddDocument(static_cast<uint64_t>(i), i, "senate").ok());
  }
  Searcher searcher(&index);
  auto hits = searcher.SearchInRange({"senate"}, 1.0, 3.0);
  EXPECT_EQ(hits.size(), 3u);
}

}  // namespace
}  // namespace mqd
