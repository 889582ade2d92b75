#include <limits>

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
