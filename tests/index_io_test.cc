#include <cstdio>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "index_forge.h"
#include "util/logging.h"
#include "util/rng.h"

namespace mqd {
namespace {

using testing::ForgedIndex;

Result<InvertedIndex> LoadBytes(const std::string& bytes) {
  std::stringstream buffer(bytes);
  return InvertedIndex::Load(buffer);
}

InvertedIndex BuildSample(int docs, uint64_t seed) {
  InvertedIndex index;
  Rng rng(seed);
  const std::vector<std::string> words{"obama", "senate",  "nasdaq",
                                       "goog",  "storm",   "golf",
                                       "police", "masters", "economy"};
  for (int i = 0; i < docs; ++i) {
    std::string text;
    const int len = 2 + static_cast<int>(rng.Uniform(7));
    for (int w = 0; w < len; ++w) {
      text += words[rng.Uniform(words.size())] + " ";
    }
    MQD_CHECK(
        index.AddDocument(static_cast<uint64_t>(i), i, text).ok());
  }
  return index;
}

TEST(IndexIoTest, RoundTripPreservesQueries) {
  InvertedIndex original = BuildSample(500, 1);
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());
  auto loaded = InvertedIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->num_documents(), original.num_documents());
  EXPECT_EQ(loaded->num_terms(), original.num_terms());
  EXPECT_EQ(loaded->postings_byte_size(), original.postings_byte_size());
  for (DocId d = 0; d < original.num_documents(); d += 37) {
    EXPECT_EQ(loaded->timestamp(d), original.timestamp(d));
    EXPECT_EQ(loaded->external_id(d), original.external_id(d));
  }
  for (const std::string term :
       {"obama", "nasdaq", "golf", "absent"}) {
    const PostingList* a = original.Postings(term);
    const PostingList* b = loaded->Postings(term);
    ASSERT_EQ(a == nullptr, b == nullptr) << term;
    if (a != nullptr) {
      EXPECT_EQ(a->ToVector(), b->ToVector()) << term;
    }
  }
  EXPECT_EQ(loaded->MatchAny({"obama", "storm"}),
            original.MatchAny({"obama", "storm"}));
  EXPECT_EQ(loaded->MatchAnyInRange({"senate"}, 100.0, 300.0),
            original.MatchAnyInRange({"senate"}, 100.0, 300.0));
}

TEST(IndexIoTest, EmptyIndexRoundTrip) {
  InvertedIndex empty;
  std::stringstream buffer;
  ASSERT_TRUE(empty.Save(buffer).ok());
  auto loaded = InvertedIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_documents(), 0u);
  EXPECT_EQ(loaded->num_terms(), 0u);
}

TEST(IndexIoTest, RejectsBadMagic) {
  std::stringstream buffer("NOTANIDX garbage");
  EXPECT_FALSE(InvertedIndex::Load(buffer).ok());
}

TEST(IndexIoTest, RejectsTruncation) {
  InvertedIndex original = BuildSample(50, 2);
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());
  const std::string full = buffer.str();
  for (size_t cut : {full.size() / 4, full.size() / 2, full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(InvertedIndex::Load(truncated).ok()) << "cut " << cut;
  }
}

TEST(IndexIoTest, RejectsBitFlip) {
  InvertedIndex original = BuildSample(50, 3);
  std::stringstream buffer;
  ASSERT_TRUE(original.Save(buffer).ok());
  std::string bytes = buffer.str();
  bytes[bytes.size() / 2] ^= 0x40;  // corrupt the payload
  std::stringstream corrupted(bytes);
  EXPECT_FALSE(InvertedIndex::Load(corrupted).ok());
}

// The forged files below all carry a correct checksum, so only Load's
// own checks stand between them and an index that trusts them.

TEST(IndexIoTest, RejectsForgedCounts) {
  // No header or record count may size an allocation before the bytes
  // it claims have arrived.
  const std::vector<std::pair<const char*, std::string>> files{
      {"2^40 documents", ForgedIndex().U64(uint64_t{1} << 40).Seal()},
      {"2^32 documents, none present",
       ForgedIndex().U64(uint64_t{1} << 32).Seal()},
      {"2^60 terms", ForgedIndex().U64(0).U64(uint64_t{1} << 60).Seal()},
      // One document and one (empty) term whose payload claims 2^40
      // bytes.
      {"2^40 payload bytes", ForgedIndex()
                                 .U64(1).F64(0.0).U64(7).U64(1)
                                 .U32(0).U64(1).U32(0).U64(uint64_t{1} << 40)
                                 .Seal()},
  };
  for (const auto& [what, bytes] : files) {
    auto loaded = LoadBytes(bytes);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
  }
}

TEST(IndexIoTest, RejectsForgedTimestamps) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> bad{
      {0.0, nan}, {nan, 0.0}, {0.0, inf}, {-inf, 0.0}, {2.0, 1.0}};
  for (const auto& [t0, t1] : bad) {
    ForgedIndex forged;
    forged.U64(2).F64(t0).F64(t1).U64(10).U64(11).U64(0);
    auto loaded = LoadBytes(forged.Seal());
    ASSERT_FALSE(loaded.ok()) << t0 << ", " << t1;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(IndexIoTest, RejectsForgedPostings) {
  // Two documents and one term; each case forges (count, last_doc,
  // payload) for that term.
  struct Case {
    const char* what;
    uint64_t count;
    uint32_t last_doc;
    std::string payload;
  };
  auto load = [](const Case& c) {
    ForgedIndex forged;
    forged.U64(2).F64(1.0).F64(2.0).U64(10).U64(11).U64(1);
    forged.Term("zebra", c.count, c.last_doc, c.payload);
    return LoadBytes(forged.Seal());
  };

  // The well-formed list {0, 1} loads and answers queries.
  auto good = load({"valid", 2, 1, std::string("\x00\x01", 2)});
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->MatchAny({"zebra"}), (std::vector<DocId>{0, 1}));

  const std::vector<Case> cases{
      {"ids past the payload", 2, 5, std::string("\x05\x81", 2)},
      {"id beyond num_documents", 1, 5, std::string("\x05", 1)},
      {"32-bit overflow", 1, 0, std::string("\xff\xff\xff\xff\x7f", 5)},
      {"repeated id", 2, 0, std::string("\x00\x00", 2)},
      {"more varints than count", 1, 1, std::string("\x00\x01", 2)},
      {"fewer varints than count", 2, 1, std::string("\x81\x00", 2)},
      {"truncated varint", 1, 0, std::string("\x80", 1)},
      {"varint over five bytes", 1, 0,
       std::string("\x80\x80\x80\x80\x80\x00", 6)},
      {"last_doc mismatch", 1, 1, std::string("\x00", 1)},
      {"count above num_documents", 3, 2, std::string("\x00\x01\x01", 3)},
      {"payload without postings", 0, 0, std::string("\x00", 1)},
  };
  for (const Case& c : cases) {
    auto loaded = load(c);
    ASSERT_FALSE(loaded.ok()) << c.what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << c.what;
  }
}

TEST(IndexIoTest, FileRoundTrip) {
  InvertedIndex original = BuildSample(100, 4);
  const std::string path = ::testing::TempDir() + "/mqd_index_test.idx";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  auto loaded = InvertedIndex::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_documents(), 100u);
  std::remove(path.c_str());
  EXPECT_FALSE(InvertedIndex::LoadFromFile(path).ok());
}

}  // namespace
}  // namespace mqd
