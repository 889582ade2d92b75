// Binary persistence for InvertedIndex.
//
// Layout (little-endian, no alignment):
//   magic   "MQDIDX1\n" (8 bytes)
//   u64     num_documents
//   f64[n]  timestamps
//   u64[n]  external ids
//   u64     num_terms
//   per term:
//     u32   word length, bytes
//     u64   posting count
//     u32   last doc id
//     u64   raw payload size, bytes (varint deltas, as in memory)
//   u64     FNV-1a checksum over everything after the magic
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "index/inverted_index.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace mqd {

namespace {

constexpr char kMagic[8] = {'M', 'Q', 'D', 'I', 'D', 'X', '1', '\n'};

/// Streaming FNV-1a over the payload, updated by both reader and
/// writer wrappers.
class Checksum {
 public:
  void Update(const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void Raw(const void* data, size_t size) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    checksum_.Update(data, size);
  }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  uint64_t checksum() const { return checksum_.value(); }
  bool ok() const { return static_cast<bool>(os_); }

 private:
  std::ostream& os_;
  Checksum checksum_;
};

class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  bool Raw(void* data, size_t size) {
    is_.read(static_cast<char*>(data),
             static_cast<std::streamsize>(size));
    if (!is_) return false;
    checksum_.Update(data, size);
    return true;
  }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s, uint32_t max_len = 1 << 20) {
    uint32_t len = 0;
    if (!U32(&len) || len > max_len) return false;
    s->resize(len);
    return len == 0 || Raw(s->data(), len);
  }
  uint64_t checksum() const { return checksum_.value(); }

 private:
  std::istream& is_;
  Checksum checksum_;
};

/// Every DocId is a uint32, so an index holds at most 2^32 documents.
constexpr uint64_t kMaxDocs = uint64_t{std::numeric_limits<DocId>::max()} + 1;

/// A uint32 varint spans at most five bytes.
constexpr uint64_t kMaxVarintBytes = 5;

/// True iff `data` is exactly `count` varint-delta postings whose ids
/// increase strictly, stay below `num_docs` and end at `last_doc` --
/// the invariants PostingList::Iterator relies on without checking.
bool ValidPostings(const std::vector<uint8_t>& data, uint64_t count,
                   uint32_t last_doc, uint64_t num_docs) {
  size_t offset = 0;
  uint64_t doc = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    for (uint64_t shift = 0;; shift += 7) {
      if (offset == data.size() || shift == 7 * kMaxVarintBytes) {
        return false;
      }
      const uint8_t byte = data[offset++];
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
    if (i > 0 && value == 0) return false;  // ids must strictly increase
    doc = i == 0 ? value : doc + value;
    if (doc >= num_docs) return false;
  }
  return offset == data.size() && (count == 0 || doc == last_doc);
}

}  // namespace

Status InvertedIndex::Save(std::ostream& os) const {
  os.write(kMagic, sizeof(kMagic));
  Writer writer(os);
  writer.U64(timestamps_.size());
  for (double t : timestamps_) writer.F64(t);
  for (uint64_t id : external_ids_) writer.U64(id);
  writer.U64(vocab_.size());
  for (TermId term = 0; term < vocab_.size(); ++term) {
    writer.Str(vocab_.Word(term));
    const PostingList& list = postings_[term];
    writer.U64(list.size());
    writer.U32(list.last_doc());
    writer.U64(list.raw_bytes().size());
    writer.Raw(list.raw_bytes().data(), list.raw_bytes().size());
  }
  const uint64_t checksum = writer.checksum();
  os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!os) return Status::Internal("index write failed");
  return Status::OK();
}

Result<InvertedIndex> InvertedIndex::Load(std::istream& is) {
  MQD_FAULT_POINT("index.load");
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an MQDIDX1 index file");
  }
  Reader reader(is);
  InvertedIndex index;
  uint64_t num_docs = 0;
  if (!reader.U64(&num_docs)) {
    return Status::InvalidArgument("truncated index header");
  }
  if (num_docs > kMaxDocs) {
    return Status::InvalidArgument("document count exceeds the DocId range");
  }
  // The header counts are untrusted: vectors grow only as records
  // actually arrive, so a forged count fails on truncation instead of
  // sizing an allocation.
  for (uint64_t d = 0; d < num_docs; ++d) {
    double t = 0.0;
    if (!reader.F64(&t)) return Status::InvalidArgument("truncated docs");
    if (!std::isfinite(t) ||
        (!index.timestamps_.empty() && t < index.timestamps_.back())) {
      return Status::InvalidArgument(
          "document timestamps must be finite and non-decreasing");
    }
    index.timestamps_.push_back(t);
  }
  for (uint64_t d = 0; d < num_docs; ++d) {
    uint64_t id = 0;
    if (!reader.U64(&id)) return Status::InvalidArgument("truncated docs");
    index.external_ids_.push_back(id);
  }
  uint64_t num_terms = 0;
  if (!reader.U64(&num_terms)) {
    return Status::InvalidArgument("truncated dictionary");
  }
  for (uint64_t t = 0; t < num_terms; ++t) {
    std::string word;
    uint64_t count = 0;
    uint32_t last_doc = 0;
    uint64_t payload = 0;
    if (!reader.Str(&word) || !reader.U64(&count) ||
        !reader.U32(&last_doc) || !reader.U64(&payload)) {
      return Status::InvalidArgument("truncated term record");
    }
    // Each posting is one varint of 1..kMaxVarintBytes bytes; with
    // count <= num_docs the payload is bounded by bytes already read.
    if (count > num_docs || payload < count ||
        payload > count * kMaxVarintBytes) {
      return Status::InvalidArgument("posting list size out of range");
    }
    std::vector<uint8_t> data(payload);
    if (payload > 0 && !reader.Raw(data.data(), payload)) {
      return Status::InvalidArgument("truncated postings payload");
    }
    if (!ValidPostings(data, count, last_doc, num_docs)) {
      return Status::InvalidArgument("malformed posting list");
    }
    const TermId id = index.vocab_.Intern(word);
    if (id != t) {
      return Status::InvalidArgument("duplicate term in dictionary");
    }
    index.postings_.push_back(
        PostingList::FromRaw(std::move(data), count, last_doc));
  }
  const uint64_t expected = reader.checksum();
  uint64_t stored = 0;
  is.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!is || stored != expected) {
    return Status::InvalidArgument(
        StrFormat("index checksum mismatch (stored %llx, computed %llx)",
                  static_cast<unsigned long long>(stored),
                  static_cast<unsigned long long>(expected)));
  }
  return index;
}

Status InvertedIndex::SaveToFile(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open for write: " + path);
  return Save(file);
}

Result<InvertedIndex> InvertedIndex::LoadFromFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open for read: " + path);
  return Load(file);
}

}  // namespace mqd
