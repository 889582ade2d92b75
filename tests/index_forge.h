#ifndef MQD_TESTS_INDEX_FORGE_H_
#define MQD_TESTS_INDEX_FORGE_H_

// Builds MQDIDX1 index files by hand with a correct checksum, so a
// test reaches InvertedIndex::Load's structural checks instead of
// stopping at the checksum. The layout is documented in
// src/index/index_io.cc.
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace mqd::testing {

inline constexpr std::string_view kIndexMagic("MQDIDX1\n", 8);

/// Rewrites the trailing FNV-1a checksum of `file` (magic + body +
/// checksum) to match its body.
inline void ResealIndex(std::string* file) {
  const size_t body_end = file->size() - sizeof(uint64_t);
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = kIndexMagic.size(); i < body_end; ++i) {
    hash ^= static_cast<uint8_t>((*file)[i]);
    hash *= 1099511628211ULL;
  }
  std::memcpy(file->data() + body_end, &hash, sizeof(hash));
}

/// Appends header and record fields in file order; Seal() returns the
/// finished file.
class ForgedIndex {
 public:
  ForgedIndex& U32(uint32_t v) { return Raw(&v, sizeof(v)); }
  ForgedIndex& U64(uint64_t v) { return Raw(&v, sizeof(v)); }
  ForgedIndex& F64(double v) { return Raw(&v, sizeof(v)); }

  /// One dictionary record: word, posting count, last doc id and the
  /// raw varint-delta payload.
  ForgedIndex& Term(std::string_view word, uint64_t count, uint32_t last_doc,
                    std::string_view payload) {
    U32(static_cast<uint32_t>(word.size()));
    Raw(word.data(), word.size());
    U64(count).U32(last_doc).U64(payload.size());
    return Raw(payload.data(), payload.size());
  }

  std::string Seal() const {
    std::string file(kIndexMagic);
    file += body_;
    file.append(sizeof(uint64_t), '\0');
    ResealIndex(&file);
    return file;
  }

 private:
  ForgedIndex& Raw(const void* data, size_t size) {
    body_.append(static_cast<const char*>(data), size);
    return *this;
  }

  std::string body_;
};

}  // namespace mqd::testing

#endif  // MQD_TESTS_INDEX_FORGE_H_
