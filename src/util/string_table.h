#ifndef MQD_UTIL_STRING_TABLE_H_
#define MQD_UTIL_STRING_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.h"

namespace mqd {

/// A build-once map from short strings to `V`: the stopword list and
/// the matcher's keyword table. Lookups hash a string_view with one
/// multiply and probe one flat `uint32_t` slot array (linear probing,
/// power-of-two capacity kept at least 4x the key count), so a miss
/// usually reads one slot and a hit confirms the key with an exact
/// byte comparison. Key bytes live in one buffer.
///
/// Most lookups miss (a post's tokens are mostly neither stopwords nor
/// keywords), so a 512-word filter rejects most misses with one load
/// before any hashing: a key picks a word by its length mod 8 and its
/// first byte mod 64, and a bit in it by its last byte mod 64; every
/// insertion sets its key's bit. A clear bit proves the key absent; a
/// set one falls through to the probe.
template <typename V>
class StringTable {
 public:
  /// The value of `key`, value-initialized on first use. The reference
  /// is valid until the next insertion.
  V& operator[](std::string_view key) {
    if (slots_.size() < 4 * (entries_.size() + 1)) Grow();
    filter_[FilterWord(key)] |= FilterBit(key);
    const uint64_t h = Hash(key);
    for (size_t i = h >> shift_;; i = (i + 1) & mask_) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        MQD_CHECK(bytes_.size() + key.size() <= UINT32_MAX)
            << "string table keys exceed 4 GiB";
        entries_.push_back(Entry{h, static_cast<uint32_t>(bytes_.size()),
                                 static_cast<uint32_t>(key.size()), V{}});
        bytes_.append(key);
        slots_[i] = static_cast<uint32_t>(entries_.size());
        return entries_.back().value;
      }
      Entry& entry = entries_[slot - 1];
      if (Matches(entry, h, key)) return entry.value;
    }
  }

  /// The value of `key`, or nullptr when it was never inserted.
  const V* Find(std::string_view key) const {
    if ((filter_[FilterWord(key)] & FilterBit(key)) == 0) return nullptr;
    const uint64_t h = Hash(key);
    for (size_t i = h >> shift_;; i = (i + 1) & mask_) {
      const uint32_t slot = slots_[i];
      if (slot == 0) return nullptr;
      const Entry& entry = entries_[slot - 1];
      if (Matches(entry, h, key)) return &entry.value;
    }
  }

 private:
  static constexpr size_t kFilterWords = 512;

  /// The filter word of `key`: (size mod 8, first byte mod 64); the
  /// empty key reads as first byte 0.
  static size_t FilterWord(std::string_view key) {
    const size_t first =
        key.empty() ? 0 : static_cast<uint8_t>(key.front()) & 63u;
    return (key.size() & 7u) << 6 | first;
  }

  /// The filter bit of `key`: its last byte mod 64 (0 for the empty key).
  static uint64_t FilterBit(std::string_view key) {
    const unsigned last =
        key.empty() ? 0 : static_cast<uint8_t>(key.back()) & 63u;
    return uint64_t{1} << last;
  }

  /// Reads the first and last 8 bytes (4 for keys of 4-7 bytes, each
  /// byte for 1-3) and the length: nothing outside `key` is read, and
  /// the bytes between the two words of a key over 16 bytes are left
  /// to the exact comparison. The top bits of the product pick the
  /// home slot.
  static uint64_t Hash(std::string_view key) {
    const char* p = key.data();
    const size_t n = key.size();
    uint64_t x = 0;
    if (n >= 8) {
      uint64_t first = 0;
      uint64_t last = 0;
      std::memcpy(&first, p, 8);
      std::memcpy(&last, p + n - 8, 8);
      x = first ^ ((last << 29) | (last >> 35));
    } else if (n >= 4) {
      uint32_t first = 0;
      uint32_t last = 0;
      std::memcpy(&first, p, 4);
      std::memcpy(&last, p + n - 4, 4);
      x = (uint64_t{first} << 32) | last;
    } else if (n > 0) {
      x = uint64_t{static_cast<uint8_t>(p[0])} |
          uint64_t{static_cast<uint8_t>(p[n / 2])} << 8 |
          uint64_t{static_cast<uint8_t>(p[n - 1])} << 16;
    }
    return (x ^ (uint64_t{n} << 56) ^ 0x5851F42D4C957F2DULL) *
           0x9E3779B97F4A7C15ULL;
  }

  struct Entry {
    uint64_t hash;
    uint32_t offset;  // of the key's bytes in bytes_
    uint32_t size;
    V value;
  };

  bool Matches(const Entry& entry, uint64_t h, std::string_view key) const {
    return entry.hash == h &&
           std::string_view(bytes_.data() + entry.offset, entry.size) == key;
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    slots_.assign(capacity, 0);
    for (size_t j = 0; j < entries_.size(); ++j) {
      size_t i = entries_[j].hash >> shift_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<uint32_t>(j + 1);
    }
  }

  /// 0 for a free slot, else 1 + the position of its entry.
  std::vector<uint32_t> slots_;
  std::vector<Entry> entries_;
  /// All zero while the table is empty, so Find on it probes nothing.
  std::array<uint64_t, kFilterWords> filter_{};
  std::string bytes_;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace mqd

#endif  // MQD_UTIL_STRING_TABLE_H_
