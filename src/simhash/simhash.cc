#include "simhash/simhash.h"

#include <array>

#include "core/types.h"

namespace mqd {

namespace {

/// kSpread[v] puts bit j of byte v into the low bit of byte lane j,
/// so adding kSpread[byte] to a uint64_t counts 8 hash bits at once.
constexpr std::array<uint64_t, 256> MakeSpreadTable() {
  std::array<uint64_t, 256> table{};
  for (size_t v = 0; v < 256; ++v) {
    for (int j = 0; j < 8; ++j) {
      if ((v >> j) & 1) table[v] |= uint64_t{1} << (8 * j);
    }
  }
  return table;
}

constexpr std::array<uint64_t, 256> kSpread = MakeSpreadTable();

/// A one-byte lane holds at most 255 before it wraps.
constexpr size_t kDrainEvery = 255;

/// Below this many tokens no lane passes 127, and SimHash thresholds
/// the lanes in place.
constexpr size_t kInPlaceBelow = 128;

constexpr uint64_t kLowBytes = 0x0101010101010101ULL;

/// Bit j of the result is the top bit of byte j of `x`: the multiply
/// moves byte j's bit (at 8j after the shift) to bit 56 + j, and every
/// other partial product lands below bit 56 on a distinct bit or above
/// bit 63.
constexpr uint64_t TopBitsOfBytes(uint64_t x) {
  return (((x >> 7) & kLowBytes) * 0x0102040810204080ULL) >> 56;
}

}  // namespace

uint64_t HashToken(std::string_view token) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : token) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  // Finalizer (splitmix) so low-entropy tokens still spread over all
  // 64 bits; SimHash quality depends on per-bit independence.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

uint64_t SimHash(const std::vector<std::string>& tokens) {
  // lanes[k] counts, in byte j, the tokens whose hash has bit 8k + j
  // set. Bit b's vote sum is ones - (n - ones), positive iff
  // 2 * ones > n, i.e. iff ones >= n / 2 + 1.
  const size_t n = tokens.size();
  std::array<uint64_t, 8> lanes{};
  auto tally = [&](const std::string& token) {
    const uint64_t h = HashToken(token);
    for (size_t k = 0; k < 8; ++k) {
      lanes[k] += kSpread[(h >> (8 * k)) & 0xFF];
    }
  };
  uint64_t fingerprint = 0;
  if (n < kInPlaceBelow) {
    // Adding 0x80 - (n / 2 + 1) to a byte holding `ones` reaches 0x80
    // exactly when ones >= n / 2 + 1, so each byte's top bit is its
    // fingerprint bit. With n < 128 a byte ends at most at
    // n + 127 - n / 2 <= 191, so the add never carries across lanes.
    for (const std::string& token : tokens) tally(token);
    const uint64_t bias = (0x80 - (n / 2 + 1)) * kLowBytes;
    for (size_t k = 0; k < 8; ++k) {
      fingerprint |= TopBitsOfBytes(lanes[k] + bias) << (8 * k);
    }
    return fingerprint;
  }
  // Longer lists can pass 255 in a byte: drain the lanes into 64 full
  // counters every kDrainEvery tokens.
  std::array<uint64_t, 64> ones{};
  auto drain = [&] {
    for (size_t k = 0; k < 8; ++k) {
      for (size_t j = 0; j < 8; ++j) {
        ones[8 * k + j] += (lanes[k] >> (8 * j)) & 0xFF;
      }
      lanes[k] = 0;
    }
  };
  size_t pending = 0;
  for (const std::string& token : tokens) {
    tally(token);
    if (++pending == kDrainEvery) {
      drain();
      pending = 0;
    }
  }
  drain();
  for (size_t bit = 0; bit < 64; ++bit) {
    if (2 * ones[bit] > n) fingerprint |= uint64_t{1} << bit;
  }
  return fingerprint;
}

int HammingDistance(uint64_t a, uint64_t b) { return BitCount(a ^ b); }

}  // namespace mqd
