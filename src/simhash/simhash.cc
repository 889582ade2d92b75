#include "simhash/simhash.h"

#include <array>
#include <bit>

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
  // ones[b] counts the tokens whose hash has bit b set. lanes[k] holds
  // the pending counts of bits 8k..8k+7, one per byte, and is drained
  // into `ones` before any byte can pass 255.
  std::array<uint64_t, 64> ones{};
  std::array<uint64_t, 8> lanes{};
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
    const uint64_t h = HashToken(token);
    for (size_t k = 0; k < 8; ++k) {
      lanes[k] += kSpread[(h >> (8 * k)) & 0xFF];
    }
    if (++pending == kDrainEvery) {
      drain();
      pending = 0;
    }
  }
  drain();
  // Bit b's vote sum is ones - (n - ones), positive iff 2 * ones > n.
  const uint64_t n = tokens.size();
  uint64_t fingerprint = 0;
  for (size_t bit = 0; bit < 64; ++bit) {
    if (2 * ones[bit] > n) fingerprint |= uint64_t{1} << bit;
  }
  return fingerprint;
}

int HammingDistance(uint64_t a, uint64_t b) { return std::popcount(a ^ b); }

}  // namespace mqd
