#ifndef MQD_SIMHASH_SIMHASH_H_
#define MQD_SIMHASH_SIMHASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mqd {

/// 64-bit SimHash fingerprint (Charikar; used by Manku et al. [17],
/// the duplicate-detection method the paper delegates to): each token
/// votes +1/-1 on every bit according to its hash; the sign of the
/// per-bit sum is the fingerprint bit. Near-duplicate texts land
/// within a small Hamming distance. The votes are tallied byte-sliced,
/// 8 table lookups per token.
uint64_t SimHash(const std::vector<std::string>& tokens);

/// The token hash SimHash mixes: FNV-1a over the bytes, then a
/// splitmix64 finalizer so every output bit depends on every input
/// byte (exposed for tests).
uint64_t HashToken(std::string_view token);

int HammingDistance(uint64_t a, uint64_t b);

}  // namespace mqd

#endif  // MQD_SIMHASH_SIMHASH_H_
