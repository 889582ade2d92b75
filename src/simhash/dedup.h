#ifndef MQD_SIMHASH_DEDUP_H_
#define MQD_SIMHASH_DEDUP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mqd {

/// Streaming near-duplicate filter over SimHash fingerprints, the
/// pre-processing stage of the paper's pipeline ("we eliminate
/// near-duplicate posts using existing duplicate detection methods
/// like SimHash").
///
/// Uses the Manku-style block-permutation scheme: the 64-bit
/// fingerprint is split into 4 blocks of 16 bits; two fingerprints
/// within Hamming distance <= 3 agree exactly on at least one block
/// (pigeonhole), so each of the 4 tables keyed by one block yields a
/// small candidate set to verify.
///
/// A table maps a block value to its bucket: the recorded
/// fingerprints with that block, in recording order. Only the most
/// recent `window` fingerprints are live: a post is a duplicate only of
/// a recent post, matching microblog retweet behaviour and bounding
/// memory. Since a bucket is in recording order, its expired entries
/// are a prefix, trimmed whenever the bucket is visited.
///
/// Each table keeps its buckets in a dense array in first-use order,
/// found through a small open-addressing index sized to the block
/// values in use: a lookup probes one contiguous index instead of
/// chasing hash-map nodes, and a detector that sees few posts stays
/// small. The index grows to at most 65536 slots, where it is a direct
/// map through a permutation of the block.
class NearDuplicateDetector {
 public:
  /// `max_distance` must be <= 3 for the 4-block scheme to be
  /// loss-less.
  explicit NearDuplicateDetector(int max_distance = 3,
                                 uint64_t window = 100000);

  /// True when `fingerprint` is within max_distance of a fingerprint
  /// seen in the recent window; otherwise records it and returns
  /// false.
  bool IsDuplicate(uint64_t fingerprint);

 private:
  struct Entry {
    uint64_t fingerprint;
    uint64_t seq;
  };

  /// One block's table: buckets in first-use order and an index over
  /// them with linear probing, its power-of-two capacity kept at least
  /// twice the number of keys, up to kMaxSlots.
  class BlockTable {
   public:
    /// The bucket of `key`, created empty on first use. The reference
    /// is valid until the next call.
    std::vector<Entry>& Bucket(uint16_t key);

   private:
    static constexpr size_t kMaxSlots = size_t{1} << 16;

    /// A permutation of the 16-bit values (an xorshift and a multiply
    /// by an odd constant are each invertible mod 2^16), so at
    /// kMaxSlots every key sits in its own home slot.
    static size_t Home(uint16_t key) {
      uint32_t x = key;
      x ^= x >> 8;
      x = (x * 0x9E37u) & 0xFFFF;
      x ^= x >> 7;
      return x;
    }
    void Grow();

    /// 0 for a free slot, else 1 + the position of its key in keys_.
    std::vector<uint32_t> slots_;
    std::vector<uint16_t> keys_;
    /// buckets_[j] holds the entries whose block is keys_[j].
    std::vector<std::vector<Entry>> buckets_;
  };

  int max_distance_;
  uint64_t window_;
  uint64_t seq_ = 0;
  std::array<BlockTable, 4> tables_;
};

}  // namespace mqd

#endif  // MQD_SIMHASH_DEDUP_H_
