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
  /// twice the number of keys, up to kMaxSlots. A lookup is split in
  /// two: Find resolves the key's slot, and Add appends to it only
  /// once the fingerprint is known to be new.
  class BlockTable {
   public:
    /// The slot of `key`: where its bucket is indexed, or the free slot
    /// where Add would index it. Grows the index first, so the slot
    /// stays valid until the next Find.
    size_t Find(uint16_t key) {
      if (slots_.size() < kMaxSlots &&
          2 * (buckets_.size() + 1) > slots_.size()) {
        Grow();
      }
      const size_t mask = slots_.size() - 1;
      size_t i = Home(key) & mask;
      while (slots_[i] != 0 && (slots_[i] >> 32) != key) i = (i + 1) & mask;
      return i;
    }
    /// The bucket indexed at `slot`, or nullptr for a free slot.
    std::vector<Entry>* Bucket(size_t slot) {
      const uint64_t s = slots_[slot];
      return s == 0 ? nullptr : &buckets_[(s & 0xFFFFFFFF) - 1];
    }
    /// Appends `entry` to the bucket of `key` at `slot` (from Find),
    /// creating the bucket when the slot is free.
    void Add(size_t slot, uint16_t key, const Entry& entry);

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

    /// 0 for a free slot, else key << 32 | (1 + the position of its
    /// bucket in buckets_), so a probe compares keys in the slot.
    std::vector<uint64_t> slots_;
    /// Buckets in the order their keys were first recorded.
    std::vector<std::vector<Entry>> buckets_;
  };

  int max_distance_;
  uint64_t window_;
  uint64_t seq_ = 0;
  std::array<BlockTable, 4> tables_;
};

}  // namespace mqd

#endif  // MQD_SIMHASH_DEDUP_H_
