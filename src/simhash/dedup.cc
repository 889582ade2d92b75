#include "simhash/dedup.h"

#include <algorithm>
#include <array>

#include "util/logging.h"

namespace mqd {

namespace {

/// The 16-bit block `block` of `fingerprint`, the key of table `block`.
uint16_t Block(uint64_t fingerprint, size_t block) {
  return static_cast<uint16_t>(fingerprint >> (16 * block));
}

/// True when some entry of `bucket` is within kMaxDistance bits of
/// `fingerprint`: clearing the lowest set bit of their difference
/// kMaxDistance times leaves nothing. (No popcount: the build targets
/// baseline x86-64, where std::popcount is a library call.)
template <int kMaxDistance, typename Entry>
bool AnyWithin(const std::vector<Entry>& bucket, uint64_t fingerprint) {
  for (const Entry& entry : bucket) {
    uint64_t diff = entry.fingerprint ^ fingerprint;
    for (int k = 0; k < kMaxDistance; ++k) diff &= diff - 1;
    if (diff == 0) return true;
  }
  return false;
}

}  // namespace

NearDuplicateDetector::NearDuplicateDetector(int max_distance,
                                             uint64_t window)
    : max_distance_(max_distance), window_(window) {
  MQD_CHECK(max_distance >= 0 && max_distance <= 3)
      << "the 4x16-bit block scheme guarantees recall only up to "
         "distance 3";
  MQD_CHECK(window > 0);
}

bool NearDuplicateDetector::IsDuplicate(uint64_t fingerprint) {
  const uint64_t oldest_live = seq_ < window_ ? 0 : seq_ - window_;
  // Resolve all four buckets, and start fetching their entries, before
  // trimming or scanning any: the four tables' index and bucket-header
  // lookups are each a likely cache miss, and this way they overlap.
  std::array<size_t, 4> slots;
  std::array<std::vector<Entry>*, 4> buckets;
  for (size_t block = 0; block < 4; ++block) {
    slots[block] = tables_[block].Find(Block(fingerprint, block));
  }
  for (size_t block = 0; block < 4; ++block) {
    buckets[block] = tables_[block].Bucket(slots[block]);
    if (buckets[block] != nullptr) __builtin_prefetch(buckets[block]->data());
  }
  for (std::vector<Entry>* bucket : buckets) {
    if (bucket == nullptr) continue;
    // Entries are appended in seq order, so the expired ones lead.
    const auto live = std::find_if(
        bucket->begin(), bucket->end(),
        [oldest_live](const Entry& e) { return e.seq >= oldest_live; });
    bucket->erase(bucket->begin(), live);
    bool hit = false;
    switch (max_distance_) {
      case 0: hit = AnyWithin<0>(*bucket, fingerprint); break;
      case 1: hit = AnyWithin<1>(*bucket, fingerprint); break;
      case 2: hit = AnyWithin<2>(*bucket, fingerprint); break;
      default: hit = AnyWithin<3>(*bucket, fingerprint); break;
    }
    if (hit) return true;
  }
  for (size_t block = 0; block < 4; ++block) {
    tables_[block].Add(slots[block], Block(fingerprint, block),
                       Entry{fingerprint, seq_});
  }
  ++seq_;
  return false;
}

void NearDuplicateDetector::BlockTable::Add(size_t slot, uint16_t key,
                                            const Entry& entry) {
  if (slots_[slot] == 0) {
    buckets_.emplace_back();
    slots_[slot] = uint64_t{key} << 32 | buckets_.size();
  }
  buckets_[(slots_[slot] & 0xFFFFFFFF) - 1].push_back(entry);
}

void NearDuplicateDetector::BlockTable::Grow() {
  const size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
  const size_t mask = capacity - 1;
  std::vector<uint64_t> old(capacity, 0);
  old.swap(slots_);
  for (const uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = Home(static_cast<uint16_t>(slot >> 32)) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace mqd
