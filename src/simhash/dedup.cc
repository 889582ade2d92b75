#include "simhash/dedup.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/logging.h"

namespace mqd {

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
  // One bucket per table; a lookup in one table leaves the others'
  // buckets in place.
  std::array<std::vector<Entry>*, 4> touched{};
  for (size_t block = 0; block < 4; ++block) {
    std::vector<Entry>& bucket = tables_[block].Bucket(
        static_cast<uint16_t>(fingerprint >> (16 * block)));
    // Entries are appended in seq order, so the expired ones lead.
    const auto live = std::find_if(
        bucket.begin(), bucket.end(),
        [oldest_live](const Entry& e) { return e.seq >= oldest_live; });
    bucket.erase(bucket.begin(), live);
    for (const Entry& entry : bucket) {
      if (std::popcount(entry.fingerprint ^ fingerprint) <= max_distance_) {
        return true;
      }
    }
    touched[block] = &bucket;
  }
  for (std::vector<Entry>* bucket : touched) {
    bucket->push_back(Entry{fingerprint, seq_});
  }
  ++seq_;
  return false;
}

std::vector<NearDuplicateDetector::Entry>&
NearDuplicateDetector::BlockTable::Bucket(uint16_t key) {
  if (slots_.size() < kMaxSlots && 2 * (keys_.size() + 1) > slots_.size()) {
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key) & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) {
      keys_.push_back(key);
      slots_[i] = static_cast<uint32_t>(keys_.size());
      return buckets_.emplace_back();
    }
    if (keys_[slot - 1] == key) return buckets_[slot - 1];
  }
}

void NearDuplicateDetector::BlockTable::Grow() {
  const size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
  const size_t mask = capacity - 1;
  slots_.assign(capacity, 0);
  for (size_t j = 0; j < keys_.size(); ++j) {
    size_t i = Home(keys_[j]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(j + 1);
  }
}

}  // namespace mqd
