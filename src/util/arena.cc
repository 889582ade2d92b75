#include "util/arena.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.h"

namespace mqd {

namespace {

uintptr_t AlignUp(uintptr_t n, size_t align) {
  return (n + align - 1) & ~(static_cast<uintptr_t>(align) - 1);
}

}  // namespace

Arena::Arena(size_t initial_block_bytes)
    : initial_block_bytes_(
          std::bit_ceil(std::max<size_t>(initial_block_bytes, 256))) {}

Arena::~Arena() = default;

void* Arena::Alloc(size_t bytes, size_t align) {
  MQD_DCHECK(std::has_single_bit(align));
  const uintptr_t cur = reinterpret_cast<uintptr_t>(ptr_);
  const uintptr_t aligned = AlignUp(cur, align);
  const uintptr_t end = reinterpret_cast<uintptr_t>(end_);
  if (aligned + bytes > end) return AllocSlow(bytes, align);
  stats_.bytes_live += (aligned - cur) + bytes;
  stats_.bytes_peak = std::max(stats_.bytes_peak, stats_.bytes_live);
  ptr_ = reinterpret_cast<std::byte*>(aligned + bytes);
  return reinterpret_cast<std::byte*>(aligned);
}

void* Arena::AllocSlow(size_t bytes, size_t align) {
  const size_t need = bytes + align;
  // Abandoning the current block's tail still counts toward the live
  // high-water mark (it is capacity this cycle consumed).
  stats_.bytes_live += static_cast<size_t>(end_ - ptr_);
  // Walk forward through retained blocks before growing: a Reset
  // rewinds to block zero but keeps the rest for reuse.
  while (active_block_ + 1 < blocks_.size()) {
    ++active_block_;
    Block& b = blocks_[active_block_];
    if (b.size >= need) {
      ptr_ = b.data.get();
      end_ = ptr_ + b.size;
      return Alloc(bytes, align);
    }
    stats_.bytes_live += b.size;
  }
  size_t grow =
      blocks_.empty() ? initial_block_bytes_ : blocks_.back().size * 2;
  while (grow < need) grow *= 2;
  blocks_.push_back(Block{std::make_unique<std::byte[]>(grow), grow});
  stats_.bytes_held += grow;
  ++stats_.block_allocs;
  active_block_ = blocks_.size() - 1;
  ptr_ = blocks_.back().data.get();
  end_ = ptr_ + grow;
  return Alloc(bytes, align);
}

void Arena::Reset() {
  stats_.bytes_peak = std::max(stats_.bytes_peak, stats_.bytes_live);
  ++stats_.resets;
  if (blocks_.size() > 1) {
    // Coalesce: one block >= the total retained capacity, so future
    // cycles never leave block zero and never call malloc again.
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    const size_t grow = std::bit_ceil(total);
    blocks_.clear();
    blocks_.push_back(Block{std::make_unique<std::byte[]>(grow), grow});
    stats_.bytes_held = grow;
    ++stats_.block_allocs;
  }
  active_block_ = 0;
  if (!blocks_.empty()) {
    ptr_ = blocks_[0].data.get();
    end_ = ptr_ + blocks_[0].size;
  }
  stats_.bytes_live = 0;
}

}  // namespace mqd
