#ifndef MQD_UTIL_ARENA_H_
#define MQD_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <memory_resource>
#include <span>
#include <type_traits>
#include <vector>

namespace mqd {

/// Bump allocator for repeated solves (the obstack idiom: one arena
/// owns every transient solver structure, freed wholesale). Alloc is
/// a pointer bump inside the current block; Reset rewinds to empty
/// while *keeping* the high-water block, so a steady-state workload —
/// BatchSolver jobs, degradation rungs re-solving the same instance,
/// stream replays — stops touching malloc entirely after the first
/// few cycles. Stats counters are compiled in unconditionally (they
/// are two adds per alloc); the zero-allocation checks read them
/// through stats().
///
/// Not thread safe: one Arena belongs to one solver/processor/thread
/// (SolveScratch::ThreadLocal() hands each thread its own).
class Arena {
 public:
  struct Stats {
    size_t bytes_held = 0;    // capacity across all retained blocks
    size_t bytes_live = 0;    // allocated since the last Reset
    size_t bytes_peak = 0;    // max bytes_live ever observed
    uint64_t resets = 0;      // Reset calls
    uint64_t block_allocs = 0;  // trips to malloc (growth events)

    /// Elementwise accumulation for fleets of arenas (the multi-tenant
    /// engine's per-cluster representatives): bytes_peak sums too, so
    /// the aggregate reads as the fleet's total high-water budget.
    Stats& operator+=(const Stats& other) {
      bytes_held += other.bytes_held;
      bytes_live += other.bytes_live;
      bytes_peak += other.bytes_peak;
      resets += other.resets;
      block_allocs += other.block_allocs;
      return *this;
    }
  };

  explicit Arena(size_t initial_block_bytes = kDefaultBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `align`
  /// (which must be a power of two <= alignof(std::max_align_t)... or
  /// larger; any power of two works, the block itself is max-aligned
  /// and the bump pointer rounds up).
  void* Alloc(size_t bytes, size_t align);

  /// Typed convenience: `n` default-initialized Ts (trivial types are
  /// left uninitialized, matching vector-free hot-path usage).
  template <typename T>
  std::span<T> AllocSpan(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena spans are never destroyed element-wise");
    T* p = static_cast<T*>(Alloc(n * sizeof(T), alignof(T)));
    if constexpr (!std::is_trivially_default_constructible_v<T>) {
      for (size_t i = 0; i < n; ++i) new (p + i) T();
    }
    return {p, n};
  }

  /// Zero-filled typed span.
  template <typename T>
  std::span<T> AllocZeroedSpan(size_t n);

  /// Discards every live allocation (no destructors run — arena types
  /// must be trivially destructible or externally destroyed first).
  /// The retained capacity is coalesced into one block sized to the
  /// high-water mark, so the next cycle bump-allocates out of a
  /// single contiguous region and steady state performs zero mallocs.
  void Reset();

  const Stats& stats() const { return stats_; }

  static constexpr size_t kDefaultBlockBytes = 1 << 16;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t size;
  };

  void* AllocSlow(size_t bytes, size_t align);

  std::byte* ptr_ = nullptr;
  std::byte* end_ = nullptr;
  std::vector<Block> blocks_;
  size_t active_block_ = 0;  // block ptr_/end_ point into
  size_t initial_block_bytes_;
  Stats stats_;
};

template <typename T>
std::span<T> Arena::AllocZeroedSpan(size_t n) {
  // n == 0 on a fresh arena yields a null (empty) span; memset's
  // pointer argument is declared non-null, so skip it.
  if (n == 0) return {};
  std::span<T> s = AllocSpan<T>(n);
  std::memset(static_cast<void*>(s.data()), 0, n * sizeof(T));
  return s;
}

/// std::pmr adapter so standard containers (the stream processors'
/// carried-window mirrors) can live on an Arena. Deallocate is a
/// no-op — memory is reclaimed wholesale by Arena::Reset or never.
class ArenaResource final : public std::pmr::memory_resource {
 public:
  explicit ArenaResource(Arena* arena) : arena_(arena) {}

 private:
  void* do_allocate(size_t bytes, size_t align) override {
    return arena_->Alloc(bytes, align);
  }
  void do_deallocate(void*, size_t, size_t) override {}
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  Arena* arena_;
};

}  // namespace mqd

#endif  // MQD_UTIL_ARENA_H_
