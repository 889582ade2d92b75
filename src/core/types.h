#ifndef MQD_CORE_TYPES_H_
#define MQD_CORE_TYPES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mqd {

/// Index of a post inside an Instance (position in the value-sorted
/// post vector).
using PostId = uint32_t;

/// Dense id of a query label (a user query / topic / hashtag).
using LabelId = uint32_t;

/// A post's position on the diversity dimension F: seconds for the
/// time dimension, [-1, 1] for sentiment polarity, etc. The algorithms
/// only ever compare distances |F(Pi) - F(Pj)| against thresholds.
using DimValue = double;

/// Set of labels a post is relevant to, as a bitmask. An instance may
/// therefore carry at most kMaxLabels active labels; this matches the
/// paper's regime (|L| <= 20 in all experiments) with ample headroom.
using LabelMask = uint64_t;

inline constexpr int kMaxLabels = 64;

/// Sentinel meaning "no post".
inline constexpr PostId kInvalidPost = static_cast<PostId>(-1);

inline LabelMask MaskOf(LabelId a) { return LabelMask{1} << a; }

inline bool MaskHas(LabelMask mask, LabelId a) {
  return (mask >> a) & LabelMask{1};
}

/// The number of set bits of `x`, branch-free in 12 integer ops. The
/// build targets baseline x86-64 (no -mpopcnt), where std::popcount
/// is a call into libgcc; this inlines everywhere instead.
inline int BitCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

inline int MaskCount(LabelMask mask) { return BitCount(mask); }

/// Expands a mask into label ids, ascending.
inline std::vector<LabelId> MaskToLabels(LabelMask mask) {
  std::vector<LabelId> out;
  out.reserve(static_cast<size_t>(MaskCount(mask)));
  while (mask != 0) {
    out.push_back(static_cast<LabelId>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
  return out;
}

/// Iterates the set bits of `mask`, calling fn(LabelId).
template <typename Fn>
inline void ForEachLabel(LabelMask mask, Fn&& fn) {
  while (mask != 0) {
    fn(static_cast<LabelId>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

/// A microblogging post as the optimizer sees it: a value on the
/// diversity dimension plus the set of matched labels. `external_id`
/// threads through whatever identifier the data source used (tweet id,
/// row number) so results can be traced back.
struct Post {
  DimValue value = 0.0;
  LabelMask labels = 0;
  uint64_t external_id = 0;
};

}  // namespace mqd

#endif  // MQD_CORE_TYPES_H_
