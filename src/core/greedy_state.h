#ifndef MQD_CORE_GREEDY_STATE_H_
#define MQD_CORE_GREEDY_STATE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/kernels.h"
#include "core/types.h"
#include "util/arena.h"
#include "util/logging.h"

namespace mqd::internal {

/// The shared bookkeeping of GreedySC's set-cover loop: per-post
/// residual gains, the covered-pair bitmap, and the pair counter.
/// Exposed (internal) so the serial engines in greedy_sc.cc and the
/// parallel gain-argmax engine run the identical state machine; any
/// divergence is a bug the differential tests are designed to catch.
///
/// Every array lives on the caller's Arena (normally the thread's
/// SolveScratch, rewound per solve): all sizes are known up front, so
/// construction is a handful of pointer bumps and repeated solves
/// allocate nothing once the arena is warm.
///
/// Gain maintenance runs one of two paths per newly covered pair
/// (q, a):
///  * Fast path (uniform lambda): every r within MaxReach of q in
///    LP(a) covers (q, a), so the posts losing this pair form one
///    contiguous run of LP(a). The decrement is recorded as an O(1)
///    range-add into a per-label difference array over CSR positions
///    and lazily materialized into gain_ once per Select, right
///    before the next argmax needs the values (the prefix-sum walk is
///    the kern::materialize kernel, SIMD-dispatched).
///  * Exact path (variable lambda): coverage is directional — whether
///    r covers (q, a) depends on r's own reach — so the losers are
///    not contiguous and each candidate in the MaxReach window is
///    tested with Covers. The per-candidate test is the
///    kern::cover_decrement kernel over a flat per-label reach row
///    (Reach(r, a) materialized once per label on first touch): the
///    same fabs compare, the same integer decrements, so the state is
///    bit-identical to the virtual-call loop it replaces.
/// Both paths leave gain_ in the identical state; the fast path is
/// purely an algebraic regrouping of the same decrements.
class GreedyState {
 public:
  GreedyState(const Instance& inst, const CoverageModel& model,
              Arena& arena)
      : inst_(inst),
        model_(model),
        uniform_(model.IsUniform()),
        covered_(arena.AllocZeroedSpan<LabelMask>(inst.num_posts())),
        gain_(arena.AllocZeroedSpan<int64_t>(inst.num_posts())),
        remaining_(inst.num_pairs()) {
    const size_t num_labels = static_cast<size_t>(inst.num_labels());
    if (uniform_) {
      // One slot of gutter per label: a range ending at position
      // |LP(a)| writes its +1 marker at delta_base(a) + |LP(a)|, which
      // must not alias the next label's first slot.
      delta_ = arena.AllocZeroedSpan<int32_t>(inst.num_pairs() + num_labels + 1);
      dirty_lo_ = arena.AllocSpan<size_t>(num_labels);
      dirty_hi_ = arena.AllocZeroedSpan<size_t>(num_labels);
      dirty_labels_ = arena.AllocSpan<LabelId>(num_labels);
      for (size_t a = 0; a < num_labels; ++a) dirty_lo_[a] = kClean;
    } else {
      // Exact-path reach rows, one double per CSR pair position,
      // filled lazily per label (most Selects touch few labels).
      reach_flat_ = arena.AllocSpan<double>(inst.num_pairs());
      reach_ready_ = arena.AllocZeroedSpan<uint8_t>(num_labels);
    }
    if (uniform_) {
      // Bulk init: with one constant reach the per-position window
      // ends are monotone in the sorted value order, so one
      // two-pointer sweep per label computes every |S_p| term in
      // O(num_pairs) total instead of O(num_pairs log) binary
      // searches. Counts are identical integers to InitialGain's.
      const DimValue lambda = model.MaxReach();
      for (LabelId a = 0; a < static_cast<LabelId>(inst.num_labels());
           ++a) {
        const std::span<const DimValue> values = inst.label_values(a);
        const std::span<const PostId> ids = inst.label_posts(a);
        size_t lo = 0, hi = 0;
        for (size_t i = 0; i < values.size(); ++i) {
          while (lo < values.size() && values[lo] < values[i] - lambda) {
            ++lo;
          }
          while (hi < values.size() && values[hi] <= values[i] + lambda) {
            ++hi;
          }
          gain_[ids[i]] += static_cast<int64_t>(hi - lo);
        }
      }
      return;
    }
    for (PostId p = 0; p < inst_.num_posts(); ++p) {
      gain_[p] = InitialGain(p);
    }
  }

  /// Initial gain of post p = |S_p| = number of (q, a) pairs with a in
  /// label(p) and q within Reach(p, a) of p. Pure function of the
  /// instance.
  int64_t InitialGain(PostId p) const {
    int64_t gain = 0;
    ForEachLabel(inst_.labels(p), [&](LabelId a) {
      const DimValue reach = model_.Reach(inst_, p, a);
      const DimValue v = inst_.value(p);
      gain += static_cast<int64_t>(
          inst_.LabelRangeBounds(a, v - reach, v + reach).size());
    });
    return gain;
  }

  int64_t gain(PostId p) const { return gain_[p]; }
  /// Raw gain array (indexed by PostId) for the argmax kernels.
  const int64_t* gains_data() const { return gain_.data(); }
  size_t remaining() const { return remaining_; }
  size_t num_posts() const { return inst_.num_posts(); }

  /// Newly covered pairs whose gain decrements were applied as one
  /// contiguous range-add (uniform lambda).
  uint64_t fastpath_updates() const { return fastpath_updates_; }
  /// Newly covered pairs that took the per-candidate Covers scan
  /// (variable lambda).
  uint64_t exact_updates() const { return exact_updates_; }

  /// Marks everything `p` covers and decrements the gains of every
  /// post whose set loses a pair. Gains are fully materialized when
  /// this returns.
  void Select(PostId p) {
    const DimValue max_reach = model_.MaxReach();
    const kern::KernelTable& kt = kern::Active();
    ForEachLabel(inst_.labels(p), [&](LabelId a) {
      const LabelMask abit = MaskOf(a);
      const DimValue reach = model_.Reach(inst_, p, a);
      const DimValue v = inst_.value(p);
      if (!uniform_) EnsureReachRow(a);
      for (PostId q : inst_.LabelPostsInRange(a, v - reach, v + reach)) {
        if ((covered_[q] & abit) != 0) continue;
        covered_[q] |= abit;
        --remaining_;
        // Every post r that covers (q, a) loses this pair.
        const DimValue vq = inst_.value(q);
        if (uniform_) {
          RangeDecrement(a,
                         inst_.LabelRangeBounds(a, vq - max_reach,
                                                vq + max_reach));
          ++fastpath_updates_;
        } else {
          const Instance::IndexRange r =
              inst_.LabelRangeBounds(a, vq - max_reach, vq + max_reach);
          const size_t base = inst_.label_offset(a);
          kt.cover_decrement(inst_.label_values(a).data() + r.begin,
                             reach_flat_.data() + base + r.begin,
                             r.size(), vq,
                             inst_.label_posts(a).data() + r.begin,
                             gain_.data());
          ++exact_updates_;
        }
      }
    });
    MaterializePending();
    MQD_DCHECK(gain_[p] == 0);
  }

 private:
  static constexpr size_t kClean = std::numeric_limits<size_t>::max();

  /// Start of label a's region in delta_: CSR offset shifted by one
  /// gutter slot per preceding label (see the constructor note).
  size_t delta_base(LabelId a) const {
    return inst_.label_offset(a) + static_cast<size_t>(a);
  }

  /// Materializes Reach(r, a) for every post of LP(a) into the flat
  /// reach row, position-aligned with label_values(a)/label_posts(a)
  /// so the cover_decrement kernel streams three parallel arrays.
  void EnsureReachRow(LabelId a) {
    if (reach_ready_[a]) return;
    reach_ready_[a] = 1;
    const std::span<const PostId> ids = inst_.label_posts(a);
    const size_t base = inst_.label_offset(a);
    for (size_t i = 0; i < ids.size(); ++i) {
      reach_flat_[base + i] = model_.Reach(inst_, ids[i], a);
    }
  }

  /// Records "-1 over positions [r.begin, r.end) of LP(a)" in the
  /// difference array and widens the label's dirty window.
  void RangeDecrement(LabelId a, Instance::IndexRange r) {
    const size_t base = delta_base(a);
    --delta_[base + r.begin];
    ++delta_[base + r.end];
    if (dirty_lo_[a] == kClean) {
      dirty_labels_[num_dirty_++] = a;
      dirty_lo_[a] = r.begin;
      dirty_hi_[a] = r.end;
    } else {
      dirty_lo_[a] = std::min(dirty_lo_[a], r.begin);
      dirty_hi_[a] = std::max(dirty_hi_[a], r.end);
    }
  }

  /// Flushes the pending range-adds into gain_: one prefix-sum walk
  /// per dirty label (the SIMD-dispatched materialize kernel), bounded
  /// to the touched position window.
  void MaterializePending() {
    const kern::KernelTable& kt = kern::Active();
    for (size_t d = 0; d < num_dirty_; ++d) {
      const LabelId a = dirty_labels_[d];
      const size_t base = delta_base(a);
      const std::span<const PostId> ids = inst_.label_posts(a);
      const size_t lo = dirty_lo_[a];
      const size_t hi = dirty_hi_[a];
      kt.materialize(delta_.data() + base + lo, hi - lo, ids.data() + lo,
                     gain_.data());
      delta_[base + hi] = 0;
      dirty_lo_[a] = kClean;
    }
    num_dirty_ = 0;
  }

  const Instance& inst_;
  const CoverageModel& model_;
  const bool uniform_;
  std::span<LabelMask> covered_;
  std::span<int64_t> gain_;
  size_t remaining_;
  // Fast-path state (sized only for uniform models): difference array
  // over global CSR positions plus per-label dirty windows. The dirty
  // label list has capacity num_labels; num_dirty_ is its fill.
  std::span<int32_t> delta_;
  std::span<size_t> dirty_lo_;
  std::span<size_t> dirty_hi_;
  std::span<LabelId> dirty_labels_;
  size_t num_dirty_ = 0;
  // Exact-path state (sized only for variable-lambda models): flat
  // per-pair reach rows plus a per-label filled flag.
  std::span<double> reach_flat_;
  std::span<uint8_t> reach_ready_;
  uint64_t fastpath_updates_ = 0;
  uint64_t exact_updates_ = 0;
};

}  // namespace mqd::internal

#endif  // MQD_CORE_GREEDY_STATE_H_
