#ifndef MQD_CORE_GREEDY_STATE_H_
#define MQD_CORE_GREEDY_STATE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/kernels.h"
#include "core/types.h"
#include "util/logging.h"

namespace mqd::internal {

/// The bookkeeping of GreedySC's set-cover loop: per-post residual
/// gains, the covered-pair bitmap, the pair counter, and a block-max
/// index over the gains that answers the argmax.
///
/// Every array is a zero-initialised vector sized up front from the
/// instance; the state lives for one solve.
///
/// Argmax: block_max_[b] holds the largest gain among posts
/// [64b, 64b + 64). Best() takes the first maximum over the ~n/64
/// block maxima, then the first maximum inside that block — the
/// global first maximum, i.e. the smallest PostId among the posts of
/// largest gain. Select() rebuilds only the blocks in the PostId span
/// whose gains changed, so a round costs O(n/64 + touched span). Both
/// levels run kern::ArgmaxDense, the one SIMD-dispatched kernel.
///
/// Select() walks the newly covered positions of each label's run in
/// ascending order, so the coverer windows [lo, hi) — the MaxReach
/// neighbourhood of each newly covered pair (q, a) inside LP(a) — are
/// monotone: one LabelRangeBounds for the first pair, then two
/// pointers. Gain maintenance then runs one of two paths per pair:
///  * Fast path (uniform lambda): every r in the window covers (q, a),
///    so the posts losing this pair form one contiguous run of LP(a).
///    The decrement is an O(1) range-add into a per-label difference
///    array over CSR positions, materialized into gain_ once per label
///    after its run is walked (one prefix-sum walk).
///  * Exact path (variable lambda): coverage is directional — whether
///    r covers (q, a) depends on r's own reach — so the losers are not
///    contiguous and each candidate in the window is tested against a
///    flat per-label reach row (Reach(r, a) materialized once per
///    label on first touch).
/// Both paths leave gain_ in the identical state; the fast path is
/// purely an algebraic regrouping of the same decrements.
///
/// The touched span is contiguous in PostId because posts are sorted
/// by value and every LP(a) is ascending in PostId: label a's windows
/// span ids[lo_first] .. ids[hi_last - 1].
class GreedyState {
 public:
  static constexpr size_t kBlock = 64;

  GreedyState(const Instance& inst, const CoverageModel& model)
      : inst_(inst),
        model_(model),
        uniform_(model.IsUniform()),
        covered_(inst.num_posts()),
        gain_(inst.num_posts()),
        block_max_((inst.num_posts() + kBlock - 1) / kBlock),
        remaining_(inst.num_pairs()) {
    const size_t num_labels = static_cast<size_t>(inst.num_labels());
    if (uniform_) {
      // One slot of gutter per label: a range ending at position
      // |LP(a)| writes its +1 marker at delta_base(a) + |LP(a)|, which
      // must not alias the next label's first slot.
      delta_.resize(inst.num_pairs() + num_labels + 1);
      // Bulk init: with one constant reach the per-position window
      // ends are monotone in the sorted value order, so one
      // two-pointer sweep per label computes every |S_p| term in
      // O(num_pairs) total instead of O(num_pairs log) binary
      // searches. Counts are identical integers to InitialGain's.
      const DimValue lambda = model.MaxReach();
      for (LabelId a = 0; a < static_cast<LabelId>(num_labels); ++a) {
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
    } else {
      // Exact-path reach rows, one double per CSR pair position,
      // filled lazily per label (most Selects touch few labels).
      reach_flat_.resize(inst.num_pairs());
      reach_ready_.resize(num_labels);
      for (PostId p = 0; p < inst_.num_posts(); ++p) {
        gain_[p] = InitialGain(p);
      }
    }
    RebuildBlocks(0, inst.num_posts());
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
  size_t remaining() const { return remaining_; }

  /// The post of maximum residual gain, ties toward the smallest
  /// PostId; kInvalidPost when every gain is zero.
  PostId Best() const {
    const size_t b = kern::ArgmaxDense(block_max_.data(), block_max_.size());
    if (b == block_max_.size()) return kInvalidPost;
    const size_t base = b * kBlock;
    const size_t at = kern::ArgmaxDense(gain_.data() + base, BlockSize(base));
    MQD_DCHECK(at < kBlock);
    return static_cast<PostId>(base + at);
  }

  /// Marks everything `p` covers, decrements the gains of every post
  /// whose set loses a pair, and refreshes the block maxima over the
  /// touched span. Best() is current when this returns.
  void Select(PostId p) {
    const DimValue max_reach = model_.MaxReach();
    const DimValue v = inst_.value(p);
    size_t touched_lo = inst_.num_posts();
    size_t touched_hi = 0;
    ForEachLabel(inst_.labels(p), [&](LabelId a) {
      const LabelMask abit = MaskOf(a);
      const DimValue reach = model_.Reach(inst_, p, a);
      const std::span<const DimValue> values = inst_.label_values(a);
      const std::span<const PostId> ids = inst_.label_posts(a);
      const size_t base = inst_.label_offset(a);
      if (!uniform_) EnsureReachRow(a);
      const Instance::IndexRange run =
          inst_.LabelRangeBounds(a, v - reach, v + reach);
      // Coverer window [lo, hi) of the current pair; lo_first is the
      // first window's start, kNone until a pair is newly covered.
      size_t lo_first = kNone, lo = 0, hi = 0;
      for (size_t i = run.begin; i < run.end; ++i) {
        const PostId q = ids[i];
        if ((covered_[q] & abit) != 0) continue;
        covered_[q] |= abit;
        --remaining_;
        // Every post r that covers (q, a) loses this pair.
        const DimValue vq = values[i];
        const DimValue from = vq - max_reach;
        const DimValue to = vq + max_reach;
        if (lo_first == kNone) {
          const Instance::IndexRange w = inst_.LabelRangeBounds(a, from, to);
          lo_first = lo = w.begin;
          hi = w.end;
        } else {
          // Stops at i at the latest: values[i] = vq >= from.
          while (values[lo] < from) ++lo;
          while (hi < values.size() && values[hi] <= to) ++hi;
        }
        if (uniform_) {
          --delta_[delta_base(a) + lo];
          ++delta_[delta_base(a) + hi];
        } else {
          const double* reaches = reach_flat_.data() + base;
          for (size_t r = lo; r < hi; ++r) {
            if (std::fabs(values[r] - vq) <= reaches[r]) --gain_[ids[r]];
          }
        }
      }
      if (lo_first == kNone) return;
      if (uniform_) {
        // The windows are monotone, so the pending range-adds all lie
        // in [lo_first, hi); one prefix-sum walk applies them.
        int32_t* delta = delta_.data() + delta_base(a);
        int64_t sum = 0;
        for (size_t i = lo_first; i < hi; ++i) {
          sum += delta[i];
          delta[i] = 0;
          if (sum != 0) gain_[ids[i]] += sum;
        }
        delta[hi] = 0;
      }
      touched_lo = std::min<size_t>(touched_lo, ids[lo_first]);
      touched_hi = std::max<size_t>(touched_hi, ids[hi - 1] + size_t{1});
    });
    MQD_DCHECK(gain_[p] == 0);
    RebuildBlocks(touched_lo, touched_hi);
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Start of label a's region in delta_: CSR offset shifted by one
  /// gutter slot per preceding label (see the constructor note).
  size_t delta_base(LabelId a) const {
    return inst_.label_offset(a) + static_cast<size_t>(a);
  }

  /// Posts in the block starting at PostId `base` (the last block may
  /// be short).
  size_t BlockSize(size_t base) const {
    return std::min(kBlock, inst_.num_posts() - base);
  }

  /// Recomputes block_max_ for every block meeting PostIds [lo, hi).
  void RebuildBlocks(size_t lo, size_t hi) {
    if (lo >= hi) return;
    for (size_t b = lo / kBlock; b <= (hi - 1) / kBlock; ++b) {
      const size_t base = b * kBlock;
      const size_t size = BlockSize(base);
      const size_t at = kern::ArgmaxDense(gain_.data() + base, size);
      block_max_[b] = at < size ? gain_[base + at] : 0;
    }
  }

  /// Materializes Reach(r, a) for every post of LP(a) into the flat
  /// reach row, position-aligned with label_values(a)/label_posts(a)
  /// so the exact path streams three parallel arrays.
  void EnsureReachRow(LabelId a) {
    if (reach_ready_[a]) return;
    reach_ready_[a] = 1;
    const std::span<const PostId> ids = inst_.label_posts(a);
    const size_t base = inst_.label_offset(a);
    for (size_t i = 0; i < ids.size(); ++i) {
      reach_flat_[base + i] = model_.Reach(inst_, ids[i], a);
    }
  }

  const Instance& inst_;
  const CoverageModel& model_;
  const bool uniform_;
  std::vector<LabelMask> covered_;
  std::vector<int64_t> gain_;
  std::vector<int64_t> block_max_;
  size_t remaining_;
  // Fast-path state (sized only for uniform models): difference array
  // over global CSR positions, zero between Selects.
  std::vector<int32_t> delta_;
  // Exact-path state (sized only for variable-lambda models): flat
  // per-pair reach rows plus a per-label filled flag.
  std::vector<double> reach_flat_;
  std::vector<uint8_t> reach_ready_;
};

}  // namespace mqd::internal

#endif  // MQD_CORE_GREEDY_STATE_H_
