#ifndef MQD_CORE_GREEDY_STATE_H_
#define MQD_CORE_GREEDY_STATE_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/kernels.h"
#include "core/types.h"
#include "util/logging.h"

namespace mqd::internal {

/// The bookkeeping of GreedySC's set-cover loop: per-post residual
/// gains, a covered bit per pair, the pair counter, the coverer window
/// table, and a block-max index over the gains that answers the argmax.
///
/// Every array is a zero-initialised vector sized up front from the
/// instance; the state lives for one solve.
///
/// Window table: for every CSR pair position (q, a), window_lo_ and
/// window_hi_ hold the coverer window [lo, hi) of (q, a) inside LP(a),
/// the posts of LP(a) within MaxReach of q. The constructor fills it
/// with one two-pointer sweep per label (both pointers stepped four
/// values at a time); under uniform lambda the window is also the set
/// of pairs q covers, so hi - lo is q's initial gain in that label.
///
/// Argmax: block_max_[b] holds the largest gain among posts
/// [64b, 64b + 64). Best() takes the first maximum over the ~n/64
/// block maxima, then the first maximum inside that block — the
/// global first maximum, i.e. the smallest PostId among the posts of
/// largest gain. Both levels run kern::ArgmaxDense, the one
/// SIMD-dispatched kernel. Select() recomputes the maxima of the
/// blocks in the PostId span whose gains changed (a value-only max,
/// no index), so a round costs O(n/64 + touched span).
///
/// Select() walks the covered bits of each label's run a word at a
/// time and reads the window of each newly covered pair from the
/// table. Gain maintenance then runs one of two paths per pair:
///  * Fast path (uniform lambda): every r in the window covers (q, a),
///    so the posts losing this pair form one contiguous run of LP(a).
///    The decrement is an O(1) range-add into a difference array over
///    CSR positions, materialized into gain_ once per label after its
///    run is walked (one prefix-sum walk).
///  * Exact path (variable lambda): coverage is directional — whether
///    r covers (q, a) depends on r's own reach — so the losers are not
///    contiguous and each candidate in the window is tested against a
///    flat per-label reach row (Reach(r, a) materialized once per
///    label on first touch).
/// Both paths leave gain_ in the identical state; the fast path is
/// purely an algebraic regrouping of the same decrements.
///
/// The windows of a label's run ascend with the run, and the touched
/// span is contiguous in PostId because posts are sorted by value and
/// every LP(a) is ascending in PostId: label a's windows span
/// ids[lo_first] .. ids[hi_last - 1].
class GreedyState {
 public:
  static constexpr size_t kBlock = 64;

  GreedyState(const Instance& inst, const CoverageModel& model)
      : inst_(inst),
        model_(model),
        uniform_(model.IsUniform()),
        covered_((inst.num_pairs() + kWord - 1) / kWord),
        window_lo_(inst.num_pairs()),
        window_hi_(inst.num_pairs()),
        gain_(inst.num_posts()),
        block_max_((inst.num_posts() + kBlock - 1) / kBlock),
        remaining_(inst.num_pairs()) {
    const size_t num_labels = static_cast<size_t>(inst.num_labels());
    const DimValue max_reach = model.MaxReach();
    for (LabelId a = 0; a < static_cast<LabelId>(num_labels); ++a) {
      const std::span<const DimValue> values = inst.label_values(a);
      const std::span<const PostId> ids = inst.label_posts(a);
      const size_t base = inst.label_offset(a);
      // One reach for all: both window ends ascend with i.
      size_t lo = 0, hi = 0;
      for (size_t i = 0; i < values.size(); ++i) {
        const DimValue from = values[i] - max_reach;
        const DimValue to = values[i] + max_reach;
        lo = Advance(values, lo, [from](DimValue x) { return x < from; });
        hi = Advance(values, hi, [to](DimValue x) { return x <= to; });
        MQD_DCHECK(lo <= i && i < hi);
        window_lo_[base + i] = static_cast<Pos>(lo);
        window_hi_[base + i] = static_cast<Pos>(hi);
        if (uniform_) gain_[ids[i]] += static_cast<int64_t>(hi - lo);
      }
    }
    if (uniform_) {
      // One trailing slot: a range ending at |LP(a)| writes its +1
      // marker on the next label's first position (or one past the
      // last pair), and Select zeroes it in the same label's walk.
      delta_.resize(inst.num_pairs() + 1);
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
    const DimValue v = inst_.value(p);
    size_t touched_lo = inst_.num_posts();
    size_t touched_hi = 0;
    ForEachLabel(inst_.labels(p), [&](LabelId a) {
      const DimValue reach = model_.Reach(inst_, p, a);
      const std::span<const DimValue> values = inst_.label_values(a);
      const std::span<const PostId> ids = inst_.label_posts(a);
      const size_t base = inst_.label_offset(a);
      if (!uniform_) EnsureReachRow(a);
      const Instance::IndexRange run =
          inst_.LabelRangeBounds(a, v - reach, v + reach);
      if (run.begin == run.end) return;
      const Pos* window_lo = window_lo_.data() + base;
      const Pos* window_hi = window_hi_.data() + base;
      int32_t* delta = uniform_ ? delta_.data() + base : nullptr;
      const double* reaches = uniform_ ? nullptr : reach_flat_.data() + base;
      // Window of the first and of the last newly covered pair; the
      // windows ascend along the run, so these bound all of them.
      size_t lo_first = kNone, hi_last = 0;
      const size_t first = base + run.begin;
      const size_t last = base + run.end - 1;
      for (size_t w = first / kWord; w <= last / kWord; ++w) {
        uint64_t fresh = ~covered_[w];
        if (w == first / kWord) fresh &= ~uint64_t{0} << (first % kWord);
        if (w == last / kWord) fresh &= ~uint64_t{0} >> (63 - last % kWord);
        covered_[w] |= fresh;
        for (; fresh != 0; fresh &= fresh - 1) {
          // Every post r in [lo, hi) that covers (q, a) loses this pair.
          const size_t i =
              w * kWord + static_cast<size_t>(std::countr_zero(fresh)) - base;
          const size_t lo = window_lo[i];
          const size_t hi = window_hi[i];
          --remaining_;
          if (lo_first == kNone) lo_first = lo;
          hi_last = hi;
          if (uniform_) {
            --delta[lo];
            ++delta[hi];
          } else {
            const DimValue vq = values[i];
            for (size_t r = lo; r < hi; ++r) {
              if (std::fabs(values[r] - vq) <= reaches[r]) --gain_[ids[r]];
            }
          }
        }
      }
      if (lo_first == kNone) return;
      if (uniform_) {
        // The pending range-adds all lie in [lo_first, hi_last]; one
        // prefix-sum walk applies them and leaves delta_ zero.
        int64_t sum = 0;
        for (size_t i = lo_first; i < hi_last; ++i) {
          sum += delta[i];
          delta[i] = 0;
          if (sum != 0) gain_[ids[i]] += sum;
        }
        delta[hi_last] = 0;
      }
      touched_lo = std::min<size_t>(touched_lo, ids[lo_first]);
      touched_hi = std::max<size_t>(touched_hi, ids[hi_last - 1] + size_t{1});
    });
    MQD_DCHECK(gain_[p] == 0);
    RebuildBlocks(touched_lo, touched_hi);
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  static constexpr size_t kWord = 64;

  /// A position inside one LP(a); window ends reach |LP(a)|, which is
  /// at most the post count.
  using Pos = uint32_t;
  static_assert(std::numeric_limits<Pos>::max() >=
                    std::numeric_limits<PostId>::max(),
                "window table positions must hold any LP(a) position");

  /// The first position in [at, |values|) where `before` fails, given
  /// that `before` holds on a prefix of values[at..]. Four values per
  /// step: the values are sorted, so the count of passing comparisons
  /// is the advance, and a count below four ends the search.
  template <typename Before>
  static size_t Advance(std::span<const DimValue> values, size_t at,
                        Before before) {
    const size_t n = values.size();
    while (at + 4 <= n) {
      const size_t step = size_t{before(values[at])} +
                          size_t{before(values[at + 1])} +
                          size_t{before(values[at + 2])} +
                          size_t{before(values[at + 3])};
      at += step;
      if (step < 4) return at;
    }
    while (at < n && before(values[at])) ++at;
    return at;
  }

  /// Posts in the block starting at PostId `base` (the last block may
  /// be short).
  size_t BlockSize(size_t base) const {
    return std::min(kBlock, inst_.num_posts() - base);
  }

  /// Recomputes block_max_ for every block meeting PostIds [lo, hi):
  /// the largest gain, floored at 0, without its position (Best()
  /// finds that). Four running maxima keep the loop free of branches
  /// and of one long dependency chain.
  void RebuildBlocks(size_t lo, size_t hi) {
    if (lo >= hi) return;
    for (size_t b = lo / kBlock; b <= (hi - 1) / kBlock; ++b) {
      const size_t base = b * kBlock;
      const size_t size = BlockSize(base);
      const int64_t* g = gain_.data() + base;
      int64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
      size_t j = 0;
      for (; j + 4 <= size; j += 4) {
        m0 = std::max(m0, g[j]);
        m1 = std::max(m1, g[j + 1]);
        m2 = std::max(m2, g[j + 2]);
        m3 = std::max(m3, g[j + 3]);
      }
      for (; j < size; ++j) m0 = std::max(m0, g[j]);
      block_max_[b] = std::max(std::max(m0, m1), std::max(m2, m3));
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
  // Bit label_offset(a) + i is set once (LP(a)[i], a) is covered.
  std::vector<uint64_t> covered_;
  std::vector<Pos> window_lo_;
  std::vector<Pos> window_hi_;
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
