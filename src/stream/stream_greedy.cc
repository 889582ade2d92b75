#include "stream/stream_greedy.h"

#include <algorithm>
#include <limits>
#include <span>

#include "core/kernels.h"
#include "util/logging.h"

namespace mqd {

namespace {
constexpr size_t kClean = std::numeric_limits<size_t>::max();
}  // namespace

StreamGreedyProcessor::StreamGreedyProcessor(const Instance& inst,
                                             const CoverageModel& model,
                                             double tau, bool stop_at_anchor,
                                             LabelMask mask)
    : StreamProcessor(inst, model, mask),
      tau_(tau),
      stop_at_anchor_(stop_at_anchor),
      uniform_(model.IsUniform()),
      emitted_per_label_(static_cast<size_t>(inst.num_labels())),
      by_label_(static_cast<size_t>(inst.num_labels())) {
  MQD_CHECK(tau >= 0.0) << "tau must be non-negative";
  for (LabelList& list : by_label_) {
    list.delta.assign(1, 0);  // always slots.size() + 1 entries
    list.dirty_lo = kClean;
    list.dirty_hi = 0;
  }
}

bool StreamGreedyProcessor::CoveredByEmitted(PostId post, LabelId a) const {
  // Identical probe to the reference's batch-time uncovered pass:
  // binary search the emitted list to the window start, then test
  // Covers until past the window end. Under a uniform lambda the
  // Covers test is inlined on the flat value array (same fabs-diff
  // arithmetic, same doubles — bit-identical outcome).
  const DimValue v = inst_.value(post);
  const DimValue max_reach = model_.MaxReach();
  const EmittedList& emitted = emitted_per_label_[a];
  auto first =
      std::lower_bound(emitted.values.begin(), emitted.values.end(),
                       v - max_reach);
  for (auto it = first;
       it != emitted.values.end() && *it <= v + max_reach; ++it) {
    if (uniform_) {
      if (std::fabs(*it - v) <= max_reach) return true;
    } else {
      const size_t i = static_cast<size_t>(it - emitted.values.begin());
      if (model_.Covers(inst_, emitted.posts[i], a, post)) return true;
    }
  }
  return false;
}

void StreamGreedyProcessor::RecordEmitted(PostId post) {
  const DimValue v = inst_.value(post);
  ForEachLabel(labels(post), [&](LabelId a) {
    EmittedList& emitted = emitted_per_label_[a];
    auto pos =
        std::upper_bound(emitted.values.begin(), emitted.values.end(), v);
    const auto off = pos - emitted.values.begin();
    emitted.values.insert(pos, v);
    emitted.posts.insert(emitted.posts.begin() + off, post);
  });
}

std::pair<size_t, size_t> StreamGreedyProcessor::SlotValueRange(
    LabelId a, DimValue vlo, DimValue vhi) const {
  const std::vector<DimValue>& values = by_label_[a].values;
  auto first = std::lower_bound(values.begin(), values.end(), vlo);
  auto last = std::upper_bound(first, values.end(), vhi);
  return {static_cast<size_t>(first - values.begin()),
          static_cast<size_t>(last - values.begin())};
}

void StreamGreedyProcessor::RangeAdd(LabelId a, size_t lo, size_t hi,
                                     int32_t amount) {
  if (lo >= hi) return;
  LabelList& list = by_label_[a];
  list.delta[lo] += amount;
  list.delta[hi] -= amount;
  if (list.dirty_lo == kClean) {
    dirty_labels_.push_back(a);
    list.dirty_lo = lo;
    list.dirty_hi = hi;
  } else {
    list.dirty_lo = std::min(list.dirty_lo, lo);
    list.dirty_hi = std::max(list.dirty_hi, hi);
  }
}

void StreamGreedyProcessor::MaterializePending() {
  for (LabelId a : dirty_labels_) {
    LabelList& list = by_label_[a];
    // One prefix-sum walk over the dirty delta window (zeroing it),
    // scattered through the ring-relative slot ids.
    int64_t run = 0;
    for (size_t i = list.dirty_lo; i < list.dirty_hi; ++i) {
      run += list.delta[i];
      list.delta[i] = 0;
      if (run != 0) slot_gains_[list.slots[i] - slot_base_] += run;
    }
    list.delta[list.dirty_hi] = 0;
    list.dirty_lo = kClean;
  }
  dirty_labels_.clear();
}

void StreamGreedyProcessor::AddPairGain(LabelId a, DimValue v) {
  const LabelList& list = by_label_[a];
  if (uniform_) {
    // Coverers of the new pair under the reference's batch-init rule:
    // z counts the pair iff v lies in [value(z) - lambda, value(z) +
    // lambda]. Both interval ends are monotone in value(z), so the
    // coverers form one contiguous run of the slot list.
    const auto [lo, hi] = CovererRun(list.values, v, model_.MaxReach());
    if (lo != hi) RangeAdd(a, lo, hi, +1);
    return;
  }
  // Variable lambda: reach is per-coverer, so the run is not
  // contiguous; test each candidate in the MaxReach window.
  const DimValue max_reach = model_.MaxReach();
  auto [lo, hi] = SlotValueRange(a, v - max_reach, v + max_reach);
  for (size_t i = lo; i < hi; ++i) {
    const size_t zi = list.slots[i] - slot_base_;
    const DimValue vz = list.values[i];
    const DimValue reach = model_.Reach(inst_, slot_posts_[zi], a);
    if (vz - reach <= v && v <= vz + reach) ++slot_gains_[zi];
  }
}

void StreamGreedyProcessor::AppendSlot(PostId post, LabelMask u) {
  const uint32_t s = slot_base_ + static_cast<uint32_t>(slot_posts_.size());
  slot_posts_.push_back(post);
  slot_uncovered_.push_back(0);
  slot_gains_.push_back(0);
  const DimValue v = inst_.value(post);
  ForEachLabel(labels(post), [&](LabelId a) {
    LabelList& list = by_label_[a];
    list.slots.push_back(s);
    list.values.push_back(v);
    list.uncov.push_back(0);
    list.delta.push_back(0);
  });
  // Initial gain: pairs already uncovered within this post's own
  // reach (the reference's batch-init rule, coverer side). The
  // post's own uncov entry is still zero here, so its new pairs are
  // not double counted — AddPairGain below credits them to every
  // coverer, this post included.
  int64_t g = 0;
  ForEachLabel(labels(post), [&](LabelId a) {
    const DimValue reach = model_.Reach(inst_, post, a);
    auto [lo, hi] = SlotValueRange(a, v - reach, v + reach);
    const std::vector<uint8_t>& uncov = by_label_[a].uncov;
    for (size_t i = lo; i < hi; ++i) g += uncov[i];
  });
  slot_gains_.back() = g;
  slot_uncovered_.back() = u;
  remaining_ += static_cast<size_t>(MaskCount(u));
  ForEachLabel(u, [&](LabelId a) {
    by_label_[a].uncov.back() = 1;
    AddPairGain(a, v);
  });
}

void StreamGreedyProcessor::OnArrival(PostId post) {
  // Probe once at arrival; batches never run between this post's
  // arrival and the next AdvanceTo, and in-batch emissions keep the
  // carried masks in sync, so the mask equals what the reference
  // recomputes at batch time.
  LabelMask u = 0;
  ForEachLabel(labels(post), [&](LabelId a) {
    if (!CoveredByEmitted(post, a)) u |= MaskOf(a);
  });
  if (anchor_ == kInvalidPost) {
    if (u == 0) return;  // fully covered and no window open: dropped
    anchor_ = post;
    anchor_slot_ = slot_base_ + static_cast<uint32_t>(slot_posts_.size());
  }
  AppendSlot(post, u);
}

void StreamGreedyProcessor::AdvanceTo(double now) {
  while (anchor_ != kInvalidPost && inst_.value(anchor_) + tau_ <= now) {
    RunBatch(inst_.value(anchor_) + tau_);
  }
}

void StreamGreedyProcessor::Finish() { AdvanceTo(kNeverDeadline); }

void StreamGreedyProcessor::SelectSlot(uint32_t s, double when) {
  const PostId z = slot_posts_[SlotIndex(s)];
  const DimValue v = inst_.value(z);
  const DimValue max_reach = model_.MaxReach();
  ForEachLabel(labels(z), [&](LabelId a) {
    const DimValue reach = model_.Reach(inst_, z, a);
    auto [first, last] = SlotValueRange(a, v - reach, v + reach);
    LabelList& list = by_label_[a];
    for (size_t i = first; i < last; ++i) {
      if (!list.uncov[i]) continue;
      list.uncov[i] = 0;
      const size_t qi = list.slots[i] - slot_base_;
      slot_uncovered_[qi] &= ~MaskOf(a);
      --remaining_;
      const DimValue vq = list.values[i];
      auto [rf, rl] = SlotValueRange(a, vq - max_reach, vq + max_reach);
      if (uniform_) {
        // The reference decrements candidates in [vq ± max_reach]
        // that pass Covers; under a uniform lambda the passing set is
        // the contiguous run with value(r) - vq in [-lambda, lambda]
        // inside the window.
        const auto [lo, hi] = CoverRun(
            std::span<const double>(list.values).subspan(rf, rl - rf), vq,
            max_reach);
        RangeAdd(a, rf + lo, rf + hi, -1);
      } else {
        for (size_t r = rf; r < rl; ++r) {
          const size_t ri = list.slots[r] - slot_base_;
          if (model_.Covers(inst_, slot_posts_[ri], a, slot_posts_[qi])) {
            --slot_gains_[ri];
          }
        }
      }
    }
  });
  MaterializePending();
  Emit(z, when);
  RecordEmitted(z);
}

void StreamGreedyProcessor::RunBatch(double when) {
  MQD_DCHECK(!slot_posts_.empty());
  // Fold arrivals' pending range-adds in before the first argmax.
  MaterializePending();

  // Greedy loop (linear argmax in window order, as in the paper's
  // implementation): the dense argmax kernel returns the first
  // maximum when it is positive — the reference tie-break.
  while (remaining_ > 0) {
    if (stop_at_anchor_ &&
        slot_uncovered_[SlotIndex(anchor_slot_)] == 0) {
      break;
    }
    const size_t at =
        kern::ArgmaxDense(slot_gains_.data(), slot_gains_.size());
    MQD_CHECK(at < slot_gains_.size()) << "window greedy stalled";
    SelectSlot(slot_base_ + static_cast<uint32_t>(at), when);
  }

  // Re-anchor: the + variant may stop inside the window; the base
  // variant has covered everything and waits for future arrivals.
  // Retained slots keep their masks and gains — the cross-batch
  // carry-over replacing the reference's full rebuild.
  anchor_ = kInvalidPost;
  size_t keep = slot_posts_.size();
  for (size_t i = 0; i < slot_posts_.size(); ++i) {
    if (slot_uncovered_[i] != 0) {
      anchor_ = slot_posts_[i];
      anchor_slot_ = slot_base_ + static_cast<uint32_t>(i);
      keep = i;
      break;
    }
  }
  ErasePrefix(keep);
}

void StreamGreedyProcessor::ErasePrefix(size_t keep) {
  if (keep == 0) return;
  MQD_DCHECK(dirty_labels_.empty());  // deltas must be materialized
  const uint32_t new_base = slot_base_ + static_cast<uint32_t>(keep);
  for (LabelList& list : by_label_) {
    auto cut =
        std::lower_bound(list.slots.begin(), list.slots.end(), new_base);
    const size_t k = static_cast<size_t>(cut - list.slots.begin());
    if (k == 0) continue;
    const auto off = static_cast<std::ptrdiff_t>(k);
    list.slots.erase(list.slots.begin(), cut);
    list.values.erase(list.values.begin(), list.values.begin() + off);
    list.uncov.erase(list.uncov.begin(), list.uncov.begin() + off);
    // The erased deltas are all zero, so the remaining array still
    // mirrors positions (and keeps its slots.size() + 1 length).
    list.delta.erase(list.delta.begin(), list.delta.begin() + off);
  }
  const auto off = static_cast<std::ptrdiff_t>(keep);
  slot_posts_.erase(slot_posts_.begin(), slot_posts_.begin() + off);
  slot_uncovered_.erase(slot_uncovered_.begin(),
                        slot_uncovered_.begin() + off);
  slot_gains_.erase(slot_gains_.begin(), slot_gains_.begin() + off);
  slot_base_ = new_base;
}

void StreamGreedyProcessor::SaveStreamState(SnapshotWriter* writer) const {
  writer->U8(stop_at_anchor_ ? 1 : 0);
  writer->U8(uniform_ ? 1 : 0);
  writer->U64(slot_base_);
  writer->U64(slot_posts_.size());
  for (size_t i = 0; i < slot_posts_.size(); ++i) {
    writer->U32(slot_posts_[i]);
    writer->U64(slot_uncovered_[i]);
  }
  writer->U32(anchor_);
  writer->U32(anchor_slot_);
}

Status StreamGreedyProcessor::RestoreStreamState(SnapshotReader* reader) {
  const bool stop_at_anchor = reader->U8() != 0;
  const bool uniform = reader->U8() != 0;
  const uint64_t slot_base = reader->U64();
  const uint64_t num_slots = reader->U64();
  if (reader->failed()) return reader->status();
  if (stop_at_anchor != stop_at_anchor_) {
    return Status::FailedPrecondition(
        "snapshot was taken by a different StreamGreedySC variant");
  }
  if (uniform != uniform_) {
    return Status::FailedPrecondition(
        "snapshot was taken under a different lambda model");
  }
  if (num_slots > inst_.num_posts() ||
      slot_base + num_slots > kInvalidPost) {
    return Status::InvalidArgument("snapshot slot ring out of range");
  }
  struct SavedSlot {
    PostId post;
    LabelMask uncovered;
  };
  std::vector<SavedSlot> ring;
  ring.reserve(num_slots);
  for (uint64_t i = 0; i < num_slots && !reader->failed(); ++i) {
    SavedSlot slot{reader->U32(), reader->U64()};
    ring.push_back(slot);
  }
  const PostId anchor = reader->U32();
  const uint32_t anchor_slot = reader->U32();
  MQD_RETURN_NOT_OK(reader->status());
  for (size_t i = 0; i < ring.size(); ++i) {
    if (ring[i].post >= inst_.num_posts()) {
      return Status::InvalidArgument("snapshot slot post out of range");
    }
    // Slot ids ascend with value; uncovered labels must be labels the
    // post actually carries; a buffered post with an empty residual
    // mask before the anchor would have been erased.
    if (i > 0 && ring[i].post <= ring[i - 1].post) {
      return Status::InvalidArgument("snapshot slot ring not ascending");
    }
    if ((ring[i].uncovered & ~labels(ring[i].post)) != 0) {
      return Status::InvalidArgument(
          "snapshot slot uncovered mask not a subset of its labels");
    }
  }
  if (anchor != kInvalidPost) {
    const uint64_t offset = static_cast<uint64_t>(anchor_slot) - slot_base;
    if (offset >= ring.size() || ring[offset].post != anchor) {
      return Status::InvalidArgument("snapshot anchor out of sync");
    }
    if (ring[offset].uncovered == 0) {
      return Status::InvalidArgument("snapshot anchor already covered");
    }
  } else if (num_slots != 0) {
    return Status::InvalidArgument(
        "snapshot carries a window without an anchor");
  }

  // Commit: rebuild every derived structure from the canonical state.
  // Emitted-coverage probes replay the restored emission log; slot
  // state replays AppendSlot in ring order, which reproduces the
  // carried gains exactly (each slot's gain counts the uncovered
  // buffered pairs it covers — AppendSlot counts the earlier slots'
  // pairs directly and AddPairGain credits later coverers).
  for (EmittedList& list : emitted_per_label_) {
    list.posts.clear();
    list.values.clear();
  }
  for (const Emission& e : emissions()) RecordEmitted(e.post);
  slot_posts_.clear();
  slot_uncovered_.clear();
  slot_gains_.clear();
  slot_base_ = static_cast<uint32_t>(slot_base);
  for (LabelList& list : by_label_) {
    list.slots.clear();
    list.values.clear();
    list.uncov.clear();
    list.delta.assign(1, 0);
    list.dirty_lo = kClean;
    list.dirty_hi = 0;
  }
  dirty_labels_.clear();
  remaining_ = 0;
  for (const SavedSlot& slot : ring) AppendSlot(slot.post, slot.uncovered);
  MaterializePending();
  anchor_ = anchor;
  anchor_slot_ = anchor_slot;
  return Status::OK();
}

}  // namespace mqd
