#include "stream/stream_scan.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace mqd {

StreamScanProcessor::StreamScanProcessor(const Instance& inst,
                                         const CoverageModel& model,
                                         double tau,
                                         bool cross_label_pruning,
                                         LabelMask mask)
    : StreamProcessor(inst, model, mask),
      tau_(tau),
      max_reach_(model.MaxReach()),
      cross_label_pruning_(cross_label_pruning) {
  MQD_CHECK(tau >= 0.0) << "tau must be non-negative";
  for (LabelId a = 0; a < static_cast<LabelId>(inst.num_labels()); ++a) {
    if (!MaskHas(mask, a)) continue;
    slot_[a] = static_cast<uint8_t>(label_of_.size());
    label_of_.push_back(a);
  }
  states_.resize(label_of_.size());
  size_t leaves = 1;
  while (leaves < label_of_.size()) leaves *= 2;
  deadlines_.assign(leaves, kNeverDeadline);
  for (size_t i = 0; i < leaves; ++i) {
    tree_[leaves + i] = static_cast<uint8_t>(i);
  }
  // All deadlines are equal, so every internal node holds its
  // subtree's lowest slot.
  for (size_t k = leaves - 1; k >= 1; --k) {
    tree_[k] = Winner(tree_[2 * k], tree_[2 * k + 1]);
  }
}

double StreamScanProcessor::Deadline(const LabelState& state) const {
  if (state.uncovered.empty()) return kNeverDeadline;
  const double t_lu = state.values.back();
  const double t_ou = state.values.front();
  return std::min(t_lu + tau_, t_ou + max_reach_);
}

void StreamScanProcessor::Reindex(uint8_t s) {
  const double d = Deadline(states_[s]);
  if (d == deadlines_[s]) return;
  deadlines_[s] = d;
  for (size_t k = (deadlines_.size() + s) / 2; k >= 1; k /= 2) {
    tree_[k] = Winner(tree_[2 * k], tree_[2 * k + 1]);
  }
}

void StreamScanProcessor::AdvanceTo(double now) {
  // Fire all deadlines <= now in (deadline, label) order; firing one
  // may change others under cross-label pruning, which Reindex folds
  // into the tree before the root is read again. An idle slot's
  // deadline is kNeverDeadline, which Finish's `now` also equals.
  for (;;) {
    const uint8_t s = tree_[1];
    const double d = deadlines_[s];
    if (d > now || d == kNeverDeadline) break;
    Fire(s, d);
  }
}

void StreamScanProcessor::Fire(uint8_t s, double when) {
  LabelState& state = states_[s];
  MQD_DCHECK(!state.uncovered.empty());
  const LabelId a = label_of_[s];
  const PostId lu = state.uncovered.back();
  if (fire_log_enabled_) fire_log_.push_back(LabelFire{when, a, lu});
  Emit(lu, when);
  SetCoverer(state, lu, a);
  state.uncovered.clear();
  state.values.clear();
  Reindex(s);

  if (!cross_label_pruning_) return;
  // StreamScan+: the emitted post also covers pending posts of its
  // other labels. Covered(q) <=> |value(lu) - value(q)| <= Reach(lu,
  // b); IEEE subtraction is monotone over the value-sorted list, so
  // the covered posts form one contiguous run — CoverRun over the
  // flat value mirror, erasing the same set the reference's linear
  // remove_if drops, element for element.
  // (Reach is the emitted post's, constant across the probe, so this
  // holds for variable models too.)
  const DimValue v_lu = state.lc_value;
  ForEachLabel(labels(lu), [&](LabelId b) {
    if (b == a) return;
    const uint8_t t = slot_[b];
    LabelState& other = states_[t];
    if (other.lc == kInvalidPost || v_lu > other.lc_value) {
      SetCoverer(other, lu, b);
    }
    if (other.uncovered.empty()) return;
    const DimValue reach = model_.Reach(inst_, lu, b);
    const auto [lo, hi] = CoverRun(other.values, v_lu, reach);
    if (lo != hi) {
      const auto first = static_cast<std::ptrdiff_t>(lo);
      const auto last = static_cast<std::ptrdiff_t>(hi);
      other.uncovered.erase(other.uncovered.begin() + first,
                            other.uncovered.begin() + last);
      other.values.erase(other.values.begin() + first,
                         other.values.begin() + last);
      Reindex(t);
    }
  });
}

void StreamScanProcessor::Arrive(PostId post) {
  const DimValue v = inst_.value(post);
  ForEachLabel(labels(post), [&](LabelId a) {
    const uint8_t s = slot_[a];
    LabelState& state = states_[s];
    // CoverageModel::Covers(inst_, state.lc, a, post), on the cache.
    if (std::fabs(state.lc_value - v) <= state.lc_reach) {
      return;  // already covered by the latest outputted relevant post
    }
    state.uncovered.push_back(post);
    state.values.push_back(v);
    Reindex(s);
  });
}

void StreamScanProcessor::OnArrival(PostId post) { Arrive(post); }

void StreamScanProcessor::Deliver(std::span<const PostId> posts) {
  for (PostId p : posts) {
    AdvanceTo(inst_.value(p));
    Arrive(p);
  }
}

void StreamScanProcessor::Finish() { AdvanceTo(kNeverDeadline); }

void StreamScanProcessor::SaveStreamState(SnapshotWriter* writer) const {
  writer->U8(cross_label_pruning_ ? 1 : 0);
  writer->U64(states_.size());
  for (const LabelState& state : states_) {
    writer->U32(state.lc);
    writer->U64(state.uncovered.size());
    for (PostId p : state.uncovered) writer->U32(p);
  }
}

Status StreamScanProcessor::RestoreStreamState(SnapshotReader* reader) {
  const bool cross = reader->U8() != 0;
  const uint64_t num_slots = reader->U64();
  if (reader->failed()) return reader->status();
  if (cross != cross_label_pruning_ || num_slots != states_.size()) {
    return Status::FailedPrecondition(
        "snapshot was taken by a different StreamScan variant");
  }
  std::vector<LabelState> restored(states_.size());
  for (size_t s = 0; s < restored.size(); ++s) {
    LabelState& state = restored[s];
    const LabelId a = label_of_[s];
    state.lc = reader->U32();
    const uint64_t count = reader->U64();
    if (reader->failed()) return reader->status();
    if (count > inst_.num_posts()) {
      return Status::InvalidArgument("snapshot uncovered list too long");
    }
    state.uncovered.reserve(count);
    for (uint64_t i = 0; i < count && !reader->failed(); ++i) {
      state.uncovered.push_back(reader->U32());
    }
    if (state.lc != kInvalidPost && state.lc >= inst_.num_posts()) {
      return Status::InvalidArgument("snapshot lc out of range");
    }
    // Coverage radii are looked up per (post, label), and only labels
    // the post carries have one: lc and every uncovered post of label
    // a must carry a.
    if (state.lc != kInvalidPost && !MaskHas(labels(state.lc), a)) {
      return Status::InvalidArgument(
          StrFormat("snapshot lc of label %u lacks that label", a));
    }
    for (size_t i = 0; i < state.uncovered.size(); ++i) {
      if (state.uncovered[i] >= inst_.num_posts()) {
        return Status::InvalidArgument(
            "snapshot uncovered post out of range");
      }
      if (!MaskHas(labels(state.uncovered[i]), a)) {
        return Status::InvalidArgument(StrFormat(
            "snapshot uncovered post of label %u lacks that label", a));
      }
      // The list must stay ascending by value (front = P_ou, back =
      // P_lu); posts are value-sorted, so ascending ids suffice.
      if (i > 0 && state.uncovered[i] <= state.uncovered[i - 1]) {
        return Status::InvalidArgument(
            "snapshot uncovered list not ascending");
      }
    }
  }
  MQD_RETURN_NOT_OK(reader->status());

  // Commit: install the canonical state, then re-sync every slot's
  // deadline. The (deadline, label) fire order depends only on the
  // uncovered lists, so this reproduces an uninterrupted run.
  states_ = std::move(restored);
  for (size_t s = 0; s < states_.size(); ++s) {
    LabelState& state = states_[s];
    if (state.lc != kInvalidPost) SetCoverer(state, state.lc, label_of_[s]);
    state.values.clear();
    state.values.reserve(state.uncovered.size());
    for (PostId p : state.uncovered) state.values.push_back(inst_.value(p));
    Reindex(static_cast<uint8_t>(s));
  }
  return Status::OK();
}

}  // namespace mqd
