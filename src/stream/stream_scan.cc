#include "stream/stream_scan.h"

#include <algorithm>

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
      cross_label_pruning_(cross_label_pruning),
      labels_(static_cast<size_t>(inst.num_labels())) {
  MQD_CHECK(tau >= 0.0) << "tau must be non-negative";
}

double StreamScanProcessor::Deadline(const LabelState& state) const {
  if (state.uncovered.empty()) return kNeverDeadline;
  const double t_lu = state.values.back();
  const double t_ou = state.values.front();
  return std::min(t_lu + tau_, t_ou + model_.MaxReach());
}

void StreamScanProcessor::Reindex(LabelId a) {
  LabelState& state = labels_[a];
  const double d = Deadline(state);
  if (d == state.pushed) return;  // live entry already carries d
  ++state.version;  // invalidates every older entry for this label
  state.pushed = d;
  if (d != kNeverDeadline) {
    heap_.push(HeapEntry{d, a, state.version});
  }
}

void StreamScanProcessor::AdvanceTo(double now) {
  // Fire all deadlines <= now in (deadline, label) order; firing one
  // may change others under cross-label pruning, which Reindex folds
  // into the heap before the next pop.
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    LabelState& state = labels_[top.label];
    if (top.version != state.version) {
      heap_.pop();  // stale: superseded by a newer entry
      continue;
    }
    if (top.deadline > now) break;
    heap_.pop();
    // The live entry is consumed; Fire clears the label, and any
    // later Reindex must push afresh even if it lands on the same
    // deadline value again.
    state.pushed = kNeverDeadline;
    Fire(top.label, top.deadline);
  }
}

void StreamScanProcessor::Fire(LabelId a, double when) {
  LabelState& state = labels_[a];
  MQD_DCHECK(!state.uncovered.empty());
  const PostId lu = state.uncovered.back();
  if (fire_log_enabled_) fire_log_.push_back(LabelFire{when, a, lu});
  Emit(lu, when);
  state.lc = lu;
  state.uncovered.clear();
  state.values.clear();
  Reindex(a);

  if (!cross_label_pruning_) return;
  // StreamScan+: the emitted post also covers pending posts of its
  // other labels. Covered(q) <=> |value(lu) - value(q)| <= Reach(lu,
  // b); IEEE subtraction is monotone over the value-sorted list, so
  // the covered posts form one contiguous run — CoverRun over the
  // flat value mirror, erasing the same set the reference's linear
  // remove_if drops, element for element.
  // (Reach is the emitted post's, constant across the probe, so this
  // holds for variable models too.)
  const DimValue v_lu = inst_.value(lu);
  ForEachLabel(labels(lu), [&](LabelId b) {
    if (b == a) return;
    LabelState& other = labels_[b];
    if (other.lc == kInvalidPost ||
        v_lu > inst_.value(other.lc)) {
      other.lc = lu;
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
      Reindex(b);
    }
  });
}

void StreamScanProcessor::OnArrival(PostId post) {
  ForEachLabel(labels(post), [&](LabelId a) {
    LabelState& state = labels_[a];
    if (state.lc != kInvalidPost &&
        model_.Covers(inst_, state.lc, a, post)) {
      return;  // already covered by the latest outputted relevant post
    }
    state.uncovered.push_back(post);
    state.values.push_back(inst_.value(post));
    Reindex(a);
  });
}

void StreamScanProcessor::Finish() { AdvanceTo(kNeverDeadline); }

void StreamScanProcessor::SaveStreamState(SnapshotWriter* writer) const {
  writer->U8(cross_label_pruning_ ? 1 : 0);
  writer->U64(labels_.size());
  for (const LabelState& state : labels_) {
    writer->U32(state.lc);
    writer->U64(state.uncovered.size());
    for (PostId p : state.uncovered) writer->U32(p);
  }
}

Status StreamScanProcessor::RestoreStreamState(SnapshotReader* reader) {
  const bool cross = reader->U8() != 0;
  const uint64_t num_labels = reader->U64();
  if (reader->failed()) return reader->status();
  if (cross != cross_label_pruning_ || num_labels != labels_.size()) {
    return Status::FailedPrecondition(
        "snapshot was taken by a different StreamScan variant");
  }
  std::vector<LabelState> restored(labels_.size());
  for (LabelId a = 0; a < restored.size(); ++a) {
    LabelState& state = restored[a];
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

  // Commit: install the canonical state, then rebuild the deadline
  // heap from scratch. Reindexing every label reproduces exactly the
  // live entries an uninterrupted run would carry — the (deadline,
  // label) fire order depends only on the uncovered lists.
  labels_ = std::move(restored);
  heap_ = {};
  for (LabelState& state : labels_) {
    state.version = 0;
    state.pushed = kNeverDeadline;
    state.values.clear();
    state.values.reserve(state.uncovered.size());
    for (PostId p : state.uncovered) state.values.push_back(inst_.value(p));
  }
  for (LabelId a = 0; a < labels_.size(); ++a) Reindex(a);
  return Status::OK();
}

}  // namespace mqd
