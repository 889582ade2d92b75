#include "oracle/stream_reference.h"

#include <algorithm>

#include "util/logging.h"

namespace mqd {

ReferenceProcessor::ReferenceProcessor(const Instance& inst,
                                       const CoverageModel& model)
    : StreamProcessor(inst, model), emitted_(inst.num_posts(), false) {}

void ReferenceProcessor::EmitOnce(PostId post, double when) {
  if (emitted_[post]) return;
  emitted_[post] = true;
  const size_t before = emissions().size();
  Emit(post, when);
  MQD_CHECK(emissions().size() == before + 1)
      << "Emit dropped post " << post << ", which was never emitted";
}

// ---------------------------------------------------------------------------
// StreamScanReferenceProcessor — the pre-heap implementation, verbatim.
// ---------------------------------------------------------------------------

StreamScanReferenceProcessor::StreamScanReferenceProcessor(
    const Instance& inst, const CoverageModel& model, double tau,
    bool cross_label_pruning)
    : ReferenceProcessor(inst, model),
      tau_(tau),
      cross_label_pruning_(cross_label_pruning),
      labels_(static_cast<size_t>(inst.num_labels())) {
  MQD_CHECK(tau >= 0.0) << "tau must be non-negative";
}

double StreamScanReferenceProcessor::Deadline(const LabelState& state) const {
  if (state.uncovered.empty()) return kNeverDeadline;
  const double t_lu = inst_.value(state.uncovered.back());
  const double t_ou = inst_.value(state.uncovered.front());
  return std::min(t_lu + tau_, t_ou + model_.MaxReach());
}

void StreamScanReferenceProcessor::AdvanceTo(double now) {
  // Fire all deadlines <= now in time order (firing one may change
  // others under cross-label pruning).
  while (true) {
    LabelId best = 0;
    double best_deadline = kNeverDeadline;
    const LabelId num_labels = static_cast<LabelId>(labels_.size());
    for (LabelId a = 0; a < num_labels; ++a) {
      const double d = Deadline(labels_[a]);
      if (d < best_deadline) {
        best_deadline = d;
        best = a;
      }
    }
    if (best_deadline == kNeverDeadline || best_deadline > now) break;
    Fire(best, best_deadline);
  }
}

void StreamScanReferenceProcessor::Fire(LabelId a, double when) {
  LabelState& state = labels_[a];
  MQD_DCHECK(!state.uncovered.empty());
  const PostId lu = state.uncovered.back();
  EmitOnce(lu, when);
  state.lc = lu;
  state.uncovered.clear();

  if (!cross_label_pruning_) return;
  // StreamScan+: the emitted post also covers pending posts of its
  // other labels.
  ForEachLabel(inst_.labels(lu), [&](LabelId b) {
    if (b == a) return;
    LabelState& other = labels_[b];
    if (other.lc == kInvalidPost ||
        inst_.value(lu) > inst_.value(other.lc)) {
      other.lc = lu;
    }
    auto covered = [&](PostId q) { return model_.Covers(inst_, lu, b, q); };
    other.uncovered.erase(std::remove_if(other.uncovered.begin(),
                                         other.uncovered.end(), covered),
                          other.uncovered.end());
  });
}

void StreamScanReferenceProcessor::OnArrival(PostId post) {
  ForEachLabel(inst_.labels(post), [&](LabelId a) {
    LabelState& state = labels_[a];
    if (state.lc != kInvalidPost &&
        model_.Covers(inst_, state.lc, a, post)) {
      return;  // already covered by the latest outputted relevant post
    }
    state.uncovered.push_back(post);
  });
}

void StreamScanReferenceProcessor::Finish() { AdvanceTo(kNeverDeadline); }

// ---------------------------------------------------------------------------
// StreamGreedyReferenceProcessor — the rebuild-every-batch
// implementation, verbatim.
// ---------------------------------------------------------------------------

StreamGreedyReferenceProcessor::StreamGreedyReferenceProcessor(
    const Instance& inst, const CoverageModel& model, double tau,
    bool stop_at_anchor)
    : ReferenceProcessor(inst, model),
      tau_(tau),
      stop_at_anchor_(stop_at_anchor),
      emitted_per_label_(static_cast<size_t>(inst.num_labels())) {
  MQD_CHECK(tau >= 0.0) << "tau must be non-negative";
}

bool StreamGreedyReferenceProcessor::IsCoveredByEmitted(PostId post) const {
  const DimValue v = inst_.value(post);
  const DimValue max_reach = model_.MaxReach();
  bool covered = true;
  ForEachLabel(inst_.labels(post), [&](LabelId a) {
    if (!covered) return;
    const std::vector<PostId>& emitted = emitted_per_label_[a];
    auto first = std::lower_bound(
        emitted.begin(), emitted.end(), v - max_reach,
        [this](PostId id, DimValue x) { return inst_.value(id) < x; });
    bool found = false;
    for (auto it = first;
         it != emitted.end() && inst_.value(*it) <= v + max_reach; ++it) {
      if (model_.Covers(inst_, *it, a, post)) {
        found = true;
        break;
      }
    }
    covered = found;
  });
  return covered;
}

void StreamGreedyReferenceProcessor::RecordEmitted(PostId post) {
  ForEachLabel(inst_.labels(post), [&](LabelId a) {
    std::vector<PostId>& emitted = emitted_per_label_[a];
    auto pos = std::upper_bound(
        emitted.begin(), emitted.end(), inst_.value(post),
        [this](DimValue x, PostId id) { return x < inst_.value(id); });
    emitted.insert(pos, post);
  });
}

void StreamGreedyReferenceProcessor::OnArrival(PostId post) {
  if (anchor_ == kInvalidPost) {
    if (IsCoveredByEmitted(post)) return;
    anchor_ = post;
  }
  buffer_.push_back(post);
}

void StreamGreedyReferenceProcessor::AdvanceTo(double now) {
  while (anchor_ != kInvalidPost && inst_.value(anchor_) + tau_ <= now) {
    RunBatch(inst_.value(anchor_) + tau_);
  }
}

void StreamGreedyReferenceProcessor::Finish() { AdvanceTo(kNeverDeadline); }

void StreamGreedyReferenceProcessor::RunBatch(double when) {
  // The window Z: buffered posts, all in [time(anchor), when] by
  // construction (arrivals are time-ordered and batches fire before
  // later arrivals are delivered), ascending by value.
  const std::vector<PostId> window(buffer_.begin(), buffer_.end());
  const size_t n = window.size();
  MQD_DCHECK(n > 0);

  // Residual uncovered labels per window post, and per-label lists of
  // window positions for range scans.
  std::vector<LabelMask> uncovered(n, 0);
  std::vector<std::vector<uint32_t>> by_label(
      static_cast<size_t>(inst_.num_labels()));
  size_t remaining = 0;
  size_t anchor_idx = 0;
  for (size_t i = 0; i < n; ++i) {
    const PostId p = window[i];
    if (p == anchor_) anchor_idx = i;
    ForEachLabel(inst_.labels(p), [&](LabelId a) {
      by_label[a].push_back(static_cast<uint32_t>(i));
      // Pairs already covered by prior emissions are passed over.
      const std::vector<PostId>& emitted = emitted_per_label_[a];
      const DimValue v = inst_.value(p);
      const DimValue max_reach = model_.MaxReach();
      auto first = std::lower_bound(
          emitted.begin(), emitted.end(), v - max_reach,
          [this](PostId id, DimValue x) { return inst_.value(id) < x; });
      bool covered = false;
      for (auto it = first;
           it != emitted.end() && inst_.value(*it) <= v + max_reach; ++it) {
        if (model_.Covers(inst_, *it, a, p)) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        uncovered[i] |= MaskOf(a);
        ++remaining;
      }
    });
  }

  // Window-position range [lo, hi) of label-a posts within [vlo, vhi].
  auto label_range = [&](LabelId a, DimValue vlo, DimValue vhi) {
    const std::vector<uint32_t>& list = by_label[a];
    auto first = std::lower_bound(
        list.begin(), list.end(), vlo,
        [&](uint32_t i, DimValue x) { return inst_.value(window[i]) < x; });
    auto last = std::upper_bound(
        first, list.end(), vhi, [&](DimValue x, uint32_t i) {
          return x < inst_.value(window[i]);
        });
    return std::pair(first, last);
  };

  // Initial gains (number of still-uncovered window pairs each window
  // post would cover).
  std::vector<int64_t> gain(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const PostId z = window[i];
    const DimValue v = inst_.value(z);
    ForEachLabel(inst_.labels(z), [&](LabelId a) {
      const DimValue reach = model_.Reach(inst_, z, a);
      auto [first, last] = label_range(a, v - reach, v + reach);
      for (auto it = first; it != last; ++it) {
        if (MaskHas(uncovered[*it], a)) ++gain[i];
      }
    });
  }

  const DimValue max_reach = model_.MaxReach();
  auto select = [&](size_t i) {
    const PostId z = window[i];
    const DimValue v = inst_.value(z);
    ForEachLabel(inst_.labels(z), [&](LabelId a) {
      const DimValue reach = model_.Reach(inst_, z, a);
      auto [first, last] = label_range(a, v - reach, v + reach);
      for (auto it = first; it != last; ++it) {
        const uint32_t q = *it;
        if (!MaskHas(uncovered[q], a)) continue;
        uncovered[q] &= ~MaskOf(a);
        --remaining;
        const DimValue vq = inst_.value(window[q]);
        auto [rf, rl] = label_range(a, vq - max_reach, vq + max_reach);
        for (auto rit = rf; rit != rl; ++rit) {
          if (model_.Covers(inst_, window[*rit], a, window[q])) {
            --gain[*rit];
          }
        }
      }
    });
    EmitOnce(z, when);
    RecordEmitted(z);
  };

  // Greedy loop (linear argmax, as in the paper's implementation).
  while (remaining > 0) {
    if (stop_at_anchor_ && uncovered[anchor_idx] == 0) break;
    size_t best = n;
    int64_t best_gain = 0;
    for (size_t i = 0; i < n; ++i) {
      if (gain[i] > best_gain) {
        best_gain = gain[i];
        best = i;
      }
    }
    MQD_CHECK(best < n) << "window greedy stalled";
    select(best);
  }

  // Re-anchor: the + variant may stop inside the window; the base
  // variant has covered everything and waits for future arrivals.
  anchor_ = kInvalidPost;
  size_t keep_from = n;
  for (size_t i = 0; i < n; ++i) {
    if (uncovered[i] != 0) {
      anchor_ = window[i];
      keep_from = i;
      break;
    }
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(keep_from));
}

}  // namespace mqd
