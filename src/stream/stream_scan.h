#ifndef MQD_STREAM_STREAM_SCAN_H_
#define MQD_STREAM_STREAM_SCAN_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "stream/checkpoint.h"
#include "stream/stream_solver.h"

namespace mqd {

/// StreamScan / StreamScan+ (Section 5.1, delayed output).
///
/// Per label a the processor tracks the oldest and latest uncovered
/// relevant posts P_ou(a), P_lu(a) and the latest outputted relevant
/// post P_lc(a), and emits P_lu(a) at time
///     min(time(P_lu(a)) + tau, time(P_ou(a)) + lambda),
/// which keeps every reporting delay within tau while covering every
/// uncovered post accumulated since P_ou(a).
///
/// With cross_label_pruning (StreamScan+), emitting a post updates the
/// state of *every* label it carries: pending uncovered posts that the
/// emission covers are dropped, often cancelling or postponing other
/// labels' deadlines.
///
/// Hot-path layout (DESIGN.md §11): the state is sized by the mask,
/// as in the paper, where P_ou, P_lu and P_lc exist per label of the
/// query set L. Each served label owns one slot, in label order;
/// `slot_` maps a label id to its slot. `deadlines_[slot]` holds the
/// slot's deadline, and a winner (tournament) tree over the slots
/// keeps the earliest (deadline, slot) at `tree_[1]`. Slot order is
/// label order, so equal deadlines fire the lowest label first — the
/// reference implementation's first-minimum scan order. A deadline
/// change re-plays one leaf-to-root path (O(log |mask|)), and an
/// AdvanceTo that fires nothing reads the root once. Each slot caches
/// P_lc's value and reach, so an arrival's covered test reads only the
/// slot, and Deliver runs a word of arrivals per virtual call. Arrivals
/// are value-ordered, so each label's `uncovered` list stays sorted; the
/// Scan+ cross-label prune therefore erases one contiguous run found
/// by two binary searches instead of a linear remove_if. The output is
/// emission-sequence-identical to StreamScanReferenceProcessor
/// (tests/oracle/stream_reference.h), which the differential tests
/// enforce.
///
/// Approximation: s for tau >= lambda (identical output to Scan), 2s
/// for 0 <= tau < lambda (Section 5.1).
class StreamScanProcessor final : public StreamProcessor,
                                  public CheckpointableStream {
 public:
  StreamScanProcessor(const Instance& inst, const CoverageModel& model,
                      double tau, bool cross_label_pruning = false,
                      LabelMask mask = kAllLabels);

  std::string_view name() const override {
    return cross_label_pruning_ ? "StreamScan+" : "StreamScan";
  }
  void AdvanceTo(double now) override;
  void OnArrival(PostId post) override;
  /// The base pair per post, both bound statically and inlined.
  void Deliver(std::span<const PostId> posts) override;
  void Finish() override;
  double tau() const override { return tau_; }

  /// One per-label deadline firing: label `label` reported `post` at
  /// simulated time `time`. Unlike the emission log — which dedupes a
  /// post across labels — the fire log keeps every (label, post)
  /// event, in exactly the (deadline, label) order they fired. The
  /// multi-tenant fan-out engine's shared tier
  /// (stream/multi_tenant.h) derives each of its tenants' emission
  /// sequences from this log: it indexes the log by label (ascending
  /// positions per label), merges the tenant's labels' position lists
  /// back into log order, and keeps each post's first occurrence.
  struct LabelFire {
    double time;
    LabelId label;
    PostId post;
    bool operator==(const LabelFire&) const = default;
  };

  /// Turns on fire-log recording (off by default: single-tenant
  /// replays never read it, so they don't pay the append). Call
  /// before the first arrival.
  void EnableFireLog() { fire_log_enabled_ = true; }
  const std::vector<LabelFire>& fire_log() const { return fire_log_; }

  /// Checkpointing (stream/checkpoint.h): the canonical state is the
  /// slot count followed by each slot's (lc, uncovered list), in slot
  /// order. An unmasked processor has one slot per instance label, so
  /// its bytes are the per-label layout; a masked one writes only its
  /// mask's labels. Deadlines and the winner tree are derived, so
  /// restore recomputes them.
  void SaveStreamState(SnapshotWriter* writer) const override;
  Status RestoreStreamState(SnapshotReader* reader) override;

 private:
  struct LabelState {
    /// P_lc's value and its Reach for this label, cached whenever lc
    /// changes so the arrival test needs neither the post table nor a
    /// virtual Reach. While lc is kInvalidPost, lc_reach = -inf makes
    /// the test fail for every post.
    DimValue lc_value = 0.0;
    DimValue lc_reach = -std::numeric_limits<DimValue>::infinity();
    /// Uncovered relevant posts since the last emission, ascending by
    /// value; front = P_ou, back = P_lu. Kept sorted by construction
    /// (arrivals are value-ordered), so the Scan+ prune can erase the
    /// covered run via partition points. `values` mirrors the posts'
    /// dimension values flat, so deadline reads and the prune's
    /// membership run (CoverRun, stream/stream_solver.h) skip the
    /// post-table indirection.
    std::vector<PostId> uncovered;
    std::vector<DimValue> values;
    PostId lc = kInvalidPost;
  };

  double Deadline(const LabelState& state) const;
  /// OnArrival's body. Forced inline so that Deliver's loop holds the
  /// arrival test and the clock advance in one body (measured on
  /// posts_fanout); the compiler otherwise keeps it out of line.
  [[gnu::always_inline]] inline void Arrive(PostId post);
  /// The winner of two tree nodes' slots, `x` from the left subtree:
  /// the earlier deadline, and on a tie the left (lower) slot.
  uint8_t Winner(uint8_t x, uint8_t y) const {
    return deadlines_[x] <= deadlines_[y] ? x : y;
  }
  /// Re-syncs slot s's deadline: no-op when unchanged, otherwise
  /// stores it and re-plays the leaf-to-root path of the winner tree.
  void Reindex(uint8_t s);
  /// Makes `post` the lc of `state`, label `a`'s slot, with its cache.
  void SetCoverer(LabelState& state, PostId post, LabelId a) const {
    state.lc = post;
    state.lc_value = inst_.value(post);
    state.lc_reach = model_.Reach(inst_, post, a);
  }
  /// Emits the P_lu of slot `s` at time `when` and applies the
  /// per-label (and, for +, cross-label) state updates.
  void Fire(uint8_t s, double when);

  // Members a delivery touches come first, so they share cache lines.
  double tau_;
  double max_reach_;  // model_.MaxReach(), read once per deadline
  std::vector<LabelState> states_;  // per slot
  /// Per leaf; leaves past the last slot stay kNeverDeadline.
  std::vector<double> deadlines_;
  /// Winner tree over a power-of-two leaf count P = deadlines_.size():
  /// tree_[P + i] = i, and tree_[k] = Winner(tree_[2k], tree_[2k + 1])
  /// for 1 <= k < P. Inline, so a delivery reads no extra heap block.
  uint8_t tree_[2 * kMaxLabels] = {};
  /// slot_[a] is label a's slot; read only for served labels.
  uint8_t slot_[kMaxLabels] = {};
  bool cross_label_pruning_;
  bool fire_log_enabled_ = false;
  std::vector<LabelId> label_of_;  // slot -> label, ascending
  std::vector<LabelFire> fire_log_;
};

}  // namespace mqd

#endif  // MQD_STREAM_STREAM_SCAN_H_
