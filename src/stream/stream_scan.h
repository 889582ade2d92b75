#ifndef MQD_STREAM_STREAM_SCAN_H_
#define MQD_STREAM_STREAM_SCAN_H_

#include <cstdint>
#include <queue>
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
/// Hot-path layout (DESIGN.md §11): label deadlines live in a
/// lazy-invalidation min-heap keyed by (deadline, label), so each
/// arrival costs O(s log |L|) heap maintenance instead of the
/// reference implementation's O(|L|) full rescan, and an AdvanceTo
/// that fires nothing is a single heap peek. Arrivals are value-
/// ordered, so each label's `uncovered` list stays sorted; the Scan+
/// cross-label prune therefore erases one contiguous run found by two
/// binary searches instead of a linear remove_if. Both changes are
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
  void Finish() override;
  double tau() const override { return tau_; }

  /// One per-label deadline firing: label `label` reported `post` at
  /// simulated time `time`. Unlike the emission log — which dedupes a
  /// post across labels — the fire log keeps every (label, post)
  /// event, in exactly the (deadline, label) order the heap fired
  /// them. The multi-tenant fan-out engine's shared tier
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

  /// Checkpointing (stream/checkpoint.h): the canonical per-label
  /// state is (uncovered list, lc); the deadline heap and its lazy
  /// version/pushed bookkeeping are derived, so restore rebuilds them
  /// with one Reindex per label.
  void SaveStreamState(SnapshotWriter* writer) const override;
  Status RestoreStreamState(SnapshotReader* reader) override;

 private:
  struct LabelState {
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
    /// Lazy-invalidation bookkeeping: `version` stamps the newest
    /// heap entry for this label; older entries are discarded on pop.
    /// `pushed` is the deadline carried by that entry (kNeverDeadline
    /// when no live entry exists), so an unchanged deadline never
    /// re-pushes.
    uint32_t version = 0;
    double pushed = kNeverDeadline;
  };

  struct HeapEntry {
    double deadline;
    LabelId label;
    uint32_t version;
  };
  /// Min-heap by (deadline, label): equal deadlines pop the lowest
  /// label id, matching the reference implementation's first-minimum
  /// scan order.
  struct EntryAfter {
    bool operator()(const HeapEntry& x, const HeapEntry& y) const {
      if (x.deadline != y.deadline) return x.deadline > y.deadline;
      return x.label > y.label;
    }
  };

  double Deadline(const LabelState& state) const;
  /// Re-syncs label a's heap entry with its current deadline: no-op
  /// when unchanged, otherwise invalidates the old entry (version
  /// bump) and pushes the new deadline if finite.
  void Reindex(LabelId a);
  /// Emits the P_lu of label `a` at time `when` and applies the
  /// per-label (and, for +, cross-label) state updates.
  void Fire(LabelId a, double when);

  double tau_;
  bool cross_label_pruning_;
  std::vector<LabelState> labels_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, EntryAfter> heap_;
  bool fire_log_enabled_ = false;
  std::vector<LabelFire> fire_log_;
};

}  // namespace mqd

#endif  // MQD_STREAM_STREAM_SCAN_H_
