#ifndef MQD_STREAM_STREAM_GREEDY_H_
#define MQD_STREAM_STREAM_GREEDY_H_

#include <cstdint>
#include <vector>

#include "stream/checkpoint.h"
#include "stream/stream_solver.h"

namespace mqd {

/// StreamGreedySC / StreamGreedySC+ (Section 5.2, delayed output).
///
/// Let P' be the oldest post not yet fully covered by emitted posts.
/// At time time(P') + tau the processor takes the window Z of posts
/// with timestamps in [time(P'), time(P') + tau] and runs GreedySC on
/// Z's uncovered (post, label) pairs, emitting the picked posts (each
/// within its tau budget, since every post in Z is younger than P').
///
/// The base variant greedily picks until *all* of Z is covered; the +
/// variant stops as soon as P' itself is covered and immediately
/// re-anchors on the next uncovered post (possibly inside Z).
///
/// Hot-path layout (DESIGN.md §11, §15): window state is *carried*
/// across consecutive batches instead of rebuilt from the retained
/// buffer suffix. Buffered posts live in a structure-of-arrays slot
/// ring (monotone slot ids, parallel post/mask/gain arrays) so the
/// batch argmax (the SIMD-dispatched kern::ArgmaxDense) and gain
/// materialization run over flat memory. Per-label slot lists,
/// residual uncovered masks, emitted-coverage probes and greedy gains
/// are all maintained incrementally at arrival time, so a batch only
/// pays for its new posts. Gain maintenance mirrors
/// core/greedy_state.h: with a uniform lambda every +1/-1 for a pair
/// is one O(1) range-add into a per-label difference array (lazily
/// materialized before each argmax); VariableLambda keeps the
/// reference's exact per-candidate Covers scan. Emission sequences
/// (posts and times) are bit-identical to
/// StreamGreedyReferenceProcessor (tests/oracle/stream_reference.h),
/// which the differential tests enforce under both dispatch tiers.
class StreamGreedyProcessor final : public StreamProcessor,
                                    public CheckpointableStream {
 public:
  StreamGreedyProcessor(const Instance& inst, const CoverageModel& model,
                        double tau, bool stop_at_anchor = false,
                        LabelMask mask = kAllLabels);

  std::string_view name() const override {
    return stop_at_anchor_ ? "StreamGreedySC+" : "StreamGreedySC";
  }
  void AdvanceTo(double now) override;
  void OnArrival(PostId post) override;
  void Finish() override;
  double tau() const override { return tau_; }

  /// Checkpointing (stream/checkpoint.h): the canonical window state
  /// is the slot ring's (post, residual uncovered mask) pairs plus the
  /// anchor; gains, per-label lists, difference arrays and the
  /// emitted-coverage probes are all derived, so restore replays
  /// AppendSlot over the saved ring — the carried gain invariant
  /// (gain(z) = uncovered buffered pairs z covers) makes the replayed
  /// gains exactly equal the killed run's.
  void SaveStreamState(SnapshotWriter* writer) const override;
  Status RestoreStreamState(SnapshotReader* reader) override;

 private:
  /// Per-label view of the buffer: slot ids ascending (== ascending
  /// by value), plus the pending-range-add difference array over list
  /// positions (`delta.size() == slots.size() + 1` entries) with its
  /// dirty window, exactly the greedy_state.h machinery scoped to the
  /// stream window. `values` and `uncov` mirror the slots' post
  /// values and this label's residual uncovered bit position by
  /// position, so the hot membership runs and uncovered counts are
  /// loops over flat arrays instead of chasing slot ids.
  struct LabelList {
    std::vector<uint32_t> slots;
    std::vector<DimValue> values;
    std::vector<uint8_t> uncov;
    std::vector<int32_t> delta;
    size_t dirty_lo = 0;
    size_t dirty_hi = 0;
  };

  /// Emitted posts for one label, ascending by value, with the values
  /// mirrored flat so coverage probes binary-search and scan doubles
  /// without a post-table indirection per candidate.
  struct EmittedList {
    std::vector<PostId> posts;
    std::vector<DimValue> values;
  };

  /// Ring index of slot id `s` in the parallel slot arrays.
  size_t SlotIndex(uint32_t s) const { return s - slot_base_; }

  /// True when label `a` of `post` is covered by an emitted post
  /// (binary-searched probe of emitted_per_label_[a]). Deliberately
  /// windowed: the probe only examines the [v - reach, v + reach]
  /// window, and a whole-list CoverRun could find a rounding-edge
  /// element outside that window — a bit-identity hazard.
  bool CoveredByEmitted(PostId post, LabelId a) const;
  /// Buffers `post` with residual uncovered mask `u`, registering it
  /// in the label lists and folding its pairs into the carried gains.
  void AppendSlot(PostId post, LabelMask u);
  /// Position range [lo, hi) of label-a slots with value in
  /// [vlo, vhi] (the reference's label_range, over slot lists).
  std::pair<size_t, size_t> SlotValueRange(LabelId a, DimValue vlo,
                                           DimValue vhi) const;
  /// +1 to every buffered coverer of the new uncovered pair (p-with-
  /// value-v, a); range-add under uniform lambda, exact scan else.
  void AddPairGain(LabelId a, DimValue v);
  void RangeAdd(LabelId a, size_t lo, size_t hi, int32_t amount);
  /// Flushes pending difference-array range-adds into the slot gains.
  void MaterializePending();
  /// Runs one window batch anchored at anchor_, emitting at `when`.
  void RunBatch(double when);
  /// Greedy-selects the post in slot `s`: clears the pairs it covers,
  /// maintains gains, emits and records it.
  void SelectSlot(uint32_t s, double when);
  /// Drops the first `keep` slots (all fully covered) from the ring
  /// and every label list; pending deltas must be materialized.
  void ErasePrefix(size_t keep);
  void RecordEmitted(PostId post);

  double tau_;
  bool stop_at_anchor_;
  bool uniform_;
  std::vector<EmittedList> emitted_per_label_;

  /// The buffered window as parallel arrays: slot id s lives at ring
  /// index s - slot_base_; ids grow monotonically and are never
  /// reused, so per-label lists stay valid across prefix erases.
  /// slot_gains_ is flat so the batch argmax is one dense kernel call.
  std::vector<PostId> slot_posts_;
  std::vector<LabelMask> slot_uncovered_;
  std::vector<int64_t> slot_gains_;
  uint32_t slot_base_ = 0;
  std::vector<LabelList> by_label_;
  std::vector<LabelId> dirty_labels_;
  /// Uncovered (post, label) pairs among the buffered slots.
  size_t remaining_ = 0;
  PostId anchor_ = kInvalidPost;
  uint32_t anchor_slot_ = 0;
};

}  // namespace mqd

#endif  // MQD_STREAM_STREAM_GREEDY_H_
