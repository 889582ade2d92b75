#ifndef MQD_ORACLE_STREAM_REFERENCE_H_
#define MQD_ORACLE_STREAM_REFERENCE_H_

#include <deque>
#include <vector>

#include "stream/stream_solver.h"

namespace mqd {

/// Base of the reference processors: they keep their own emitted set
/// and hand StreamProcessor::Emit only posts not emitted before, so a
/// fault in Emit's repeat rule shows up as a difference from the
/// optimized processors instead of in both.
class ReferenceProcessor : public StreamProcessor {
 protected:
  ReferenceProcessor(const Instance& inst, const CoverageModel& model);

  /// Emits `post` at `when` unless it was emitted before; a new post
  /// must grow the log by exactly one.
  void EmitOnce(PostId post, double when);

 private:
  std::vector<bool> emitted_;
};

/// Pre-overhaul StreamScan / StreamScan+ kept verbatim as the
/// differential-testing oracle for the deadline-heap processor
/// (stream/stream_scan.h): per arrival it rescans every label's
/// deadline in O(|L|), and the Scan+ prune is a linear remove_if.
/// Same contract PR 1/PR 3 used for the parallel and CSR overhauls —
/// the optimized processor must reproduce this implementation's
/// emission sequence (posts *and* times) bit for bit.
class StreamScanReferenceProcessor final : public ReferenceProcessor {
 public:
  StreamScanReferenceProcessor(const Instance& inst,
                               const CoverageModel& model, double tau,
                               bool cross_label_pruning = false);

  std::string_view name() const override {
    return cross_label_pruning_ ? "StreamScan+_ref" : "StreamScan_ref";
  }
  void AdvanceTo(double now) override;
  void OnArrival(PostId post) override;
  void Finish() override;
  double tau() const override { return tau_; }

 private:
  struct LabelState {
    std::deque<PostId> uncovered;
    PostId lc = kInvalidPost;
  };

  double Deadline(const LabelState& state) const;
  void Fire(LabelId a, double when);

  double tau_;
  bool cross_label_pruning_;
  std::vector<LabelState> labels_;
};

/// Pre-overhaul StreamGreedySC / StreamGreedySC+ oracle: every batch
/// rebuilds by_label, re-probes emitted coverage and re-initializes
/// all gains from the retained buffer suffix, and every covered pair
/// decrements gains through a per-candidate Covers scan.
class StreamGreedyReferenceProcessor final : public ReferenceProcessor {
 public:
  StreamGreedyReferenceProcessor(const Instance& inst,
                                 const CoverageModel& model, double tau,
                                 bool stop_at_anchor = false);

  std::string_view name() const override {
    return stop_at_anchor_ ? "StreamGreedySC+_ref" : "StreamGreedySC_ref";
  }
  void AdvanceTo(double now) override;
  void OnArrival(PostId post) override;
  void Finish() override;
  double tau() const override { return tau_; }

 private:
  bool IsCoveredByEmitted(PostId post) const;
  void RunBatch(double when);
  void RecordEmitted(PostId post);

  double tau_;
  bool stop_at_anchor_;
  std::vector<std::vector<PostId>> emitted_per_label_;
  std::deque<PostId> buffer_;
  PostId anchor_ = kInvalidPost;
};

}  // namespace mqd

#endif  // MQD_ORACLE_STREAM_REFERENCE_H_
