#include "stream/replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/stack_metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace mqd {

std::vector<PostId> StreamProcessor::SelectedPosts() const {
  std::vector<PostId> out;
  out.reserve(emissions_.size());
  for (const Emission& e : emissions_) out.push_back(e.post);
  std::sort(out.begin(), out.end());
  return out;
}

Result<StreamRunStats> RunStream(const Instance& inst,
                                 StreamProcessor* processor) {
  return ResumeStream(inst, processor, /*first_post=*/0);
}

Result<StreamRunStats> ResumeStream(const Instance& inst,
                                    StreamProcessor* processor,
                                    PostId first_post) {
  if (processor == nullptr) {
    return Status::InvalidArgument("null processor");
  }
  if (first_post > inst.num_posts()) {
    return Status::OutOfRange("resume position past the end of the stream");
  }
  const obs::StreamMetrics& metrics =
      obs::StreamMetricsFor(processor->name());
  obs::TraceSpan span("stream:" + std::string(processor->name()));
  Stopwatch watch;
  // Instances are value-sorted so replayed timestamps are monotone by
  // construction, but resumed replays and future live feeds are not
  // guaranteed that: a backwards (or NaN) clock would make the
  // processor emit posts that are already past their tau deadline.
  // Such arrivals are dropped, counted, and the replay carries on.
  double last_arrival = -std::numeric_limits<double>::infinity();
  // A restored processor already holds the snapshot's emissions; the
  // counters below take only what this call delivers and emits.
  const size_t restored_emissions = processor->emissions().size();
  size_t delivered = 0;
  for (PostId p = first_post; p < inst.num_posts(); ++p) {
    MQD_FAULT_POINT("stream.replay");
    const double arrival = inst.value(p);
    if (!(arrival >= last_arrival)) {
      metrics.nonmonotone_dropped->Increment();
      continue;
    }
    last_arrival = arrival;
    processor->AdvanceTo(arrival);
    processor->OnArrival(p);
    ++delivered;
  }
  processor->Finish();

  StreamRunStats stats;
  stats.num_posts = inst.num_posts() - first_post;
  stats.processing_seconds = watch.ElapsedSeconds();
  stats.num_emitted = processor->emissions().size();
  // A delay within kTauSlack (stream_solver.h) of tau is on-time;
  // stream/delay_stats applies the identical tolerance.
  const double tau = processor->tau();
  double total_delay = 0.0;
  for (size_t i = 0; i < stats.num_emitted; ++i) {
    const Emission& e = processor->emissions()[i];
    const double delay = e.emit_time - inst.value(e.post);
    stats.max_delay = std::max(stats.max_delay, delay);
    total_delay += delay;
    if (i < restored_emissions) continue;
    metrics.report_delay_seconds->Observe(delay);
    if (delay > tau + kTauSlack) metrics.tau_violations->Increment();
  }
  stats.mean_delay =
      stats.num_emitted == 0 ? 0.0 : total_delay / stats.num_emitted;
  metrics.replays->Increment();
  metrics.posts->Increment(delivered);
  metrics.emissions->Increment(stats.num_emitted - restored_emissions);
  metrics.replay_seconds->Observe(stats.processing_seconds);
  return stats;
}

}  // namespace mqd
