#include "pipeline/online.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/stack_metrics.h"
#include "simhash/simhash.h"
#include "text/tokenizer.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace mqd {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

OnlineFeed::OnlineFeed(TopicMatcher matcher, Options options)
    : matcher_(std::move(matcher)),
      options_(options),
      labels_(static_cast<size_t>(matcher_.num_labels())) {
  MQD_CHECK(options.lambda >= 0.0 && options.tau >= 0.0);
}

double OnlineFeed::Deadline(const LabelState& state) {
  if (state.uncovered.empty()) return kNever;
  const double t_lu = Entry(state.uncovered.back()).time;
  const double t_ou = Entry(state.uncovered.front()).time;
  return std::min(t_lu + options_.tau, t_ou + options_.lambda);
}

void OnlineFeed::Fire(LabelId a, double when, std::vector<Output>* out) {
  LabelState& state = labels_[a];
  MQD_DCHECK(!state.uncovered.empty());
  const size_t lu_index = state.uncovered.back();
  Pending& lu = Entry(lu_index);
  if (!lu.emitted) {
    lu.emitted = true;
    ++emitted_;
    obs::GetPipelineMetrics().online_emissions->Increment();
    out->push_back(Output{lu.id, lu.time, when});
  }
  state.lc_time = lu.time;
  state.has_lc = true;
  for (size_t idx : state.uncovered) --Entry(idx).refs;
  state.uncovered.clear();

  if (options_.cross_label_pruning) {
    ForEachLabel(lu.labels, [&](LabelId b) {
      if (b == a) return;
      LabelState& other = labels_[b];
      if (!other.has_lc || lu.time > other.lc_time) {
        other.lc_time = lu.time;
        other.has_lc = true;
      }
      auto covered = [&](size_t idx) {
        if (std::fabs(Entry(idx).time - lu.time) > options_.lambda) {
          return false;
        }
        --Entry(idx).refs;
        return true;
      };
      other.uncovered.erase(std::remove_if(other.uncovered.begin(),
                                           other.uncovered.end(), covered),
                            other.uncovered.end());
    });
  }
  TrimRing();
}

void OnlineFeed::TrimRing() {
  while (!ring_.empty() && ring_.front().refs == 0) {
    ring_.pop_front();
    ++ring_base_;
  }
}

void OnlineFeed::Drain(double now, std::vector<Output>* out) {
  while (true) {
    LabelId best = 0;
    double best_deadline = kNever;
    for (LabelId a = 0; a < labels_.size(); ++a) {
      const double d = Deadline(labels_[a]);
      if (d < best_deadline) {
        best_deadline = d;
        best = a;
      }
    }
    if (best_deadline == kNever || best_deadline > now) break;
    Fire(best, best_deadline, out);
  }
}

Result<std::vector<OnlineFeed::Output>> OnlineFeed::Push(
    uint64_t post_id, double time, std::string_view text) {
  if (!std::isfinite(time)) {
    return Status::InvalidArgument(
        StrFormat("non-finite post time %f", time));
  }
  if (time < last_time_) {
    return Status::InvalidArgument(
        StrFormat("out-of-order post at t=%.3f after t=%.3f", time,
                  last_time_));
  }
  last_time_ = time;
  obs::GetPipelineMetrics().online_pushes->Increment();
  std::vector<Output> outputs;
  Drain(time, &outputs);

  const std::vector<std::string> tokens = matcher_.tokenizer().Tokenize(text);
  const LabelMask mask = matcher_.MatchTokens(tokens);
  if (mask == 0) return outputs;
  ++matched_;
  if (options_.dedup && dedup_.IsDuplicate(SimHash(tokens))) {
    ++duplicates_dropped_;
    obs::GetPipelineMetrics().duplicates_dropped->Increment();
    return outputs;
  }

  const size_t global_index = ring_base_ + ring_.size();
  Pending pending{post_id, time, mask, /*refs=*/0, /*emitted=*/false};
  ForEachLabel(mask, [&](LabelId a) {
    LabelState& state = labels_[a];
    if (state.has_lc &&
        std::fabs(state.lc_time - time) <= options_.lambda) {
      return;  // covered by the latest emitted relevant post
    }
    state.uncovered.push_back(global_index);
    ++pending.refs;
  });
  if (pending.refs > 0) ring_.push_back(pending);
  return outputs;
}

std::vector<OnlineFeed::Output> OnlineFeed::AdvanceTo(double now) {
  // A NaN clock compares false against every deadline; firing nothing
  // keeps it from draining the whole feed.
  if (std::isnan(now)) return {};
  last_time_ = std::max(last_time_, now);
  std::vector<Output> outputs;
  Drain(now, &outputs);
  return outputs;
}

std::vector<OnlineFeed::Output> OnlineFeed::Flush() {
  std::vector<Output> outputs;
  Drain(kNever, &outputs);
  return outputs;
}

}  // namespace mqd
