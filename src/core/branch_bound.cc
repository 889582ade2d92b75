#include "core/branch_bound.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/greedy_sc.h"
#include "obs/stack_metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace mqd {

namespace {

/// The recursive search core. One instance per solve; the certified
/// and exact entry points share it and differ only in how they treat
/// interruption.
class BnBEngine {
 public:
  BnBEngine(const Instance& inst, const CoverageModel& model,
            const BranchBoundConfig& config, const Deadline& deadline)
      : inst_(inst),
        model_(model),
        config_(config),
        deadline_(deadline),
        budget_(deadline_, /*stride=*/4096),
        covered_(inst.num_posts(), 0),
        remaining_(inst.num_pairs()) {
    // Static candidate lists: coverers_[p][k] = posts that cover the
    // k-th label of post p (the branching alternatives).
    coverers_.resize(inst.num_posts());
    const DimValue max_reach = model.MaxReach();
    for (PostId p = 0; p < inst.num_posts(); ++p) {
      const DimValue v = inst.value(p);
      ForEachLabel(inst.labels(p), [&](LabelId a) {
        std::vector<PostId> cands;
        for (PostId r :
             inst.LabelPostsInRange(a, v - max_reach, v + max_reach)) {
          if (model.Covers(inst_, r, a, p)) cands.push_back(r);
        }
        coverers_[p].push_back(std::move(cands));
      });
    }
  }

  /// Runs warm start + root bounds + search. Returns OK when the
  /// incumbent is usable (always, once the warm start succeeded);
  /// search-cut conditions are reported through the stats/certificate,
  /// and the exact entry points turn them back into errors.
  Status Run() {
    if (inst_.num_posts() == 0) {
      search_complete_ = true;
      return Status::OK();
    }
    // Warm start: GreedySC's cover as the initial upper bound. This is
    // the only step that can fail outright under a tight budget.
    GreedySCSolver greedy;
    MQD_ASSIGN_OR_RETURN(best_,
                         greedy.SolveWithBudget(inst_, model_, deadline_));

    // Root lower bound (deadline-degradable: weaker but valid bounds
    // when cut short).
    root_bounds_ = ComputeLowerBound(inst_, model_, deadline_,
                                     {.use_lp_dual = config_.use_lp_bound});
    if (root_bounds_.best >= best_.size()) {
      // The warm start already meets the proven bound: optimal without
      // expanding a single node.
      search_complete_ = true;
      internal::CanonicalizeSelection(&best_);
      return Status::OK();
    }

    Recurse(/*depth=*/0);
    search_complete_ = !stats_.node_budget_exhausted && !stats_.interrupted;
    internal::CanonicalizeSelection(&best_);
    return Status::OK();
  }

  /// Proven lower bound on |OPT| after Run: the root bound until the
  /// search completes, the incumbent size (optimality) once it does.
  size_t ProvenLowerBound() const {
    if (search_complete_) return best_.size();
    return std::min(root_bounds_.best, best_.size());
  }

  bool search_complete() const { return search_complete_; }
  const std::vector<PostId>& best() const { return best_; }
  std::vector<PostId>&& TakeBest() { return std::move(best_); }
  const BranchBoundStats& stats() const { return stats_; }
  const LowerBoundReport& root_bounds() const { return root_bounds_; }

 private:
  void Recurse(size_t depth) {
    if (stats_.node_budget_exhausted || stats_.interrupted) return;
    if (++stats_.nodes > config_.max_nodes) {
      stats_.node_budget_exhausted = true;
      return;
    }
    if (budget_.Expired()) {
      stats_.interrupted = true;
      return;
    }
    stats_.max_depth = std::max(stats_.max_depth, uint64_t{depth});
    if (remaining_ == 0) {
      if (chosen_.size() < best_.size()) {
        best_ = chosen_;
        ++stats_.incumbent_updates;
      }
      return;
    }
    if (chosen_.size() + ResidualLowerBound() >= best_.size()) {
      ++stats_.pruned_by_bound;
      return;
    }

    // Branch on the uncovered pair with the fewest candidate coverers
    // (smallest fan-out first).
    PostId bp = kInvalidPost;
    int bk = -1;
    size_t fewest = static_cast<size_t>(-1);
    for (PostId p = 0; p < inst_.num_posts() && fewest > 1; ++p) {
      int k = 0;
      ForEachLabel(inst_.labels(p), [&](LabelId a) {
        if (!MaskHas(covered_[p], a) && coverers_[p][k].size() < fewest) {
          fewest = coverers_[p][k].size();
          bp = p;
          bk = k;
        }
        ++k;
      });
    }
    MQD_DCHECK(bp != kInvalidPost);

    for (PostId z : coverers_[bp][static_cast<size_t>(bk)]) {
      const size_t undo_mark = undo_.size();
      Apply(z);
      chosen_.push_back(z);
      Recurse(depth + 1);
      chosen_.pop_back();
      Unapply(undo_mark);
      if (stats_.node_budget_exhausted || stats_.interrupted) return;
    }
  }

  void Apply(PostId z) {
    const DimValue v = inst_.value(z);
    ForEachLabel(inst_.labels(z), [&](LabelId a) {
      const DimValue reach = model_.Reach(inst_, z, a);
      for (PostId q : inst_.LabelPostsInRange(a, v - reach, v + reach)) {
        if (!MaskHas(covered_[q], a)) {
          covered_[q] |= MaskOf(a);
          undo_.push_back({q, a});
          --remaining_;
        }
      }
    });
  }

  void Unapply(size_t mark) {
    while (undo_.size() > mark) {
      const auto [q, a] = undo_.back();
      undo_.pop_back();
      covered_[q] &= ~MaskOf(a);
      ++remaining_;
    }
  }

  /// Admissible residual bound: per-label stabbing optima over the
  /// still-uncovered pairs, divided by the max labels per post (each
  /// further chosen post helps at most s labels) — the counting bound
  /// of core/bounds.h restricted to the node's residual universe.
  size_t ResidualLowerBound() const {
    size_t total = 0;
    const int s = std::max(1, inst_.max_labels_per_post());
    for (LabelId a = 0; a < static_cast<LabelId>(inst_.num_labels()); ++a) {
      total += ResidualScanCount(a);
    }
    return (total + static_cast<size_t>(s) - 1) / static_cast<size_t>(s);
  }

  /// Minimum number of a-posts needed to cover the still-uncovered
  /// a-posts (interval-stabbing greedy; optimal per label).
  size_t ResidualScanCount(LabelId a) const {
    const std::span<const PostId> posts = inst_.label_posts(a);
    const DimValue max_reach = model_.MaxReach();
    const LabelMask abit = MaskOf(a);
    size_t count = 0;
    DimValue covered_until = -std::numeric_limits<DimValue>::infinity();
    for (size_t i = 0; i < posts.size(); ++i) {
      const PostId px = posts[i];
      if ((covered_[px] & abit) != 0 || inst_.value(px) <= covered_until) {
        continue;
      }
      const DimValue vx = inst_.value(px);
      DimValue best_end = vx + model_.Reach(inst_, px, a);
      for (PostId z :
           inst_.LabelPostsInRange(a, vx - max_reach, vx + max_reach)) {
        if (!model_.Covers(inst_, z, a, px)) continue;
        best_end =
            std::max(best_end, inst_.value(z) + model_.Reach(inst_, z, a));
      }
      ++count;
      covered_until = best_end;
    }
    return count;
  }

  const Instance& inst_;
  const CoverageModel& model_;
  BranchBoundConfig config_;
  Deadline deadline_;
  DeadlineChecker budget_;

  std::vector<LabelMask> covered_;
  size_t remaining_;
  std::vector<std::vector<std::vector<PostId>>> coverers_;
  std::vector<PostId> chosen_;
  std::vector<PostId> best_;
  std::vector<std::pair<PostId, LabelId>> undo_;
  BranchBoundStats stats_;
  LowerBoundReport root_bounds_;
  bool search_complete_ = false;
};

}  // namespace

Result<std::vector<PostId>> BranchAndBoundSolver::SolveWithBudget(
    const Instance& inst, const CoverageModel& model,
    const Deadline& deadline) const {
  BnBEngine engine(inst, model, config_, deadline);
  MQD_RETURN_NOT_OK(engine.Run());
  // The exact entry points keep the historical contract: an incomplete
  // search is an error, not a weaker answer.
  if (engine.stats().interrupted) return deadline.Check("BnB");
  if (engine.stats().node_budget_exhausted) {
    return Status::ResourceExhausted(
        "BranchAndBound exceeded its node budget");
  }
  return engine.TakeBest();
}

Result<CertifiedCover> BranchAndBoundSolver::SolveCertified(
    const Instance& inst, const CoverageModel& model,
    const Deadline& deadline) const {
  const obs::GapMetrics& metrics = obs::GetGapMetrics();
  Stopwatch watch;
  BnBEngine engine(inst, model, config_, deadline);
  if (Status st = engine.Run(); !st.ok()) {
    // Even the warm start failed: nothing certifiable to return.
    metrics.certify_errors->Increment();
    return st;
  }
  CertifiedCover out;
  out.lower_bound = engine.ProvenLowerBound();
  out.cover = engine.TakeBest();
  out.upper_bound = out.cover.size();
  MQD_DCHECK(out.lower_bound <= out.upper_bound);
  out.gap = out.upper_bound - out.lower_bound;
  out.proven_optimal = engine.search_complete();
  MQD_DCHECK(!out.proven_optimal || out.gap == 0);
  out.root_bounds = engine.root_bounds();
  out.stats = engine.stats();

  metrics.certified_solves->Increment();
  if (out.proven_optimal) metrics.proven_optimal->Increment();
  if (out.stats.interrupted) metrics.interrupted->Increment();
  metrics.nodes->Increment(out.stats.nodes);
  metrics.pruned->Increment(out.stats.pruned_by_bound);
  metrics.incumbent_updates->Increment(out.stats.incumbent_updates);
  metrics.gap->Observe(static_cast<double>(out.gap));
  metrics.certify_seconds->Observe(watch.ElapsedSeconds());
  metrics.last_gap->Set(static_cast<double>(out.gap));
  metrics.last_lower_bound->Set(static_cast<double>(out.lower_bound));
  return out;
}

}  // namespace mqd
