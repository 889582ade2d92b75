#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/types.h"

namespace mqd {

namespace internal {

size_t LabelStabbingCount(const Instance& inst, const CoverageModel& model,
                          LabelId a) {
  const std::span<const PostId> posts = inst.label_posts(a);
  const std::span<const DimValue> values = inst.label_values(a);
  const DimValue max_reach = model.MaxReach();
  const bool uniform = model.IsUniform();
  size_t count = 0;
  DimValue covered_until = -std::numeric_limits<DimValue>::infinity();
  for (size_t i = 0; i < posts.size(); ++i) {
    const PostId px = posts[i];
    const DimValue vx = inst.value(px);
    if (vx <= covered_until) continue;
    // px is the leftmost uncovered a-post; any a-post covering it lies
    // within the max-reach window. Take the candidate whose coverage
    // interval extends furthest right (optimal 1-D point cover).
    DimValue best_end = vx + model.Reach(inst, px, a);
    if (uniform) {
      // Constant reach turns the fold into a masked max over the
      // window's flat value run (same Covers expression).
      const Instance::IndexRange r =
          inst.LabelRangeBounds(a, vx - max_reach, vx + max_reach);
      for (size_t j = r.begin; j < r.end; ++j) {
        if (std::fabs(values[j] - vx) <= max_reach) {
          best_end = std::max(best_end, values[j] + max_reach);
        }
      }
    } else {
      for (PostId z :
           inst.LabelPostsInRange(a, vx - max_reach, vx + max_reach)) {
        if (!model.Covers(inst, z, a, px)) continue;
        best_end =
            std::max(best_end, inst.value(z) + model.Reach(inst, z, a));
      }
    }
    ++count;
    covered_until = best_end;
  }
  return count;
}

}  // namespace internal

namespace {

/// Relative slack applied before rounding the fractional dual value to
/// an integer bound, dominating the float drift of the ascent sums.
constexpr double kDualSafety = 1e-9;

/// Deterministic dual ascent for the set-cover LP dual. Returns the
/// scaled-feasible dual objective (0 when interrupted immediately);
/// sets `*complete` false when the deadline cut the ascent short —
/// the partial dual is still feasible, so the partial objective is
/// still a valid bound.
double DualAscentValue(const Instance& inst, const CoverageModel& model,
                       DeadlineChecker& budget, bool* complete) {
  const size_t n = inst.num_posts();
  const DimValue max_reach = model.MaxReach();
  std::vector<double> load(n, 0.0);          // sum of prices each post packs
  std::vector<LabelMask> frozen(n, 0);       // pairs owned by a tight post
  std::vector<PostId> coverers;
  double objective = 0.0;
  bool interrupted = false;

  for (PostId p = 0; p < n && !interrupted; ++p) {
    const DimValue vp = inst.value(p);
    ForEachLabel(inst.labels(p), [&](LabelId a) {
      if (interrupted || MaskHas(frozen[p], a)) return;
      if (budget.Expired()) {
        interrupted = true;
        return;
      }
      // Candidate coverers of the pair (p, a); p itself always
      // qualifies, so the list is never empty.
      coverers.clear();
      double slack = std::numeric_limits<double>::infinity();
      for (PostId z :
           inst.LabelPostsInRange(a, vp - max_reach, vp + max_reach)) {
        if (!model.Covers(inst, z, a, p)) continue;
        coverers.push_back(z);
        slack = std::min(slack, 1.0 - load[z]);
      }
      const double delta = std::max(0.0, slack);
      objective += delta;
      for (PostId z : coverers) {
        load[z] += delta;
        if (load[z] >= 1.0 - 1e-12) {
          // Tight post: freeze every pair it covers so later pairs
          // stop raising against it.
          const DimValue vz = inst.value(z);
          ForEachLabel(inst.labels(z), [&](LabelId b) {
            const DimValue reach = model.Reach(inst, z, b);
            for (PostId q :
                 inst.LabelPostsInRange(b, vz - reach, vz + reach)) {
              frozen[q] |= MaskOf(b);
            }
          });
        }
      }
    });
  }

  if (interrupted) *complete = false;
  // Feasibility hardening: scale the objective down by the maximum
  // packed load so rounding drift in the ascent can only weaken the
  // bound. Loads never meaningfully exceed 1 by construction; the
  // division is a no-op (max 1.0) up to float noise.
  double max_load = 1.0;
  for (double l : load) max_load = std::max(max_load, l);
  return objective / (max_load * (1.0 + kDualSafety));
}

}  // namespace

LowerBoundReport ComputeLowerBound(const Instance& inst,
                                   const CoverageModel& model,
                                   const Deadline& deadline,
                                   const BoundsConfig& config) {
  LowerBoundReport report;
  if (inst.num_posts() == 0) {
    report.complete = true;
    return report;
  }
  report.nonempty = 1;
  report.best = 1;
  report.complete = true;

  // Counting bound: per-label exact stabbing optima, each selected
  // post credited to at most s labels. One clock read per label: each
  // iteration sweeps a whole posting list, so the poll is cheap
  // relative to the work it guards (and a strided checker would never
  // fire at all on the few-label instances the paper studies).
  DeadlineChecker budget(deadline, /*stride=*/1);
  size_t flood_sum = 0;
  bool flood_complete = true;
  for (LabelId a = 0; a < static_cast<LabelId>(inst.num_labels()); ++a) {
    if (budget.Expired()) {
      flood_complete = false;
      report.complete = false;
      break;
    }
    flood_sum += internal::LabelStabbingCount(inst, model, a);
  }
  if (flood_complete) {
    const size_t s =
        static_cast<size_t>(std::max(1, inst.max_labels_per_post()));
    report.label_flood = (flood_sum + s - 1) / s;
    report.best = std::max(report.best, report.label_flood);
  }

  // LP-relaxation bound via dual ascent. A partial ascent is still
  // dual-feasible, so an interrupted value stays usable.
  if (config.use_lp_dual && !budget.Expired()) {
    DeadlineChecker lp_budget(deadline, /*stride=*/64);
    report.lp_dual_value =
        DualAscentValue(inst, model, lp_budget, &report.complete);
    report.lp_dual = static_cast<size_t>(
        std::ceil(report.lp_dual_value - kDualSafety));
    report.best = std::max(report.best, report.lp_dual);
  } else if (config.use_lp_dual) {
    report.complete = false;
  }
  return report;
}

}  // namespace mqd
