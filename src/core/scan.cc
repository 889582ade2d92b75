#include "core/scan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace mqd {

namespace {

/// One per-label Scan sweep, the body both solvers share. With
/// `covered == nullptr` this is plain Scan: appends picks for label
/// `a` to `out`. With `covered` non-null this is the Scan+ sweep:
/// posts whose bit for `a` is already set are skipped, and each pick
/// marks everything it covers across all its labels.
void SweepLabel(const Instance& inst, const CoverageModel& model, LabelId a,
                std::vector<LabelMask>* covered, std::vector<PostId>* out) {
  const std::span<const PostId> posts = inst.label_posts(a);
  const std::span<const DimValue> values = inst.label_values(a);
  const DimValue max_reach = model.MaxReach();
  const LabelMask abit = MaskOf(a);
  const bool uniform = model.IsUniform();

  size_t i = 0;
  while (true) {
    if (covered != nullptr) {
      while (i < posts.size() && ((*covered)[posts[i]] & abit) != 0) ++i;
    }
    if (i >= posts.size()) break;

    const PostId px = posts[i];
    const DimValue vx = inst.value(px);

    // Pick, among the candidates that cover px, the one whose coverage
    // extends furthest right; on ties prefer the latest post, which
    // reproduces the paper's "post right before Py" rule for uniform
    // lambda.
    PostId best = px;
    DimValue best_end = vx + model.Reach(inst, px, a);
    if (uniform) {
      // Constant reach makes every candidate's end value(z) + lambda,
      // weakly ascending over the sorted list, so the >=-fold below
      // reduces to "last candidate passing Covers before the window
      // break", read off the flat value run.
      for (size_t j = i + 1; j < values.size(); ++j) {
        if (values[j] > vx + max_reach) break;
        if (std::fabs(values[j] - vx) <= max_reach) {
          best = posts[j];
          best_end = values[j] + max_reach;
        }
      }
    } else {
      for (size_t j = i + 1; j < posts.size(); ++j) {
        const PostId z = posts[j];
        if (inst.value(z) > vx + max_reach) break;
        if (!model.Covers(inst, z, a, px)) continue;
        const DimValue end = inst.value(z) + model.Reach(inst, z, a);
        if (end >= best_end) {
          best = z;
          best_end = end;
        }
      }
    }

    out->push_back(best);
    if (covered != nullptr) {
      // Scan+: everything `best` covers, for every label it carries,
      // is pruned from the remaining sweeps.
      ForEachLabel(inst.labels(best), [&](LabelId b) {
        const DimValue reach = model.Reach(inst, best, b);
        const DimValue vb = inst.value(best);
        for (PostId q : inst.LabelPostsInRange(b, vb - reach, vb + reach)) {
          (*covered)[q] |= MaskOf(b);
        }
      });
      // The skip loop at the top advances i.
    } else {
      // Plain Scan: advance past the posts `best` covers for label a.
      while (i < posts.size() && inst.value(posts[i]) <= best_end) ++i;
    }
  }
}

/// The label processing order ScanPlus uses for a given policy.
std::vector<LabelId> OrderedLabels(const Instance& inst, LabelOrder order) {
  std::vector<LabelId> labels(static_cast<size_t>(inst.num_labels()));
  std::iota(labels.begin(), labels.end(), LabelId{0});
  switch (order) {
    case LabelOrder::kById:
      break;
    case LabelOrder::kSizeAsc:
      std::stable_sort(labels.begin(), labels.end(),
                       [&](LabelId x, LabelId y) {
                         return inst.label_posts(x).size() <
                                inst.label_posts(y).size();
                       });
      break;
    case LabelOrder::kSizeDesc:
      std::stable_sort(labels.begin(), labels.end(),
                       [&](LabelId x, LabelId y) {
                         return inst.label_posts(x).size() >
                                inst.label_posts(y).size();
                       });
      break;
  }
  return labels;
}

}  // namespace

Result<std::vector<PostId>> ScanSolver::SolveWithBudget(
    const Instance& inst, const CoverageModel& model,
    const Deadline& deadline) const {
  DeadlineChecker budget(deadline);
  std::vector<PostId> out;
  for (LabelId a = 0; a < static_cast<LabelId>(inst.num_labels()); ++a) {
    MQD_RETURN_NOT_OK(budget.Check("Scan"));
    SweepLabel(inst, model, a, /*covered=*/nullptr, &out);
  }
  internal::CanonicalizeSelection(&out);
  return out;
}

Result<std::vector<PostId>> ScanPlusSolver::SolveWithBudget(
    const Instance& inst, const CoverageModel& model,
    const Deadline& deadline) const {
  DeadlineChecker budget(deadline);
  std::vector<PostId> out;
  std::vector<LabelMask> covered(inst.num_posts(), 0);
  for (LabelId a : OrderedLabels(inst, order_)) {
    MQD_RETURN_NOT_OK(budget.Check("Scan+"));
    SweepLabel(inst, model, a, &covered, &out);
  }
  internal::CanonicalizeSelection(&out);
  return out;
}

}  // namespace mqd
