#ifndef MQD_TESTS_TEST_HELPERS_H_
#define MQD_TESTS_TEST_HELPERS_H_

#include <memory>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/verifier.h"
#include "util/logging.h"

namespace mqd::testing {

/// Builds an instance from (value, mask) pairs; aborts on invalid
/// input (tests construct valid instances).
inline Instance MakeInstance(int num_labels,
                             const std::vector<std::pair<DimValue, LabelMask>>&
                                 posts) {
  InstanceBuilder builder(num_labels);
  for (size_t i = 0; i < posts.size(); ++i) {
    builder.Add(posts[i].first, posts[i].second, i);
  }
  auto result = builder.Build();
  MQD_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Minimum cover size by exhaustive subset enumeration in increasing
/// cardinality; only for very small instances (n <= ~16).
inline size_t EnumerateOptimum(const Instance& inst,
                               const CoverageModel& model) {
  const size_t n = inst.num_posts();
  MQD_CHECK(n <= 20) << "enumeration oracle limited to tiny instances";
  if (n == 0) return 0;
  std::vector<PostId> subset;
  for (size_t k = 1; k <= n; ++k) {
    // Iterate all subsets of size k via the lexicographic combination
    // walk.
    std::vector<size_t> idx(k);
    for (size_t i = 0; i < k; ++i) idx[i] = i;
    while (true) {
      subset.assign(idx.begin(), idx.end());
      if (IsCover(inst, model, subset)) return k;
      // next combination
      size_t i = k;
      while (i > 0 && idx[i - 1] == n - k + i - 1) --i;
      if (i == 0) break;
      ++idx[i - 1];
      for (size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
    }
  }
  MQD_CHECK(false) << "full set is always a cover";
  return n;
}

/// An independently-built single-tenant replica: the sub-instance of
/// `mask`-relevant posts from `from` on, with its own coverage model
/// (plain UniformLambda, or the VariableLambda rows restricted to the
/// surviving labels).
struct SingleTenant {
  Instance sub;
  std::vector<PostId> global_of_local;
  std::unique_ptr<CoverageModel> model;
};

inline SingleTenant BuildSingleTenant(
    const Instance& inst, LabelMask mask, PostId from, double lambda,
    const std::vector<std::vector<DimValue>>* variable_table,
    double max_reach) {
  const std::vector<LabelId> global_labels = MaskToLabels(mask);
  InstanceBuilder builder(static_cast<int>(global_labels.size()));
  SingleTenant out;
  std::vector<std::vector<DimValue>> restricted;
  for (PostId p = from; p < inst.num_posts(); ++p) {
    const LabelMask hit = inst.labels(p) & mask;
    if (hit == 0) continue;
    LabelMask local = 0;
    for (size_t i = 0; i < global_labels.size(); ++i) {
      if (MaskHas(hit, global_labels[i])) {
        local |= MaskOf(static_cast<LabelId>(i));
      }
    }
    builder.Add(inst.value(p), local, p);
    out.global_of_local.push_back(p);
    if (variable_table != nullptr) {
      // Parent rows are ascending-label within labels(p); keep the
      // entries whose label survives the mask, in the same order.
      std::vector<DimValue> row;
      size_t j = 0;
      ForEachLabel(inst.labels(p), [&](LabelId a) {
        if (MaskHas(mask, a)) row.push_back((*variable_table)[p][j]);
        ++j;
      });
      restricted.push_back(std::move(row));
    }
  }
  auto built = builder.Build();
  MQD_CHECK(built.ok()) << built.status().ToString();
  out.sub = std::move(built).value();
  if (variable_table != nullptr) {
    out.model =
        std::make_unique<VariableLambda>(std::move(restricted), max_reach);
  } else {
    out.model = std::make_unique<UniformLambda>(lambda);
  }
  return out;
}

}  // namespace mqd::testing

#endif  // MQD_TESTS_TEST_HELPERS_H_
