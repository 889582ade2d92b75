#ifndef MQD_TESTS_GREEDY_ORACLE_H_
#define MQD_TESTS_GREEDY_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"

namespace mqd::testing {

/// Textbook GreedySC (paper Algorithm 2), the differential oracle for
/// the library's block-max engine: gains kept per post, a full O(n)
/// first-max argmax each round (ties toward the smallest PostId), and
/// one LabelRangeBounds plus a Covers test per coverer for every newly
/// covered pair. No difference arrays, no SIMD, no block index.
/// Returns the selection sorted ascending, as the solvers do.
inline std::vector<PostId> TextbookGreedySC(const Instance& inst,
                                            const CoverageModel& model) {
  const size_t n = inst.num_posts();
  std::vector<int64_t> gain(n, 0);
  for (PostId p = 0; p < n; ++p) {
    ForEachLabel(inst.labels(p), [&](LabelId a) {
      const DimValue reach = model.Reach(inst, p, a);
      gain[p] += static_cast<int64_t>(
          inst.LabelRangeBounds(a, inst.value(p) - reach,
                                inst.value(p) + reach).size());
    });
  }
  std::vector<LabelMask> covered(n, 0);
  size_t remaining = inst.num_pairs();
  std::vector<PostId> out;
  while (remaining > 0) {
    PostId best = 0;
    for (PostId p = 1; p < n; ++p) {
      if (gain[p] > gain[best]) best = p;
    }
    if (gain[best] <= 0) break;  // unreachable for a consistent state
    out.push_back(best);
    ForEachLabel(inst.labels(best), [&](LabelId a) {
      const DimValue reach = model.Reach(inst, best, a);
      const DimValue v = inst.value(best);
      for (PostId q : inst.LabelPostsInRange(a, v - reach, v + reach)) {
        if ((covered[q] & MaskOf(a)) != 0) continue;
        covered[q] |= MaskOf(a);
        --remaining;
        const DimValue vq = inst.value(q);
        for (PostId r : inst.LabelPostsInRange(a, vq - model.MaxReach(),
                                               vq + model.MaxReach())) {
          if (model.Covers(inst, r, a, q)) --gain[r];
        }
      }
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mqd::testing

#endif  // MQD_TESTS_GREEDY_ORACLE_H_
