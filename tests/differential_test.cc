// Differential tests: fast-path implementations checked against
// deliberately naive O(n^2) reference implementations on randomized
// inputs.
#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/reduction.h"
#include "core/branch_bound.h"
#include "core/opt_dp.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "index/inverted_index.h"
#include "index/realtime_index.h"
#include "util/logging.h"

namespace mqd {
namespace {

// Naive coverage check: for every (post, label) pair scan every
// selected post.
std::vector<UncoveredPair> NaiveUncovered(
    const Instance& inst, const CoverageModel& model,
    const std::vector<PostId>& selected) {
  std::vector<UncoveredPair> out;
  for (PostId p = 0; p < inst.num_posts(); ++p) {
    ForEachLabel(inst.labels(p), [&](LabelId a) {
      for (PostId z : selected) {
        if (MaskHas(inst.labels(z), a) && model.Covers(inst, z, a, p)) {
          return;
        }
      }
      out.push_back(UncoveredPair{p, a});
    });
  }
  return out;
}

TEST(DifferentialTest, VerifierMatchesNaiveChecker) {
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    auto inst = GenerateTinyInstance(25, 4, 3, 40, &rng);
    ASSERT_TRUE(inst.ok());
    UniformLambda model(rng.UniformDouble(0.5, 8.0));
    // Random selections of varying size, including empty.
    std::vector<PostId> selected;
    const size_t picks = rng.Uniform(10);
    for (size_t i = 0; i < picks; ++i) {
      selected.push_back(
          static_cast<PostId>(rng.Uniform(inst->num_posts())));
    }
    auto fast = FindUncoveredPairs(*inst, model, selected);
    auto naive = NaiveUncovered(*inst, model, selected);
    // Enumeration orders differ (label-major vs post-major): compare
    // as sets.
    auto by_pair = [](const UncoveredPair& x, const UncoveredPair& y) {
      return std::tie(x.post, x.label) < std::tie(y.post, y.label);
    };
    std::sort(fast.begin(), fast.end(), by_pair);
    std::sort(naive.begin(), naive.end(), by_pair);
    EXPECT_EQ(fast, naive) << "trial " << trial;
  }
}

TEST(DifferentialTest, LabelRangeMatchesNaiveFilter) {
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    auto inst = GenerateTinyInstance(30, 3, 2, 50, &rng);
    ASSERT_TRUE(inst.ok());
    for (int probe = 0; probe < 10; ++probe) {
      const LabelId a = static_cast<LabelId>(rng.Uniform(3));
      double lo = rng.UniformDouble(-5.0, 55.0);
      double hi = rng.UniformDouble(-5.0, 55.0);
      if (lo > hi) std::swap(lo, hi);
      std::vector<PostId> naive;
      for (PostId p : inst->label_posts(a)) {
        if (inst->value(p) >= lo && inst->value(p) <= hi) {
          naive.push_back(p);
        }
      }
      const auto fast = inst->LabelPostsInRange(a, lo, hi);
      ASSERT_EQ(fast.size(), naive.size());
      for (size_t i = 0; i < naive.size(); ++i) {
        EXPECT_EQ(fast[i], naive[i]);
      }
    }
  }
}

TEST(DifferentialTest, SolversAreDeterministic) {
  Rng rng(43);
  auto inst = GenerateTinyInstance(24, 3, 2, 40, &rng);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(4.0);
  for (SolverKind kind :
       {SolverKind::kScan, SolverKind::kScanPlus, SolverKind::kGreedySC,
        SolverKind::kOpt, SolverKind::kBranchAndBound}) {
    auto solver = CreateSolver(kind);
    auto first = solver->Solve(*inst, model);
    auto second = solver->Solve(*inst, model);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(*first, *second) << solver->name();
  }
}

TEST(DifferentialTest, OptMatchesBnBOnCnfGadget) {
  // The reduction gadget has heavy timestamp ties and tight label
  // structure — a good adversarial input for OPT's end-pattern logic.
  // |L| = 3n + m must stay small for the DP.
  const CnfFormula f{1, {{1}}};
  auto out = BuildCnfReduction(f);
  ASSERT_TRUE(out.ok());
  UniformLambda model(out->lambda);
  OptDpSolver opt;
  BranchAndBoundSolver bnb;
  auto a = opt.Solve(out->instance, model);
  auto b = bnb.Solve(out->instance, model);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), b->size());
  EXPECT_TRUE(IsCover(out->instance, model, *a));
}

TEST(DifferentialTest, RealtimeIndexInterleavedMatchesMonolithic) {
  // Query after every few inserts — segments in all fill states.
  RealtimeIndex realtime(/*active_budget_docs=*/7);
  InvertedIndex monolithic;
  Rng rng(44);
  const std::vector<std::string> words{"alpha", "beta", "gamma",
                                       "delta", "epsilon"};
  for (int i = 0; i < 300; ++i) {
    std::string text;
    const int len = 1 + static_cast<int>(rng.Uniform(4));
    for (int w = 0; w < len; ++w) {
      text += words[rng.Uniform(words.size())] + " ";
    }
    ASSERT_TRUE(
        realtime.AddDocument(static_cast<uint64_t>(i), i, text).ok());
    ASSERT_TRUE(
        monolithic.AddDocument(static_cast<uint64_t>(i), i, text).ok());
    if (i % 5 == 0) {
      const std::string& term = words[rng.Uniform(words.size())];
      EXPECT_EQ(realtime.MatchAny({term}), monolithic.MatchAny({term}))
          << "after doc " << i;
    }
  }
}

}  // namespace
}  // namespace mqd
