// Property-based sweeps over randomized instances: every solver must
// emit a valid cover; the approximation bounds proved in the paper
// must hold against the exact optimum.
#include <gtest/gtest.h>

#include "core/branch_bound.h"
#include "core/greedy_sc.h"
#include "core/opt_dp.h"
#include "core/scan.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "greedy_oracle.h"
#include "test_helpers.h"

namespace mqd {
namespace {

struct PropertyParam {
  uint64_t seed;
  int n;
  int num_labels;
  int max_labels_per_post;
  int value_range;
  double lambda;
};

class SolverPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(SolverPropertyTest, AllSolversEmitValidCovers) {
  const PropertyParam p = GetParam();
  Rng rng(p.seed);
  auto inst = GenerateTinyInstance(p.n, p.num_labels, p.max_labels_per_post,
                                   p.value_range, &rng);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(p.lambda);
  for (SolverKind kind :
       {SolverKind::kScan, SolverKind::kScanPlus, SolverKind::kGreedySC,
        SolverKind::kBranchAndBound}) {
    auto solver = CreateSolver(kind);
    auto z = solver->Solve(*inst, model);
    ASSERT_TRUE(z.ok()) << solver->name() << ": " << z.status();
    EXPECT_TRUE(IsCover(*inst, model, *z)) << solver->name();
    if (kind == SolverKind::kGreedySC) {
      EXPECT_EQ(*z, testing::TextbookGreedySC(*inst, model));
    }
    // Output contract: sorted, duplicate-free.
    for (size_t i = 1; i < z->size(); ++i) {
      EXPECT_LT((*z)[i - 1], (*z)[i]) << solver->name();
    }
  }
}

TEST_P(SolverPropertyTest, ApproximationBoundsHold) {
  const PropertyParam p = GetParam();
  Rng rng(p.seed + 1000);
  auto inst = GenerateTinyInstance(p.n, p.num_labels, p.max_labels_per_post,
                                   p.value_range, &rng);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(p.lambda);

  BranchAndBoundSolver exact;
  auto opt = exact.Solve(*inst, model);
  ASSERT_TRUE(opt.ok());
  const size_t opt_size = opt->size();
  const size_t s = static_cast<size_t>(inst->max_labels_per_post());

  ScanSolver scan;
  auto z_scan = scan.Solve(*inst, model);
  ASSERT_TRUE(z_scan.ok());
  EXPECT_LE(z_scan->size(), s * opt_size) << "Scan bound |Z| <= s*OPT";
  EXPECT_GE(z_scan->size(), opt_size);

  ScanPlusSolver scan_plus;
  auto z_plus = scan_plus.Solve(*inst, model);
  ASSERT_TRUE(z_plus.ok());
  EXPECT_LE(z_plus->size(), z_scan->size())
      << "Scan+ never worse than Scan";
  EXPECT_GE(z_plus->size(), opt_size);

  GreedySCSolver greedy;
  auto z_greedy = greedy.Solve(*inst, model);
  ASSERT_TRUE(z_greedy.ok());
  EXPECT_GE(z_greedy->size(), opt_size);
  // ln(|P||L|) bound, loose on tiny instances but still asserted.
  const double bound =
      std::max(1.0, std::log(static_cast<double>(inst->num_pairs())));
  EXPECT_LE(static_cast<double>(z_greedy->size()),
            std::ceil(bound * static_cast<double>(opt_size)) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, SolverPropertyTest,
    ::testing::Values(
        PropertyParam{1, 10, 2, 2, 12, 1.0},
        PropertyParam{2, 14, 2, 2, 20, 2.0},
        PropertyParam{3, 16, 3, 2, 25, 3.0},
        PropertyParam{4, 18, 3, 3, 30, 2.0},
        PropertyParam{5, 20, 4, 2, 25, 4.0},
        PropertyParam{6, 22, 4, 4, 40, 5.0},
        PropertyParam{7, 12, 5, 3, 15, 1.5},
        PropertyParam{8, 25, 2, 1, 50, 6.0},
        PropertyParam{9, 25, 3, 3, 12, 0.5},
        PropertyParam{10, 15, 6, 2, 30, 3.0},
        PropertyParam{11, 30, 2, 2, 60, 8.0},
        PropertyParam{12, 8, 8, 4, 10, 2.0}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      const PropertyParam& p = info.param;
      return "seed" + std::to_string(p.seed) + "_n" + std::to_string(p.n) +
             "_L" + std::to_string(p.num_labels);
    });

// Scan+ with any label ordering stays within the Scan bound and
// yields valid covers under directional coverage too.
class DirectionalPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirectionalPropertyTest, SolversValidUnderVariableLambda) {
  Rng rng(GetParam());
  auto inst = GenerateTinyInstance(18, 3, 2, 25, &rng);
  ASSERT_TRUE(inst.ok());
  std::vector<std::vector<DimValue>> reaches(inst->num_posts());
  DimValue max_reach = 0.0;
  for (PostId p = 0; p < inst->num_posts(); ++p) {
    for (int k = 0; k < MaskCount(inst->labels(p)); ++k) {
      const DimValue r = rng.UniformDouble(0.5, 5.0);
      reaches[p].push_back(r);
      max_reach = std::max(max_reach, r);
    }
  }
  VariableLambda model(std::move(reaches), max_reach);

  BranchAndBoundSolver exact;
  auto opt = exact.Solve(*inst, model);
  ASSERT_TRUE(opt.ok());

  for (SolverKind kind : {SolverKind::kScan, SolverKind::kScanPlus,
                          SolverKind::kGreedySC}) {
    auto solver = CreateSolver(kind);
    auto z = solver->Solve(*inst, model);
    ASSERT_TRUE(z.ok()) << solver->name();
    EXPECT_TRUE(IsCover(*inst, model, *z)) << solver->name();
    EXPECT_GE(z->size(), opt->size()) << solver->name();
    if (kind == SolverKind::kGreedySC) {
      EXPECT_EQ(*z, testing::TextbookGreedySC(*inst, model));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectionalPropertyTest,
                         ::testing::Range<uint64_t>(100, 112));

TEST(SolverFactoryTest, NamesAndCreation) {
  for (SolverKind kind :
       {SolverKind::kScan, SolverKind::kScanPlus, SolverKind::kGreedySC,
        SolverKind::kOpt, SolverKind::kBranchAndBound}) {
    auto solver = CreateSolver(kind);
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->name(), SolverKindName(kind));
  }
}

}  // namespace
}  // namespace mqd
