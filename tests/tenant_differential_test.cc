#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/types.h"
#include "gen/instance_gen.h"
#include "gen/profile_gen.h"
#include "stream/factory.h"
#include "stream/multi_tenant.h"
#include "stream/replay.h"
#include "stream/stream_scan.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace mqd {
namespace {

using ::mqd::testing::BuildSingleTenant;
using ::mqd::testing::MakeInstance;
using ::mqd::testing::SingleTenant;

/// The tenant-equivalence battery: every tenant served by the
/// multi-tenant fan-out engine must produce covers and emission times
/// bit-identical to an independent single-tenant processor replaying
/// the tenant's own sub-stream. "Independent" is deliberate: the
/// reference side below rebuilds the sub-instance and the restricted
/// coverage table with its own code (no BuildTenantView, no
/// RestrictedCoverage), so agreement is evidence, not tautology.

/// Raw per-(post, label-position) radius table; kept raw so the
/// reference side can restrict it per tenant.
std::vector<std::vector<DimValue>> MakeVariableTable(const Instance& inst,
                                                     double max_reach,
                                                     uint64_t seed) {
  Rng rng(seed * 0x9e3779b9ULL + 17);
  std::vector<std::vector<DimValue>> reaches(inst.num_posts());
  for (PostId p = 0; p < static_cast<PostId>(inst.num_posts()); ++p) {
    ForEachLabel(inst.labels(p), [&](LabelId) {
      reaches[p].push_back(rng.UniformDouble(0.3 * max_reach, max_reach));
    });
  }
  return reaches;
}

/// Compares one tenant of `engine` against its independent replica run
/// from scratch over the same replay. Exact == on posts and times.
/// Returns the number of compared emissions.
size_t ExpectTenantMatchesSingleTenant(
    const MultiTenantStream& engine, TenantId tenant, const Instance& inst,
    LabelMask mask, PostId join, StreamKind kind, double tau, double lambda,
    const std::vector<std::vector<DimValue>>* variable_table,
    double max_reach, const std::string& context) {
  SingleTenant solo = BuildSingleTenant(inst, mask, join, lambda,
                                        variable_table, max_reach);
  auto solo_proc = CreateStreamProcessor(kind, solo.sub, *solo.model, tau);
  auto stats = RunStream(solo.sub, solo_proc.get());
  EXPECT_TRUE(stats.ok()) << context;

  auto tenant_emissions = engine.TenantEmissions(tenant);
  EXPECT_TRUE(tenant_emissions.ok())
      << context << ": " << tenant_emissions.status().ToString();
  if (!tenant_emissions.ok()) return 0;

  const auto& got = *tenant_emissions;
  const auto& solo_emissions = solo_proc->emissions();
  EXPECT_EQ(got.size(), solo_emissions.size()) << context;
  const size_t n = std::min(got.size(), solo_emissions.size());
  for (size_t i = 0; i < n; ++i) {
    const PostId solo_global = solo.global_of_local[solo_emissions[i].post];
    EXPECT_EQ(got[i].post, solo_global)
        << context << " emission " << i << " of " << n;
    EXPECT_EQ(got[i].emit_time, solo_emissions[i].emit_time)
        << context << " emission " << i << " (post " << got[i].post
        << "): emit times differ by "
        << (got[i].emit_time - solo_emissions[i].emit_time);
    if (::testing::Test::HasFailure()) break;
  }

  auto tenant_cover = engine.TenantCover(tenant);
  EXPECT_TRUE(tenant_cover.ok()) << context;
  if (tenant_cover.ok()) {
    std::vector<PostId> solo_cover;
    for (PostId p : solo_proc->SelectedPosts()) {
      solo_cover.push_back(solo.global_of_local[p]);
    }
    std::sort(solo_cover.begin(), solo_cover.end());
    EXPECT_EQ(*tenant_cover, solo_cover) << context;
  }
  return n;
}

/// ≥100 fuzzed label-set profiles per engine: a mix of 2- and 3-label
/// subscriptions from the broad-group generator, duplicates included
/// (they exercise cluster sharing).
std::vector<LabelMask> FuzzProfiles(int num_labels, uint64_t seed) {
  Rng rng(seed * 77 + 5);
  auto two = GenerateLabelMaskProfiles(num_labels, 2, 70, &rng);
  auto three = GenerateLabelMaskProfiles(num_labels, 3, 50, &rng);
  EXPECT_TRUE(two.ok() && three.ok());
  std::vector<LabelMask> profiles = *two;
  profiles.insert(profiles.end(), three->begin(), three->end());
  return profiles;
}

#define ASSERT_TRUE_OR_RETURN(cond, ret) \
  do {                                   \
    EXPECT_TRUE(cond);                   \
    if (!(cond)) return (ret);           \
  } while (false)

/// The sweep body shared by the per-algorithm tests below: random
/// instances x {uniform, variable} lambda x tau grid, 120 profiles
/// subscribed at epoch 0, every tenant compared exactly.
size_t RunBattery(StreamKind kind, size_t* engines_with_sharing) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    InstanceGenConfig cfg;
    cfg.num_labels = 10;
    cfg.duration = 900.0;
    cfg.posts_per_minute = 80.0;
    cfg.overlap_rate = 1.5;
    cfg.burst_fraction = 0.3;
    cfg.seed = 9000 + seed;
    auto inst = GenerateInstance(cfg);
    EXPECT_TRUE(inst.ok());
    const std::vector<LabelMask> profiles =
        FuzzProfiles(cfg.num_labels, seed);
    EXPECT_GE(profiles.size(), 100u);

    const double lambda = 6.0;
    const auto table = MakeVariableTable(*inst, lambda, seed);
    UniformLambda uniform(lambda);
    VariableLambda variable(table, lambda);
    for (const bool use_variable : {false, true}) {
      const CoverageModel& model =
          use_variable ? static_cast<const CoverageModel&>(variable)
                       : static_cast<const CoverageModel&>(uniform);
      for (double tau : {0.0, 4.0}) {
        const std::string context =
            std::string(StreamKindName(kind)) +
            " seed=" + std::to_string(seed) +
            " tau=" + std::to_string(tau) +
            (use_variable ? " variable" : " uniform");
        auto engine =
            MultiTenantStream::Create(*inst, model, kind, tau);
        ASSERT_TRUE_OR_RETURN(engine.ok(), compared);
        std::vector<TenantId> ids;
        for (LabelMask mask : profiles) {
          auto id = (*engine)->Subscribe(mask);
          EXPECT_TRUE(id.ok()) << context;
          ids.push_back(*id);
        }
        EXPECT_TRUE((*engine)->RunToEnd().ok()) << context;

        // Work sharing must be real, not incidental: the scan tier
        // absorbs every arrival once for all tenants; the cluster
        // tier folds duplicate profiles onto representatives.
        if (kind == StreamKind::kStreamScan) {
          EXPECT_EQ((*engine)->num_clusters(), 0u) << context;
          EXPECT_GT((*engine)->shared_tier_hits(), 0u) << context;
        } else {
          EXPECT_GT((*engine)->num_clusters(), 0u) << context;
          EXPECT_LT((*engine)->num_clusters(),
                    (*engine)->active_tenants())
              << context << ": clustering found no duplicates";
        }
        if ((*engine)->shared_hit_rate() > 0.0 ||
            (*engine)->num_clusters() < (*engine)->active_tenants()) {
          ++*engines_with_sharing;
        }

        for (size_t i = 0; i < profiles.size(); ++i) {
          compared += ExpectTenantMatchesSingleTenant(
              **engine, ids[i], *inst, profiles[i], /*join=*/0, kind, tau,
              lambda, use_variable ? &table : nullptr, lambda,
              context + " tenant=" + std::to_string(i));
          if (::testing::Test::HasFailure()) return compared;
        }
      }
    }
  }
  return compared;
}

TEST(TenantDifferentialTest, StreamScanSharedTierMatchesSingleTenant) {
  size_t sharing = 0;
  const size_t compared = RunBattery(StreamKind::kStreamScan, &sharing);
  EXPECT_GE(compared, 25000u) << "battery under-sampled";
  EXPECT_GT(sharing, 0u);
}

TEST(TenantDifferentialTest, StreamScanPlusClustersMatchSingleTenant) {
  size_t sharing = 0;
  const size_t compared = RunBattery(StreamKind::kStreamScanPlus, &sharing);
  EXPECT_GE(compared, 25000u) << "battery under-sampled";
  EXPECT_GT(sharing, 0u);
}

TEST(TenantDifferentialTest, StreamGreedyClustersMatchSingleTenant) {
  size_t sharing = 0;
  const size_t compared = RunBattery(StreamKind::kStreamGreedy, &sharing);
  EXPECT_GE(compared, 25000u) << "battery under-sampled";
  EXPECT_GT(sharing, 0u);
}

TEST(TenantDifferentialTest, StreamGreedyPlusClustersMatchSingleTenant) {
  size_t sharing = 0;
  const size_t compared = RunBattery(StreamKind::kStreamGreedyPlus, &sharing);
  EXPECT_GE(compared, 25000u) << "battery under-sampled";
  EXPECT_GT(sharing, 0u);
}

// ---------------------------------------------------------------------------
// Windowed runs with mid-stream joiners: the engine advanced in fixed
// RunUntil windows, with tenants joining at a window boundary, must
// match independent single-tenant replicas.
// ---------------------------------------------------------------------------

/// Everything observable about one windowed engine run: per-tenant
/// masks, join cursors, emissions and covers, so the run can be
/// compared field-for-field after the engine is gone.
struct WindowedRun {
  std::vector<LabelMask> masks;
  std::vector<PostId> joins;
  std::vector<std::vector<Emission>> emissions;
  std::vector<std::vector<PostId>> covers;
};

/// Drives one engine through fixed 97-post windows, subscribing
/// `early` at epoch 0 and `late` at the first window boundary >= cut.
WindowedRun RunWindowedEngine(const Instance& inst,
                              const CoverageModel& model, StreamKind kind,
                              double tau,
                              const std::vector<LabelMask>& early,
                              const std::vector<LabelMask>& late,
                              PostId cut, const std::string& context) {
  WindowedRun out;
  auto engine = MultiTenantStream::Create(inst, model, kind, tau);
  EXPECT_TRUE(engine.ok()) << context;
  if (!engine.ok()) return out;
  std::vector<TenantId> ids;
  auto subscribe = [&](LabelMask mask, PostId join) {
    auto id = (*engine)->Subscribe(mask);
    EXPECT_TRUE(id.ok()) << context;
    ids.push_back(id.ok() ? *id : kInvalidTenant);
    out.masks.push_back(mask);
    out.joins.push_back(join);
  };
  for (LabelMask mask : early) subscribe(mask, 0);
  const PostId n = static_cast<PostId>(inst.num_posts());
  PostId cursor = 0;
  bool joined_late = false;
  while (cursor < n) {
    if (!joined_late && cursor >= cut) {
      for (LabelMask mask : late) subscribe(mask, cursor);
      joined_late = true;
    }
    const PostId next = std::min<PostId>(n, cursor + 97);
    EXPECT_TRUE((*engine)->RunUntil(next).ok()) << context;
    cursor = next;
  }
  if (!joined_late) {
    for (LabelMask mask : late) subscribe(mask, cursor);
  }
  (*engine)->Finish();
  for (TenantId id : ids) {
    auto e = (*engine)->TenantEmissions(id);
    auto c = (*engine)->TenantCover(id);
    EXPECT_TRUE(e.ok() && c.ok()) << context;
    out.emissions.push_back(e.ok() ? std::move(*e) : std::vector<Emission>{});
    out.covers.push_back(c.ok() ? std::move(*c) : std::vector<PostId>{});
  }
  return out;
}

/// Windowed runs over every algorithm and both coverage models, with
/// mid-stream joiners in the mix, anchored against independent
/// single-tenant replicas — a few epoch-0 tenants and a few mid-stream
/// joiners each — on emissions and covers.
TEST(TenantWindowedRunTest, WindowedRunWithJoinersMatchesSingleTenant) {
  InstanceGenConfig cfg;
  cfg.num_labels = 10;
  cfg.duration = 600.0;
  cfg.posts_per_minute = 80.0;
  cfg.overlap_rate = 1.5;
  cfg.burst_fraction = 0.3;
  cfg.seed = 9100;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  const PostId cut = static_cast<PostId>(inst->num_posts() / 2);

  const std::vector<LabelMask> profiles = FuzzProfiles(cfg.num_labels, 3);
  ASSERT_GE(profiles.size(), 56u);
  const std::vector<LabelMask> early(profiles.begin(), profiles.begin() + 36);
  const std::vector<LabelMask> late(profiles.begin() + 36,
                                    profiles.begin() + 56);

  const double lambda = 6.0;
  const double tau = 3.0;
  const auto table = MakeVariableTable(*inst, lambda, 3);
  UniformLambda uniform(lambda);
  VariableLambda variable(table, lambda);

  for (StreamKind kind :
       {StreamKind::kStreamScan, StreamKind::kStreamScanPlus,
        StreamKind::kStreamGreedy, StreamKind::kStreamGreedyPlus}) {
    for (const bool use_variable : {false, true}) {
      const CoverageModel& model =
          use_variable ? static_cast<const CoverageModel&>(variable)
                       : static_cast<const CoverageModel&>(uniform);
      const std::string context =
          std::string(StreamKindName(kind)) +
          (use_variable ? " variable" : " uniform");
      const WindowedRun run = RunWindowedEngine(*inst, model, kind, tau,
                                                early, late, cut, context);
      ASSERT_EQ(run.masks.size(), 56u) << context;

      for (size_t i : {size_t{0}, size_t{17}, size_t{35}, size_t{36},
                       size_t{45}, size_t{55}}) {
        SingleTenant solo = BuildSingleTenant(
            *inst, run.masks[i], run.joins[i], lambda,
            use_variable ? &table : nullptr, lambda);
        auto proc = CreateStreamProcessor(kind, solo.sub, *solo.model, tau);
        ASSERT_TRUE(RunStream(solo.sub, proc.get()).ok()) << context;
        const auto& want = proc->emissions();
        const auto& got = run.emissions[i];
        ASSERT_EQ(got.size(), want.size())
            << context << " anchor tenant " << i;
        for (size_t e = 0; e < got.size(); ++e) {
          ASSERT_EQ(got[e].post, solo.global_of_local[want[e].post])
              << context << " anchor tenant " << i << " emission " << e;
          ASSERT_EQ(got[e].emit_time, want[e].emit_time)
              << context << " anchor tenant " << i << " emission " << e;
        }
        std::vector<PostId> want_cover;
        for (PostId local : proc->SelectedPosts()) {
          want_cover.push_back(solo.global_of_local[local]);
        }
        std::sort(want_cover.begin(), want_cover.end());
        ASSERT_EQ(run.covers[i], want_cover)
            << context << " anchor tenant " << i << " cover";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact clustering of plain-scan mid-stream joiners: every distinct
// (mask, join) gets its own representative, even among profiles one
// label apart, and each tenant's sequence equals its private replay.
// ---------------------------------------------------------------------------

/// Base masks plus one-label neighbors (one label added, one removed)
/// and a duplicate of each base, so the battery mixes distinct
/// neighboring masks with pure refcount attaches.
std::vector<LabelMask> NeighborProfiles(int num_labels, uint64_t seed) {
  Rng rng(seed * 913 + 3);
  auto bases = GenerateLabelMaskProfiles(num_labels, 3, 6, &rng);
  EXPECT_TRUE(bases.ok());
  std::vector<LabelMask> profiles;
  for (LabelMask base : *bases) {
    profiles.push_back(base);
    // Superset neighbor: add the lowest label outside the mask.
    for (LabelId a = 0; a < static_cast<LabelId>(num_labels); ++a) {
      if (!MaskHas(base, a)) {
        profiles.push_back(base | MaskOf(a));
        break;
      }
    }
    // Subset neighbor: drop the lowest label.
    const std::vector<LabelId> labels = MaskToLabels(base);
    if (labels.size() >= 2) {
      profiles.push_back(base & ~MaskOf(labels[0]));
    }
    // A duplicate of the base (pure refcount attach).
    profiles.push_back(base);
  }
  return profiles;
}

TEST(TenantExactClusterTest, MidStreamScanJoinersGetOneClusterPerMask) {
  InstanceGenConfig cfg;
  cfg.num_labels = 12;
  cfg.duration = 700.0;
  cfg.posts_per_minute = 80.0;
  cfg.overlap_rate = 1.5;
  cfg.burst_fraction = 0.3;
  cfg.seed = 9200;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  const PostId cut = static_cast<PostId>(inst->num_posts() / 3);
  const double lambda = 6.0;
  const double tau = 3.0;
  const auto table = MakeVariableTable(*inst, lambda, 5);
  UniformLambda uniform(lambda);
  VariableLambda variable(table, lambda);

  const std::vector<LabelMask> profiles = NeighborProfiles(cfg.num_labels, 1);
  const size_t distinct =
      std::set<LabelMask>(profiles.begin(), profiles.end()).size();
  ASSERT_GE(distinct, 10u);

  for (const bool use_variable : {false, true}) {
    const CoverageModel& model =
        use_variable ? static_cast<const CoverageModel&>(variable)
                     : static_cast<const CoverageModel&>(uniform);
    const std::string context = use_variable ? "variable" : "uniform";
    auto engine = MultiTenantStream::Create(*inst, model,
                                            StreamKind::kStreamScan, tau);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->RunUntil(cut).ok());
    std::vector<TenantId> ids;
    for (LabelMask mask : profiles) {
      auto id = (*engine)->Subscribe(mask);
      ASSERT_TRUE(id.ok()) << context;
      ids.push_back(*id);
    }
    // Continue in windows so the representatives advance live, then
    // flush the remaining deadlines.
    PostId cursor = cut;
    const PostId n = static_cast<PostId>(inst->num_posts());
    while (cursor < n) {
      cursor = std::min<PostId>(n, cursor + 89);
      ASSERT_TRUE((*engine)->RunUntil(cursor).ok()) << context;
    }
    (*engine)->Finish();

    EXPECT_EQ((*engine)->num_clusters(), distinct) << context;

    size_t compared = 0;
    for (size_t i = 0; i < profiles.size(); ++i) {
      compared += ExpectTenantMatchesSingleTenant(
          **engine, ids[i], *inst, profiles[i], /*join=*/cut,
          StreamKind::kStreamScan, tau, lambda,
          use_variable ? &table : nullptr, lambda,
          context + " tenant=" + std::to_string(i));
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(compared, 0u) << context;
  }
}

// ---------------------------------------------------------------------------
// Shared-tier derivation mid-stream: the per-label fire index is
// extended window by window, so every window boundary is a query point.
// ---------------------------------------------------------------------------

/// A private StreamScan over one shared-tier tenant's view, driven on
/// the global clock: every global post advances its clock, and only the
/// tenant's own posts arrive. That is what the shared engine holds for
/// the tenant at any cursor.
struct GlobalClockReplay {
  TenantView view;
  std::unique_ptr<StreamScanProcessor> processor;
  PostId next_global = 0;
  uint32_t next_local = 0;

  void AdvanceTo(const Instance& inst, PostId cursor) {
    for (; next_global < cursor; ++next_global) {
      processor->AdvanceTo(inst.value(next_global));
      if (next_local < view.global_of_local.size() &&
          view.global_of_local[next_local] == next_global) {
        processor->OnArrival(next_local++);
      }
    }
  }

  std::vector<Emission> GlobalEmissions() const {
    std::vector<Emission> out;
    for (const Emission& e : processor->emissions()) {
      out.push_back(Emission{view.global_of_local[e.post], e.emit_time});
    }
    return out;
  }
};

TEST(TenantSharedTierTest, MidStreamDerivationMatchesGlobalClockReplay) {
  size_t checks = 0;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    InstanceGenConfig cfg;
    cfg.num_labels = 10;
    cfg.duration = 600.0;
    cfg.posts_per_minute = 80.0;
    cfg.overlap_rate = 1.5;
    cfg.burst_fraction = 0.3;
    cfg.seed = 9300 + seed;
    auto inst = GenerateInstance(cfg);
    ASSERT_TRUE(inst.ok());
    const auto n = static_cast<PostId>(inst->num_posts());

    Rng rng(seed * 31 + 7);
    auto fuzzed = GenerateLabelMaskProfiles(cfg.num_labels, 3, 40, &rng);
    ASSERT_TRUE(fuzzed.ok());
    std::vector<LabelMask> masks = *fuzzed;
    masks.push_back((LabelMask{1} << cfg.num_labels) - 1);  // every label

    const double lambda = 6.0;
    const auto table = MakeVariableTable(*inst, lambda, seed);
    UniformLambda uniform(lambda);
    VariableLambda variable(table, lambda);
    for (const bool use_variable : {false, true}) {
      const CoverageModel& model =
          use_variable ? static_cast<const CoverageModel&>(variable)
                       : static_cast<const CoverageModel&>(uniform);
      for (double tau : {0.0, 4.0}) {
        const std::string context =
            "seed=" + std::to_string(seed) + " tau=" + std::to_string(tau) +
            (use_variable ? " variable" : " uniform");
        auto engine = MultiTenantStream::Create(*inst, model,
                                                StreamKind::kStreamScan, tau);
        ASSERT_TRUE(engine.ok()) << context;
        std::vector<TenantId> ids;
        std::vector<GlobalClockReplay> oracles(masks.size());
        for (size_t i = 0; i < masks.size(); ++i) {
          auto id = (*engine)->Subscribe(masks[i]);
          ASSERT_TRUE(id.ok()) << context;
          ids.push_back(*id);
          auto view = BuildTenantView(*inst, model, masks[i], 0);
          ASSERT_TRUE(view.ok()) << context;
          oracles[i].view = std::move(*view);
          oracles[i].processor = std::make_unique<StreamScanProcessor>(
              oracles[i].view.sub, *oracles[i].view.model, tau);
        }
        ASSERT_EQ((*engine)->shared_tier_tenants(), masks.size()) << context;

        // Every tenant twice, ascending then descending, so a seen
        // array left dirty by one query shows up in the next.
        auto check_all = [&](const std::string& where) {
          for (int pass = 0; pass < 2; ++pass) {
            for (size_t k = 0; k < masks.size(); ++k) {
              const size_t i = pass == 0 ? k : masks.size() - 1 - k;
              auto got = (*engine)->TenantEmissions(ids[i]);
              ASSERT_TRUE(got.ok()) << context << where;
              ASSERT_EQ(*got, oracles[i].GlobalEmissions())
                  << context << where << " tenant " << i << " pass "
                  << pass;
              ++checks;
            }
          }
        };

        check_all(" before the first arrival");
        for (size_t i = 0; i < masks.size(); ++i) {
          auto got = (*engine)->TenantEmissions(ids[i]);
          ASSERT_TRUE(got.ok() && got->empty()) << context;
        }

        const size_t evicted = 7;
        const PostId evict_at = n / 2;
        bool restored = false;
        PostId cursor = 0;
        while (cursor < n) {
          cursor = std::min<PostId>(n, cursor + 97);
          ASSERT_TRUE((*engine)->RunUntil(cursor).ok()) << context;
          for (GlobalClockReplay& oracle : oracles) {
            oracle.AdvanceTo(*inst, cursor);
          }
          const std::string where = " cursor=" + std::to_string(cursor);
          check_all(where);
          if (::testing::Test::HasFailure()) return;

          if (!restored && cursor >= evict_at) {
            // A zero-length window changes nothing.
            ASSERT_TRUE((*engine)->RunUntil(cursor).ok()) << context;
            check_all(where + " after an empty RunUntil");
            // Evict and restore one epoch-0 tenant: it rejoins the
            // shared tier and derives exactly what it did before.
            const std::vector<Emission> before =
                *(*engine)->TenantEmissions(ids[evicted]);
            std::stringstream snapshot;
            ASSERT_TRUE(
                (*engine)->EvictTenant(ids[evicted], snapshot).ok())
                << context;
            auto id = (*engine)->RestoreTenant(snapshot);
            ASSERT_TRUE(id.ok()) << context << ": "
                                 << id.status().ToString();
            ids[evicted] = *id;
            ASSERT_EQ((*engine)->shared_tier_tenants(), masks.size())
                << context;
            EXPECT_EQ(*(*engine)->TenantEmissions(ids[evicted]), before)
                << context << where << " restored tenant";
            check_all(where + " after evict/restore");
            restored = true;
          }
        }
        ASSERT_TRUE(restored) << context;

        (*engine)->Finish();
        for (GlobalClockReplay& oracle : oracles) {
          oracle.processor->Finish();
        }
        check_all(" after Finish");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GE(checks, 3000u) << "mid-stream battery under-sampled";
}

TEST(TenantSharedTierTest, RepeatFiresAreDroppedOnlyWithinTheMask) {
  // lambda 1.5, tau 5: a label fires its latest uncovered post 1.5
  // after its oldest uncovered one arrived. Post 1 is fired by label 0
  // (outside the tenant's mask) at 1.5, then by label 1 at 2.5; post 3
  // by label 2 at 5.5, when post 4 arrives, then by label 1 at 6.5,
  // when post 5 arrives, so one-post windows index the two in
  // different RunUntil calls.
  UniformLambda model(1.5);
  const double tau = 5.0;
  const Instance inst = MakeInstance(4, {{0.0, MaskOf(0)},
                                         {1.0, MaskOf(0) | MaskOf(1)},
                                         {4.0, MaskOf(2)},
                                         {5.0, MaskOf(1) | MaskOf(2)},
                                         {6.0, MaskOf(3)},
                                         {7.0, MaskOf(3)}});
  StreamScanProcessor scan(inst, model, tau);
  scan.EnableFireLog();
  ASSERT_TRUE(RunStream(inst, &scan).ok());
  const std::vector<StreamScanProcessor::LabelFire> fires = {
      {1.5, 0, 1}, {2.5, 1, 1}, {5.5, 2, 3}, {6.5, 1, 3}, {7.5, 3, 5}};
  ASSERT_EQ(scan.fire_log(), fires);

  auto engine =
      MultiTenantStream::Create(inst, model, StreamKind::kStreamScan, tau);
  ASSERT_TRUE(engine.ok());
  const std::vector<LabelMask> masks = {MaskOf(1) | MaskOf(2), MaskOf(1),
                                        MaskOf(0) | MaskOf(1)};
  std::vector<TenantId> ids;
  std::vector<GlobalClockReplay> oracles(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    auto id = (*engine)->Subscribe(masks[i]);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    auto view = BuildTenantView(inst, model, masks[i], 0);
    ASSERT_TRUE(view.ok());
    oracles[i].view = std::move(*view);
    oracles[i].processor = std::make_unique<StreamScanProcessor>(
        oracles[i].view.sub, *oracles[i].view.model, tau);
  }
  auto check_all = [&](const std::string& where) {
    for (size_t i = 0; i < masks.size(); ++i) {
      auto got = (*engine)->TenantEmissions(ids[i]);
      ASSERT_TRUE(got.ok()) << where;
      EXPECT_EQ(*got, oracles[i].GlobalEmissions())
          << where << " tenant " << i;
    }
  };
  for (PostId cursor = 1; cursor <= static_cast<PostId>(inst.num_posts());
       ++cursor) {
    ASSERT_TRUE((*engine)->RunUntil(cursor).ok());
    for (GlobalClockReplay& oracle : oracles) oracle.AdvanceTo(inst, cursor);
    check_all("cursor=" + std::to_string(cursor));
  }
  const std::vector<Emission> both = {{1, 2.5}, {3, 5.5}};
  EXPECT_EQ(*(*engine)->TenantEmissions(ids[0]), both);
  (*engine)->Finish();
  for (GlobalClockReplay& oracle : oracles) oracle.processor->Finish();
  check_all("after Finish");
  EXPECT_EQ(*(*engine)->TenantEmissions(ids[0]), both);
  const std::vector<Emission> label1 = {{1, 2.5}, {3, 6.5}};
  EXPECT_EQ(*(*engine)->TenantEmissions(ids[1]), label1);
  const std::vector<Emission> labels01 = {{1, 1.5}, {3, 6.5}};
  EXPECT_EQ(*(*engine)->TenantEmissions(ids[2]), labels01);
}

/// Subscribes every mask at epoch 0, feeds the instance `step` posts
/// per RunUntil and compares every tenant with its GlobalClockReplay
/// after every call and after Finish. Returns the shared fire log's
/// length after each call and after Finish, read from a twin
/// StreamScan driven the same way with its fire log on.
std::vector<size_t> ExpectSharedTierMatchesAfterEveryCall(
    const Instance& inst, const CoverageModel& model, double tau,
    const std::vector<LabelMask>& masks, PostId step) {
  std::vector<size_t> log_sizes;
  auto engine =
      MultiTenantStream::Create(inst, model, StreamKind::kStreamScan, tau);
  EXPECT_TRUE(engine.ok());
  if (!engine.ok()) return log_sizes;
  std::vector<TenantId> ids;
  std::vector<GlobalClockReplay> oracles(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    auto id = (*engine)->Subscribe(masks[i]);
    EXPECT_TRUE(id.ok()) << "mask " << masks[i];
    if (!id.ok()) return log_sizes;
    ids.push_back(*id);
    auto view = BuildTenantView(inst, model, masks[i], 0);
    EXPECT_TRUE(view.ok());
    if (!view.ok()) return log_sizes;
    oracles[i].view = std::move(*view);
    oracles[i].processor = std::make_unique<StreamScanProcessor>(
        oracles[i].view.sub, *oracles[i].view.model, tau);
  }
  StreamScanProcessor twin(inst, model, tau);
  twin.EnableFireLog();
  auto check_all = [&](const std::string& where) {
    for (size_t i = 0; i < masks.size(); ++i) {
      auto got = (*engine)->TenantEmissions(ids[i]);
      ASSERT_TRUE(got.ok()) << where;
      ASSERT_EQ(*got, oracles[i].GlobalEmissions())
          << where << " log length " << twin.fire_log().size() << " mask "
          << masks[i];
    }
  };
  const auto n = static_cast<PostId>(inst.num_posts());
  for (PostId cursor = 0; cursor < n;) {
    const PostId end = std::min<PostId>(n, cursor + step);
    EXPECT_TRUE((*engine)->RunUntil(end).ok());
    for (; cursor < end; ++cursor) {
      twin.AdvanceTo(inst.value(cursor));
      twin.OnArrival(cursor);
    }
    for (GlobalClockReplay& oracle : oracles) oracle.AdvanceTo(inst, cursor);
    log_sizes.push_back(twin.fire_log().size());
    check_all("cursor=" + std::to_string(cursor));
    if (::testing::Test::HasFailure()) return log_sizes;
  }
  (*engine)->Finish();
  twin.Finish();
  for (GlobalClockReplay& oracle : oracles) oracle.processor->Finish();
  log_sizes.push_back(twin.fire_log().size());
  check_all("after Finish");
  return log_sizes;
}

/// One post per second, post p carrying `labels_per_post[p]`
/// consecutive labels of 0..3 from p % 4, plus label 4 on the first 8
/// and the last 3 posts. Reaches of 0.25 s cover no other post, so at
/// tau 0 post p's labels fire once each when post p + 1 arrives: its
/// label count is how far that arrival's RunUntil extends the fire
/// log. Label 4's long silence leaves a label whose bitmap must still
/// be extended word by word.
Instance WordEdgeInstance(const std::vector<int>& labels_per_post) {
  std::vector<std::pair<DimValue, LabelMask>> posts;
  const size_t n = labels_per_post.size();
  for (size_t p = 0; p < n; ++p) {
    LabelMask mask = 0;
    for (int k = 0; k < labels_per_post[p]; ++k) {
      mask |= MaskOf(static_cast<LabelId>((p + k) % 4));
    }
    if (p < 8 || p + 3 >= n) mask |= MaskOf(4);
    posts.emplace_back(static_cast<DimValue>(p), mask);
  }
  return MakeInstance(5, posts);
}

/// Whether one RunUntil extended the log from at most `first` to more
/// than `last` fires, so that it indexed positions first..last.
bool OneCallIndexes(const std::vector<size_t>& log_sizes, size_t first,
                    size_t last) {
  for (size_t i = 1; i < log_sizes.size(); ++i) {
    if (log_sizes[i - 1] <= first && log_sizes[i] > last) return true;
  }
  return false;
}

bool SomeCallEndsAt(const std::vector<size_t>& log_sizes, size_t length) {
  return std::find(log_sizes.begin(), log_sizes.end(), length) !=
         log_sizes.end();
}

TEST(TenantSharedTierTest, FireBitmapWordEdgesMatchGlobalClockReplay) {
  // Each fire-log bitmap word holds 64 positions. Every non-empty mask
  // over the 5 labels is queried after every one-post RunUntil and
  // after Finish, while the log's length crosses 63/64/65 and 127/128
  // once between calls and once inside one call.
  UniformLambda model(0.25);
  const double tau = 0.0;
  std::vector<LabelMask> masks;
  for (LabelMask mask = 1; mask < 32; ++mask) masks.push_back(mask);

  // Between calls around 64, inside one call around 128: single-label
  // posts, then 3-label ones.
  std::vector<int> between_then_inside(100, 1);
  between_then_inside.resize(between_then_inside.size() + 16, 3);
  // Inside one call around 64, between calls around 128.
  std::vector<int> inside_then_between(19, 3);
  inside_then_between.resize(inside_then_between.size() + 90, 1);
  for (const std::vector<int>* labels_per_post :
       {&between_then_inside, &inside_then_between}) {
    const bool between_first = labels_per_post == &between_then_inside;
    SCOPED_TRACE(between_first ? "between then inside"
                               : "inside then between");
    const Instance inst = WordEdgeInstance(*labels_per_post);
    const std::vector<size_t> log_sizes =
        ExpectSharedTierMatchesAfterEveryCall(inst, model, tau, masks, 1);
    if (::testing::Test::HasFailure()) return;
    ASSERT_GT(log_sizes.back(), 130u);
    if (between_first) {
      for (size_t length : {63, 64, 65}) {
        EXPECT_TRUE(SomeCallEndsAt(log_sizes, length)) << length;
      }
      EXPECT_TRUE(OneCallIndexes(log_sizes, 126, 128));
    } else {
      EXPECT_TRUE(OneCallIndexes(log_sizes, 62, 64));
      for (size_t length : {127, 128, 129}) {
        EXPECT_TRUE(SomeCallEndsAt(log_sizes, length)) << length;
      }
    }
  }
}

TEST(TenantSharedTierTest, SixtyFourLabelMasksMatchGlobalClockReplay) {
  // A full 64-label universe: the masks reach labels 0 and 63, the top
  // bit of a LabelMask, and one tenant subscribes to every label.
  std::vector<std::pair<DimValue, LabelMask>> posts;
  for (uint32_t p = 0; p < 400; ++p) {
    LabelMask mask = MaskOf(static_cast<LabelId>(p % 64)) |
                     MaskOf(static_cast<LabelId>((7 * p + 3) % 64));
    if (p % 5 == 0) mask |= MaskOf(0) | MaskOf(63);
    posts.emplace_back(0.5 * p, mask);
  }
  const Instance inst = MakeInstance(64, posts);
  UniformLambda model(2.0);
  const LabelMask all = ~LabelMask{0};
  const std::vector<LabelMask> masks = {
      MaskOf(0),
      MaskOf(63),
      MaskOf(0) | MaskOf(63),
      MaskOf(0) | MaskOf(1) | MaskOf(62) | MaskOf(63),
      MaskOf(0) | MaskOf(31) | MaskOf(32) | MaskOf(63),
      all,
      all & ~MaskOf(0),
      all & ~MaskOf(63),
      0x5555555555555555ULL,
      0xAAAAAAAAAAAAAAAAULL};
  for (double tau : {0.0, 3.0}) {
    SCOPED_TRACE("tau=" + std::to_string(tau));
    const std::vector<size_t> log_sizes =
        ExpectSharedTierMatchesAfterEveryCall(inst, model, tau, masks, 37);
    if (::testing::Test::HasFailure()) return;
    EXPECT_GT(log_sizes.back(), 4 * 64u);
  }
}

// ---------------------------------------------------------------------------
// View construction: Instance::Restrict (behind BuildTenantView) must
// equal the InstanceBuilder loop of BuildSingleTenant in every field,
// and the view's coverage must answer with the parent's radii.
// ---------------------------------------------------------------------------

/// Compares the view of (mask, from) with the builder oracle: per post
/// value, local mask and external_id; per label offset, posting list
/// and values; pair count, max labels per post and global_of_local.
/// Then every (local post, local label) radius of the view's model
/// against `model` on the parent. Returns the number of views checked.
size_t ExpectViewMatchesOracle(const Instance& inst,
                               const CoverageModel& model, LabelMask mask,
                               PostId from, const std::string& context) {
  const SingleTenant want = BuildSingleTenant(inst, mask, from, 1.0,
                                              nullptr, 1.0);
  auto got = BuildTenantView(inst, model, mask, from);
  EXPECT_TRUE(got.ok()) << context << ": " << got.status().ToString();
  if (!got.ok()) return 0;
  const Instance& g = got->sub;
  const Instance& w = want.sub;
  EXPECT_EQ(g.num_posts(), w.num_posts()) << context;
  EXPECT_EQ(g.num_labels(), w.num_labels()) << context;
  EXPECT_EQ(g.num_pairs(), w.num_pairs()) << context;
  EXPECT_EQ(g.max_labels_per_post(), w.max_labels_per_post()) << context;
  EXPECT_EQ(got->global_of_local, want.global_of_local) << context;
  if (::testing::Test::HasFailure()) return 0;
  for (PostId p = 0; p < static_cast<PostId>(g.num_posts()); ++p) {
    EXPECT_EQ(g.value(p), w.value(p)) << context << " post " << p;
    EXPECT_EQ(g.labels(p), w.labels(p)) << context << " post " << p;
    EXPECT_EQ(g.post(p).external_id, w.post(p).external_id)
        << context << " post " << p;
    if (::testing::Test::HasFailure()) return 0;
  }
  for (LabelId a = 0; a < static_cast<LabelId>(g.num_labels()); ++a) {
    EXPECT_EQ(g.label_offset(a), w.label_offset(a))
        << context << " label " << a;
    const auto gp = g.label_posts(a);
    const auto wp = w.label_posts(a);
    EXPECT_EQ(std::vector<PostId>(gp.begin(), gp.end()),
              std::vector<PostId>(wp.begin(), wp.end()))
        << context << " label " << a;
    const auto gv = g.label_values(a);
    const auto wv = w.label_values(a);
    EXPECT_EQ(std::vector<DimValue>(gv.begin(), gv.end()),
              std::vector<DimValue>(wv.begin(), wv.end()))
        << context << " label " << a;
    if (::testing::Test::HasFailure()) return 0;
  }
  const std::vector<LabelId> global_labels = MaskToLabels(mask);
  for (PostId p = 0; p < static_cast<PostId>(g.num_posts()); ++p) {
    ForEachLabel(g.labels(p), [&](LabelId a) {
      EXPECT_EQ(got->model->Reach(g, p, a),
                model.Reach(inst, got->global_of_local[p],
                            global_labels[a]))
          << context << " post " << p << " label " << a;
    });
    if (::testing::Test::HasFailure()) return 0;
  }
  return 1;
}

/// Every mask at the join points around the bitmap's word edges.
size_t ExpectViewsMatchOracle(const Instance& inst,
                              const CoverageModel& model,
                              const std::vector<LabelMask>& masks,
                              const std::string& context) {
  const auto n = static_cast<PostId>(inst.num_posts());
  const std::set<PostId> joins = {0, 1, 63, 64, 65, n / 2,
                                  n == 0 ? 0 : n - 1, n};
  size_t views = 0;
  for (PostId from : joins) {
    if (from > n) continue;
    for (LabelMask mask : masks) {
      views += ExpectViewMatchesOracle(
          inst, model, mask, from,
          context + " mask=" + std::to_string(mask) +
              " from=" + std::to_string(from));
      if (::testing::Test::HasFailure()) return views;
    }
  }
  return views;
}

TEST(TenantViewTest, RestrictMatchesBuilderOracle) {
  size_t views = 0;
  const double lambda = 6.0;
  // Generated streams: fuzzed 6-label masks, every label and one label
  // on 12 labels; label 63 alone and beside label 0 on 64 labels.
  for (const int num_labels : {12, 64}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      InstanceGenConfig cfg;
      cfg.num_labels = num_labels;
      cfg.duration = 600.0;
      cfg.posts_per_minute = 60.0;
      cfg.overlap_rate = 2.0;
      cfg.burst_fraction = 0.3;
      cfg.seed = 9500 + seed;
      auto inst = GenerateInstance(cfg);
      ASSERT_TRUE(inst.ok());
      Rng rng(seed * 13 + 1);
      auto fuzzed = GenerateLabelMaskProfiles(num_labels, 6, 12, &rng);
      ASSERT_TRUE(fuzzed.ok());
      std::vector<LabelMask> masks = *fuzzed;
      masks.push_back(num_labels == kMaxLabels
                          ? ~LabelMask{0}
                          : (LabelMask{1} << num_labels) - 1);
      masks.push_back(MaskOf(static_cast<LabelId>(seed * 5 % num_labels)));
      if (num_labels == kMaxLabels) {
        masks.push_back(MaskOf(63));
        masks.push_back(MaskOf(0) | MaskOf(63));
      }
      const auto table = MakeVariableTable(*inst, lambda, seed);
      VariableLambda model(table, lambda);
      views += ExpectViewsMatchOracle(
          *inst, model, masks,
          "labels=" + std::to_string(num_labels) +
              " seed=" + std::to_string(seed));
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Tiny instances whose values tie heavily (value_range 0..6), so the
  // view must keep the parent's tie order, and whose external ids are
  // not the PostIds the view must carry.
  for (int value_range = 0; value_range <= 6; ++value_range) {
    Rng rng(static_cast<uint64_t>(value_range) + 71);
    auto inst = GenerateTinyInstance(150 + 10 * value_range, 8, 4,
                                     value_range, &rng);
    ASSERT_TRUE(inst.ok());
    auto fuzzed = GenerateLabelMaskProfiles(8, 6, 6, &rng);
    ASSERT_TRUE(fuzzed.ok());
    std::vector<LabelMask> masks = *fuzzed;
    masks.push_back((LabelMask{1} << 8) - 1);
    masks.push_back(MaskOf(static_cast<LabelId>(value_range)));
    UniformLambda model(lambda);
    views += ExpectViewsMatchOracle(
        *inst, model, masks, "tiny value_range=" + std::to_string(value_range));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(views, 500u) << "view battery under-sampled";
}

}  // namespace
}  // namespace mqd
