#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/coverage.h"
#include "core/degrade.h"
#include "core/instance.h"
#include "core/io.h"
#include "core/opt_dp.h"
#include "core/types.h"
#include "core/verifier.h"
#include "gen/instance_gen.h"
#include "parallel/batch_solver.h"
#include "stream/factory.h"
#include "stream/multi_tenant.h"
#include "stream/replay.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mqd {
namespace {

/// Disarms the global injector even when an assertion bails out of a
/// test early, so one failing schedule cannot poison the next test.
struct ScopedDisarm {
  ~ScopedDisarm() { FaultInjector::Global().Disarm(); }
};

Instance SmallInstance(uint64_t seed) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 60.0;
  cfg.posts_per_minute = 60.0;
  cfg.overlap_rate = 1.5;
  cfg.seed = 100000 + seed;
  auto inst = GenerateInstance(cfg);
  MQD_CHECK(inst.ok());
  return std::move(inst).value();
}

/// One fuzzed fault schedule: a random probability per site. `throw`
/// mode only where the architecture contains it (the batch helper's
/// pool.task probe); the Status sites unwind through Result plumbing.
std::string FuzzSpec(Rng& rng) {
  std::string spec;
  auto add = [&](const char* site, bool allow_throw) {
    const int mode = static_cast<int>(rng.UniformInt(0, 3));
    if (mode == 0) return;  // site unfaulted this round
    const double p = rng.UniformDouble(0.02, 0.9);
    if (!spec.empty()) spec += ',';
    spec += site;
    spec += ':';
    spec += std::to_string(p);
    if (mode == 2) spec += ":1";  // 1ms latency
    if (mode == 3 && allow_throw) spec += ":throw";
  };
  add("io.read_instance", false);
  add("stream.replay", false);
  add("pool.task", true);
  return spec;
}

/// The chaos sweep the issue's acceptance bar names: >= 1e3 fuzzed
/// fault schedules across the io / pool / stream sites. Every
/// operation must either succeed with verifier-valid output or fail
/// with a typed Status — no crash, no hang, no silent corruption.
TEST(ChaosTest, FuzzedFaultSchedulesNeverCorrupt) {
  ScopedDisarm disarm_guard;
  const Instance inst = SmallInstance(1);
  UniformLambda model(8.0);

  // The serialized instance the io site replays against.
  std::stringstream io_blob;
  ASSERT_TRUE(WriteInstance(inst, io_blob).ok());
  const std::string blob = io_blob.str();

  const BatchSolver batch(3);
  DegradingSolver ladder;
  size_t schedules = 0;
  size_t io_ok = 0, io_fail = 0;
  size_t stream_ok = 0, stream_fail = 0;
  size_t batch_ok = 0, batch_fail = 0;
  uint64_t pool_fires = 0;

  for (uint64_t seed = 1; seed <= 1100; ++seed) {
    Rng rng(seed * 7919);
    const std::string spec = FuzzSpec(rng);
    ASSERT_TRUE(
        FaultInjector::Global().ArmFromSpec(spec, seed).ok())
        << spec;
    ++schedules;

    {  // io.read_instance: parse either yields the instance or a
       // typed error.
      std::istringstream is(blob);
      auto r = ReadInstance(is);
      if (r.ok()) {
        ++io_ok;
        ASSERT_EQ(r->num_posts(), inst.num_posts());
      } else {
        ++io_fail;
        ASSERT_NE(r.status().code(), StatusCode::kOk);
      }
    }

    {  // stream.replay: aborted replays carry a typed Status;
       // successful ones emit a subset of the posts.
      auto processor = CreateStreamProcessor(StreamKind::kStreamScanPlus,
                                             inst, model, 2.0);
      auto r = RunStream(inst, processor.get());
      if (r.ok()) {
        ++stream_ok;
        for (const Emission& e : processor->emissions()) {
          ASSERT_LT(e.post, inst.num_posts());
        }
      } else {
        ++stream_fail;
        ASSERT_NE(r.status().code(), StatusCode::kOk);
      }
    }

    if (seed % 4 == 0) {  // pool.task: helper kills (including thrown
                          // ones) only cost parallelism — the calling
                          // thread claims every unclaimed job, so the
                          // batch stays complete and correct.
      std::vector<BatchJob> jobs(4);
      for (auto& job : jobs) {
        job.instance = &inst;
        job.kind = SolverKind::kGreedySC;
        job.lambda = 8.0;
      }
      const auto results = batch.SolveAll(jobs);
      ASSERT_EQ(results.size(), jobs.size());
      for (const auto& result : results) {
        if (result.status.ok()) {
          ++batch_ok;
          ASSERT_TRUE(IsCover(inst, model, result.cover));
        } else {
          ++batch_fail;
          ASSERT_NE(result.status.code(), StatusCode::kOk);
        }
      }
      pool_fires += FaultInjector::Global().Fires("pool.task");
    }

    if (seed % 8 == 0) {  // the degradation ladder under chaos is
                          // total: always a verifier-valid cover.
      const std::vector<PostId> cover =
          ladder.SolveDegrading(inst, model, Deadline::Unbounded()).cover;
      ASSERT_TRUE(IsCover(inst, model, cover));
    }

    FaultInjector::Global().Disarm();
    if (::testing::Test::HasFailure()) return;
  }

  EXPECT_GE(schedules, 1000u);
  // The sweep must actually sample both halves of every contract.
  EXPECT_GT(io_ok, 0u);
  EXPECT_GT(io_fail, 0u);
  EXPECT_GT(stream_ok, 0u);
  EXPECT_GT(stream_fail, 0u);
  // pool.task faults must actually have fired inside batches; the
  // containment contract is that every result is nevertheless a valid
  // cover (a killed helper task costs parallelism, never answers), so
  // there is no failure half to sample here.
  EXPECT_GT(batch_ok, 0u);
  EXPECT_EQ(batch_fail, 0u);
  EXPECT_GT(pool_fires, 0u);
}

/// Firing is a pure function of (seed, site, hit index): replaying a
/// schedule reproduces the exact same faults, which is what makes
/// chaos failures shrinkable.
TEST(ChaosTest, SchedulesAreDeterministic) {
  ScopedDisarm disarm_guard;
  const Instance inst = SmallInstance(2);
  UniformLambda model(8.0);
  auto run_once = [&](uint64_t seed) -> std::pair<uint64_t, bool> {
    MQD_CHECK(FaultInjector::Global()
                  .ArmFromSpec("stream.replay:0.3", seed)
                  .ok());
    auto processor = CreateStreamProcessor(StreamKind::kStreamScan, inst,
                                           model, 2.0);
    const bool ok = RunStream(inst, processor.get()).ok();
    // The first fire aborts the replay, so Fires() saturates at 1;
    // Hits() records how far the replay got, which is the part of the
    // schedule that varies with the seed.
    const uint64_t hits = FaultInjector::Global().Hits("stream.replay");
    FaultInjector::Global().Disarm();
    return {hits, ok};
  };
  const auto first = run_once(42);
  const auto replay = run_once(42);
  EXPECT_EQ(first, replay);
  // And a different seed must (for this probability) pick a different
  // schedule at least once across a few tries.
  bool diverged = false;
  for (uint64_t seed = 43; seed < 53 && !diverged; ++seed) {
    diverged = run_once(seed) != first;
  }
  EXPECT_TRUE(diverged);
}

/// Disarmed, the sites are inert: full-probability specs fire nothing
/// after Disarm, and the hit counters reset on re-arm.
TEST(ChaosTest, DisarmedSitesAreInert) {
  ScopedDisarm disarm_guard;
  FaultInjector& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("io.read_instance:1", 7).ok());
  const Instance inst = SmallInstance(3);
  std::stringstream blob;
  ASSERT_TRUE(WriteInstance(inst, blob).ok());
  {
    std::istringstream is(blob.str());
    EXPECT_FALSE(ReadInstance(is).ok());
  }
  injector.Disarm();
  {
    std::istringstream is(blob.str());
    EXPECT_TRUE(ReadInstance(is).ok());
  }
  EXPECT_EQ(injector.Hits("io.read_instance"), 0u);
  EXPECT_EQ(injector.Fires("io.read_instance"), 0u);
}

/// A fired tenant.fanout quarantines exactly the cluster it fired in:
/// the faulted tenants' queries return the injected Status, every
/// other tenant's output stays bit-identical to a fault-free engine.
/// The instance is handmade so the trigger post (label 0 only) matches
/// exactly one cluster's mask, making the blast radius deterministic.
TEST(ChaosTest, TenantFanoutFaultQuarantinesOneClusterOnly) {
  ScopedDisarm disarm_guard;
  const std::vector<LabelMask> post_masks = {
      MaskOf(0) | MaskOf(1), MaskOf(2),             //
      MaskOf(1) | MaskOf(3), MaskOf(2) | MaskOf(3),  //
      MaskOf(0) | MaskOf(2),
      MaskOf(0),  // trigger: relevant to the {0,1} cluster alone
      MaskOf(1),  MaskOf(3),
      MaskOf(0) | MaskOf(1), MaskOf(2)};
  InstanceBuilder builder(4);
  for (size_t i = 0; i < post_masks.size(); ++i) {
    builder.Add(10.0 * static_cast<double>(i + 1), post_masks[i],
                static_cast<PostId>(i));
  }
  auto inst = builder.Build();
  ASSERT_TRUE(inst.ok());
  UniformLambda model(25.0);
  constexpr PostId kTrigger = 5;
  // Victim cluster twice over (two tenants share the representative),
  // plus two bystander clusters that never see label 0.
  const std::vector<LabelMask> profiles = {
      MaskOf(0) | MaskOf(1), MaskOf(0) | MaskOf(1),
      MaskOf(2) | MaskOf(3), MaskOf(1) | MaskOf(3)};

  auto subscribe_all = [&](MultiTenantStream& engine) {
    std::vector<TenantId> ids;
    for (LabelMask mask : profiles) {
      auto id = engine.Subscribe(mask);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    return ids;
  };

  auto clean = MultiTenantStream::Create(*inst, model,
                                         StreamKind::kStreamGreedyPlus, 5.0);
  ASSERT_TRUE(clean.ok());
  const auto clean_ids = subscribe_all(**clean);
  ASSERT_TRUE((*clean)->RunToEnd().ok());

  auto faulted = MultiTenantStream::Create(*inst, model,
                                           StreamKind::kStreamGreedyPlus, 5.0);
  ASSERT_TRUE(faulted.ok());
  const auto ids = subscribe_all(**faulted);
  ASSERT_TRUE((*faulted)->RunUntil(kTrigger).ok());
  ASSERT_TRUE(
      FaultInjector::Global().ArmFromSpec("tenant.fanout:1", 11).ok());
  // The trigger arrival fans out to the victim cluster only, so the
  // armed window probes — and fires — the site exactly once.
  ASSERT_TRUE((*faulted)->RunUntil(kTrigger + 1).ok());
  EXPECT_EQ(FaultInjector::Global().Fires("tenant.fanout"), 1u);
  FaultInjector::Global().Disarm();
  ASSERT_TRUE((*faulted)->RunToEnd().ok());

  for (TenantId victim : {ids[0], ids[1]}) {
    auto emissions = (*faulted)->TenantEmissions(victim);
    ASSERT_FALSE(emissions.ok());
    EXPECT_EQ(emissions.status().code(), StatusCode::kInternal);
    EXPECT_FALSE((*faulted)->TenantCover(victim).ok());
    std::ostringstream snap;
    EXPECT_FALSE((*faulted)->EvictTenant(victim, snap).ok());
  }
  for (size_t i = 2; i < ids.size(); ++i) {
    auto got = (*faulted)->TenantEmissions(ids[i]);
    auto want = (*clean)->TenantEmissions(clean_ids[i]);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, *want) << "bystander tenant " << i << " diverged";
  }
}

/// A tenant.fanout fire at the k-th delivery inside one 64-post word:
/// the cluster receives exactly the k-1 posts before the faulted one,
/// is probed no further, and is quarantined with its cursor at the
/// faulted post, which the quarantine status names.
TEST(ChaosTest, TenantFanoutFaultMidWordDeliversOnlyThePrefix) {
  ScopedDisarm disarm_guard;
  constexpr PostId kPosts = 48;  // one delivery word
  InstanceBuilder builder(1);
  for (PostId p = 0; p < kPosts; ++p) {
    builder.Add(static_cast<double>(p + 1), MaskOf(0), p);
  }
  auto inst = builder.Build();
  ASSERT_TRUE(inst.ok());
  UniformLambda model(4.0);

  // Firing is a pure function of (seed, site, hit index): probe the
  // schedule directly to find a seed whose first fire is mid-word.
  constexpr std::string_view kSpec = "tenant.fanout:0.1";
  FaultInjector& injector = FaultInjector::Global();
  uint64_t seed = 0;
  uint64_t k = 0;
  for (uint64_t s = 1; s <= 200 && k == 0; ++s) {
    ASSERT_TRUE(injector.ArmFromSpec(kSpec, s).ok());
    for (uint64_t hit = 1; hit <= kPosts; ++hit) {
      if (!injector.MaybeInject("tenant.fanout").ok()) {
        if (hit >= 2 && hit < kPosts) {
          seed = s;
          k = hit;
        }
        break;
      }
    }
    injector.Disarm();
  }
  ASSERT_GT(k, 0u) << "no seed fires mid-word";

  auto engine = MultiTenantStream::Create(*inst, model,
                                          StreamKind::kStreamScanPlus, 2.0);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Subscribe(MaskOf(0));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(injector.ArmFromSpec(kSpec, seed).ok());
  ASSERT_TRUE((*engine)->RunUntil(kPosts).ok());
  EXPECT_EQ(injector.Hits("tenant.fanout"), k);
  EXPECT_EQ(injector.Fires("tenant.fanout"), 1u);
  injector.Disarm();
  EXPECT_EQ((*engine)->fanout_deliveries(), k - 1);
  ASSERT_TRUE((*engine)->RunToEnd().ok());
  EXPECT_EQ((*engine)->fanout_deliveries(), k - 1);

  const PostId faulted = static_cast<PostId>(k - 1);
  auto emissions = (*engine)->TenantEmissions(*id);
  ASSERT_FALSE(emissions.ok());
  EXPECT_EQ(emissions.status().code(), StatusCode::kInternal);
  EXPECT_NE(emissions.status().message().find(
                "quarantined at post " + std::to_string(faulted) + ")"),
            std::string::npos)
      << emissions.status().ToString();
}

/// tenant.evict fires as a typed Status before a single byte is
/// written, and the tenant stays subscribed: disarmed, the same evict
/// succeeds and the snapshot restores to a tenant whose final output
/// matches a never-evicted baseline.
TEST(ChaosTest, TenantEvictFaultIsTypedAndHarmless) {
  ScopedDisarm disarm_guard;
  const Instance inst = SmallInstance(5);
  UniformLambda model(8.0);
  const LabelMask mask = MaskOf(0) | MaskOf(1);

  auto baseline = MultiTenantStream::Create(inst, model,
                                            StreamKind::kStreamScanPlus, 2.0);
  ASSERT_TRUE(baseline.ok());
  auto base_id = (*baseline)->Subscribe(mask);
  ASSERT_TRUE(base_id.ok());
  ASSERT_TRUE((*baseline)->RunToEnd().ok());

  auto engine = MultiTenantStream::Create(inst, model,
                                          StreamKind::kStreamScanPlus, 2.0);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Subscribe(mask);
  ASSERT_TRUE(id.ok());
  const PostId mid = static_cast<PostId>(inst.num_posts() / 2);
  ASSERT_TRUE((*engine)->RunUntil(mid).ok());

  ASSERT_TRUE(FaultInjector::Global().ArmFromSpec("tenant.evict:1", 3).ok());
  std::ostringstream failed_snap;
  const Status evict = (*engine)->EvictTenant(*id, failed_snap);
  ASSERT_FALSE(evict.ok());
  EXPECT_EQ(evict.code(), StatusCode::kInternal);
  EXPECT_TRUE(failed_snap.str().empty());
  // The fault left the tenant fully subscribed and queryable.
  EXPECT_EQ((*engine)->active_tenants(), 1u);
  ASSERT_TRUE((*engine)->TenantLabels(*id).ok());
  EXPECT_EQ(*(*engine)->TenantLabels(*id), mask);
  FaultInjector::Global().Disarm();

  std::ostringstream snap;
  ASSERT_TRUE((*engine)->EvictTenant(*id, snap).ok());
  std::istringstream is(snap.str());
  auto restored = (*engine)->RestoreTenant(is);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*engine)->RunToEnd().ok());
  auto got = (*engine)->TenantEmissions(*restored);
  auto want = (*baseline)->TenantEmissions(*base_id);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(*got, *want);
}

/// Fuzzed tenant.fanout schedules over a full multi-tenant replay:
/// the engine must always complete (fan-out faults are contained, not
/// surfaced), every quarantined tenant must fail typed, and every
/// still-healthy tenant must remain bit-identical to the fault-free
/// baseline — injected faults degrade tenants, never the shared state.
TEST(ChaosTest, TenantFaultSweepDegradesOnlyFaultedTenants) {
  ScopedDisarm disarm_guard;
  const Instance inst = SmallInstance(4);
  UniformLambda model(8.0);
  const std::vector<LabelMask> profiles = {
      MaskOf(0),           MaskOf(1),           MaskOf(2),
      MaskOf(0) | MaskOf(1), MaskOf(1) | MaskOf(2), MaskOf(0) | MaskOf(2),
      MaskOf(0) | MaskOf(1) | MaskOf(2), MaskOf(0) | MaskOf(1)};

  auto clean = MultiTenantStream::Create(inst, model,
                                         StreamKind::kStreamGreedy, 3.0);
  ASSERT_TRUE(clean.ok());
  std::vector<std::vector<Emission>> want;
  for (LabelMask mask : profiles) {
    auto id = (*clean)->Subscribe(mask);
    ASSERT_TRUE(id.ok());
    want.push_back({});
    ASSERT_EQ(*id, want.size() - 1);
  }
  ASSERT_TRUE((*clean)->RunToEnd().ok());
  for (size_t i = 0; i < profiles.size(); ++i) {
    auto e = (*clean)->TenantEmissions(static_cast<TenantId>(i));
    ASSERT_TRUE(e.ok());
    want[i] = std::move(*e);
  }

  size_t quarantined = 0, intact = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ASSERT_TRUE(
        FaultInjector::Global().ArmFromSpec("tenant.fanout:0.02", seed).ok());
    auto engine = MultiTenantStream::Create(inst, model,
                                            StreamKind::kStreamGreedy, 3.0);
    ASSERT_TRUE(engine.ok());
    std::vector<TenantId> ids;
    for (LabelMask mask : profiles) {
      auto id = (*engine)->Subscribe(mask);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE((*engine)->RunToEnd().ok()) << "seed " << seed;
    FaultInjector::Global().Disarm();
    for (size_t i = 0; i < ids.size(); ++i) {
      auto e = (*engine)->TenantEmissions(ids[i]);
      if (e.ok()) {
        ++intact;
        ASSERT_EQ(*e, want[i]) << "seed " << seed << " tenant " << i;
      } else {
        ++quarantined;
        ASSERT_NE(e.status().code(), StatusCode::kOk);
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  // The sweep must sample both halves of the contract.
  EXPECT_GT(quarantined, 0u);
  EXPECT_GT(intact, 0u);
}

/// Regression for the exact DP's budget-overshoot fix: the deadline is
/// polled per examined *transition* (candidate x predecessor pair),
/// not per candidate pattern. On label-dense instances a position can
/// carry few candidates but a huge predecessor level; a per-candidate
/// poll with the stride-8192 checker would run thousands of positions'
/// worth of work (far beyond any budget) before its first clock read.
/// The budgeted run must instead fail promptly with the deadline
/// status — generous wall bound so sanitizer builds stay green.
TEST(ChaosTest, OptDpHonorsBudgetOnLabelDenseInstances) {
  Rng rng(0xD0D0);
  auto inst = GenerateTinyInstance(120, 3, 3, 30, &rng);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(10.0);
  OptDpSolver opt;
  Stopwatch watch;
  auto z = opt.SolveWithBudget(*inst, model, Deadline::AfterSeconds(0.05));
  EXPECT_FALSE(z.ok());
  EXPECT_EQ(z.status().code(), StatusCode::kDeadlineExceeded)
      << z.status();
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
}

}  // namespace
}  // namespace mqd
