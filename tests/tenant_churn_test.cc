#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/types.h"
#include "gen/instance_gen.h"
#include "stream/checkpoint.h"
#include "stream/factory.h"
#include "stream/multi_tenant.h"
#include "stream/replay.h"
#include "util/rng.h"

namespace mqd {
namespace {

/// Subscription-churn properties of the multi-tenant engine:
///  * join-equivalence — a tenant subscribing mid-stream equals a
///    fresh single-tenant run whose stream starts at the join point;
///  * churn-invisibility — unsubscribing one tenant never perturbs
///    any other tenant's emissions;
///  * evict/restore exactness — kill/restore through the tenant
///    snapshot format reproduces the never-evicted run bit for bit,
///    and corrupt snapshots are rejected without side effects.

Instance TestInstance(uint64_t seed, int num_labels = 8) {
  InstanceGenConfig cfg;
  cfg.num_labels = num_labels;
  cfg.duration = 600.0;
  cfg.posts_per_minute = 70.0;
  cfg.overlap_rate = 1.6;
  cfg.burst_fraction = 0.3;
  cfg.seed = 40000 + seed;
  auto inst = GenerateInstance(cfg);
  EXPECT_TRUE(inst.ok());
  return std::move(inst).value();
}

/// Independent single-tenant reference: replays the tenant's
/// sub-stream (posts matching `mask`, global ids >= `from`) through a
/// private processor and returns emissions as global ids.
std::vector<Emission> RunSolo(const Instance& inst, LabelMask mask,
                              PostId from, StreamKind kind, double tau,
                              double lambda) {
  const std::vector<LabelId> global_labels = MaskToLabels(mask);
  InstanceBuilder builder(static_cast<int>(global_labels.size()));
  std::vector<PostId> global_of_local;
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
    global_of_local.push_back(p);
  }
  auto sub = builder.Build();
  EXPECT_TRUE(sub.ok());
  UniformLambda model(lambda);
  auto proc = CreateStreamProcessor(kind, *sub, model, tau);
  EXPECT_TRUE(RunStream(*sub, proc.get()).ok());
  std::vector<Emission> out;
  for (const Emission& e : proc->emissions()) {
    out.push_back(Emission{global_of_local[e.post], e.emit_time});
  }
  return out;
}

void ExpectEmissionsEqual(const std::vector<Emission>& got,
                          const std::vector<Emission>& want,
                          const std::string& context) {
  EXPECT_EQ(got.size(), want.size()) << context;
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].post, want[i].post) << context << " emission " << i;
    EXPECT_EQ(got[i].emit_time, want[i].emit_time)
        << context << " emission " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

const StreamKind kAllKinds[] = {
    StreamKind::kStreamScan, StreamKind::kStreamScanPlus,
    StreamKind::kStreamGreedy, StreamKind::kStreamGreedyPlus};

/// Metamorphic join-equivalence: subscribing at cursor c must equal a
/// fresh tenant whose whole stream starts at c — for every algorithm,
/// with epoch-0 tenants (shared or cluster tier) checked alongside to
/// prove the late join didn't disturb them.
TEST(TenantChurnTest, MidStreamJoinEqualsFreshTenant) {
  const double tau = 3.0;
  const double lambda = 7.0;
  const Instance inst = TestInstance(1);
  const LabelMask base_masks[] = {MaskOf(0) | MaskOf(1), MaskOf(2),
                                  MaskOf(3) | MaskOf(5)};
  const LabelMask late_mask = MaskOf(1) | MaskOf(4);
  for (StreamKind kind : kAllKinds) {
    for (PostId cut :
         {PostId{1}, static_cast<PostId>(inst.num_posts() / 3),
          static_cast<PostId>(inst.num_posts() - 1)}) {
      const std::string context = std::string(StreamKindName(kind)) +
                                  " cut=" + std::to_string(cut);
      UniformLambda model(lambda);
      auto engine = MultiTenantStream::Create(inst, model, kind, tau);
      ASSERT_TRUE(engine.ok());
      std::vector<TenantId> base_ids;
      for (LabelMask mask : base_masks) {
        base_ids.push_back(*(*engine)->Subscribe(mask));
      }
      ASSERT_TRUE((*engine)->RunUntil(cut).ok());
      auto late = (*engine)->Subscribe(late_mask);
      ASSERT_TRUE(late.ok()) << context;
      ASSERT_TRUE((*engine)->RunToEnd().ok());

      auto late_emissions = (*engine)->TenantEmissions(*late);
      ASSERT_TRUE(late_emissions.ok()) << context;
      ExpectEmissionsEqual(*late_emissions,
                           RunSolo(inst, late_mask, cut, kind, tau, lambda),
                           context + " late joiner");
      for (size_t i = 0; i < base_ids.size(); ++i) {
        auto base = (*engine)->TenantEmissions(base_ids[i]);
        ASSERT_TRUE(base.ok()) << context;
        ExpectEmissionsEqual(
            *base, RunSolo(inst, base_masks[i], 0, kind, tau, lambda),
            context + " base tenant " + std::to_string(i));
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// Unsubscribing a tenant mid-stream must be invisible to everyone
/// else: an engine that saw the churn and one that never had the
/// churned tenant agree on every surviving tenant.
TEST(TenantChurnTest, UnsubscribeIsInvisibleToOtherTenants) {
  const double tau = 2.0;
  const double lambda = 6.0;
  const Instance inst = TestInstance(2);
  const LabelMask keep_a = MaskOf(0) | MaskOf(2);
  const LabelMask churn = MaskOf(1) | MaskOf(3);
  const LabelMask keep_b = MaskOf(2) | MaskOf(4);
  const PostId cut = static_cast<PostId>(inst.num_posts() / 2);
  for (StreamKind kind : kAllKinds) {
    const std::string context(StreamKindName(kind));
    UniformLambda model(lambda);
    auto churned = MultiTenantStream::Create(inst, model, kind, tau);
    auto clean = MultiTenantStream::Create(inst, model, kind, tau);
    ASSERT_TRUE(churned.ok() && clean.ok());
    const TenantId a1 = *(*churned)->Subscribe(keep_a);
    const TenantId mid = *(*churned)->Subscribe(churn);
    const TenantId b1 = *(*churned)->Subscribe(keep_b);
    const TenantId a2 = *(*clean)->Subscribe(keep_a);
    const TenantId b2 = *(*clean)->Subscribe(keep_b);

    ASSERT_TRUE((*churned)->RunUntil(cut).ok());
    ASSERT_TRUE((*churned)->Unsubscribe(mid).ok());
    EXPECT_FALSE((*churned)->TenantEmissions(mid).ok())
        << context << ": unsubscribed id must be dead";
    ASSERT_TRUE((*churned)->RunToEnd().ok());
    ASSERT_TRUE((*clean)->RunToEnd().ok());

    ExpectEmissionsEqual(*(*churned)->TenantEmissions(a1),
                         *(*clean)->TenantEmissions(a2),
                         context + " tenant A");
    ExpectEmissionsEqual(*(*churned)->TenantEmissions(b1),
                         *(*clean)->TenantEmissions(b2),
                         context + " tenant B");
    if (::testing::Test::HasFailure()) return;
  }
}

/// Unsubscribe + resubscribe of the same mask is a fresh join at the
/// resubscription point, not a resumption.
TEST(TenantChurnTest, ResubscribeEqualsFreshJoin) {
  const double tau = 2.5;
  const double lambda = 8.0;
  const Instance inst = TestInstance(3);
  const LabelMask mask = MaskOf(1) | MaskOf(2);
  const PostId cut1 = static_cast<PostId>(inst.num_posts() / 4);
  const PostId cut2 = static_cast<PostId>(inst.num_posts() / 2);
  for (StreamKind kind : kAllKinds) {
    const std::string context(StreamKindName(kind));
    UniformLambda model(lambda);
    auto engine = MultiTenantStream::Create(inst, model, kind, tau);
    ASSERT_TRUE(engine.ok());
    const TenantId first = *(*engine)->Subscribe(mask);
    ASSERT_TRUE((*engine)->RunUntil(cut1).ok());
    ASSERT_TRUE((*engine)->Unsubscribe(first).ok());
    ASSERT_TRUE((*engine)->RunUntil(cut2).ok());
    auto again = (*engine)->Subscribe(mask);
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE((*engine)->RunToEnd().ok());
    auto emissions = (*engine)->TenantEmissions(*again);
    ASSERT_TRUE(emissions.ok());
    ExpectEmissionsEqual(*emissions,
                         RunSolo(inst, mask, cut2, kind, tau, lambda),
                         context);
    if (::testing::Test::HasFailure()) return;
  }
}

/// Kill/restore differential over fuzzed (evict, restore) cut pairs:
/// the evicted-and-restored tenant and every bystander finish with
/// exactly the emissions of an engine that never churned. Covers the
/// shared scan tier, the cluster-rebuild path (sole tenant of its
/// cluster) and the cluster re-attach path (a twin keeps the
/// representative alive).
TEST(TenantChurnTest, EvictRestoreIsExact) {
  const double tau = 3.0;
  const double lambda = 6.5;
  const Instance inst = TestInstance(4);
  const LabelMask victim_mask = MaskOf(1) | MaskOf(4);
  const LabelMask bystander_mask = MaskOf(0) | MaskOf(2);
  Rng rng(777);
  for (StreamKind kind : kAllKinds) {
    for (const bool with_twin : {false, true}) {
      for (int round = 0; round < 4; ++round) {
        PostId cut1 = static_cast<PostId>(
            rng.Uniform(inst.num_posts() - 2) + 1);
        PostId cut2 = static_cast<PostId>(
            cut1 + rng.Uniform(inst.num_posts() - cut1));
        const std::string context =
            std::string(StreamKindName(kind)) +
            " twin=" + std::to_string(with_twin) +
            " cut1=" + std::to_string(cut1) +
            " cut2=" + std::to_string(cut2);
        UniformLambda model(lambda);
        auto baseline = MultiTenantStream::Create(inst, model, kind, tau);
        auto churned = MultiTenantStream::Create(inst, model, kind, tau);
        ASSERT_TRUE(baseline.ok() && churned.ok());
        const TenantId v0 = *(*baseline)->Subscribe(victim_mask);
        const TenantId s0 = *(*baseline)->Subscribe(bystander_mask);
        const TenantId v1 = *(*churned)->Subscribe(victim_mask);
        const TenantId s1 = *(*churned)->Subscribe(bystander_mask);
        if (with_twin) {
          ASSERT_TRUE((*baseline)->Subscribe(victim_mask).ok());
          ASSERT_TRUE((*churned)->Subscribe(victim_mask).ok());
        }
        ASSERT_TRUE((*baseline)->RunToEnd().ok());

        ASSERT_TRUE((*churned)->RunUntil(cut1).ok());
        std::ostringstream snapshot;
        ASSERT_TRUE((*churned)->EvictTenant(v1, snapshot).ok()) << context;
        EXPECT_FALSE((*churned)->TenantEmissions(v1).ok())
            << context << ": evicted id must be dead";
        ASSERT_TRUE((*churned)->RunUntil(cut2).ok());
        std::istringstream in(snapshot.str());
        auto restored = (*churned)->RestoreTenant(in);
        ASSERT_TRUE(restored.ok()) << context << ": "
                                   << restored.status().ToString();
        ASSERT_TRUE((*churned)->RunToEnd().ok());

        ExpectEmissionsEqual(*(*churned)->TenantEmissions(*restored),
                             *(*baseline)->TenantEmissions(v0),
                             context + " restored tenant");
        ExpectEmissionsEqual(*(*churned)->TenantEmissions(s1),
                             *(*baseline)->TenantEmissions(s0),
                             context + " bystander");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

/// Corrupt-snapshot fuzz, riding the PR 5 harness pattern: random
/// truncations and bit flips must every one be rejected with a typed
/// error, leave the engine's registry untouched, and not prevent the
/// intact snapshot from restoring afterwards.
TEST(TenantChurnTest, CorruptSnapshotsAreRejected) {
  const double tau = 2.0;
  const double lambda = 6.0;
  const Instance inst = TestInstance(5);
  const LabelMask mask = MaskOf(0) | MaskOf(3);
  UniformLambda model(lambda);
  auto engine = MultiTenantStream::Create(
      inst, model, StreamKind::kStreamGreedyPlus, tau);
  ASSERT_TRUE(engine.ok());
  const TenantId tenant = *(*engine)->Subscribe(mask);
  ASSERT_TRUE((*engine)->RunUntil(inst.num_posts() / 2).ok());
  std::ostringstream snapshot;
  ASSERT_TRUE((*engine)->EvictTenant(tenant, snapshot).ok());
  const std::string good = snapshot.str();
  const size_t active_before = (*engine)->active_tenants();

  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    std::string bad = good;
    if (round % 2 == 0) {
      bad.resize(rng.Uniform(bad.size()));
    } else {
      const size_t pos = rng.Uniform(bad.size());
      bad[pos] = static_cast<char>(bad[pos] ^
                                   (1 << rng.Uniform(8)));
    }
    if (bad == good) continue;
    std::istringstream in(bad);
    auto restored = (*engine)->RestoreTenant(in);
    EXPECT_FALSE(restored.ok()) << "round " << round;
    EXPECT_EQ((*engine)->active_tenants(), active_before)
        << "round " << round << ": failed restore mutated the registry";
  }

  std::istringstream in(good);
  auto restored = (*engine)->RestoreTenant(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*engine)->RunToEnd().ok());
  auto emissions = (*engine)->TenantEmissions(*restored);
  ASSERT_TRUE(emissions.ok());
  ExpectEmissionsEqual(
      *emissions,
      RunSolo(inst, mask, 0, StreamKind::kStreamGreedyPlus, tau, lambda),
      "restore after corrupt fuzz");
}

/// Mismatched restore targets: wrong algorithm, wrong tau, wrong
/// instance, and a snapshot ahead of the target engine's cursor are
/// all refused as precondition failures.
TEST(TenantChurnTest, MismatchedRestoreTargetsAreRejected) {
  const double tau = 2.0;
  const double lambda = 6.0;
  const Instance inst = TestInstance(6);
  const LabelMask mask = MaskOf(0) | MaskOf(1);
  UniformLambda model(lambda);
  auto engine = MultiTenantStream::Create(
      inst, model, StreamKind::kStreamGreedy, tau);
  ASSERT_TRUE(engine.ok());
  const TenantId tenant = *(*engine)->Subscribe(mask);
  ASSERT_TRUE((*engine)->RunUntil(inst.num_posts() / 2).ok());
  std::ostringstream snapshot;
  ASSERT_TRUE((*engine)->EvictTenant(tenant, snapshot).ok());
  const std::string blob = snapshot.str();

  const auto expect_rejected = [&](MultiTenantStream* target,
                                   const std::string& context) {
    std::istringstream in(blob);
    auto restored = target->RestoreTenant(in);
    EXPECT_FALSE(restored.ok()) << context;
    EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition)
        << context << ": " << restored.status().ToString();
  };

  auto wrong_kind = MultiTenantStream::Create(
      inst, model, StreamKind::kStreamGreedyPlus, tau);
  expect_rejected(wrong_kind->get(), "wrong algorithm");

  auto wrong_tau = MultiTenantStream::Create(
      inst, model, StreamKind::kStreamGreedy, tau + 1.0);
  expect_rejected(wrong_tau->get(), "wrong tau");

  const Instance other = TestInstance(7);
  auto wrong_inst = MultiTenantStream::Create(
      other, model, StreamKind::kStreamGreedy, tau);
  expect_rejected(wrong_inst->get(), "wrong instance");

  // Same configuration but a fresh engine still at cursor 0: the
  // snapshot's evict cursor is ahead of the stream.
  auto behind = MultiTenantStream::Create(
      inst, model, StreamKind::kStreamGreedy, tau);
  expect_rejected(behind->get(), "snapshot ahead of stream");
}

/// A header-only tenant snapshot (magic, body, checksum) in the layout
/// EvictTenant writes, sealed with a recomputed checksum, so it passes
/// every integrity check and reaches the tier dispatch.
std::string SealHeaderOnlySnapshot(const Instance& inst, StreamKind kind,
                                   double tau, LabelMask mask, PostId join,
                                   PostId cursor, uint8_t tier) {
  SnapshotWriter body;
  body.U32(3);  // tenant format version
  body.U8(static_cast<uint8_t>(kind));
  body.F64(tau);
  body.U64(InstanceFingerprint(inst));
  body.U64(mask);
  body.U32(join);
  body.U32(cursor);
  body.U8(tier);
  const uint64_t checksum = SnapshotChecksum(body.bytes());
  std::string blob = "MQDTNT01" + body.bytes();
  blob.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return blob;
}

/// Well-sealed snapshots naming a tier the engine cannot serve: the
/// shared tier (0) exists only under plain StreamScan, and tier 2 is
/// not a tier. Each is rejected as InvalidArgument with the registry
/// untouched; the same seal for a StreamScan tier-0 tenant restores
/// and replays exactly, so the forgeries fail on the tier alone.
TEST(TenantChurnTest, SnapshotsOfForeignTiersAreRejected) {
  const double tau = 2.0;
  const double lambda = 6.0;
  const Instance inst = TestInstance(9);
  const LabelMask mask = MaskOf(0) | MaskOf(1) | MaskOf(2);
  const LabelMask bystander_mask = MaskOf(3) | MaskOf(5);
  UniformLambda model(lambda);
  struct Forgery {
    StreamKind kind;
    uint8_t tier;
  };
  for (const Forgery forgery :
       {Forgery{StreamKind::kStreamScanPlus, 0},
        Forgery{StreamKind::kStreamGreedyPlus, 0},
        Forgery{StreamKind::kStreamScan, 2}}) {
    const std::string context =
        std::string(StreamKindName(forgery.kind)) +
        " tier=" + std::to_string(forgery.tier);
    auto engine = MultiTenantStream::Create(inst, model, forgery.kind, tau);
    ASSERT_TRUE(engine.ok());
    const TenantId bystander = *(*engine)->Subscribe(bystander_mask);
    const size_t active_before = (*engine)->active_tenants();
    const size_t shared_before = (*engine)->shared_tier_tenants();
    const size_t clusters_before = (*engine)->num_clusters();

    std::istringstream in(SealHeaderOnlySnapshot(
        inst, forgery.kind, tau, mask, 0, 0, forgery.tier));
    auto restored = (*engine)->RestoreTenant(in);
    EXPECT_FALSE(restored.ok()) << context;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << context << ": " << restored.status().ToString();
    EXPECT_EQ((*engine)->active_tenants(), active_before) << context;
    EXPECT_EQ((*engine)->shared_tier_tenants(), shared_before) << context;
    EXPECT_EQ((*engine)->num_clusters(), clusters_before) << context;

    ASSERT_TRUE((*engine)->RunToEnd().ok());
    ExpectEmissionsEqual(
        *(*engine)->TenantEmissions(bystander),
        RunSolo(inst, bystander_mask, 0, forgery.kind, tau, lambda),
        context + " bystander");
  }

  auto scan = MultiTenantStream::Create(inst, model,
                                        StreamKind::kStreamScan, tau);
  ASSERT_TRUE(scan.ok());
  std::istringstream in(SealHeaderOnlySnapshot(
      inst, StreamKind::kStreamScan, tau, mask, 0, 0, /*tier=*/0));
  auto restored = (*scan)->RestoreTenant(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*scan)->RunToEnd().ok());
  ExpectEmissionsEqual(
      *(*scan)->TenantEmissions(*restored),
      RunSolo(inst, mask, 0, StreamKind::kStreamScan, tau, lambda),
      "genuine StreamScan shared-tier seal");
}

/// Byte offset of the mask in a tenant snapshot body: after the
/// version (u32), kind (u8), tau (f64) and instance fingerprint (u64).
constexpr size_t kBodyMaskOffset = 4 + 1 + 8 + 8;

/// Re-seals an EvictTenant snapshot after `edit` rewrites its body,
/// with a recomputed checksum, so the forgery passes every integrity
/// check and fails only on what `edit` changed.
template <typename Edit>
std::string ResealBody(const std::string& blob, Edit edit) {
  constexpr size_t kMagicBytes = 8;
  std::string body =
      blob.substr(kMagicBytes, blob.size() - kMagicBytes - sizeof(uint64_t));
  edit(&body);
  const uint64_t checksum = SnapshotChecksum(body);
  std::string out = blob.substr(0, kMagicBytes) + body;
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return out;
}

/// Version-1 tenant snapshots embedded a per-cluster view's local post
/// ids; version 2 embedded global ids with a StreamScan state entry per
/// instance label; version 3 has one per label of the mask. Well-sealed
/// version-1 and version-2 snapshots are refused with the typed version
/// error and no side effect, while the genuine snapshot they were
/// forged from still restores exactly.
TEST(TenantChurnTest, OldVersionSnapshotsAreRejected) {
  const double tau = 2.0;
  const double lambda = 6.0;
  const Instance inst = TestInstance(11);
  const LabelMask mask = MaskOf(0) | MaskOf(2);
  const LabelMask bystander_mask = MaskOf(1) | MaskOf(3);
  UniformLambda model(lambda);
  auto engine = MultiTenantStream::Create(
      inst, model, StreamKind::kStreamScanPlus, tau);
  ASSERT_TRUE(engine.ok());
  const TenantId bystander = *(*engine)->Subscribe(bystander_mask);
  const TenantId victim = *(*engine)->Subscribe(mask);
  ASSERT_TRUE((*engine)->RunUntil(inst.num_posts() / 2).ok());
  std::ostringstream snapshot;
  ASSERT_TRUE((*engine)->EvictTenant(victim, snapshot).ok());
  const std::string good = snapshot.str();
  const size_t active_before = (*engine)->active_tenants();
  const size_t clusters_before = (*engine)->num_clusters();

  for (const uint32_t version : {1u, 2u}) {
    const std::string context = "version " + std::to_string(version);
    std::istringstream forged(ResealBody(good, [&](std::string* body) {
      std::memcpy(body->data(), &version, sizeof(version));
    }));
    auto rejected = (*engine)->RestoreTenant(forged);
    ASSERT_FALSE(rejected.ok()) << context;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << context << ": " << rejected.status().ToString();
    EXPECT_NE(rejected.status().message().find(
                  "unsupported tenant snapshot version"),
              std::string::npos)
        << context << ": " << rejected.status().ToString();
    EXPECT_EQ((*engine)->active_tenants(), active_before) << context;
    EXPECT_EQ((*engine)->num_clusters(), clusters_before) << context;
  }

  std::istringstream in(good);
  auto restored = (*engine)->RestoreTenant(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*engine)->RunToEnd().ok());
  ExpectEmissionsEqual(
      *(*engine)->TenantEmissions(*restored),
      RunSolo(inst, mask, 0, StreamKind::kStreamScanPlus, tau, lambda),
      "genuine snapshot after the version-1 and version-2 forgeries");
  ExpectEmissionsEqual(
      *(*engine)->TenantEmissions(bystander),
      RunSolo(inst, bystander_mask, 0, StreamKind::kStreamScanPlus, tau,
              lambda),
      "bystander");
}

/// A tier-1 snapshot re-sealed under a mask lacking a label its
/// embedded state uses must not restore: representatives read the
/// shared post table through their mask, so state on a label outside
/// it is refused by the emission-log check (an emitted post carrying
/// no label of the mask) or by the processor's restore checks (an
/// uncovered or pending post on a label the mask drops). Both paths
/// are forced: an evict before any fire (state only in the carried
/// windows) and one mid-stream (emissions on the dropped label).
TEST(TenantChurnTest, ForgedMaskSnapshotsAreRejected) {
  const double tau = 30.0;
  const double lambda = 40.0;
  const Instance inst = TestInstance(12);
  const LabelMask mask = MaskOf(1) | MaskOf(4);
  const LabelMask forged_mask = MaskOf(4) | MaskOf(6);  // drops label 1
  const LabelMask bystander_mask = MaskOf(0) | MaskOf(2);
  const PostId early = inst.LowerBound(inst.value(0) + tau / 2);
  const PostId mid = static_cast<PostId>(inst.num_posts() / 2);
  for (StreamKind kind :
       {StreamKind::kStreamScanPlus, StreamKind::kStreamGreedyPlus}) {
    for (const PostId cut : {early, mid}) {
      const std::string context = std::string(StreamKindName(kind)) +
                                  " cut=" + std::to_string(cut);
      UniformLambda model(lambda);
      auto engine = MultiTenantStream::Create(inst, model, kind, tau);
      ASSERT_TRUE(engine.ok());
      const TenantId bystander = *(*engine)->Subscribe(bystander_mask);
      const TenantId victim = *(*engine)->Subscribe(mask);
      ASSERT_TRUE((*engine)->RunUntil(cut).ok());

      // The embedded state must use label 1: before any fire, through
      // a delivered label-1 post; mid-stream, through an emitted post
      // whose labels miss the forged mask entirely.
      const std::vector<Emission> before = *(*engine)->TenantEmissions(victim);
      if (cut == early) {
        ASSERT_TRUE(before.empty()) << context;
        bool label1_delivered = false;
        for (PostId p = 0; p < cut; ++p) {
          label1_delivered |= MaskHas(inst.labels(p), 1);
        }
        ASSERT_TRUE(label1_delivered) << context;
      } else {
        ASSERT_TRUE(std::any_of(before.begin(), before.end(),
                                [&](const Emission& e) {
                                  return MaskHas(inst.labels(e.post), 1) &&
                                         (inst.labels(e.post) &
                                          forged_mask) == 0;
                                }))
            << context;
      }

      std::ostringstream snapshot;
      ASSERT_TRUE((*engine)->EvictTenant(victim, snapshot).ok()) << context;
      const std::string good = snapshot.str();
      const std::string forged = ResealBody(good, [&](std::string* body) {
        std::memcpy(body->data() + kBodyMaskOffset, &forged_mask,
                    sizeof(forged_mask));
      });
      const size_t active_before = (*engine)->active_tenants();
      const size_t clusters_before = (*engine)->num_clusters();

      std::istringstream forged_in(forged);
      auto rejected = (*engine)->RestoreTenant(forged_in);
      ASSERT_FALSE(rejected.ok()) << context;
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
          << context << ": " << rejected.status().ToString();
      EXPECT_EQ((*engine)->active_tenants(), active_before) << context;
      EXPECT_EQ((*engine)->num_clusters(), clusters_before) << context;

      std::istringstream in(good);
      auto restored = (*engine)->RestoreTenant(in);
      ASSERT_TRUE(restored.ok()) << context << ": "
                                 << restored.status().ToString();
      ASSERT_TRUE((*engine)->RunToEnd().ok());
      ExpectEmissionsEqual(*(*engine)->TenantEmissions(*restored),
                           RunSolo(inst, mask, 0, kind, tau, lambda),
                           context + " genuine snapshot");
      ExpectEmissionsEqual(*(*engine)->TenantEmissions(bystander),
                           RunSolo(inst, bystander_mask, 0, kind, tau, lambda),
                           context + " bystander");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// Registry guard rails: invalid masks, dead ids, out-of-range replay
/// bounds and post-Finish operations are typed errors.
TEST(TenantChurnTest, EngineGuards) {
  const Instance inst = TestInstance(8);
  UniformLambda model(5.0);
  auto created = MultiTenantStream::Create(
      inst, model, StreamKind::kStreamScan, 2.0);
  ASSERT_TRUE(created.ok());
  MultiTenantStream& engine = **created;

  EXPECT_FALSE(engine.Subscribe(0).ok());
  EXPECT_FALSE(engine.Subscribe(MaskOf(60)).ok());  // outside universe
  EXPECT_FALSE(engine.Unsubscribe(42).ok());
  EXPECT_FALSE(engine.TenantEmissions(42).ok());
  EXPECT_FALSE(
      engine.RunUntil(static_cast<PostId>(inst.num_posts() + 1)).ok());

  auto instant = MultiTenantStream::Create(
      inst, model, StreamKind::kInstant, 0.0);
  EXPECT_FALSE(instant.ok());
  auto bad_tau = MultiTenantStream::Create(
      inst, model, StreamKind::kStreamScan, -1.0);
  EXPECT_FALSE(bad_tau.ok());

  const TenantId tenant = *engine.Subscribe(MaskOf(0));
  ASSERT_TRUE(engine.RunToEnd().ok());
  EXPECT_FALSE(engine.Subscribe(MaskOf(1)).ok())
      << "subscribe after Finish must fail";
  std::ostringstream sink;
  EXPECT_FALSE(engine.EvictTenant(tenant, sink).ok())
      << "evict after Finish must fail";
  EXPECT_TRUE(engine.TenantEmissions(tenant).ok())
      << "queries stay valid after Finish";
}

TEST(TenantChurnTest, BuildTenantViewGuards) {
  const Instance inst = TestInstance(8);
  UniformLambda model(5.0);
  const auto n = static_cast<PostId>(inst.num_posts());

  EXPECT_FALSE(BuildTenantView(inst, model, 0, 0).ok());
  EXPECT_FALSE(BuildTenantView(inst, model, MaskOf(60), 0).ok());
  auto past = BuildTenantView(inst, model, MaskOf(0), n + 1);
  ASSERT_FALSE(past.ok()) << "join past the stream must fail";
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);

  // Joining exactly at the end is legal and sees nothing.
  auto at_end = BuildTenantView(inst, model, MaskOf(0) | MaskOf(1), n);
  ASSERT_TRUE(at_end.ok()) << at_end.status().ToString();
  EXPECT_EQ(at_end->sub.num_posts(), 0u);
  EXPECT_EQ(at_end->sub.num_labels(), 2);
  EXPECT_EQ(at_end->sub.num_pairs(), 0u);
  EXPECT_TRUE(at_end->global_of_local.empty());
}

/// Mid-stream plain-scan tenants live in exact (mask, join) clusters
/// whose snapshots embed the representative's StreamScan checkpoint,
/// like every other kind's. Evict/restore through that tier must be
/// exact whether the victim's cluster dies with it (restore rebuilds
/// the representative from the checkpoint and catches it up) or a
/// twin one label wider, with its own cluster, stays live beside it.
TEST(TenantChurnTest, ScanClusterEvictRestoreIsExact) {
  const double tau = 3.0;
  const double lambda = 7.0;
  const Instance inst = TestInstance(10);
  const PostId n = static_cast<PostId>(inst.num_posts());
  const LabelMask mask = MaskOf(1) | MaskOf(3);
  const LabelMask twin_mask = MaskOf(1) | MaskOf(3) | MaskOf(5);
  const LabelMask shared_mask = MaskOf(0) | MaskOf(2);
  Rng rng(555);
  for (const bool with_twin : {false, true}) {
    for (int round = 0; round < 4; ++round) {
      const PostId join = static_cast<PostId>(1 + rng.Uniform(n / 2));
      const PostId evict_at =
          static_cast<PostId>(join + 1 + rng.Uniform(n - join - 1));
      const PostId restore_at =
          static_cast<PostId>(evict_at + rng.Uniform(n - evict_at + 1));
      const std::string context =
          std::string("twin=") + std::to_string(with_twin) +
          " join=" + std::to_string(join) +
          " evict=" + std::to_string(evict_at) +
          " restore=" + std::to_string(restore_at);
      UniformLambda model(lambda);
      auto engine = MultiTenantStream::Create(inst, model,
                                              StreamKind::kStreamScan, tau);
      ASSERT_TRUE(engine.ok());
      const TenantId shared_id = *(*engine)->Subscribe(shared_mask);
      ASSERT_TRUE((*engine)->RunUntil(join).ok());
      auto victim = (*engine)->Subscribe(mask);
      ASSERT_TRUE(victim.ok()) << context;
      TenantId twin = kInvalidTenant;
      if (with_twin) {
        auto t = (*engine)->Subscribe(twin_mask);
        ASSERT_TRUE(t.ok()) << context;
        twin = *t;
        // A different mask never shares the victim's representative.
        EXPECT_EQ((*engine)->num_clusters(), 2u) << context;
      }
      ASSERT_TRUE((*engine)->RunUntil(evict_at).ok());
      std::ostringstream snapshot;
      ASSERT_TRUE((*engine)->EvictTenant(*victim, snapshot).ok()) << context;
      if (!with_twin) {
        EXPECT_EQ((*engine)->num_clusters(), 0u)
            << context << ": sole member's cluster must die with it";
      }
      ASSERT_TRUE((*engine)->RunUntil(restore_at).ok());
      std::istringstream in(snapshot.str());
      auto restored = (*engine)->RestoreTenant(in);
      ASSERT_TRUE(restored.ok()) << context << ": "
                                 << restored.status().ToString();
      ASSERT_TRUE((*engine)->RunToEnd().ok());

      ExpectEmissionsEqual(
          *(*engine)->TenantEmissions(*restored),
          RunSolo(inst, mask, join, StreamKind::kStreamScan, tau, lambda),
          context + " restored scan-cluster tenant");
      if (with_twin) {
        ExpectEmissionsEqual(
            *(*engine)->TenantEmissions(twin),
            RunSolo(inst, twin_mask, join, StreamKind::kStreamScan, tau,
                    lambda),
            context + " twin");
      }
      ExpectEmissionsEqual(
          *(*engine)->TenantEmissions(shared_id),
          RunSolo(inst, shared_mask, 0, StreamKind::kStreamScan, tau,
                  lambda),
          context + " shared-tier bystander");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// One deterministic churn schedule: windows of 61 posts with one
/// subscribe/unsubscribe/evict/restore action per boundary. Decisions
/// depend only on the seeded Rng and list sizes — never on engine
/// output.
struct ChurnOutcome {
  std::vector<LabelMask> masks;
  std::vector<PostId> joins;
  std::vector<std::vector<Emission>> emissions;
};

ChurnOutcome RunChurnSchedule(const Instance& inst, StreamKind kind,
                              double tau, double lambda, uint64_t seed,
                              const std::string& context) {
  ChurnOutcome out;
  UniformLambda model(lambda);
  auto created = MultiTenantStream::Create(inst, model, kind, tau);
  EXPECT_TRUE(created.ok()) << context;
  if (!created.ok()) return out;
  MultiTenantStream& engine = **created;
  Rng rng(seed);
  struct LiveTenant {
    TenantId id;
    LabelMask mask;
    PostId join;
  };
  struct Snapshot {
    std::string blob;
    LabelMask mask;
    PostId join;
  };
  std::vector<LiveTenant> live;
  std::vector<Snapshot> evicted;
  const int num_labels = inst.num_labels();
  auto subscribe = [&] {
    LabelMask mask = 0;
    const int want = 2 + static_cast<int>(rng.Uniform(2));
    while (MaskCount(mask) < want) {
      mask |= MaskOf(static_cast<LabelId>(rng.Uniform(num_labels)));
    }
    auto id = engine.Subscribe(mask);
    EXPECT_TRUE(id.ok()) << context;
    if (id.ok()) live.push_back({*id, mask, engine.cursor()});
  };
  for (int i = 0; i < 8; ++i) subscribe();
  const PostId n = static_cast<PostId>(inst.num_posts());
  PostId cursor = 0;
  while (cursor < n) {
    const PostId next = std::min<PostId>(n, cursor + 61);
    EXPECT_TRUE(engine.RunUntil(next).ok()) << context;
    cursor = next;
    if (cursor >= n) break;
    switch (rng.Uniform(4)) {
      case 0:
        subscribe();
        break;
      case 1:
        if (live.size() > 2) {
          const size_t k = rng.Uniform(live.size());
          EXPECT_TRUE(engine.Unsubscribe(live[k].id).ok()) << context;
          live.erase(live.begin() + static_cast<ptrdiff_t>(k));
        } else {
          subscribe();
        }
        break;
      case 2:
        if (!live.empty()) {
          const size_t k = rng.Uniform(live.size());
          std::ostringstream snap;
          EXPECT_TRUE(engine.EvictTenant(live[k].id, snap).ok()) << context;
          evicted.push_back({snap.str(), live[k].mask, live[k].join});
          live.erase(live.begin() + static_cast<ptrdiff_t>(k));
        } else {
          subscribe();
        }
        break;
      default:
        if (!evicted.empty()) {
          const size_t k = rng.Uniform(evicted.size());
          std::istringstream in(evicted[k].blob);
          auto restored = engine.RestoreTenant(in);
          EXPECT_TRUE(restored.ok())
              << context << ": " << restored.status().ToString();
          if (restored.ok()) {
            live.push_back({*restored, evicted[k].mask, evicted[k].join});
          }
          evicted.erase(evicted.begin() + static_cast<ptrdiff_t>(k));
        } else {
          subscribe();
        }
        break;
    }
  }
  engine.Finish();
  for (const LiveTenant& t : live) {
    auto e = engine.TenantEmissions(t.id);
    EXPECT_TRUE(e.ok()) << context;
    out.masks.push_back(t.mask);
    out.joins.push_back(t.join);
    out.emissions.push_back(e.ok() ? std::move(*e)
                                   : std::vector<Emission>{});
  }
  return out;
}

/// Fuzzed join/unsubscribe/evict/restore churn: every survivor of
/// the schedule equals its independent single-tenant reference.
TEST(TenantChurnTest, FuzzedChurnScheduleMatchesSoloReplicas) {
  const double tau = 2.5;
  const double lambda = 6.0;
  const Instance inst = TestInstance(9);
  for (StreamKind kind : kAllKinds) {
    for (uint64_t seed : {4242u, 4243u}) {
      const std::string context = std::string(StreamKindName(kind)) +
                                  " seed=" + std::to_string(seed);
      const ChurnOutcome outcome =
          RunChurnSchedule(inst, kind, tau, lambda, seed, context);
      ASSERT_FALSE(outcome.masks.empty()) << context;
      for (size_t i = 0; i < outcome.masks.size(); ++i) {
        ExpectEmissionsEqual(
            outcome.emissions[i],
            RunSolo(inst, outcome.masks[i], outcome.joins[i], kind, tau,
                    lambda),
            context + " solo anchor tenant " + std::to_string(i));
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace mqd
