#ifndef MQD_STREAM_MULTI_TENANT_H_
#define MQD_STREAM_MULTI_TENANT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/types.h"
#include "stream/factory.h"
#include "stream/stream_scan.h"
#include "stream/stream_solver.h"
// The reference view that private replays of one tenant are built on;
// included here for callers that check the engine against it.
#include "stream/tenant_view.h"
#include "util/result.h"
#include "util/status.h"

namespace mqd {

/// Handle for one subscription in a MultiTenantStream. Ids are dense
/// and never reused within one engine; an unsubscribed or evicted id
/// stays invalid forever (restore mints a fresh id).
using TenantId = uint32_t;
inline constexpr TenantId kInvalidTenant = static_cast<TenantId>(-1);

/// Multi-tenant stream fan-out engine (DESIGN.md §14, §16): one replay
/// of the shared firehose serves every subscribed label-set profile,
/// and each tenant's emissions are bit-identical to what a private
/// single-tenant processor of the same algorithm would produce on the
/// tenant's sub-stream.
///
/// Work sharing has two tiers:
///
///  * Shared per-label tier (plain StreamScan, tenants subscribed
///    before the first arrival). StreamScan's per-label state is
///    independent across labels, so ONE full-universe scan engine is
///    the union of every tenant's engine. The engine indexes the
///    scan's fire log by label (one bitmap over log positions per
///    label, extended after each RunUntil and at Finish); a tenant's
///    emission sequence is derived on demand by ORing its labels'
///    bitmaps one 64-position word at a time, which walks their fires
///    in log order, and keeping each post's first occurrence, so a
///    query costs O(|mask| * F/64 + tenant fires) for a log of F fires.
///    Per-arrival cost is O(s log |L|) regardless of tenant count.
///
///  * Cluster tier (Scan+/Greedy± — whose cross-label coupling makes
///    label states interact — and any mid-stream joiner of any kind).
///    Tenants with the same (mask, join point) share one representative
///    processor, whose emissions are the tenants' own. The
///    representative runs on the engine's own instance and model with
///    the cluster's mask as its relevant-label mask, so it reads the
///    shared post table directly, in global post ids, and holds no copy
///    of its sub-stream. The representative's clock only advances when
///    a matching post arrives (or at Finish) — exact, because AdvanceTo
///    fires all pending deadlines in (deadline, label) order with
///    emission times taken from the deadlines themselves, not the call
///    instant.
///
/// Sweep: per RunUntil batch [cursor, end) the engine marks the slice
/// of every label's posting list that falls in the batch once, one bit
/// per (post, label), then advances the live clusters in ascending
/// cluster id order on the calling thread; each cluster ORs its mask's
/// bits per 64-post word and receives every matching post once, in
/// ascending global id. Independent replays (one engine each) are the
/// unit of parallelism.
///
/// Delivery: a cluster receives each 64-post word's matches, collected
/// on the stack, through one StreamProcessor::Deliver call.
///
/// Allocation: each representative owns its window state in plain
/// vectors, sized by its mask and window, and its emission log; no
/// per-representative state is sized by the stream's length. Each
/// sweep allocates its batch bitmap (|L| words per 64 posts). The
/// shared tier's fire log and its per-label bitmaps grow by amortized
/// appends (|L|/8 index bytes per fire), and each derivation allocates
/// only the returned vector.
///
/// Churn: Subscribe after the first arrival joins at the current
/// cursor (equal to a fresh tenant whose stream starts there);
/// Unsubscribe drops the tenant and frees its cluster at refcount 0.
/// EvictTenant serializes a tenant's state (PR 5's checksummed
/// snapshot format, tenant envelope + embedded processor checkpoint)
/// and RestoreTenant readmits it with exact catch-up.
///
/// Fault sites: "tenant.fanout" probes each per-cluster delivery —
/// a fire quarantines that cluster only after delivering the posts
/// before the faulted one (its tenants' queries return the fault,
/// naming the faulted post; every other tenant stays bit-identical).
/// "tenant.evict" probes EvictTenant and leaves the tenant intact on
/// fire.
///
/// Not thread-safe; one engine per replay thread.
class MultiTenantStream {
 public:
  /// `kind` must be a replayable stream algorithm (kInstant is not
  /// supported: it has no carried state worth sharing). `inst` and
  /// `model` must outlive the engine.
  static Result<std::unique_ptr<MultiTenantStream>> Create(
      const Instance& inst, const CoverageModel& model, StreamKind kind,
      double tau);

  /// Registers a tenant subscribed to `labels` (non-empty, within the
  /// instance's label universe) joining at the current cursor.
  Result<TenantId> Subscribe(LabelMask labels);

  /// Drops a tenant. Its id becomes permanently invalid; the cluster
  /// representative is destroyed when its last tenant leaves.
  Status Unsubscribe(TenantId tenant);

  /// Feeds global posts [cursor, end) through the engine in timestamp
  /// order. `end` must be in [cursor, num_posts].
  Status RunUntil(PostId end);
  /// Fires every remaining deadline (end of stream). Idempotent; no
  /// Subscribe/RunUntil/EvictTenant afterwards.
  void Finish();
  /// RunUntil(num_posts) + Finish.
  Status RunToEnd();

  /// The tenant's emission sequence so far, in emission order, as
  /// global PostIds. After Finish this is exactly what its private
  /// processor would hold. Mid-stream (cursor c) the two tiers answer
  /// on different clocks:
  ///  * shared tier: the private StreamScan over the tenant's sub-stream
  ///    driven on the global clock, i.e. AdvanceTo(value(p)) for every
  ///    global p < c, plus OnArrival for the tenant's own posts;
  ///  * cluster tier: the representative's state, whose clock moves
  ///    only at matching arrivals, so fires whose deadline has passed
  ///    on the stream clock since the tenant's last matching post are
  ///    not yet in the answer.
  Result<std::vector<Emission>> TenantEmissions(TenantId tenant) const;
  /// The tenant's output Z as sorted global PostIds.
  Result<std::vector<PostId>> TenantCover(TenantId tenant) const;
  /// The tenant's subscription mask.
  Result<LabelMask> TenantLabels(TenantId tenant) const;

  /// Serializes the tenant's state to `os` (versioned, checksummed;
  /// embeds the representative's stream checkpoint for cluster-tier
  /// tenants) and unsubscribes it. Rejected after Finish and for
  /// quarantined tenants.
  Status EvictTenant(TenantId tenant, std::ostream& os);
  /// Readmits an evicted tenant: validates magic/checksum/version/
  /// algorithm/tau/instance fingerprint, rebuilds or re-attaches the
  /// representative, catches it up to the current cursor, and returns
  /// a fresh id. The snapshot must not be ahead of this engine's
  /// cursor.
  Result<TenantId> RestoreTenant(std::istream& is);

  // --- Introspection (also exported as mqd_tenant_* metrics). ---
  PostId cursor() const { return cursor_; }
  bool finished() const { return finished_; }
  StreamKind kind() const { return kind_; }
  double tau() const { return tau_; }
  size_t active_tenants() const { return active_tenants_; }
  size_t shared_tier_tenants() const { return shared_tier_tenants_; }
  /// Live cluster-tier representatives.
  size_t num_clusters() const { return live_clusters_; }
  uint64_t arrivals() const { return arrivals_; }
  /// Per-cluster deliveries (cluster tier).
  uint64_t fanout_deliveries() const { return fanout_deliveries_; }
  /// Arrivals absorbed once by the shared scan tier.
  uint64_t shared_tier_hits() const { return shared_tier_hits_; }
  /// Processor deliveries per arrival: (shared hits + cluster
  /// deliveries) / arrivals. A private-replay deployment would pay
  /// `active_tenants` here.
  double fanout_amplification() const;
  /// Fraction of delivery work absorbed by the shared tier.
  double shared_hit_rate() const;

 private:
  struct TenantRec {
    LabelMask mask = 0;
    PostId join_cursor = 0;
    uint32_t cluster = kNoCluster;  // kNoCluster => shared tier
    bool active = false;
  };

  struct Cluster {
    LabelMask mask = 0;  // every member tenant's mask
    PostId join_cursor = 0;
    /// First global post not yet offered to the representative.
    PostId cursor = 0;
    std::unique_ptr<StreamProcessor> processor;
    uint32_t refcount = 0;
    Status health = Status::OK();  // !ok() => quarantined by a fault
  };

  /// The posts of a delivery window [from, end) by label, marked from
  /// the slice of each posting list LP(a) that falls in the window:
  /// bit d of `bits[(d / 64) * num_labels + a]` is set iff post
  /// from + d carries label a.
  struct Window {
    PostId from = 0;
    PostId end = 0;
    std::vector<uint64_t> bits;
  };

  static constexpr uint32_t kNoCluster = static_cast<uint32_t>(-1);

  MultiTenantStream(const Instance& inst, const CoverageModel& model,
                    StreamKind kind, double tau);

  Status ValidateMask(LabelMask mask) const;
  /// Finds or creates the representative for exactly (mask, join);
  /// bumps its refcount.
  Result<uint32_t> AttachCluster(LabelMask mask, PostId join);
  /// Builds a cluster (masked representative at cursor `join`)
  /// without registering it. `mask` must have passed ValidateMask.
  std::unique_ptr<Cluster> BuildCluster(LabelMask mask, PostId join) const;
  /// Replays the cluster's posts from its cursor up to cursor_ through
  /// the processor (Finish too if the engine already finished).
  void CatchUp(Cluster& cluster);
  /// Registers a built cluster in the key map.
  uint32_t RegisterCluster(std::unique_ptr<Cluster> cluster);
  void DetachCluster(uint32_t index);
  /// Marks every label's posting-list slice in [from, end).
  Window MakeWindow(PostId from, PostId end) const;
  /// Advances `cluster`, whose cursor must be window.from, through
  /// every post of its mask in the window, once each and in ascending
  /// id, one Deliver call per 64-post word; returns deliveries made.
  /// With `probe` each delivery hits the tenant.fanout site first (a
  /// fire stops the cluster at the faulted post and quarantines it).
  uint64_t DeliverPending(Cluster& cluster, const Window& window,
                          bool probe);
  /// One batch sweep of all live clusters up to `end`, with fault
  /// probes while the injector is armed; returns deliveries made.
  uint64_t SweepClusters(PostId end);
  void EnsureSharedScan();
  /// Indexes the fire log's unindexed tail into `fire_bits_`,
  /// `fire_counts_` and `earlier_labels_`.
  void IndexNewFires();
  std::vector<Emission> DeriveSharedEmissions(LabelMask mask) const;
  void Deactivate(TenantId tenant);

  const Instance& inst_;
  const CoverageModel& model_;
  StreamKind kind_;
  double tau_;

  PostId cursor_ = 0;
  bool finished_ = false;

  std::vector<TenantRec> tenants_;
  size_t active_tenants_ = 0;
  size_t shared_tier_tenants_ = 0;

  /// Shared per-label tier (kind == kStreamScan only); fire log
  /// enabled. Created when the first epoch-0 scan tenant subscribes
  /// and kept running for later restores even if all of them leave.
  std::unique_ptr<StreamScanProcessor> shared_scan_;
  /// Per label, a bitmap over positions in `shared_scan_->fire_log()`:
  /// bit i % 64 of word i / 64 is set iff the label fired position i.
  /// Every label's bitmap covers the first `earlier_labels_.size()`
  /// entries of the log, in ceil(that / 64) words.
  std::vector<std::vector<uint64_t>> fire_bits_;
  /// Per label, its set bits in `fire_bits_`.
  std::vector<uint32_t> fire_counts_;
  /// Per indexed fire, the labels that fired the same post at an
  /// earlier log position: the fire is a repeat for exactly the
  /// tenants whose mask meets it.
  std::vector<LabelMask> earlier_labels_;

  std::vector<std::unique_ptr<Cluster>> clusters_;  // tombstone = null
  size_t live_clusters_ = 0;
  std::map<std::pair<LabelMask, PostId>, uint32_t> cluster_index_;

  uint64_t arrivals_ = 0;
  uint64_t fanout_deliveries_ = 0;
  uint64_t shared_tier_hits_ = 0;
};

}  // namespace mqd

#endif  // MQD_STREAM_MULTI_TENANT_H_
