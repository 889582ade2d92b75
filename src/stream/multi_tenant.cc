#include "stream/multi_tenant.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <string>

#include "obs/stack_metrics.h"
#include "stream/checkpoint.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace mqd {

namespace {

constexpr std::string_view kTenantMagic = "MQDTNT01";
// Version 3: a tier-1 payload is the representative's checkpoint in
// global post ids, against the shared instance, and a StreamScan
// representative's state has one entry per label of its mask (version
// 2 had one per instance label). Other versions are rejected, never
// migrated.
constexpr uint32_t kTenantFormatVersion = 3;
constexpr uint8_t kTierShared = 0;
constexpr uint8_t kTierCluster = 1;

}  // namespace

MultiTenantStream::MultiTenantStream(const Instance& inst,
                                     const CoverageModel& model,
                                     StreamKind kind, double tau)
    : inst_(inst), model_(model), kind_(kind), tau_(tau) {}

Result<std::unique_ptr<MultiTenantStream>> MultiTenantStream::Create(
    const Instance& inst, const CoverageModel& model, StreamKind kind,
    double tau) {
  if (kind == StreamKind::kInstant) {
    return Status::InvalidArgument(
        "multi-tenant serving needs a replayable stream algorithm; "
        "Instant has no carried state to share");
  }
  if (!std::isfinite(tau) || tau < 0.0) {
    return Status::InvalidArgument(
        StrFormat("tau must be finite and non-negative, got %g", tau));
  }
  return std::unique_ptr<MultiTenantStream>(
      new MultiTenantStream(inst, model, kind, tau));
}

Status MultiTenantStream::ValidateMask(LabelMask mask) const {
  if (mask == 0) {
    return Status::InvalidArgument("tenant label mask is empty");
  }
  if (inst_.num_labels() < kMaxLabels &&
      (mask >> inst_.num_labels()) != 0) {
    return Status::InvalidArgument(
        StrFormat("tenant mask uses labels outside the %d-label universe",
                  inst_.num_labels()));
  }
  return Status::OK();
}

void MultiTenantStream::EnsureSharedScan() {
  if (shared_scan_) return;
  shared_scan_ = std::make_unique<StreamScanProcessor>(
      inst_, model_, tau_, /*cross_label_pruning=*/false);
  shared_scan_->EnableFireLog();
  fire_bits_.resize(static_cast<size_t>(inst_.num_labels()));
  fire_counts_.resize(static_cast<size_t>(inst_.num_labels()));
}

void MultiTenantStream::IndexNewFires() {
  const std::vector<StreamScanProcessor::LabelFire>& log =
      shared_scan_->fire_log();
  // Every label's bitmap spans the whole indexed log, fired or not, so
  // a query ORs equal-length rows.
  const size_t words = (log.size() + 63) / 64;
  for (std::vector<uint64_t>& bits : fire_bits_) bits.resize(words, 0);
  for (size_t i = earlier_labels_.size(); i < log.size(); ++i) {
    const StreamScanProcessor::LabelFire& fire = log[i];
    fire_bits_[fire.label][i / 64] |= uint64_t{1} << (i % 64);
    ++fire_counts_[fire.label];
    // Fire times do not decrease and no fire precedes its post's
    // arrival, so earlier fires of the post lie in the suffix fired at
    // or after value(post) -- at most tau of fires, as in Emit.
    const double arrival = inst_.value(fire.post);
    LabelMask earlier = 0;
    for (size_t j = i; j-- > 0 && log[j].time >= arrival;) {
      if (log[j].post == fire.post) earlier |= MaskOf(log[j].label);
    }
    earlier_labels_.push_back(earlier);
  }
}

std::unique_ptr<MultiTenantStream::Cluster> MultiTenantStream::BuildCluster(
    LabelMask mask, PostId join) const {
  auto cluster = std::make_unique<Cluster>();
  cluster->mask = mask;
  cluster->join_cursor = join;
  cluster->cursor = join;
  cluster->processor = CreateStreamProcessor(kind_, inst_, model_, tau_, mask);
  return cluster;
}

void MultiTenantStream::CatchUp(Cluster& cluster) {
  DeliverPending(cluster, MakeWindow(cluster.cursor, cursor_),
                 /*probe=*/false);
  if (finished_) cluster.processor->Finish();
}

uint32_t MultiTenantStream::RegisterCluster(
    std::unique_ptr<Cluster> cluster) {
  const uint32_t index = static_cast<uint32_t>(clusters_.size());
  cluster_index_[{cluster->mask, cluster->join_cursor}] = index;
  clusters_.push_back(std::move(cluster));
  ++live_clusters_;
  obs::GetTenantMetrics().clusters->Set(static_cast<double>(live_clusters_));
  return index;
}

Result<uint32_t> MultiTenantStream::AttachCluster(LabelMask mask,
                                                  PostId join) {
  const auto it = cluster_index_.find({mask, join});
  if (it != cluster_index_.end()) {
    Cluster& cluster = *clusters_[it->second];
    if (!cluster.health.ok()) return cluster.health;
    ++cluster.refcount;
    return it->second;
  }
  std::unique_ptr<Cluster> cluster = BuildCluster(mask, join);
  cluster->refcount = 1;
  return RegisterCluster(std::move(cluster));
}

void MultiTenantStream::DetachCluster(uint32_t index) {
  Cluster& cluster = *clusters_[index];
  MQD_DCHECK(cluster.refcount > 0);
  if (--cluster.refcount > 0) return;
  cluster_index_.erase({cluster.mask, cluster.join_cursor});
  clusters_[index].reset();
  --live_clusters_;
  obs::GetTenantMetrics().clusters->Set(static_cast<double>(live_clusters_));
}

Result<TenantId> MultiTenantStream::Subscribe(LabelMask labels) {
  if (finished_) {
    return Status::FailedPrecondition(
        "cannot subscribe to a finished stream");
  }
  MQD_RETURN_NOT_OK(ValidateMask(labels));
  TenantRec rec;
  rec.mask = labels;
  rec.join_cursor = cursor_;
  rec.active = true;
  if (kind_ == StreamKind::kStreamScan && cursor_ == 0) {
    // Shared per-label tier: plain StreamScan's labels never interact,
    // so one full-universe engine serves every epoch-0 subscriber.
    EnsureSharedScan();
    ++shared_tier_tenants_;
  } else {
    MQD_ASSIGN_OR_RETURN(rec.cluster, AttachCluster(labels, cursor_));
  }
  tenants_.push_back(rec);
  ++active_tenants_;
  obs::GetTenantMetrics().active_tenants->Set(
      static_cast<double>(active_tenants_));
  return static_cast<TenantId>(tenants_.size() - 1);
}

void MultiTenantStream::Deactivate(TenantId tenant) {
  TenantRec& rec = tenants_[tenant];
  rec.active = false;
  --active_tenants_;
  if (rec.cluster == kNoCluster) {
    --shared_tier_tenants_;
  } else {
    DetachCluster(rec.cluster);
  }
  obs::GetTenantMetrics().active_tenants->Set(
      static_cast<double>(active_tenants_));
}

Status MultiTenantStream::Unsubscribe(TenantId tenant) {
  if (tenant >= tenants_.size() || !tenants_[tenant].active) {
    return Status::NotFound(
        StrFormat("tenant %u is not subscribed", tenant));
  }
  Deactivate(tenant);
  return Status::OK();
}

MultiTenantStream::Window MultiTenantStream::MakeWindow(PostId from,
                                                       PostId end) const {
  const size_t num_labels = static_cast<size_t>(inst_.num_labels());
  Window window{from, end, {}};
  window.bits.assign((size_t{end - from} + 63) / 64 * num_labels, 0);
  for (LabelId a = 0; a < num_labels; ++a) {
    const std::span<const PostId> posts = inst_.label_posts(a);
    for (auto it = std::lower_bound(posts.begin(), posts.end(), from);
         it != posts.end() && *it < end; ++it) {
      const PostId d = *it - from;
      window.bits[d / 64 * num_labels + a] |= uint64_t{1} << (d % 64);
    }
  }
  return window;
}

uint64_t MultiTenantStream::DeliverPending(Cluster& cluster,
                                           const Window& window,
                                           bool probe) {
  if (!cluster.health.ok()) return 0;  // quarantined: stops receiving
  MQD_DCHECK(cluster.cursor == window.from);
  // Per 64-post word, the union of the mask's label bits: every
  // matching post once, in ascending id, handed over in one Deliver.
  const size_t num_labels = static_cast<size_t>(inst_.num_labels());
  StreamProcessor& processor = *cluster.processor;
  uint64_t delivered = 0;
  PostId posts[64];
  for (size_t w = 0; w * num_labels < window.bits.size(); ++w) {
    const uint64_t* word = window.bits.data() + w * num_labels;
    uint64_t hits = 0;
    ForEachLabel(cluster.mask, [&](LabelId a) { hits |= word[a]; });
    const PostId base = window.from + static_cast<PostId>(64 * w);
    size_t n = 0;
    for (; hits != 0; hits &= hits - 1) {
      const PostId post = base + static_cast<PostId>(std::countr_zero(hits));
      if (probe) {
        Status fault = FaultInjector::Global().MaybeInject("tenant.fanout");
        if (!fault.ok()) {
          // The posts before the faulted one are delivered; then this
          // cluster only is quarantined: its tenants' queries return
          // the fault, and every other tenant's state is untouched.
          processor.Deliver({posts, n});
          cluster.cursor = post;
          cluster.health =
              Status(fault.code(),
                     StrFormat("%s (cluster quarantined at post %u)",
                               fault.message().c_str(), post));
          obs::GetTenantMetrics().quarantines->Increment();
          return delivered + n;
        }
      }
      posts[n++] = post;
    }
    if (n == 0) continue;
    processor.Deliver({posts, n});
    delivered += n;
  }
  cluster.cursor = window.end;
  return delivered;
}

uint64_t MultiTenantStream::SweepClusters(PostId end) {
  // Injected fault firing is a pure function of (seed, site, hit
  // index); clusters are swept in ascending id order, so the
  // tenant.fanout probes run in one deterministic order.
  if (live_clusters_ == 0) return 0;
  const bool probe = FaultInjector::Global().armed();
  const Window window = MakeWindow(cursor_, end);
  uint64_t delivered = 0;
  for (const std::unique_ptr<Cluster>& cluster : clusters_) {
    if (cluster) delivered += DeliverPending(*cluster, window, probe);
  }
  return delivered;
}

Status MultiTenantStream::RunUntil(PostId end) {
  if (end < cursor_ || end > inst_.num_posts()) {
    return Status::InvalidArgument(
        StrFormat("RunUntil(%u) outside [%u, %zu]", end, cursor_,
                  inst_.num_posts()));
  }
  if (end == cursor_) return Status::OK();
  if (finished_) {
    return Status::FailedPrecondition("stream already finished");
  }
  // The delivery counters are published as each batch completes, so a
  // long-running daemon shows them live.
  const obs::TenantMetrics& metrics = obs::GetTenantMetrics();
  const uint64_t batch = end - cursor_;
  arrivals_ += batch;
  metrics.arrivals->Increment(batch);
  if (shared_scan_) {
    // The whole shared tier absorbs each arrival once, for every
    // subscribed scan tenant at once.
    for (PostId p = cursor_; p < end; ++p) {
      shared_scan_->AdvanceTo(inst_.value(p));
      shared_scan_->OnArrival(p);
    }
    IndexNewFires();
    shared_tier_hits_ += batch;
    metrics.shared_hits->Increment(batch);
  }
  const uint64_t delivered = SweepClusters(end);
  fanout_deliveries_ += delivered;
  metrics.fanout_deliveries->Increment(delivered);
  cursor_ = end;
  return Status::OK();
}

void MultiTenantStream::Finish() {
  if (finished_) return;
  if (shared_scan_) {
    shared_scan_->Finish();
    IndexNewFires();
  }
  for (const std::unique_ptr<Cluster>& cluster : clusters_) {
    if (cluster && cluster->health.ok()) cluster->processor->Finish();
  }
  finished_ = true;
}

Status MultiTenantStream::RunToEnd() {
  MQD_RETURN_NOT_OK(RunUntil(static_cast<PostId>(inst_.num_posts())));
  Finish();
  return Status::OK();
}

std::vector<Emission> MultiTenantStream::DeriveSharedEmissions(
    LabelMask mask) const {
  // The union of the tenant's fire bitmaps, read one 64-position word
  // at a time in ascending position, is its labels' fires in log
  // order; keeping each post's first fire within the mask gives
  // exactly the Emit() sequence of a private StreamScan over the
  // tenant's sub-stream, because per-label state is independent and
  // fires happen in (deadline, label) order on both sides. A fire is a
  // repeat iff a label of the mask fired its post earlier, which its
  // earlier_labels_ entry answers without reading the log.
  const uint64_t* rows[kMaxLabels] = {};
  size_t num_rows = 0, fires = 0;
  ForEachLabel(mask, [&](LabelId a) {
    rows[num_rows++] = fire_bits_[a].data();
    fires += fire_counts_[a];
  });

  // Each log position is one label's fire, so the union has exactly
  // `fires` bits: every fire is written at `dst`, which advances past
  // kept ones only (no branch on the repeat test), and the vector --
  // the query's one allocation -- is trimmed to the kept fires.
  const std::vector<StreamScanProcessor::LabelFire>& log =
      shared_scan_->fire_log();
  std::vector<Emission> out(fires);
  Emission* dst = out.data();
  const size_t words = (earlier_labels_.size() + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    uint64_t hits = 0;
    for (size_t r = 0; r < num_rows; ++r) hits |= rows[r][w];
    for (; hits != 0; hits &= hits - 1) {
      const size_t position = 64 * w + std::countr_zero(hits);
      const StreamScanProcessor::LabelFire& fire = log[position];
      *dst = Emission{fire.post, fire.time};
      dst += (earlier_labels_[position] & mask) == 0;
    }
  }
  out.resize(static_cast<size_t>(dst - out.data()));
  return out;
}

Result<std::vector<Emission>> MultiTenantStream::TenantEmissions(
    TenantId tenant) const {
  if (tenant >= tenants_.size() || !tenants_[tenant].active) {
    return Status::NotFound(
        StrFormat("tenant %u is not subscribed", tenant));
  }
  const TenantRec& rec = tenants_[tenant];
  if (rec.cluster == kNoCluster) return DeriveSharedEmissions(rec.mask);
  const Cluster& cluster = *clusters_[rec.cluster];
  if (!cluster.health.ok()) return cluster.health;
  return cluster.processor->emissions();
}

Result<std::vector<PostId>> MultiTenantStream::TenantCover(
    TenantId tenant) const {
  MQD_ASSIGN_OR_RETURN(std::vector<Emission> emissions,
                       TenantEmissions(tenant));
  std::vector<PostId> cover;
  cover.reserve(emissions.size());
  for (const Emission& e : emissions) cover.push_back(e.post);
  std::sort(cover.begin(), cover.end());
  return cover;
}

Result<LabelMask> MultiTenantStream::TenantLabels(TenantId tenant) const {
  if (tenant >= tenants_.size() || !tenants_[tenant].active) {
    return Status::NotFound(
        StrFormat("tenant %u is not subscribed", tenant));
  }
  return tenants_[tenant].mask;
}

double MultiTenantStream::fanout_amplification() const {
  if (arrivals_ == 0) return 0.0;
  return static_cast<double>(shared_tier_hits_ + fanout_deliveries_) /
         static_cast<double>(arrivals_);
}

double MultiTenantStream::shared_hit_rate() const {
  const uint64_t total = shared_tier_hits_ + fanout_deliveries_;
  if (total == 0) return 0.0;
  return static_cast<double>(shared_tier_hits_) /
         static_cast<double>(total);
}

Status MultiTenantStream::EvictTenant(TenantId tenant, std::ostream& os) {
  MQD_FAULT_POINT("tenant.evict");
  if (finished_) {
    return Status::FailedPrecondition(
        "cannot evict from a finished stream");
  }
  if (tenant >= tenants_.size() || !tenants_[tenant].active) {
    return Status::NotFound(
        StrFormat("tenant %u is not subscribed", tenant));
  }
  const TenantRec& rec = tenants_[tenant];

  SnapshotWriter body;
  body.U32(kTenantFormatVersion);
  body.U8(static_cast<uint8_t>(kind_));
  body.F64(tau_);
  body.U64(InstanceFingerprint(inst_));
  body.U64(rec.mask);
  body.U32(rec.join_cursor);
  body.U32(cursor_);
  if (rec.cluster == kNoCluster) {
    // Shared tier: derivation from the live fire log is position-
    // independent, so (mask, join=0) is the whole state.
    body.U8(kTierShared);
  } else {
    const Cluster& cluster = *clusters_[rec.cluster];
    if (!cluster.health.ok()) return cluster.health;
    body.U8(kTierCluster);
    std::ostringstream inner;
    MQD_RETURN_NOT_OK(
        SaveStreamCheckpoint(*cluster.processor, cluster.cursor, inner));
    body.Str(inner.str());
  }

  MQD_RETURN_NOT_OK(WriteSnapshotEnvelope(kTenantMagic, body.bytes(), os));
  Deactivate(tenant);
  obs::GetTenantMetrics().evictions->Increment();
  return Status::OK();
}

Result<TenantId> MultiTenantStream::RestoreTenant(std::istream& is) {
  std::string body;
  MQD_RETURN_NOT_OK(OpenSnapshotEnvelope(kTenantMagic, is, &body));
  SnapshotReader reader(body);
  const uint32_t version = reader.U32();
  if (!reader.failed() && version != kTenantFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported tenant snapshot version %u", version));
  }
  const uint8_t kind = reader.U8();
  const double tau = reader.F64();
  const uint64_t fingerprint = reader.U64();
  const LabelMask mask = reader.U64();
  const PostId join = reader.U32();
  const PostId evict_cursor = reader.U32();
  const uint8_t tier = reader.U8();
  MQD_RETURN_NOT_OK(reader.status());

  if (kind != static_cast<uint8_t>(kind_)) {
    return Status::FailedPrecondition(
        "tenant snapshot was taken under a different stream algorithm");
  }
  if (tau != tau_) {
    return Status::FailedPrecondition(
        StrFormat("tenant snapshot tau %g != engine tau %g", tau, tau_));
  }
  if (fingerprint != InstanceFingerprint(inst_)) {
    return Status::FailedPrecondition(
        "tenant snapshot was taken against a different instance");
  }
  MQD_RETURN_NOT_OK(ValidateMask(mask));
  if (join > evict_cursor || evict_cursor > cursor_) {
    return Status::FailedPrecondition(
        StrFormat("tenant snapshot cursor %u is ahead of the stream "
                  "(cursor %u)",
                  evict_cursor, cursor_));
  }

  TenantRec rec;
  rec.mask = mask;
  rec.join_cursor = join;
  rec.active = true;

  if (tier == kTierShared) {
    if (kind_ != StreamKind::kStreamScan) {
      return Status::InvalidArgument(
          "shared-tier tenant snapshot under a non-StreamScan algorithm");
    }
    if (reader.remaining() != 0) {
      return Status::InvalidArgument(
          "tenant snapshot carries trailing bytes");
    }
    if (join != 0) {
      return Status::InvalidArgument(
          "shared-tier tenant snapshot with nonzero join cursor");
    }
    if (!shared_scan_) {
      if (cursor_ != 0) {
        return Status::FailedPrecondition(
            "engine has no shared scan tier covering the stream start");
      }
      EnsureSharedScan();
    }
    ++shared_tier_tenants_;
  } else if (tier == kTierCluster) {
    const std::string payload = reader.Str();
    MQD_RETURN_NOT_OK(reader.status());
    if (reader.remaining() != 0) {
      return Status::InvalidArgument(
          "tenant snapshot carries trailing bytes");
    }
    if (cluster_index_.count({mask, join}) != 0) {
      // A live representative with the same (mask, join) has replayed
      // the identical sub-stream deterministically: re-attach.
      MQD_ASSIGN_OR_RETURN(rec.cluster, AttachCluster(mask, join));
    } else {
      std::unique_ptr<Cluster> cluster = BuildCluster(mask, join);
      std::istringstream inner(payload);
      MQD_ASSIGN_OR_RETURN(
          cluster->cursor,
          RestoreStreamCheckpoint(cluster->processor.get(), inst_, inner));
      if (cluster->cursor != evict_cursor) {
        return Status::InvalidArgument(
            "tenant snapshot replay cursor inconsistent with evict point");
      }
      // Catch up to the engine's cursor: deliver the posts the tenant
      // missed while evicted, exactly as ResumeStream would.
      CatchUp(*cluster);
      cluster->refcount = 1;
      rec.cluster = RegisterCluster(std::move(cluster));
    }
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown tenant snapshot tier %u", tier));
  }

  tenants_.push_back(rec);
  ++active_tenants_;
  obs::GetTenantMetrics().active_tenants->Set(
      static_cast<double>(active_tenants_));
  obs::GetTenantMetrics().restores->Increment();
  return static_cast<TenantId>(tenants_.size() - 1);
}

}  // namespace mqd
