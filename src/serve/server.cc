#include "serve/server.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/stack_metrics.h"
#include "stream/checkpoint.h"
#include "util/fault_injection.h"

namespace mqd {
namespace {

constexpr const char* kSiteQueue = "serve.queue";
constexpr const char* kSiteWorker = "serve.worker";

int LaneIndex(ServeLane lane) { return static_cast<int>(lane); }

// Fault probes may be configured to throw; the daemon must convert
// that into a typed error response, never die.
Status ProbeFault(const char* site) {
  try {
    return FaultInjector::Global().MaybeInject(site);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("injected exception at ") + site +
                            ": " + e.what());
  }
}

std::string_view LadderStartName(int ladder_start) {
  switch (ladder_start) {
    case 1: return "ScanPlus";
    case 2: return "Scan";
    default: return "GreedySC";
  }
}

void AppendKv(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%s=%llu", out->empty() ? "" : " ", key,
                static_cast<unsigned long long>(value));
  *out += buf;
}

void AppendKvF(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%s=%.3f", out->empty() ? "" : " ", key,
                value);
  *out += buf;
}

void AppendKvS(std::string* out, const char* key, std::string_view value) {
  if (!out->empty()) *out += ' ';
  *out += key;
  *out += '=';
  *out += value;
}

}  // namespace

Server::Server(const Instance& inst, const ServeConfig& config)
    : inst_(inst),
      config_(config),
      model_(config.lambda),
      admission_(config.admission),
      queue_(config.admission.stream_capacity,
             config.admission.batch_capacity) {}

Result<std::unique_ptr<Server>> Server::Create(const Instance& inst,
                                               const ServeConfig& config) {
  if (config.workers < 1 || config.workers > 512) {
    return Status::InvalidArgument("serve: workers must be in [1, 512]");
  }
  if (!std::isfinite(config.lambda) || config.lambda <= 0.0) {
    return Status::InvalidArgument("serve: lambda must be finite and > 0");
  }
  if (!std::isfinite(config.service_floor_ms) ||
      config.service_floor_ms < 0.0) {
    return Status::InvalidArgument(
        "serve: service_floor_ms must be finite and >= 0");
  }
  if (config.admission.stream_capacity == 0 ||
      config.admission.batch_capacity == 0) {
    return Status::InvalidArgument("serve: lane capacities must be >= 1");
  }
  std::unique_ptr<Server> server(new Server(inst, config));
  MQD_RETURN_NOT_OK(server->Init());
  return server;
}

Status Server::Init() {
  if (config_.tenant_mode) {
    MQD_ASSIGN_OR_RETURN(
        tenants_, MultiTenantStream::Create(inst_, model_,
                                            config_.stream_kind, config_.tau));
  } else {
    MQD_ASSIGN_OR_RETURN(
        processor_, CreateStreamProcessorChecked(config_.stream_kind, inst_,
                                                 model_, config_.tau));
    stream_metrics_ = &obs::StreamMetricsFor(processor_->name());
    if (!config_.checkpoint_path.empty()) {
      std::ifstream probe(config_.checkpoint_path, std::ios::binary);
      if (probe.good()) {
        probe.close();
        MQD_ASSIGN_OR_RETURN(
            PostId cursor,
            ReadStreamCheckpointFromFile(processor_.get(), inst_,
                                         config_.checkpoint_path));
        cursor_.store(cursor, std::memory_order_relaxed);
        emitted_.store(processor_->emissions().size(),
                       std::memory_order_relaxed);
        restored_ = true;
      }
    }
  }

  workers_.reserve(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

Server::~Server() {
  Status status = Drain();
  (void)status;  // Drain failures are already counted in metrics.
}

void Server::Submit(ServeRequest req, ServeResponseCallback callback) {
  const ServeLane lane = LaneOfVerb(req.verb);
  const auto& lane_metrics = obs::ServeLaneMetricsFor(ServeLaneName(lane));
  lane_metrics.submitted->Increment();
  submitted_[LaneIndex(lane)].fetch_add(1, std::memory_order_relaxed);

  if (IsInlineVerb(req.verb)) {
    callback(HandleInline(req));
    return;
  }

  Status fault = ProbeFault(kSiteQueue);
  if (!fault.ok()) {
    lane_metrics.errors->Increment();
    errors_[LaneIndex(lane)].fetch_add(1, std::memory_order_relaxed);
    callback(ServeResponse::Error(std::move(req.id), std::move(fault)));
    return;
  }

  AdmissionDecision decision =
      admission_.Decide(lane, queue_.depth(lane), req.budget_ms, draining());
  if (!decision.admit) {
    lane_metrics.shed->Increment();
    shed_[LaneIndex(lane)].fetch_add(1, std::memory_order_relaxed);
    callback(ServeResponse::Shed(std::move(req.id), decision.shed_reason,
                                 decision.retry_after_ms));
    return;
  }

  QueuedRequest item;
  item.request = std::move(req);
  item.callback = std::move(callback);
  item.enqueue_time = std::chrono::steady_clock::now();
  item.deadline = decision.budget_ms > 0.0
                      ? Deadline::AfterSeconds(decision.budget_ms * 1e-3)
                      : Deadline::Unbounded();
  item.ladder_start = decision.ladder_start;

  if (!queue_.TryPush(lane, &item)) {
    // Lost the race against concurrent submitters (or the drain): the
    // depth we admitted on is stale. Shed rather than block.
    const bool closed = queue_.closed();
    lane_metrics.shed->Increment();
    shed_[LaneIndex(lane)].fetch_add(1, std::memory_order_relaxed);
    item.callback(ServeResponse::Shed(
        std::move(item.request.id), closed ? "draining" : "queue_full",
        static_cast<double>(queue_.capacity(lane)) *
            std::max(admission_.EwmaBatchServiceMs(), 1.0)));
    return;
  }
  lane_metrics.admitted->Increment();
  lane_metrics.queue_depth->Set(static_cast<double>(queue_.depth(lane)));
  admitted_[LaneIndex(lane)].fetch_add(1, std::memory_order_relaxed);
}

ServeResponse Server::Call(const ServeRequest& req) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ServeResponse response;
  Submit(req, [&](const ServeResponse& r) {
    std::lock_guard<std::mutex> lock(mu);
    response = r;
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return response;
}

void Server::WorkerLoop() {
  QueuedRequest item;
  ServeLane lane;
  while (queue_.PopBlocking(&item, &lane)) {
    Execute(lane, std::move(item));
    if (lane == ServeLane::kStream) queue_.StreamServiceDone();
  }
}

void Server::Execute(ServeLane lane, QueuedRequest item) {
  const auto& lane_metrics = obs::ServeLaneMetricsFor(ServeLaneName(lane));
  lane_metrics.queue_depth->Set(static_cast<double>(queue_.depth(lane)));
  ServeResponse response;
  try {
    response = ExecuteLocked(lane, item);
  } catch (const std::exception& e) {
    response = ServeResponse::Error(
        item.request.id, Status::Internal(std::string("worker: ") + e.what()));
  }
  const double latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    item.enqueue_time)
          .count();
  lane_metrics.latency_seconds->Observe(latency);
  if (response.outcome == ServeOutcome::kOk) {
    lane_metrics.completed->Increment();
    completed_[LaneIndex(lane)].fetch_add(1, std::memory_order_relaxed);
  } else {
    lane_metrics.errors->Increment();
    errors_[LaneIndex(lane)].fetch_add(1, std::memory_order_relaxed);
  }
  item.callback(response);
}

ServeResponse Server::ExecuteLocked(ServeLane /*lane*/,
                                    const QueuedRequest& item) {
  Status fault = ProbeFault(kSiteWorker);
  if (!fault.ok()) {
    obs::GetServeMetrics().fault_rejects->Increment();
    return ServeResponse::Error(item.request.id, std::move(fault));
  }
  switch (item.request.verb) {
    case ServeVerb::kSolve:
      return DoSolve(item);
    case ServeVerb::kFeed:
      return DoFeed(item.request);
    case ServeVerb::kFinish:
      return DoFinish(item.request);
    case ServeVerb::kSubscribe:
      return DoSubscribe(item.request);
    case ServeVerb::kUnsubscribe:
      return DoUnsubscribe(item.request);
    case ServeVerb::kEmissions:
      return DoEmissions(item.request);
    default:
      return ServeResponse::Error(
          item.request.id,
          Status::Internal("inline verb reached the queue"));
  }
}

ServeResponse Server::DoSolve(const QueuedRequest& item) {
  const ServeRequest& req = item.request;
  if (config_.service_floor_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(config_.service_floor_ms));
  }
  const int start = std::min(std::max(item.ladder_start, 0), 2);
  if (start > 0) {
    pre_degraded_.fetch_add(1, std::memory_order_relaxed);
    obs::ServePreDegradedFor(LadderStartName(start)).Increment();
  }
  UniformLambda request_model(req.lambda > 0.0 ? req.lambda : config_.lambda);
  const CoverageModel& model =
      req.lambda > 0.0 ? static_cast<const CoverageModel&>(request_model)
                       : static_cast<const CoverageModel&>(model_);
  // A pre-degraded solve still falls through to cheaper rungs (and
  // the trivial cover) on deadline exhaustion, so it always answers.
  DegradeOutcome outcome = ladder_.SolveDegrading(
      inst_, model, item.deadline, static_cast<size_t>(start));
  admission_.RecordBatchServiceSeconds(outcome.elapsed_seconds +
                                       config_.service_floor_ms * 1e-3);
  std::string body;
  AppendKvS(&body, "rung", outcome.rung);
  AppendKv(&body, "rung_index", outcome.rung_index);
  AppendKv(&body, "cover", outcome.cover.size());
  AppendKv(&body, "degraded", outcome.degraded || start > 0 ? 1 : 0);
  AppendKv(&body, "pre_degraded", static_cast<uint64_t>(start));
  AppendKvF(&body, "elapsed_ms", outcome.elapsed_seconds * 1e3);
  return ServeResponse::Ok(req.id, std::move(body));
}

ServeResponse Server::DoFeed(const ServeRequest& req) {
  if (finished_) {
    // Finish already fired every deadline; feeding the processor again
    // would advance it past +inf.
    return ServeResponse::Error(
        req.id, Status::FailedPrecondition("stream already finished"));
  }
  const PostId num_posts = static_cast<PostId>(inst_.num_posts());
  const PostId begin = cursor_.load(std::memory_order_relaxed);
  const PostId end = static_cast<PostId>(
      std::min<uint64_t>(static_cast<uint64_t>(begin) + req.posts, num_posts));
  if (config_.tenant_mode) {
    Status status = tenants_->RunUntil(end);
    if (!status.ok()) return ServeResponse::Error(req.id, std::move(status));
    cursor_.store(end, std::memory_order_relaxed);
    std::string body;
    AppendKv(&body, "delivered", end - begin);
    AppendKv(&body, "cursor", end);
    return ServeResponse::Ok(req.id, std::move(body));
  }
  const size_t emitted_before = processor_->emissions().size();
  for (PostId p = begin; p < end; ++p) {
    processor_->AdvanceTo(inst_.value(p));
    processor_->OnArrival(p);
  }
  cursor_.store(end, std::memory_order_relaxed);
  emitted_.store(processor_->emissions().size(), std::memory_order_relaxed);
  stream_metrics_->posts->Increment(end - begin);
  stream_metrics_->emissions->Increment(processor_->emissions().size() -
                                        emitted_before);
  std::string body;
  AppendKv(&body, "delivered", end - begin);
  AppendKv(&body, "cursor", end);
  AppendKv(&body, "emitted", emitted_.load(std::memory_order_relaxed));
  return ServeResponse::Ok(req.id, std::move(body));
}

ServeResponse Server::DoFinish(const ServeRequest& req) {
  finished_ = true;
  if (config_.tenant_mode) {
    tenants_->Finish();
    std::string body;
    AppendKv(&body, "cursor", cursor_.load(std::memory_order_relaxed));
    return ServeResponse::Ok(req.id, std::move(body));
  }
  const size_t emitted_before = processor_->emissions().size();
  processor_->Finish();
  emitted_.store(processor_->emissions().size(), std::memory_order_relaxed);
  stream_metrics_->emissions->Increment(processor_->emissions().size() -
                                        emitted_before);
  std::string body;
  AppendKv(&body, "emitted", emitted_.load(std::memory_order_relaxed));
  return ServeResponse::Ok(req.id, std::move(body));
}

ServeResponse Server::DoSubscribe(const ServeRequest& req) {
  if (!config_.tenant_mode) {
    return ServeResponse::Error(
        req.id,
        Status::FailedPrecondition("subscribe requires tenant mode "
                                   "(--tenant-mode)"));
  }
  const size_t cap = config_.admission.max_tenants;
  if (cap > 0 && tenants_->active_tenants() >= cap) {
    // Tenant admission: the fan-out cost of one more profile would
    // push the shared sweep past its provisioned budget.
    tenant_rejects_.fetch_add(1, std::memory_order_relaxed);
    obs::GetServeMetrics().tenant_rejects->Increment();
    return ServeResponse::Shed(
        req.id, "tenant_limit",
        std::max(admission_.EwmaBatchServiceMs(), 1.0) *
            static_cast<double>(cap));
  }
  Result<TenantId> tenant = tenants_->Subscribe(req.mask);
  if (!tenant.ok()) return ServeResponse::Error(req.id, tenant.status());
  tenant_count_.store(tenants_->active_tenants(), std::memory_order_relaxed);
  std::string body;
  AppendKv(&body, "tenant", *tenant);
  return ServeResponse::Ok(req.id, std::move(body));
}

ServeResponse Server::DoUnsubscribe(const ServeRequest& req) {
  if (!config_.tenant_mode) {
    return ServeResponse::Error(
        req.id, Status::FailedPrecondition("unsubscribe requires tenant mode"));
  }
  Status status = tenants_->Unsubscribe(req.tenant);
  if (!status.ok()) return ServeResponse::Error(req.id, std::move(status));
  tenant_count_.store(tenants_->active_tenants(), std::memory_order_relaxed);
  std::string body;
  AppendKv(&body, "tenants",
           static_cast<uint64_t>(tenants_->active_tenants()));
  return ServeResponse::Ok(req.id, std::move(body));
}

ServeResponse Server::DoEmissions(const ServeRequest& req) {
  std::string body;
  if (config_.tenant_mode) {
    if (req.tenant == kInvalidTenant) {
      return ServeResponse::Error(
          req.id,
          Status::InvalidArgument("emissions requires tenant=<id> in "
                                  "tenant mode"));
    }
    Result<std::vector<Emission>> emissions =
        tenants_->TenantEmissions(req.tenant);
    if (!emissions.ok()) {
      return ServeResponse::Error(req.id, emissions.status());
    }
    AppendKv(&body, "tenant", req.tenant);
    AppendKv(&body, "emitted", emissions->size());
    return ServeResponse::Ok(req.id, std::move(body));
  }
  AppendKv(&body, "emitted", processor_->emissions().size());
  return ServeResponse::Ok(req.id, std::move(body));
}

ServeResponse Server::HandleInline(const ServeRequest& req) {
  switch (req.verb) {
    case ServeVerb::kPing:
      return ServeResponse::Ok(req.id);
    case ServeVerb::kStats:
      return ServeResponse::Ok(req.id, FormatStats());
    case ServeVerb::kDrain: {
      Status status = Drain();
      if (!status.ok()) {
        return ServeResponse::Error(req.id, std::move(status));
      }
      std::string body;
      AppendKv(&body, "drained", 1);
      AppendKv(&body, "checkpoint",
               (!config_.tenant_mode && !config_.checkpoint_path.empty()) ? 1
                                                                          : 0);
      return ServeResponse::Ok(req.id, std::move(body));
    }
    default:
      return ServeResponse::Error(
          req.id, Status::Internal("non-inline verb in HandleInline"));
  }
}

Status Server::Drain() {
  draining_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(drain_mu_);
  if (drained_) return Status::OK();

  // Stop the workers after their in-flight request: Close makes
  // PopBlocking return false immediately, deliberately leaving queued
  // requests behind for the shed sweep below.
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Every request still queued was admitted, so it owes a response:
  // an explicit shed with a backoff hint, not silence.
  const double hint =
      std::max(admission_.EwmaBatchServiceMs(), 1.0) *
      static_cast<double>(config_.admission.batch_capacity);
  for (auto& [lane, item] : queue_.DrainAll()) {
    const auto& lane_metrics = obs::ServeLaneMetricsFor(ServeLaneName(lane));
    lane_metrics.shed->Increment();
    shed_[LaneIndex(lane)].fetch_add(1, std::memory_order_relaxed);
    drain_shed_.fetch_add(1, std::memory_order_relaxed);
    obs::GetServeMetrics().drain_shed->Increment();
    item.callback(
        ServeResponse::Shed(std::move(item.request.id), "draining", hint));
  }

  Status status = Status::OK();
  if (!config_.tenant_mode && !config_.checkpoint_path.empty()) {
    status = WriteStreamCheckpointToFile(
        *processor_, cursor_.load(std::memory_order_relaxed),
        config_.checkpoint_path);
  }
  obs::GetServeMetrics().drains->Increment();
  drained_ = true;
  return status;
}

ServeStatsSnapshot Server::Stats() const {
  ServeStatsSnapshot snap;
  for (int i = 0; i < 2; ++i) {
    snap.submitted[i] = submitted_[i].load(std::memory_order_relaxed);
    snap.admitted[i] = admitted_[i].load(std::memory_order_relaxed);
    snap.shed[i] = shed_[i].load(std::memory_order_relaxed);
    snap.completed[i] = completed_[i].load(std::memory_order_relaxed);
    snap.errors[i] = errors_[i].load(std::memory_order_relaxed);
  }
  snap.pre_degraded = pre_degraded_.load(std::memory_order_relaxed);
  snap.drain_shed = drain_shed_.load(std::memory_order_relaxed);
  snap.tenant_rejects = tenant_rejects_.load(std::memory_order_relaxed);
  snap.emitted = emitted_.load(std::memory_order_relaxed);
  snap.cursor = cursor_.load(std::memory_order_relaxed);
  snap.depth_stream = queue_.depth(ServeLane::kStream);
  snap.depth_batch = queue_.depth(ServeLane::kBatch);
  // Stats answers inline while workers may be mutating the engine, so
  // the tenant count comes from a mirror atomic maintained by the
  // (serialized) subscribe/unsubscribe workers, never from the engine.
  snap.tenants = tenant_count_.load(std::memory_order_relaxed);
  snap.draining = draining();
  snap.ewma_batch_ms = admission_.EwmaBatchServiceMs();
  return snap;
}

std::string Server::FormatStats() const {
  ServeStatsSnapshot snap = Stats();
  const int s = LaneIndex(ServeLane::kStream);
  const int b = LaneIndex(ServeLane::kBatch);
  std::string body;
  AppendKv(&body, "submitted", snap.submitted[s] + snap.submitted[b]);
  AppendKv(&body, "admitted", snap.admitted[s] + snap.admitted[b]);
  AppendKv(&body, "completed", snap.completed[s] + snap.completed[b]);
  AppendKv(&body, "shed_stream", snap.shed[s]);
  AppendKv(&body, "shed_batch", snap.shed[b]);
  AppendKv(&body, "errors", snap.errors[s] + snap.errors[b]);
  AppendKv(&body, "pre_degraded", snap.pre_degraded);
  AppendKv(&body, "drain_shed", snap.drain_shed);
  AppendKv(&body, "tenant_rejects", snap.tenant_rejects);
  AppendKv(&body, "depth_stream", snap.depth_stream);
  AppendKv(&body, "depth_batch", snap.depth_batch);
  AppendKv(&body, "cursor", snap.cursor);
  AppendKv(&body, "emitted", snap.emitted);
  AppendKv(&body, "tenants", snap.tenants);
  AppendKv(&body, "draining", snap.draining ? 1 : 0);
  AppendKvF(&body, "ewma_batch_ms", snap.ewma_batch_ms);
  return body;
}

}  // namespace mqd
