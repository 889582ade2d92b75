// Serving-daemon battery: protocol parsing, the two-lane bounded
// queue, admission decisions, end-to-end server behavior (stream
// equivalence, deterministic overload shed, pre-degrade, graceful
// drain, checkpoint kill/restore, tenant caps), chaos over the
// serve.* fault sites, and both transports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "gen/instance_gen.h"
#include "obs/stack_metrics.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "stream/factory.h"
#include "stream/replay.h"
#include "util/fault_injection.h"

namespace mqd {
namespace {

Instance TestInstance(uint64_t seed = 4242, double minutes = 5.0) {
  InstanceGenConfig cfg;
  cfg.num_labels = 4;
  cfg.duration = minutes * 60.0;
  cfg.posts_per_minute = 40.0;
  cfg.overlap_rate = 1.4;
  cfg.seed = seed;
  auto inst = GenerateInstance(cfg);
  EXPECT_TRUE(inst.ok());
  return std::move(inst).value();
}

ServeRequest MustParse(const std::string& line) {
  auto parsed = ParseServeRequest(line);
  EXPECT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
  return parsed.ok() ? std::move(*parsed) : ServeRequest{};
}

// ---------------------------------------------------------------------
// Protocol

TEST(ServeProtocolTest, ParsesEveryVerbWithKeys) {
  ServeRequest r = MustParse("42 solve lambda=12.5 budget_ms=30");
  EXPECT_EQ(r.id, "42");
  EXPECT_EQ(r.verb, ServeVerb::kSolve);
  EXPECT_DOUBLE_EQ(r.lambda, 12.5);
  EXPECT_DOUBLE_EQ(r.budget_ms, 30.0);

  r = MustParse("a-7 feed posts=128");
  EXPECT_EQ(r.verb, ServeVerb::kFeed);
  EXPECT_EQ(r.posts, 128u);

  r = MustParse("x subscribe mask=1f");
  EXPECT_EQ(r.verb, ServeVerb::kSubscribe);
  EXPECT_EQ(r.mask, 0x1fu);

  r = MustParse("y unsubscribe tenant=3");
  EXPECT_EQ(r.verb, ServeVerb::kUnsubscribe);
  EXPECT_EQ(r.tenant, 3u);

  EXPECT_EQ(MustParse("1 finish").verb, ServeVerb::kFinish);
  EXPECT_EQ(MustParse("1 emissions").verb, ServeVerb::kEmissions);
  EXPECT_EQ(MustParse("1 stats").verb, ServeVerb::kStats);
  EXPECT_EQ(MustParse("1 ping").verb, ServeVerb::kPing);
  EXPECT_EQ(MustParse("1 drain").verb, ServeVerb::kDrain);
  // Defaults when keys are omitted.
  r = MustParse("1 solve");
  EXPECT_LT(r.lambda, 0.0);
  EXPECT_LT(r.budget_ms, 0.0);
  EXPECT_EQ(MustParse("1 feed").posts, 64u);
}

TEST(ServeProtocolTest, RejectsMalformedLines) {
  const std::vector<std::string> bad = {
      "",                        // empty
      "justid",                  // no verb
      "1 warble",                // unknown verb
      "1 solve lambda=nan",      // NaN
      "1 solve lambda=inf",      // infinity
      "1 solve lambda=-3",       // non-positive lambda
      "1 solve lambda=5x",       // trailing garbage
      "1 solve budget_ms=-1",    // negative budget
      "1 solve frobnicate=1",    // unknown key
      "1 feed posts=0",          // zero batch
      "1 feed posts=abc",        // non-numeric
      "1 feed posts=-5",         // negative
      "1 subscribe",             // missing required mask
      "1 subscribe mask=0",      // empty mask
      "1 subscribe mask=zz",     // not hex
      "1 unsubscribe",           // missing required tenant
      "1 ping extra=1",          // key on keyless verb
  };
  for (const std::string& line : bad) {
    auto parsed = ParseServeRequest(line);
    EXPECT_FALSE(parsed.ok()) << "accepted: '" << line << "'";
  }
}

TEST(ServeProtocolTest, ResponseFormats) {
  EXPECT_EQ(ServeResponse::Ok("7", "cover=3").Format(), "7 ok cover=3");
  EXPECT_EQ(ServeResponse::Ok("7").Format(), "7 ok");
  EXPECT_EQ(ServeResponse::Shed("9", "queue_full", 12.0).Format(),
            "9 shed reason=queue_full retry_after_ms=12.000");
  const std::string err =
      ServeResponse::Error("3", Status::NotFound("no tenant")).Format();
  EXPECT_EQ(err.find("3 error NotFound"), 0u) << err;
}

// ---------------------------------------------------------------------
// Queue

QueuedRequest Item(const std::string& id) {
  QueuedRequest item;
  item.request.id = id;
  return item;
}

TEST(RequestQueueTest, StreamLaneOutranksBatchAndStaysFifo) {
  RequestQueue queue(8, 8);
  for (const char* id : {"b1", "b2"}) {
    QueuedRequest item = Item(id);
    ASSERT_TRUE(queue.TryPush(ServeLane::kBatch, &item));
  }
  for (const char* id : {"s1", "s2"}) {
    QueuedRequest item = Item(id);
    ASSERT_TRUE(queue.TryPush(ServeLane::kStream, &item));
  }
  QueuedRequest out;
  ServeLane lane;
  ASSERT_TRUE(queue.PopBlocking(&out, &lane));
  EXPECT_EQ(out.request.id, "s1");
  EXPECT_EQ(lane, ServeLane::kStream);
  // The stream lane is serialized: with s1 in service the next pop
  // must take batch work even though s2 is queued.
  ASSERT_TRUE(queue.PopBlocking(&out, &lane));
  EXPECT_EQ(out.request.id, "b1");
  EXPECT_EQ(lane, ServeLane::kBatch);
  queue.StreamServiceDone();
  ASSERT_TRUE(queue.PopBlocking(&out, &lane));
  EXPECT_EQ(out.request.id, "s2");
  queue.StreamServiceDone();
  ASSERT_TRUE(queue.PopBlocking(&out, &lane));
  EXPECT_EQ(out.request.id, "b2");
}

TEST(RequestQueueTest, TryPushFailsAtCapacityWithoutBlocking) {
  RequestQueue queue(1, 2);
  QueuedRequest item = Item("s");
  EXPECT_TRUE(queue.TryPush(ServeLane::kStream, &item));
  item = Item("s-over");
  EXPECT_FALSE(queue.TryPush(ServeLane::kStream, &item));
  // The rejected item is returned unmoved: its callback is intact.
  EXPECT_EQ(item.request.id, "s-over");
  item = Item("b1");
  EXPECT_TRUE(queue.TryPush(ServeLane::kBatch, &item));
  item = Item("b2");
  EXPECT_TRUE(queue.TryPush(ServeLane::kBatch, &item));
  item = Item("b-over");
  EXPECT_FALSE(queue.TryPush(ServeLane::kBatch, &item));
  EXPECT_EQ(queue.depth(ServeLane::kStream), 1u);
  EXPECT_EQ(queue.depth(ServeLane::kBatch), 2u);
}

TEST(RequestQueueTest, CloseWakesBlockedPoppersAndLeavesQueuedWork) {
  RequestQueue queue(4, 4);
  QueuedRequest item = Item("popped-before-close");
  ASSERT_TRUE(queue.TryPush(ServeLane::kBatch, &item));
  std::atomic<int> woke{0};
  std::vector<std::thread> poppers;
  // One popper grabs the queued item; the others block until Close.
  for (int i = 0; i < 3; ++i) {
    poppers.emplace_back([&queue, &woke] {
      QueuedRequest out;
      ServeLane lane;
      while (queue.PopBlocking(&out, &lane)) {
      }
      woke.fetch_add(1);
    });
  }
  // Give poppers a beat to drain the item and block, then close.
  while (queue.depth(ServeLane::kBatch) != 0) {
    std::this_thread::yield();
  }
  queue.Close();
  for (std::thread& t : poppers) t.join();
  EXPECT_EQ(woke.load(), 3);

  // Post-close: pushes fail, and nothing was left behind to drain.
  item = Item("rejected");
  EXPECT_FALSE(queue.TryPush(ServeLane::kStream, &item));
  EXPECT_TRUE(queue.DrainAll().empty());
}

TEST(RequestQueueTest, DrainAllReturnsStreamFirstFifo) {
  RequestQueue queue(4, 4);
  for (const char* id : {"b1", "b2"}) {
    QueuedRequest item = Item(id);
    ASSERT_TRUE(queue.TryPush(ServeLane::kBatch, &item));
  }
  for (const char* id : {"s1", "s2"}) {
    QueuedRequest item = Item(id);
    ASSERT_TRUE(queue.TryPush(ServeLane::kStream, &item));
  }
  queue.Close();
  auto drained = queue.DrainAll();
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].second.request.id, "s1");
  EXPECT_EQ(drained[1].second.request.id, "s2");
  EXPECT_EQ(drained[2].second.request.id, "b1");
  EXPECT_EQ(drained[3].second.request.id, "b2");
  EXPECT_EQ(drained[0].first, ServeLane::kStream);
  EXPECT_EQ(drained[2].first, ServeLane::kBatch);
}

// ---------------------------------------------------------------------
// Admission

TEST(AdmissionTest, DepthThresholdsDriveLadderStartAndShed) {
  AdmissionConfig cfg;
  cfg.batch_capacity = 10;  // Scan+ at depth 5, Scan at depth 8
  AdmissionController admission(cfg);
  auto decide = [&](size_t depth) {
    return admission.Decide(ServeLane::kBatch, depth, /*budget=*/-1.0,
                            /*draining=*/false);
  };
  EXPECT_TRUE(decide(0).admit);
  EXPECT_EQ(decide(0).ladder_start, 0);
  EXPECT_EQ(decide(4).ladder_start, 0);
  EXPECT_EQ(decide(5).ladder_start, 1);
  EXPECT_EQ(decide(7).ladder_start, 1);
  EXPECT_EQ(decide(8).ladder_start, 2);
  EXPECT_EQ(decide(9).ladder_start, 2);
  const AdmissionDecision full = decide(10);
  EXPECT_FALSE(full.admit);
  EXPECT_EQ(full.shed_reason, "queue_full");
  EXPECT_GT(full.retry_after_ms, 0.0);
}

TEST(AdmissionTest, StreamLaneNeverPreDegradesOnlySheds) {
  AdmissionConfig cfg;
  cfg.stream_capacity = 4;
  AdmissionController admission(cfg);
  for (size_t depth = 0; depth < 4; ++depth) {
    const AdmissionDecision d =
        admission.Decide(ServeLane::kStream, depth, -1.0, false);
    EXPECT_TRUE(d.admit) << depth;
    EXPECT_EQ(d.ladder_start, 0) << depth;
  }
  const AdmissionDecision full =
      admission.Decide(ServeLane::kStream, 4, -1.0, false);
  EXPECT_FALSE(full.admit);
  EXPECT_EQ(full.shed_reason, "queue_full");
}

TEST(AdmissionTest, DrainingShedsEverything) {
  AdmissionController admission(AdmissionConfig{});
  const AdmissionDecision d =
      admission.Decide(ServeLane::kBatch, 0, -1.0, /*draining=*/true);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.shed_reason, "draining");
}

TEST(AdmissionTest, UnmeetableDeadlineIsShedUpFront) {
  AdmissionConfig cfg;
  cfg.batch_capacity = 100;
  AdmissionController admission(cfg);
  // Teach the EWMA that a solve takes ~50ms.
  for (int i = 0; i < 20; ++i) admission.RecordBatchServiceSeconds(0.05);
  EXPECT_GT(admission.EwmaBatchServiceMs(), 20.0);
  // 10 queued x ~50ms >> 5ms budget: provably unmeetable.
  const AdmissionDecision d =
      admission.Decide(ServeLane::kBatch, 10, /*budget=*/5.0, false);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.shed_reason, "deadline_unmeetable");
  EXPECT_GT(d.retry_after_ms, 0.0);
  // The same depth with an unbounded budget is admitted (pre-degraded
  // perhaps, but admitted).
  EXPECT_TRUE(admission.Decide(ServeLane::kBatch, 10, 0.0, false).admit);
}

// ---------------------------------------------------------------------
// Server end-to-end

std::unique_ptr<Server> MustCreate(const Instance& inst,
                                   const ServeConfig& config) {
  auto server = Server::Create(inst, config);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

/// Blocks until every admitted request has been answered (completed
/// or errored). Lets tests drain without racing queued work into the
/// drain sweep's shed path.
void WaitForIdle(Server* server) {
  for (;;) {
    const ServeStatsSnapshot s = server->Stats();
    const uint64_t admitted = s.admitted[0] + s.admitted[1];
    const uint64_t answered =
        s.completed[0] + s.completed[1] + s.errors[0] + s.errors[1];
    if (answered >= admitted) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

uint64_t BodyValue(const std::string& body, const std::string& key) {
  const std::string needle = key + "=";
  size_t pos = body.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " not in '" << body << "'";
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(ServeServerTest, FeedReproducesDirectReplayEmissions) {
  const Instance inst = TestInstance();
  UniformLambda model(30.0);
  auto baseline =
      CreateStreamProcessor(StreamKind::kStreamScanPlus, inst, model, 5.0);
  ASSERT_TRUE(RunStream(inst, baseline.get()).ok());

  ServeConfig config;
  config.lambda = 30.0;
  config.tau = 5.0;
  auto server = MustCreate(inst, config);
  // Feed in uneven chunks, then finish.
  PostId cursor = 0;
  int i = 0;
  const uint32_t chunks[] = {1, 7, 64, 13, 100000};
  while (cursor < static_cast<PostId>(inst.num_posts())) {
    ServeRequest req = MustParse("f" + std::to_string(i) + " feed posts=" +
                                 std::to_string(chunks[i % 5]));
    ++i;
    const ServeResponse r = server->Call(req);
    ASSERT_EQ(r.outcome, ServeOutcome::kOk) << r.Format();
    cursor = static_cast<PostId>(BodyValue(r.body, "cursor"));
  }
  const ServeResponse fin = server->Call(MustParse("fin finish"));
  ASSERT_EQ(fin.outcome, ServeOutcome::kOk) << fin.Format();
  const ServeResponse em = server->Call(MustParse("e emissions"));
  ASSERT_EQ(em.outcome, ServeOutcome::kOk);
  EXPECT_EQ(BodyValue(em.body, "emitted"), baseline->emissions().size());
  EXPECT_EQ(BodyValue(fin.body, "emitted"), baseline->emissions().size());
  EXPECT_TRUE(server->Drain().ok());
}

TEST(ServeServerTest, SolveHonorsPerRequestLambdaAndReportsRung) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.lambda = 60.0;
  auto server = MustCreate(inst, config);
  const ServeResponse tight = server->Call(MustParse("1 solve lambda=10"));
  const ServeResponse loose = server->Call(MustParse("2 solve lambda=200"));
  ASSERT_EQ(tight.outcome, ServeOutcome::kOk) << tight.Format();
  ASSERT_EQ(loose.outcome, ServeOutcome::kOk) << loose.Format();
  // Smaller lambda -> more representatives required.
  EXPECT_GT(BodyValue(tight.body, "cover"), BodyValue(loose.body, "cover"));
  EXPECT_NE(tight.body.find("rung="), std::string::npos);
  EXPECT_EQ(BodyValue(tight.body, "pre_degraded"), 0u);
}

TEST(ServeServerTest, DeterministicOverloadShedsBatchNotStream) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.workers = 1;
  config.service_floor_ms = 20.0;
  config.admission.batch_capacity = 2;
  config.admission.stream_capacity = 64;
  auto server = MustCreate(inst, config);

  std::mutex mu;
  std::map<std::string, int> responses;
  std::atomic<int> shed{0}, ok{0};
  auto record = [&](const ServeResponse& r) {
    std::lock_guard<std::mutex> lock(mu);
    ++responses[r.id];
    (r.outcome == ServeOutcome::kShed ? shed : ok).fetch_add(1);
    if (r.outcome == ServeOutcome::kShed) {
      EXPECT_EQ(r.shed_reason, "queue_full");
      EXPECT_GT(r.retry_after_ms, 0.0);
    }
  };
  // Burst 20 solves into a 2-deep lane served at >= 20ms each: the
  // burst outruns the worker by construction, so most are shed.
  for (int i = 0; i < 20; ++i) {
    server->Submit(MustParse("b" + std::to_string(i) + " solve"), record);
  }
  // Stream feeds ride their own lane and must all be admitted even
  // while the batch lane is saturated.
  for (int i = 0; i < 10; ++i) {
    server->Submit(MustParse("s" + std::to_string(i) + " feed posts=1"),
                   record);
  }
  // Let the admitted work finish so the drain sweep has nothing to
  // shed — every shed observed is then an admission-time queue_full.
  WaitForIdle(server.get());
  ASSERT_TRUE(server->Drain().ok());
  EXPECT_EQ(responses.size(), 30u);
  for (const auto& [id, count] : responses) {
    EXPECT_EQ(count, 1) << id << " answered " << count << " times";
  }
  const ServeStatsSnapshot stats = server->Stats();
  EXPECT_GT(stats.shed[static_cast<int>(ServeLane::kBatch)], 0u);
  EXPECT_EQ(stats.shed[static_cast<int>(ServeLane::kStream)], 0u);
  // Submitted == answered: nothing lost, nothing duplicated.
  EXPECT_EQ(shed.load() + ok.load(), 30);
}

TEST(ServeServerTest, QueueDepthPreDegradesLadderStart) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.workers = 1;
  config.service_floor_ms = 15.0;
  config.admission.batch_capacity = 8;  // Scan+ at 4, Scan at 7
  auto server = MustCreate(inst, config);

  std::mutex mu;
  std::vector<std::string> bodies;
  std::atomic<int> answered{0};
  for (int i = 0; i < 8; ++i) {
    server->Submit(MustParse(std::to_string(i) + " solve"),
                   [&](const ServeResponse& r) {
                     if (r.outcome == ServeOutcome::kOk) {
                       std::lock_guard<std::mutex> lock(mu);
                       bodies.push_back(r.body);
                     }
                     answered.fetch_add(1);
                   });
  }
  WaitForIdle(server.get());
  ASSERT_TRUE(server->Drain().ok());
  EXPECT_EQ(answered.load(), 8);
  // The burst fills the lane faster than the 15ms-floor worker drains
  // it, so the tail of the burst must have been admitted above the
  // Scan+ threshold.
  uint64_t pre_degraded = 0;
  for (const std::string& body : bodies) {
    pre_degraded += BodyValue(body, "pre_degraded") > 0 ? 1 : 0;
  }
  EXPECT_GT(pre_degraded, 0u);
  EXPECT_EQ(server->Stats().pre_degraded, pre_degraded);
}

TEST(ServeServerTest, DrainShedsQueuedAnswersEverythingExactlyOnce) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.workers = 1;
  config.service_floor_ms = 30.0;
  config.admission.batch_capacity = 16;
  auto server = MustCreate(inst, config);

  std::mutex mu;
  std::map<std::string, std::vector<ServeOutcome>> responses;
  for (int i = 0; i < 10; ++i) {
    server->Submit(MustParse("q" + std::to_string(i) + " solve"),
                   [&, i](const ServeResponse& r) {
                     std::lock_guard<std::mutex> lock(mu);
                     responses[r.id].push_back(r.outcome);
                   });
  }
  ASSERT_TRUE(server->Drain().ok());
  ASSERT_TRUE(server->Drain().ok());  // idempotent
  EXPECT_EQ(responses.size(), 10u);
  int drain_shed = 0;
  for (const auto& [id, outcomes] : responses) {
    ASSERT_EQ(outcomes.size(), 1u) << id;
    drain_shed += outcomes[0] == ServeOutcome::kShed ? 1 : 0;
  }
  // The 30ms floor guarantees the drain arrives with work still
  // queued; those were shed with reason=draining.
  EXPECT_GT(drain_shed, 0);
  EXPECT_EQ(server->Stats().drain_shed, static_cast<uint64_t>(drain_shed));

  // Post-drain submissions shed immediately with reason=draining.
  const ServeResponse late = server->Call(MustParse("late solve"));
  EXPECT_EQ(late.outcome, ServeOutcome::kShed);
  EXPECT_EQ(late.shed_reason, "draining");
}

TEST(ServeServerTest, CheckpointKillRestoreMatchesUninterruptedRun) {
  const Instance inst = TestInstance(777);
  UniformLambda model(30.0);
  auto baseline =
      CreateStreamProcessor(StreamKind::kStreamScanPlus, inst, model, 5.0);
  ASSERT_TRUE(RunStream(inst, baseline.get()).ok());

  const std::string path =
      ::testing::TempDir() + "/serve_restart.snap";
  std::remove(path.c_str());
  ServeConfig config;
  config.lambda = 30.0;
  config.tau = 5.0;
  config.checkpoint_path = path;
  const auto half =
      static_cast<uint32_t>(inst.num_posts() / 2);

  {
    auto server = MustCreate(inst, config);
    EXPECT_FALSE(server->restored_from_checkpoint());
    const ServeResponse r = server->Call(
        MustParse("1 feed posts=" + std::to_string(half)));
    ASSERT_EQ(r.outcome, ServeOutcome::kOk);
    ASSERT_TRUE(server->Drain().ok());  // kill: checkpoint written here
  }
  {
    auto server = MustCreate(inst, config);
    EXPECT_TRUE(server->restored_from_checkpoint());
    EXPECT_EQ(server->cursor(), half);
    const ServeResponse r =
        server->Call(MustParse("2 feed posts=1000000"));
    ASSERT_EQ(r.outcome, ServeOutcome::kOk);
    const ServeResponse fin = server->Call(MustParse("3 finish"));
    ASSERT_EQ(fin.outcome, ServeOutcome::kOk);
    EXPECT_EQ(BodyValue(fin.body, "emitted"),
              baseline->emissions().size());
    ASSERT_TRUE(server->Drain().ok());
  }
  std::remove(path.c_str());
}

/// `finish` fires every remaining deadline, so a later `feed` must not
/// advance the processor again: both modes answer FailedPrecondition
/// and leave the cursor and emissions alone, even once every post has
/// been delivered. A repeated `finish` stays a no-op. Outside tenant
/// mode, `subscribe` names the switch that enables it.
TEST(ServeServerTest, FeedAfterFinishIsRejectedInBothModes) {
  const Instance inst = TestInstance();
  for (const bool tenant_mode : {false, true}) {
    for (const uint32_t posts : {100u, 100000u}) {
      const std::string context = std::string("tenant_mode=") +
                                  (tenant_mode ? "1" : "0") +
                                  " posts=" + std::to_string(posts);
      ServeConfig config;
      config.stream_kind = StreamKind::kStreamScan;
      config.tenant_mode = tenant_mode;
      auto server = MustCreate(inst, config);
      const std::string emissions =
          tenant_mode ? "e emissions tenant=0" : "e emissions";
      if (tenant_mode) {
        ASSERT_EQ(server->Call(MustParse("s subscribe mask=3")).outcome,
                  ServeOutcome::kOk)
            << context;
      } else {
        const ServeResponse sub = server->Call(MustParse("s subscribe mask=3"));
        EXPECT_EQ(sub.outcome, ServeOutcome::kError) << context;
        EXPECT_EQ(sub.status.code(), StatusCode::kFailedPrecondition);
        EXPECT_NE(sub.status.message().find("--tenant-mode"),
                  std::string::npos)
            << sub.Format();
      }
      const ServeResponse feed = server->Call(
          MustParse("f1 feed posts=" + std::to_string(posts)));
      ASSERT_EQ(feed.outcome, ServeOutcome::kOk) << context << feed.Format();
      const uint64_t cursor = BodyValue(feed.body, "cursor");
      ASSERT_EQ(server->Call(MustParse("fin1 finish")).outcome,
                ServeOutcome::kOk)
          << context;
      const ServeResponse before = server->Call(MustParse(emissions));
      ASSERT_EQ(before.outcome, ServeOutcome::kOk) << context;

      const ServeResponse late = server->Call(MustParse("f2 feed posts=100"));
      EXPECT_EQ(late.outcome, ServeOutcome::kError)
          << context << " " << late.Format();
      EXPECT_EQ(late.status.code(), StatusCode::kFailedPrecondition)
          << context << " " << late.Format();
      EXPECT_EQ(late.status.message(), "stream already finished") << context;
      EXPECT_EQ(server->Stats().cursor, cursor) << context;

      EXPECT_EQ(server->Call(MustParse("fin2 finish")).outcome,
                ServeOutcome::kOk)
          << context;
      const ServeResponse after = server->Call(MustParse(emissions));
      ASSERT_EQ(after.outcome, ServeOutcome::kOk) << context;
      EXPECT_EQ(BodyValue(after.body, "emitted"),
                BodyValue(before.body, "emitted"))
          << context;
      ASSERT_TRUE(server->Drain().ok());
    }
  }
}

/// A running daemon publishes its stream counters as feeds complete,
/// not at finish: after one `feed posts=N`, mqd_tenant_arrivals_total
/// (tenant mode) and mqd_stream_posts_total (single-stream mode) have
/// grown by N while the stream is still open.
TEST(ServeServerTest, TenantCountersMoveBeforeFinish) {
  const Instance inst = TestInstance();
  ASSERT_GT(inst.num_posts(), 50u);
  const obs::TenantMetrics& metrics = obs::GetTenantMetrics();
  ServeConfig config;
  config.stream_kind = StreamKind::kStreamScanPlus;
  config.tenant_mode = true;
  auto server = MustCreate(inst, config);
  ASSERT_EQ(server->Call(MustParse("s subscribe mask=3")).outcome,
            ServeOutcome::kOk);
  const uint64_t arrivals = metrics.arrivals->Value();
  const uint64_t deliveries = metrics.fanout_deliveries->Value();
  const ServeResponse feed = server->Call(MustParse("f feed posts=50"));
  ASSERT_EQ(feed.outcome, ServeOutcome::kOk) << feed.Format();
  EXPECT_EQ(metrics.arrivals->Value() - arrivals, 50u);
  // The one cluster saw every post of the batch carrying label 0 or 1.
  uint64_t matching = 0;
  for (PostId p = 0; p < 50; ++p) matching += (inst.labels(p) & 3) != 0;
  EXPECT_EQ(metrics.fanout_deliveries->Value() - deliveries, matching);
  ASSERT_TRUE(server->Drain().ok());
}

TEST(ServeServerTest, StreamCountersMoveBeforeFinish) {
  const Instance inst = TestInstance();
  ASSERT_GT(inst.num_posts(), 50u);
  ServeConfig config;
  config.stream_kind = StreamKind::kStreamScanPlus;
  auto server = MustCreate(inst, config);
  const obs::StreamMetrics& metrics = obs::StreamMetricsFor("StreamScan+");
  const uint64_t posts = metrics.posts->Value();
  const uint64_t emissions = metrics.emissions->Value();
  const ServeResponse feed = server->Call(MustParse("f feed posts=50"));
  ASSERT_EQ(feed.outcome, ServeOutcome::kOk) << feed.Format();
  EXPECT_EQ(metrics.posts->Value() - posts, 50u);
  EXPECT_EQ(metrics.emissions->Value() - emissions,
            BodyValue(feed.body, "emitted"));
  // Finish adds the emissions its final deadlines fire, and no posts.
  const ServeResponse fin = server->Call(MustParse("fin finish"));
  ASSERT_EQ(fin.outcome, ServeOutcome::kOk) << fin.Format();
  EXPECT_EQ(metrics.posts->Value() - posts, 50u);
  EXPECT_EQ(metrics.emissions->Value() - emissions,
            BodyValue(fin.body, "emitted"));
  ASSERT_TRUE(server->Drain().ok());
}

TEST(ServeServerTest, TenantModeCapsSubscriptionsDeterministically) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.tenant_mode = true;
  config.admission.max_tenants = 2;
  auto server = MustCreate(inst, config);

  const ServeResponse t0 = server->Call(MustParse("a subscribe mask=1"));
  const ServeResponse t1 = server->Call(MustParse("b subscribe mask=3"));
  ASSERT_EQ(t0.outcome, ServeOutcome::kOk) << t0.Format();
  ASSERT_EQ(t1.outcome, ServeOutcome::kOk) << t1.Format();
  const ServeResponse over = server->Call(MustParse("c subscribe mask=7"));
  EXPECT_EQ(over.outcome, ServeOutcome::kShed) << over.Format();
  EXPECT_EQ(over.shed_reason, "tenant_limit");
  EXPECT_EQ(server->Stats().tenant_rejects, 1u);

  // Freeing a slot re-opens admission.
  const TenantId id0 = static_cast<TenantId>(BodyValue(t0.body, "tenant"));
  const ServeResponse un = server->Call(
      MustParse("d unsubscribe tenant=" + std::to_string(id0)));
  ASSERT_EQ(un.outcome, ServeOutcome::kOk) << un.Format();
  const ServeResponse again = server->Call(MustParse("e subscribe mask=7"));
  EXPECT_EQ(again.outcome, ServeOutcome::kOk) << again.Format();

  // Feed + finish + per-tenant emissions all answer.
  ASSERT_EQ(server->Call(MustParse("f feed posts=100000")).outcome,
            ServeOutcome::kOk);
  ASSERT_EQ(server->Call(MustParse("g finish")).outcome, ServeOutcome::kOk);
  const TenantId id1 = static_cast<TenantId>(BodyValue(t1.body, "tenant"));
  const ServeResponse em = server->Call(
      MustParse("h emissions tenant=" + std::to_string(id1)));
  ASSERT_EQ(em.outcome, ServeOutcome::kOk) << em.Format();
  // Unknown tenant is a typed error, not a crash.
  const ServeResponse bad = server->Call(MustParse("i emissions tenant=99"));
  EXPECT_EQ(bad.outcome, ServeOutcome::kError);
  ASSERT_TRUE(server->Drain().ok());
}

/// Emission count of a private StreamScan+ run over the sub-instance
/// of posts with id >= `join` relevant to `mask`, built independently
/// of the engine: masks intersected, labels densely renumbered.
size_t PrivateScanPlusEmissions(const Instance& inst, LabelMask mask,
                                PostId join, double lambda, double tau) {
  const std::vector<LabelId> labels = MaskToLabels(mask);
  InstanceBuilder builder(static_cast<int>(labels.size()));
  for (PostId p = join; p < inst.num_posts(); ++p) {
    LabelMask local = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (MaskHas(inst.labels(p), labels[i])) {
        local |= MaskOf(static_cast<LabelId>(i));
      }
    }
    if (local != 0) builder.Add(inst.value(p), local, p);
  }
  auto sub = builder.Build();
  EXPECT_TRUE(sub.ok()) << sub.status().ToString();
  if (!sub.ok()) return 0;
  UniformLambda model(lambda);
  auto processor = CreateStreamProcessor(StreamKind::kStreamScanPlus, *sub,
                                         model, tau);
  EXPECT_TRUE(RunStream(*sub, processor.get()).ok());
  return processor->emissions().size();
}

/// The daemon's cluster tier (tenant mode under the default
/// StreamScan+) against private replays: a tenant subscribed before
/// the first feed and one subscribed after it each report, after
/// finish, exactly as many emissions as a private StreamScan+ over
/// their own sub-stream from their join point.
TEST(ServeServerTest, TenantModeClusterTierMatchesPrivateReplays) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.tenant_mode = true;
  ASSERT_EQ(config.stream_kind, StreamKind::kStreamScanPlus);
  auto server = MustCreate(inst, config);

  const ServeResponse early = server->Call(MustParse("a subscribe mask=3"));
  ASSERT_EQ(early.outcome, ServeOutcome::kOk) << early.Format();
  const ServeResponse feed = server->Call(
      MustParse("f1 feed posts=" + std::to_string(inst.num_posts() / 3)));
  ASSERT_EQ(feed.outcome, ServeOutcome::kOk) << feed.Format();
  const PostId join = static_cast<PostId>(BodyValue(feed.body, "cursor"));
  ASSERT_GT(join, 0u);
  const ServeResponse late = server->Call(MustParse("b subscribe mask=6"));
  ASSERT_EQ(late.outcome, ServeOutcome::kOk) << late.Format();
  ASSERT_EQ(server->Call(MustParse("f2 feed posts=100000")).outcome,
            ServeOutcome::kOk);
  ASSERT_EQ(server->Call(MustParse("fin finish")).outcome, ServeOutcome::kOk);

  struct Expected {
    const ServeResponse* subscribed;
    LabelMask mask;
    PostId join;
  };
  for (const Expected& want :
       {Expected{&early, 3, 0}, Expected{&late, 6, join}}) {
    const std::string tenant =
        std::to_string(BodyValue(want.subscribed->body, "tenant"));
    const ServeResponse em =
        server->Call(MustParse("e emissions tenant=" + tenant));
    ASSERT_EQ(em.outcome, ServeOutcome::kOk) << em.Format();
    const size_t expected = PrivateScanPlusEmissions(
        inst, want.mask, want.join, config.lambda, config.tau);
    EXPECT_GT(expected, 0u) << "tenant " << tenant;
    EXPECT_EQ(BodyValue(em.body, "emitted"), expected) << "tenant " << tenant;
  }
  ASSERT_TRUE(server->Drain().ok());
}

TEST(ServeServerTest, StatsAndPingAnswerInlineEvenWhenSaturated) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.workers = 1;
  config.service_floor_ms = 30.0;
  config.admission.batch_capacity = 2;
  auto server = MustCreate(inst, config);
  std::atomic<int> answered{0};
  for (int i = 0; i < 10; ++i) {
    server->Submit(MustParse(std::to_string(i) + " solve"),
                   [&](const ServeResponse&) { answered.fetch_add(1); });
  }
  // Inline verbs bypass the saturated queue and answer synchronously.
  const ServeResponse ping = server->Call(MustParse("p ping"));
  EXPECT_EQ(ping.outcome, ServeOutcome::kOk);
  const ServeResponse stats = server->Call(MustParse("s stats"));
  ASSERT_EQ(stats.outcome, ServeOutcome::kOk);
  EXPECT_GT(BodyValue(stats.body, "shed_batch"), 0u);
  ASSERT_TRUE(server->Drain().ok());
  EXPECT_EQ(answered.load(), 10);
}

// ---------------------------------------------------------------------
// Chaos over the serve.* sites

TEST(ServeChaosTest, FaultedSubmitAndWorkerNeverLoseOrDuplicateResponses) {
  const Instance inst = TestInstance();
  FaultInjector& injector = FaultInjector::Global();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // Throwing worker faults and erroring queue faults together; the
    // schedule is deterministic in the seed.
    ASSERT_TRUE(injector
                    .ArmFromSpec(
                        "serve.queue:0.2,serve.worker:0.3:0:throw", seed)
                    .ok());
    ServeConfig config;
    config.workers = 3;
    config.admission.batch_capacity = 16;
    config.admission.stream_capacity = 64;
    auto server = MustCreate(inst, config);

    std::mutex mu;
    std::map<std::string, int> responses;
    std::atomic<int> total{0};
    auto record = [&](const ServeResponse& r) {
      std::lock_guard<std::mutex> lock(mu);
      ++responses[r.id];
      total.fetch_add(1);
    };
    constexpr int kPerThread = 25;
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string id =
              "c" + std::to_string(t) + "-" + std::to_string(i);
          const char* verb = i % 3 == 0 ? " feed posts=1" : " solve";
          server->Submit(MustParse(id + verb), record);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    ASSERT_TRUE(server->Drain().ok());
    injector.Disarm();

    EXPECT_EQ(total.load(), 4 * kPerThread) << "seed " << seed;
    EXPECT_EQ(responses.size(), static_cast<size_t>(4 * kPerThread))
        << "seed " << seed;
    for (const auto& [id, count] : responses) {
      EXPECT_EQ(count, 1) << "seed " << seed << " id " << id;
    }
    // Worker faults surface as error responses, not lost requests.
    // drain_shed is a subset of the per-lane shed counters, so the
    // disjoint buckets are completed + errors + shed.
    const ServeStatsSnapshot stats = server->Stats();
    const uint64_t accounted =
        stats.completed[0] + stats.completed[1] + stats.errors[0] +
        stats.errors[1] + stats.shed[0] + stats.shed[1];
    EXPECT_EQ(accounted, static_cast<uint64_t>(4 * kPerThread))
        << "seed " << seed;
    EXPECT_LE(stats.drain_shed, stats.shed[0] + stats.shed[1])
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Transports

std::map<std::string, std::string> ParseResponseLines(
    const std::string& text) {
  std::map<std::string, std::string> by_id;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    by_id[line.substr(0, space)] = line.substr(space + 1);
  }
  return by_id;
}

TEST(ServeTransportTest, StdioSessionAnswersEveryLine) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.lambda = 30.0;
  auto server = MustCreate(inst, config);
  std::istringstream in(
      "1 ping\n"
      "2 solve lambda=20\n"
      "3 feed posts=40\n"
      "bogus line here\n"
      "4 emissions\n"
      "5 drain\n"
      "never reached\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStdio(server.get(), in, out).ok());
  auto by_id = ParseResponseLines(out.str());
  EXPECT_EQ(by_id["1"], "ok");
  EXPECT_EQ(by_id["2"].find("ok rung="), 0u) << by_id["2"];
  EXPECT_EQ(by_id["3"].find("ok delivered=40"), 0u) << by_id["3"];
  EXPECT_EQ(by_id["4"].find("ok emitted="), 0u) << by_id["4"];
  EXPECT_EQ(by_id["5"].find("ok drained=1"), 0u) << by_id["5"];
  // The malformed line got an error with the placeholder id.
  EXPECT_EQ(by_id["-"].find("error InvalidArgument"), 0u) << by_id["-"];
  EXPECT_TRUE(server->draining());
}

TEST(ServeTransportTest, StdioEofDrainsGracefully) {
  const Instance inst = TestInstance();
  auto server = MustCreate(inst, ServeConfig{});
  std::istringstream in("1 feed posts=10\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStdio(server.get(), in, out).ok());
  EXPECT_TRUE(server->draining());
  auto by_id = ParseResponseLines(out.str());
  ASSERT_EQ(by_id.size(), 1u);
  // The feed was either completed or drain-shed, but never silent.
  EXPECT_TRUE(by_id["1"].find("ok") == 0 ||
              by_id["1"].find("shed") == 0)
      << by_id["1"];
}

TEST(ServeTransportTest, AcceptFaultRejectsLinesButLoopSurvives) {
  const Instance inst = TestInstance();
  FaultInjector& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("serve.accept:1", 5).ok());
  auto server = MustCreate(inst, ServeConfig{});
  std::istringstream in("1 ping\n2 ping\n3 ping\n");
  std::ostringstream out;
  const Status served = ServeStdio(server.get(), in, out);
  injector.Disarm();
  ASSERT_TRUE(served.ok());
  // Every line was rejected with an error response; EOF still drained.
  std::istringstream lines(out.str());
  std::string line;
  int errors = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find("- error"), 0u) << line;
    ++errors;
  }
  EXPECT_EQ(errors, 3);
  EXPECT_TRUE(server->draining());
}

// The announce stream is written by the serving thread and polled by
// the test thread, so every access goes through a mutex.
struct SyncedSink : std::streambuf {
  std::mutex mu;
  std::string data;
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu);
    data.append(s, static_cast<size_t>(n));
    return n;
  }
  int overflow(int ch) override {
    if (ch != traits_type::eof()) {
      std::lock_guard<std::mutex> lock(mu);
      data.push_back(static_cast<char>(ch));
    }
    return ch;
  }
  std::string snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return data;
  }
};

TEST(ServeTransportTest, TcpRoundTripSolveFeedDrain) {
  const Instance inst = TestInstance();
  ServeConfig config;
  config.lambda = 30.0;
  auto server = MustCreate(inst, config);

  SyncedSink sink;
  std::ostream announce(&sink);
  std::thread serving([&] {
    Status s = ServeTcp(server.get(), /*port=*/0, announce);
    EXPECT_TRUE(s.ok()) << s.ToString();
  });

  int port = 0;
  for (int tries = 0; tries < 200 && port == 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::string text = sink.snapshot();
    const size_t colon = text.rfind(':');
    if (colon != std::string::npos && text.find('\n') != std::string::npos) {
      port = std::atoi(text.c_str() + colon + 1);
    }
  }
  if (port == 0) {
    serving.detach();
    GTEST_SKIP() << "TCP listener did not come up (sandboxed env?)";
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    serving.detach();
    GTEST_SKIP() << "cannot connect to 127.0.0.1:" << port;
  }
  const std::string script = "1 ping\n2 solve lambda=20\n3 drain\n";
  ASSERT_EQ(::send(fd, script.data(), script.size(), 0),
            static_cast<ssize_t>(script.size()));
  std::string received;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  serving.join();

  auto by_id = ParseResponseLines(received);
  EXPECT_EQ(by_id["1"], "ok");
  EXPECT_EQ(by_id["2"].find("ok rung="), 0u) << by_id["2"];
  EXPECT_EQ(by_id["3"].find("ok drained=1"), 0u) << by_id["3"];
  EXPECT_TRUE(server->draining());
}

}  // namespace
}  // namespace mqd
