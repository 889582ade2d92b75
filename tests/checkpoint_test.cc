#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/coverage.h"
#include "core/types.h"
#include "gen/instance_gen.h"
#include "obs/stack_metrics.h"
#include "stream/checkpoint.h"
#include "stream/factory.h"
#include "stream/instant.h"
#include "stream/replay.h"
#include "stream/stream_solver.h"
#include "test_helpers.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace mqd {
namespace {

using ::mqd::testing::MakeInstance;

/// Same variable-lambda construction as the stream differential test,
/// so checkpointing is exercised on the exact-scan (non-fastpath) gain
/// paths too.
VariableLambda MakeVariableModel(const Instance& inst, double max_reach,
                                 uint64_t seed) {
  Rng rng(seed * 0x9e3779b9ULL + 17);
  std::vector<std::vector<DimValue>> reaches(inst.num_posts());
  for (PostId p = 0; p < static_cast<PostId>(inst.num_posts()); ++p) {
    ForEachLabel(inst.labels(p), [&](LabelId) {
      reaches[p].push_back(rng.UniformDouble(0.3 * max_reach, max_reach));
    });
  }
  return VariableLambda(std::move(reaches), max_reach);
}

/// Delivers posts [0, cut) the way ResumeStream would, WITHOUT
/// Finish: the state a process would hold when killed mid-replay.
void RunPrefix(const Instance& inst, StreamProcessor* processor,
               PostId cut) {
  for (PostId p = 0; p < cut; ++p) {
    processor->AdvanceTo(inst.value(p));
    processor->OnArrival(p);
  }
}

/// Kills a replay at `cut`, snapshots, restores into a fresh
/// processor and resumes; the combined emission sequence must equal
/// the uninterrupted baseline exactly — same posts, same order, same
/// emit times under ==, no tolerance.
void ExpectKillRestoreIdentical(const Instance& inst,
                                const CoverageModel& model,
                                StreamKind kind, double tau, PostId cut,
                                const std::vector<Emission>& baseline,
                                const std::string& context) {
  auto victim = CreateStreamProcessor(kind, inst, model, tau);
  RunPrefix(inst, victim.get(), cut);
  std::stringstream snapshot;
  ASSERT_TRUE(SaveStreamCheckpoint(*victim, cut, snapshot).ok()) << context;

  auto revived = CreateStreamProcessor(kind, inst, model, tau);
  auto cursor = RestoreStreamCheckpoint(revived.get(), inst, snapshot);
  ASSERT_TRUE(cursor.ok()) << context << ": " << cursor.status().ToString();
  ASSERT_EQ(*cursor, cut) << context;
  ASSERT_TRUE(ResumeStream(inst, revived.get(), *cursor).ok()) << context;

  const std::vector<Emission>& resumed = revived->emissions();
  ASSERT_EQ(resumed.size(), baseline.size()) << context;
  for (size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(resumed[i].post, baseline[i].post)
        << context << " emission " << i;
    ASSERT_EQ(resumed[i].emit_time, baseline[i].emit_time)
        << context << " emission " << i << " (post " << resumed[i].post
        << ")";
  }
}

/// The tentpole differential: every streaming algorithm, uniform and
/// variable lambda, kill/restore at fuzzed cut points (plus the ends)
/// must reproduce the uninterrupted emission sequence exactly.
TEST(CheckpointTest, KillRestoreAtFuzzedBoundariesIsExact) {
  const StreamKind kinds[] = {
      StreamKind::kStreamScan, StreamKind::kStreamScanPlus,
      StreamKind::kStreamGreedy, StreamKind::kStreamGreedyPlus};
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    InstanceGenConfig cfg;
    cfg.num_labels = 4;
    cfg.duration = 600.0;
    cfg.posts_per_minute = 60.0;
    cfg.overlap_rate = 1.6;
    cfg.burst_fraction = 0.3;
    cfg.seed = 7100 + seed;
    auto inst = GenerateInstance(cfg);
    ASSERT_TRUE(inst.ok());
    const auto n = static_cast<PostId>(inst->num_posts());
    UniformLambda uniform(8.0);
    VariableLambda variable = MakeVariableModel(*inst, 8.0, seed);
    Rng cut_rng(900 + seed);
    std::vector<PostId> cuts = {0, n / 2, n};
    for (int i = 0; i < 5; ++i) {
      cuts.push_back(static_cast<PostId>(cut_rng.UniformInt(0, static_cast<int64_t>(n))));
    }
    for (const CoverageModel* model :
         {static_cast<const CoverageModel*>(&uniform),
          static_cast<const CoverageModel*>(&variable)}) {
      for (StreamKind kind : kinds) {
        for (double tau : {0.0, 4.0}) {
          auto baseline = CreateStreamProcessor(kind, *inst, *model, tau);
          ASSERT_TRUE(RunStream(*inst, baseline.get()).ok());
          for (PostId cut : cuts) {
            const std::string context =
                "seed=" + std::to_string(seed) +
                " kind=" + std::string(StreamKindName(kind)) +
                " tau=" + std::to_string(tau) +
                (model == &uniform ? " uniform" : " variable") +
                " cut=" + std::to_string(cut);
            ExpectKillRestoreIdentical(*inst, *model, kind, tau, cut,
                                       baseline->emissions(), context);
            compared += baseline->emissions().size();
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GE(compared, 10000u) << "differential under-sampled";
}

/// Checkpointing twice — kill the revived processor again later in the
/// stream — must also land on the baseline (restore composes).
TEST(CheckpointTest, DoubleKillRestoreComposes) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 400.0;
  cfg.posts_per_minute = 50.0;
  cfg.overlap_rate = 1.5;
  cfg.seed = 8311;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  const auto n = static_cast<PostId>(inst->num_posts());
  UniformLambda model(10.0);
  const double tau = 3.0;
  for (StreamKind kind :
       {StreamKind::kStreamScanPlus, StreamKind::kStreamGreedyPlus}) {
    auto baseline = CreateStreamProcessor(kind, *inst, model, tau);
    ASSERT_TRUE(RunStream(*inst, baseline.get()).ok());

    const PostId cut1 = n / 3;
    const PostId cut2 = 2 * n / 3;
    auto first = CreateStreamProcessor(kind, *inst, model, tau);
    RunPrefix(*inst, first.get(), cut1);
    std::stringstream snap1;
    ASSERT_TRUE(SaveStreamCheckpoint(*first, cut1, snap1).ok());

    auto second = CreateStreamProcessor(kind, *inst, model, tau);
    ASSERT_TRUE(RestoreStreamCheckpoint(second.get(), *inst, snap1).ok());
    for (PostId p = cut1; p < cut2; ++p) {
      second->AdvanceTo(inst->value(p));
      second->OnArrival(p);
    }
    std::stringstream snap2;
    ASSERT_TRUE(SaveStreamCheckpoint(*second, cut2, snap2).ok());

    auto third = CreateStreamProcessor(kind, *inst, model, tau);
    auto cursor = RestoreStreamCheckpoint(third.get(), *inst, snap2);
    ASSERT_TRUE(cursor.ok());
    ASSERT_TRUE(ResumeStream(*inst, third.get(), *cursor).ok());
    EXPECT_EQ(third->emissions(), baseline->emissions())
        << StreamKindName(kind);
  }
}

/// A resumed replay publishes only its own work: the arrivals it
/// delivers and the emissions it appends, not the emissions restored
/// from the snapshot.
TEST(CheckpointTest, ResumedReplayCountsOnlyTheSuffix) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 400.0;
  cfg.posts_per_minute = 50.0;
  cfg.overlap_rate = 1.5;
  cfg.seed = 8312;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  const auto n = static_cast<PostId>(inst->num_posts());
  const PostId cut = n / 2;
  UniformLambda model(10.0);
  const double tau = 3.0;
  for (StreamKind kind : {StreamKind::kStreamScan, StreamKind::kStreamGreedy}) {
    auto baseline = CreateStreamProcessor(kind, *inst, model, tau);
    ASSERT_TRUE(RunStream(*inst, baseline.get()).ok());

    auto victim = CreateStreamProcessor(kind, *inst, model, tau);
    RunPrefix(*inst, victim.get(), cut);
    const size_t restored = victim->emissions().size();
    ASSERT_GT(restored, 0u) << StreamKindName(kind);
    std::stringstream snapshot;
    ASSERT_TRUE(SaveStreamCheckpoint(*victim, cut, snapshot).ok());

    auto revived = CreateStreamProcessor(kind, *inst, model, tau);
    auto cursor = RestoreStreamCheckpoint(revived.get(), *inst, snapshot);
    ASSERT_TRUE(cursor.ok());
    ASSERT_EQ(revived->emissions().size(), restored);

    const obs::StreamMetrics& metrics = obs::StreamMetricsFor(revived->name());
    const uint64_t posts = metrics.posts->Value();
    const uint64_t emissions = metrics.emissions->Value();
    const uint64_t delays = metrics.report_delay_seconds->TotalCount();
    const uint64_t violations = metrics.tau_violations->Value();
    const uint64_t dropped = metrics.nonmonotone_dropped->Value();
    auto stats = ResumeStream(*inst, revived.get(), *cursor);
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(revived->emissions(), baseline->emissions());

    const uint64_t appended = baseline->emissions().size() - restored;
    EXPECT_EQ(metrics.posts->Value() - posts, n - cut) << StreamKindName(kind);
    EXPECT_EQ(metrics.emissions->Value() - emissions, appended)
        << StreamKindName(kind);
    EXPECT_EQ(metrics.report_delay_seconds->TotalCount() - delays, appended)
        << StreamKindName(kind);
    EXPECT_EQ(metrics.tau_violations->Value(), violations)
        << StreamKindName(kind);
    EXPECT_EQ(metrics.nonmonotone_dropped->Value(), dropped);
    // The returned stats keep their documented scope: the tail's posts
    // and the full emission set.
    EXPECT_EQ(stats->num_posts, n - cut);
    EXPECT_EQ(stats->num_emitted, baseline->emissions().size());
  }
}

/// Tiny hand-built instance: covers restoring a window whose anchor
/// sits mid-buffer state and a label with an in-flight deadline.
TEST(CheckpointTest, HandBuiltWindowRoundTrips) {
  Instance inst = MakeInstance(3, {{0.25, MaskOf(0)},
                                   {0.5, MaskOf(0) | MaskOf(1)},
                                   {0.75, MaskOf(2)},
                                   {1.0, MaskOf(1) | MaskOf(2)},
                                   {1.5, MaskOf(0)}});
  UniformLambda model(1.0);
  for (StreamKind kind :
       {StreamKind::kStreamScan, StreamKind::kStreamScanPlus,
        StreamKind::kStreamGreedy, StreamKind::kStreamGreedyPlus}) {
    auto baseline = CreateStreamProcessor(kind, inst, model, 0.5);
    ASSERT_TRUE(RunStream(inst, baseline.get()).ok());
    for (PostId cut = 0; cut <= inst.num_posts(); ++cut) {
      ExpectKillRestoreIdentical(
          inst, model, kind, 0.5, cut, baseline->emissions(),
          std::string(StreamKindName(kind)) + " cut=" +
              std::to_string(cut));
    }
  }
}

/// The repeat rule across a restore: a plain StreamScan snapshot whose
/// emission log ends with post 2 (fired by label 0 at 1.5) is resumed;
/// label 1 then fires post 2 again at 2.5, and the restored processor
/// drops that repeat, as the uninterrupted run does.
TEST(CheckpointTest, RestoredLogEndingWithPostNeverReemitsIt) {
  Instance inst = MakeInstance(4, {{0.0, MaskOf(0)},
                                   {0.5, MaskOf(2)},
                                   {1.0, MaskOf(0) | MaskOf(1)},
                                   {1.6, MaskOf(3)}});
  UniformLambda model(1.5);
  const double tau = 5.0;
  const PostId cut = 4;
  auto victim = CreateStreamProcessor(StreamKind::kStreamScan, inst, model,
                                      tau);
  RunPrefix(inst, victim.get(), cut);
  ASSERT_EQ(victim->emissions(), (std::vector<Emission>{{2, 1.5}}));
  std::stringstream snapshot;
  ASSERT_TRUE(SaveStreamCheckpoint(*victim, cut, snapshot).ok());

  auto revived = CreateStreamProcessor(StreamKind::kStreamScan, inst, model,
                                       tau);
  auto cursor = RestoreStreamCheckpoint(revived.get(), inst, snapshot);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ASSERT_TRUE(ResumeStream(inst, revived.get(), *cursor).ok());
  const std::vector<Emission> expected = {{2, 1.5}, {1, 2.0}, {3, 3.1}};
  EXPECT_EQ(revived->emissions(), expected);

  auto baseline = CreateStreamProcessor(StreamKind::kStreamScan, inst, model,
                                        tau);
  ASSERT_TRUE(RunStream(inst, baseline.get()).ok());
  EXPECT_EQ(baseline->emissions(), expected);

  // The repeat scan stops at the first entry emitted before the post's
  // timestamp, so a log entry earlier than its own post is refused.
  auto forged = CreateStreamProcessor(StreamKind::kStreamScan, inst, model,
                                      tau);
  EXPECT_EQ(forged->RestoreEmissionLog({{2, 0.5}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(forged->RestoreEmissionLog({{2, 1.0}}).ok());
}

TEST(CheckpointTest, NonCheckpointableProcessorIsUnimplemented) {
  Instance inst = MakeInstance(1, {{0.0, MaskOf(0)}});
  UniformLambda model(1.0);
  InstantStreamProcessor instant(inst, model);
  std::stringstream snapshot;
  Status save = SaveStreamCheckpoint(instant, 0, snapshot);
  EXPECT_EQ(save.code(), StatusCode::kUnimplemented);

  auto donor = CreateStreamProcessor(StreamKind::kStreamScan, inst, model,
                                     1.0);
  std::stringstream valid;
  ASSERT_TRUE(SaveStreamCheckpoint(*donor, 0, valid).ok());
  InstantStreamProcessor target(inst, model);
  auto restore = RestoreStreamCheckpoint(&target, inst, valid);
  EXPECT_EQ(restore.status().code(), StatusCode::kUnimplemented);
}

/// Every mismatch between the snapshot and the restoring processor
/// must be a typed error, never a crash or a silent wrong restore.
TEST(CheckpointTest, MismatchedRestoreIsRejected) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 200.0;
  cfg.posts_per_minute = 40.0;
  cfg.seed = 4242;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(8.0);
  auto victim = CreateStreamProcessor(StreamKind::kStreamScanPlus, *inst,
                                      model, 2.0);
  const auto cut = static_cast<PostId>(inst->num_posts() / 2);
  RunPrefix(*inst, victim.get(), cut);
  std::stringstream snapshot;
  ASSERT_TRUE(SaveStreamCheckpoint(*victim, cut, snapshot).ok());
  const std::string blob = snapshot.str();

  {  // wrong algorithm
    auto other = CreateStreamProcessor(StreamKind::kStreamGreedy, *inst,
                                       model, 2.0);
    std::istringstream is(blob);
    auto r = RestoreStreamCheckpoint(other.get(), *inst, is);
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // wrong variant of the same family
    auto other = CreateStreamProcessor(StreamKind::kStreamScan, *inst,
                                       model, 2.0);
    std::istringstream is(blob);
    auto r = RestoreStreamCheckpoint(other.get(), *inst, is);
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // wrong tau
    auto other = CreateStreamProcessor(StreamKind::kStreamScanPlus, *inst,
                                       model, 3.0);
    std::istringstream is(blob);
    auto r = RestoreStreamCheckpoint(other.get(), *inst, is);
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // different instance
    cfg.seed = 4243;
    auto other_inst = GenerateInstance(cfg);
    ASSERT_TRUE(other_inst.ok());
    auto other = CreateStreamProcessor(StreamKind::kStreamScanPlus,
                                       *other_inst, model, 2.0);
    std::istringstream is(blob);
    auto r = RestoreStreamCheckpoint(other.get(), *other_inst, is);
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

/// Overwrites the u32 at `offset` of a checkpoint's algorithm payload
/// (`payload_size` bytes) and recomputes the envelope checksum, so the
/// forgery passes every byte-level check. The payload is the body's
/// last field: it ends where the trailing checksum begins.
std::string ResealPayloadU32(const std::string& blob, size_t payload_size,
                             size_t offset, uint32_t value) {
  constexpr size_t kMagicSize = 8;
  constexpr size_t kChecksumSize = sizeof(uint64_t);
  std::string forged = blob;
  const size_t payload_start = forged.size() - kChecksumSize - payload_size;
  std::memcpy(&forged[payload_start + offset], &value, sizeof(value));
  const std::string_view body(forged.data() + kMagicSize,
                              forged.size() - kMagicSize - kChecksumSize);
  const uint64_t checksum = SnapshotChecksum(body);
  std::memcpy(&forged[forged.size() - kChecksumSize], &checksum,
              kChecksumSize);
  return forged;
}

/// A checksum-valid StreamScan checkpoint whose per-label state names a
/// post lacking that label — as lc or as an uncovered entry — must be
/// rejected: resuming it would look up a coverage radius the post does
/// not have (out of bounds under VariableLambda).
TEST(CheckpointTest, ForgedScanStateWithForeignLabelIsRejected) {
  InstanceGenConfig cfg;
  cfg.num_labels = 4;
  cfg.duration = 600.0;
  cfg.posts_per_minute = 60.0;
  cfg.overlap_rate = 1.6;
  cfg.burst_fraction = 0.3;
  cfg.seed = 7101;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  const auto n = static_cast<PostId>(inst->num_posts());
  const PostId cut = n / 2;
  VariableLambda model = MakeVariableModel(*inst, 8.0, 1);
  const double tau = 4.0;
  // First post at or after `from` that lacks label `a`.
  auto foreign_post = [&](LabelId a, PostId from) {
    PostId p = from;
    while (p < n && MaskHas(inst->labels(p), a)) ++p;
    return p;
  };

  for (StreamKind kind :
       {StreamKind::kStreamScan, StreamKind::kStreamScanPlus}) {
    const std::string context(StreamKindName(kind));
    auto victim = CreateStreamProcessor(kind, *inst, model, tau);
    RunPrefix(*inst, victim.get(), cut);
    std::stringstream snapshot;
    ASSERT_TRUE(SaveStreamCheckpoint(*victim, cut, snapshot).ok());
    const std::string blob = snapshot.str();

    // Walk the payload to find each label's lc and uncovered fields.
    SnapshotWriter payload;
    dynamic_cast<const CheckpointableStream&>(*victim).SaveStreamState(
        &payload);
    const std::string& bytes = payload.bytes();
    SnapshotReader reader(bytes);
    auto offset = [&] { return bytes.size() - reader.remaining(); };
    reader.U8();
    const uint64_t num_labels = reader.U64();
    ASSERT_EQ(num_labels, 4u) << context;
    std::vector<size_t> lc_at(num_labels);
    std::vector<PostId> lc(num_labels);
    std::vector<size_t> uncovered_at(num_labels);
    std::vector<std::vector<PostId>> uncovered(num_labels);
    for (size_t a = 0; a < num_labels; ++a) {
      lc_at[a] = offset();
      lc[a] = reader.U32();
      const uint64_t count = reader.U64();
      uncovered_at[a] = offset();
      for (uint64_t i = 0; i < count; ++i) {
        uncovered[a].push_back(reader.U32());
      }
    }
    ASSERT_TRUE(reader.status().ok()) << context;

    auto restore = [&](const std::string& forged) {
      auto fresh = CreateStreamProcessor(kind, *inst, model, tau);
      std::istringstream is(forged);
      return RestoreStreamCheckpoint(fresh.get(), *inst, is).status();
    };
    // The reseal itself is sound: rewriting a field with its own value
    // restores fine.
    ASSERT_TRUE(restore(ResealPayloadU32(blob, bytes.size(), lc_at[3],
                                         lc[3])).ok())
        << context;

    // Forged lc: label 3's latest output becomes a post without label 3.
    const PostId foreign_lc = foreign_post(3, 0);
    ASSERT_LT(foreign_lc, n) << context;
    EXPECT_EQ(restore(ResealPayloadU32(blob, bytes.size(), lc_at[3],
                                       foreign_lc)).code(),
              StatusCode::kInvalidArgument)
        << context << ": forged lc accepted";

    // Forged uncovered entry: some label's P_lu becomes a later post
    // without that label (the list stays ascending).
    size_t b = 0;
    while (b < num_labels && uncovered[b].empty()) ++b;
    ASSERT_LT(b, num_labels) << context << ": no pending label at the cut";
    const std::vector<PostId>& list = uncovered[b];
    const PostId after = list.size() >= 2 ? list[list.size() - 2] + 1 : 0;
    const PostId foreign_lu = foreign_post(static_cast<LabelId>(b), after);
    ASSERT_LT(foreign_lu, n) << context;
    const size_t lu_at =
        uncovered_at[b] + sizeof(uint32_t) * (list.size() - 1);
    EXPECT_EQ(restore(ResealPayloadU32(blob, bytes.size(), lu_at,
                                       foreign_lu)).code(),
              StatusCode::kInvalidArgument)
        << context << ": forged uncovered entry of label " << b
        << " accepted";
  }
}

/// Version 1 of the stream snapshot format ended every algorithm
/// payload with two u64 attribution counters. A checksum-valid
/// version-1 snapshot, built by stamping version 1 on a current one and
/// appending those counters to its payload, is refused with a typed
/// InvalidArgument before the processor is touched: the same processor
/// then restores the current snapshot and resumes exactly.
TEST(CheckpointTest, VersionOneSnapshotsAreRejected) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 200.0;
  cfg.posts_per_minute = 40.0;
  cfg.overlap_rate = 1.5;
  cfg.seed = 2024;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(8.0);
  const double tau = 2.0;
  const auto cut = static_cast<PostId>(inst->num_posts() / 2);
  for (StreamKind kind :
       {StreamKind::kStreamScan, StreamKind::kStreamScanPlus,
        StreamKind::kStreamGreedy, StreamKind::kStreamGreedyPlus}) {
    const std::string context(StreamKindName(kind));
    auto baseline = CreateStreamProcessor(kind, *inst, model, tau);
    ASSERT_TRUE(RunStream(*inst, baseline.get()).ok()) << context;

    auto victim = CreateStreamProcessor(kind, *inst, model, tau);
    RunPrefix(*inst, victim.get(), cut);
    std::stringstream snapshot;
    ASSERT_TRUE(SaveStreamCheckpoint(*victim, cut, snapshot).ok());
    const std::string blob = snapshot.str();
    SnapshotWriter payload;
    dynamic_cast<const CheckpointableStream&>(*victim).SaveStreamState(
        &payload);

    // Envelope: 8-byte magic, body, u64 checksum. The body starts with
    // the u32 version and ends with the payload as u64 length + bytes.
    constexpr size_t kMagicSize = 8;
    constexpr size_t kChecksumSize = sizeof(uint64_t);
    std::string body = blob.substr(
        kMagicSize, blob.size() - kMagicSize - kChecksumSize);
    const uint32_t old_version = 1;
    std::memcpy(&body[0], &old_version, sizeof(old_version));
    const size_t length_at =
        body.size() - payload.bytes().size() - sizeof(uint64_t);
    const uint64_t old_length = payload.bytes().size() + 2 * sizeof(uint64_t);
    std::memcpy(&body[length_at], &old_length, sizeof(old_length));
    SnapshotWriter counters;
    counters.U64(1234);  // deadline heap ops / gain fast-path hits
    counters.U64(56);    // prune fast-path hits / carried posts
    body += counters.bytes();
    const uint64_t checksum = SnapshotChecksum(body);
    std::string old_blob = blob.substr(0, kMagicSize) + body;
    old_blob.append(reinterpret_cast<const char*>(&checksum),
                    sizeof(checksum));

    auto fresh = CreateStreamProcessor(kind, *inst, model, tau);
    std::istringstream old_is(old_blob);
    auto refused = RestoreStreamCheckpoint(fresh.get(), *inst, old_is);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << context << ": " << refused.status().ToString();
    EXPECT_NE(refused.status().message().find("version 1"),
              std::string::npos)
        << context << ": " << refused.status().ToString();
    EXPECT_TRUE(fresh->emissions().empty()) << context;

    std::istringstream is(blob);
    auto cursor = RestoreStreamCheckpoint(fresh.get(), *inst, is);
    ASSERT_TRUE(cursor.ok()) << context << ": " << cursor.status().ToString();
    ASSERT_TRUE(ResumeStream(*inst, fresh.get(), *cursor).ok()) << context;
    EXPECT_EQ(fresh->emissions(), baseline->emissions()) << context;
  }
}

/// Corruption fuzz: any truncation and any single-byte flip of a valid
/// snapshot must be rejected with a typed Status (the checksum covers
/// the whole body), never crash the decoder.
TEST(CheckpointTest, CorruptSnapshotsAreRejected) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 120.0;
  cfg.posts_per_minute = 40.0;
  cfg.seed = 555;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(6.0);
  auto victim = CreateStreamProcessor(StreamKind::kStreamGreedyPlus, *inst,
                                      model, 2.0);
  const auto cut = static_cast<PostId>(inst->num_posts() / 2);
  RunPrefix(*inst, victim.get(), cut);
  std::stringstream snapshot;
  ASSERT_TRUE(SaveStreamCheckpoint(*victim, cut, snapshot).ok());
  const std::string blob = snapshot.str();

  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    std::string corrupt = blob;
    if (i % 2 == 0) {
      corrupt.resize(
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(blob.size()) - 1)));
    } else {
      const auto pos =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(blob.size()) - 1));
      corrupt[pos] = static_cast<char>(
          corrupt[pos] ^ static_cast<char>(1 + rng.UniformInt(0, 254)));
    }
    auto fresh = CreateStreamProcessor(StreamKind::kStreamGreedyPlus,
                                       *inst, model, 2.0);
    std::istringstream is(corrupt);
    auto r = RestoreStreamCheckpoint(fresh.get(), *inst, is);
    EXPECT_FALSE(r.ok()) << "corruption " << i << " was accepted";
  }
}

/// S3: a checkpoint write that dies between the tmp write and the
/// rename (the "io.write_checkpoint" fault models a torn write) must
/// leave the previous on-disk snapshot fully usable — same recovery
/// guarantees as if the second checkpoint had never been attempted.
TEST(CheckpointTest, FaultedFileWriteLeavesPreviousSnapshotIntact) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 240.0;
  cfg.posts_per_minute = 50.0;
  cfg.seed = 7311;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(6.0);
  const auto n = static_cast<PostId>(inst->num_posts());
  const PostId cut1 = n / 3, cut2 = (2 * n) / 3;
  const std::string path =
      ::testing::TempDir() + "/mqd_faulted_write.snap";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  auto baseline = CreateStreamProcessor(StreamKind::kStreamScanPlus,
                                        *inst, model, 3.0);
  ASSERT_TRUE(RunStream(*inst, baseline.get()).ok());

  auto victim = CreateStreamProcessor(StreamKind::kStreamScanPlus, *inst,
                                      model, 3.0);
  RunPrefix(*inst, victim.get(), cut1);
  ASSERT_TRUE(WriteStreamCheckpointToFile(*victim, cut1, path).ok());

  // Advance to cut2 (suffix only — re-delivering [0, cut1) would
  // corrupt the stream state) and attempt a second checkpoint under
  // the armed fault.
  for (PostId p = cut1; p < cut2; ++p) {
    victim->AdvanceTo(inst->value(p));
    victim->OnArrival(p);
  }
  FaultInjector& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("io.write_checkpoint:1", 11).ok());
  const Status torn = WriteStreamCheckpointToFile(*victim, cut2, path);
  injector.Disarm();
  EXPECT_FALSE(torn.ok());

  // The torn tmp the fault leaves behind must itself be rejected.
  {
    auto fresh = CreateStreamProcessor(StreamKind::kStreamScanPlus, *inst,
                                       model, 3.0);
    auto r = ReadStreamCheckpointFromFile(fresh.get(), *inst,
                                          path + ".tmp");
    EXPECT_FALSE(r.ok()) << "torn tmp accepted";
  }

  // The previous snapshot still restores to cut1, and resuming from
  // it reproduces the uninterrupted baseline exactly.
  auto revived = CreateStreamProcessor(StreamKind::kStreamScanPlus, *inst,
                                       model, 3.0);
  auto cursor = ReadStreamCheckpointFromFile(revived.get(), *inst, path);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ASSERT_EQ(*cursor, cut1);
  ASSERT_TRUE(ResumeStream(*inst, revived.get(), *cursor).ok());
  const std::vector<Emission>& resumed = revived->emissions();
  ASSERT_EQ(resumed.size(), baseline->emissions().size());
  for (size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_EQ(resumed[i].post, baseline->emissions()[i].post) << i;
    ASSERT_EQ(resumed[i].emit_time, baseline->emissions()[i].emit_time)
        << i;
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

/// S3: byte-level truncation of the snapshot file — what a torn write
/// that DID get renamed would look like — is detected on restore, and
/// a missing file reports NotFound rather than a parse error.
TEST(CheckpointTest, TruncatedCheckpointFileIsDetectedOnRestore) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 120.0;
  cfg.posts_per_minute = 40.0;
  cfg.seed = 7312;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  UniformLambda model(6.0);
  auto victim = CreateStreamProcessor(StreamKind::kStreamScan, *inst,
                                      model, 2.0);
  const auto cut = static_cast<PostId>(inst->num_posts() / 2);
  RunPrefix(*inst, victim.get(), cut);
  const std::string path = ::testing::TempDir() + "/mqd_truncated.snap";
  ASSERT_TRUE(WriteStreamCheckpointToFile(*victim, cut, path).ok());

  std::string blob;
  {
    std::ifstream is(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(blob.size(), 16u);
  for (size_t keep : {blob.size() / 2, blob.size() - 1, size_t{4}}) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(blob.data(), static_cast<std::streamsize>(keep));
    os.close();
    auto fresh = CreateStreamProcessor(StreamKind::kStreamScan, *inst,
                                       model, 2.0);
    auto r = ReadStreamCheckpointFromFile(fresh.get(), *inst, path);
    EXPECT_FALSE(r.ok()) << "kept " << keep << " of " << blob.size();
  }
  std::remove(path.c_str());

  auto fresh = CreateStreamProcessor(StreamKind::kStreamScan, *inst,
                                     model, 2.0);
  auto missing = ReadStreamCheckpointFromFile(fresh.get(), *inst, path);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mqd
