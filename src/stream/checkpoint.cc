#include "stream/checkpoint.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>
#include <vector>

#include "obs/stack_metrics.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace mqd {

namespace {

constexpr std::string_view kMagic = "MQDSNAP1";
// Version 2: algorithm payloads carry only canonical state (version 1
// also stored the processors' attribution counters). Other versions
// are rejected, never migrated.
constexpr uint32_t kFormatVersion = 2;

}  // namespace

uint64_t SnapshotChecksum(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Status WriteSnapshotEnvelope(std::string_view magic, std::string_view body,
                             std::ostream& os) {
  os.write(magic.data(), static_cast<std::streamsize>(magic.size()));
  os.write(body.data(), static_cast<std::streamsize>(body.size()));
  const uint64_t checksum = SnapshotChecksum(body);
  os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!os.good()) return Status::Internal("snapshot write failed");
  return Status::OK();
}

Status OpenSnapshotEnvelope(std::string_view magic, std::istream& is,
                            std::string* body) {
  body->assign(std::istreambuf_iterator<char>(is), {});
  if (body->size() < magic.size() + sizeof(uint64_t)) {
    return Status::InvalidArgument("snapshot truncated");
  }
  if (std::string_view(*body).substr(0, magic.size()) != magic) {
    return Status::InvalidArgument(
        StrFormat("not an MQD %.*s snapshot", static_cast<int>(magic.size()),
                  magic.data()));
  }
  uint64_t recorded_checksum;
  std::memcpy(&recorded_checksum,
              body->data() + body->size() - sizeof(uint64_t),
              sizeof(uint64_t));
  body->resize(body->size() - sizeof(uint64_t));
  body->erase(0, magic.size());
  if (SnapshotChecksum(*body) != recorded_checksum) {
    return Status::InvalidArgument("snapshot checksum mismatch");
  }
  return Status::OK();
}

uint64_t InstanceFingerprint(const Instance& inst) {
  uint64_t h = 1469598103934665603ULL;
  for (PostId p = 0; p < inst.num_posts(); ++p) {
    uint64_t bits;
    const double v = inst.value(p);
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    const uint64_t mask = inst.labels(p);
    char buf[16];
    std::memcpy(buf, &bits, 8);
    std::memcpy(buf + 8, &mask, 8);
    h = SnapshotChecksum(std::string_view(buf, sizeof(buf)), h);
  }
  return h;
}

Status StreamProcessor::RestoreEmissionLog(std::vector<Emission> emissions) {
  std::vector<bool> seen(inst_.num_posts(), false);
  for (const Emission& e : emissions) {
    if (e.post >= seen.size()) {
      return Status::InvalidArgument(
          StrFormat("snapshot emission references post %u of a %zu-post "
                    "instance",
                    e.post, seen.size()));
    }
    if (seen[e.post]) {
      return Status::InvalidArgument(
          StrFormat("snapshot emits post %u twice", e.post));
    }
    if (labels(e.post) == 0) {
      return Status::InvalidArgument(StrFormat(
          "snapshot emits post %u, which carries no label of the mask",
          e.post));
    }
    // Emit's repeat scan stops at the first time before the post's
    // timestamp; `!(a >= b)` also rejects a NaN time.
    if (!(e.emit_time >= inst_.value(e.post))) {
      return Status::InvalidArgument(StrFormat(
          "snapshot emits post %u before its timestamp", e.post));
    }
    seen[e.post] = true;
  }
  emissions_ = std::move(emissions);
  return Status::OK();
}

Status SaveStreamCheckpoint(const StreamProcessor& processor,
                            PostId next_post, std::ostream& os) {
  const auto* checkpointable =
      dynamic_cast<const CheckpointableStream*>(&processor);
  if (checkpointable == nullptr) {
    return Status::Unimplemented(
        StrFormat("%.*s does not support checkpointing",
                  static_cast<int>(processor.name().size()),
                  processor.name().data()));
  }

  SnapshotWriter body;
  body.U32(kFormatVersion);
  body.Str(processor.name());
  body.F64(processor.tau());
  body.U64(processor.instance().num_posts());
  body.U32(processor.instance().num_labels());
  body.U64(InstanceFingerprint(processor.instance()));
  body.U64(next_post);

  const std::vector<Emission>& emissions = processor.emissions();
  body.U64(emissions.size());
  for (const Emission& e : emissions) {
    body.U32(e.post);
    body.F64(e.emit_time);
  }

  SnapshotWriter payload;
  checkpointable->SaveStreamState(&payload);
  body.Str(payload.bytes());

  MQD_RETURN_NOT_OK(WriteSnapshotEnvelope(kMagic, body.bytes(), os));
  obs::GetRobustMetrics().checkpoints_saved->Increment();
  return Status::OK();
}

Result<PostId> RestoreStreamCheckpoint(StreamProcessor* processor,
                                       const Instance& inst,
                                       std::istream& is) {
  auto* checkpointable = dynamic_cast<CheckpointableStream*>(processor);
  if (checkpointable == nullptr) {
    return Status::Unimplemented(
        StrFormat("%.*s does not support checkpointing",
                  static_cast<int>(processor->name().size()),
                  processor->name().data()));
  }

  std::string body;
  MQD_RETURN_NOT_OK(OpenSnapshotEnvelope(kMagic, is, &body));
  SnapshotReader reader(body);
  const uint32_t version = reader.U32();
  if (!reader.failed() && version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported snapshot format version %u", version));
  }
  const std::string algorithm = reader.Str();
  const double tau = reader.F64();
  const uint64_t num_posts = reader.U64();
  const uint32_t num_labels = reader.U32();
  const uint64_t fingerprint = reader.U64();
  const uint64_t next_post = reader.U64();
  MQD_RETURN_NOT_OK(reader.status());

  if (algorithm != processor->name()) {
    return Status::FailedPrecondition(
        StrFormat("snapshot holds %s state, processor is %.*s",
                  algorithm.c_str(),
                  static_cast<int>(processor->name().size()),
                  processor->name().data()));
  }
  if (tau != processor->tau()) {
    return Status::FailedPrecondition(
        StrFormat("snapshot tau %g != processor tau %g", tau,
                  processor->tau()));
  }
  if (num_posts != inst.num_posts() ||
      num_labels != static_cast<uint32_t>(inst.num_labels()) ||
      fingerprint != InstanceFingerprint(inst)) {
    return Status::FailedPrecondition(
        "snapshot was taken against a different instance");
  }
  if (next_post > inst.num_posts()) {
    return Status::InvalidArgument(
        StrFormat("snapshot replay cursor %llu exceeds %zu posts",
                  static_cast<unsigned long long>(next_post),
                  static_cast<size_t>(inst.num_posts())));
  }

  const uint64_t num_emissions = reader.U64();
  if (num_emissions > num_posts) {
    return Status::InvalidArgument("snapshot emits more posts than exist");
  }
  std::vector<Emission> emissions;
  emissions.reserve(num_emissions);
  for (uint64_t i = 0; i < num_emissions && !reader.failed(); ++i) {
    const PostId post = reader.U32();
    const double emit_time = reader.F64();
    emissions.push_back(Emission{post, emit_time});
  }
  const std::string payload = reader.Str();
  MQD_RETURN_NOT_OK(reader.status());
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("snapshot carries trailing bytes");
  }

  MQD_RETURN_NOT_OK(processor->RestoreEmissionLog(std::move(emissions)));
  SnapshotReader payload_reader(payload);
  MQD_RETURN_NOT_OK(checkpointable->RestoreStreamState(&payload_reader));
  if (payload_reader.remaining() != 0) {
    return Status::InvalidArgument(
        "snapshot payload carries trailing bytes");
  }
  obs::GetRobustMetrics().checkpoints_restored->Increment();
  return static_cast<PostId>(next_post);
}

Status WriteStreamCheckpointToFile(const StreamProcessor& processor,
                                   PostId next_post, const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream os(tmp_path,
                     std::ios::binary | std::ios::out | std::ios::trunc);
    if (!os.good()) {
      return Status::Internal("cannot open checkpoint tmp file: " + tmp_path);
    }
    Status saved = SaveStreamCheckpoint(processor, next_post, os);
    if (!saved.ok()) {
      os.close();
      std::remove(tmp_path.c_str());
      return saved;
    }
    os.flush();
    if (!os.good()) {
      os.close();
      std::remove(tmp_path.c_str());
      return Status::Internal("checkpoint write failed: " + tmp_path);
    }
  }
  // Deterministic torn-write drill: chop the flushed tmp in half and
  // fail before the rename, exactly what a crash mid-write leaves on
  // disk. The previous snapshot at `path` must survive untouched.
  Status fault;
  try {
    fault = FaultInjector::Global().MaybeInject("io.write_checkpoint");
  } catch (const std::exception& e) {
    fault = Status::Internal(
        std::string("injected exception at io.write_checkpoint: ") + e.what());
  }
  if (!fault.ok()) {
    std::string bytes;
    {
      std::ifstream back(tmp_path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(back),
                   std::istreambuf_iterator<char>());
    }
    std::ofstream torn(tmp_path,
                       std::ios::binary | std::ios::out | std::ios::trunc);
    torn.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
    torn.close();
    return fault;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot rename checkpoint into place: " + path);
  }
  return Status::OK();
}

Result<PostId> ReadStreamCheckpointFromFile(StreamProcessor* processor,
                                            const Instance& inst,
                                            const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    return Status::NotFound("checkpoint file not found: " + path);
  }
  return RestoreStreamCheckpoint(processor, inst, is);
}

}  // namespace mqd
