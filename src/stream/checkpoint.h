#ifndef MQD_STREAM_CHECKPOINT_H_
#define MQD_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/instance.h"
#include "stream/stream_solver.h"
#include "util/result.h"
#include "util/status.h"

namespace mqd {

/// Byte-oriented snapshot serializer. All integers are little-endian
/// fixed width; doubles are their IEEE-754 bit pattern. The format is
/// deliberately dumb: a snapshot is a point-in-time copy of carried
/// stream state, not an interchange format, and restore re-derives
/// every redundant structure (heaps, gains, difference arrays) so only
/// canonical state ever hits the wire.
class SnapshotWriter {
 public:
  void U8(uint8_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// u64 length followed by the raw bytes.
  void Str(std::string_view s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Cursor over a snapshot byte range. Reads past the end do not abort:
/// they return zero values and latch a failure that `status()` reports,
/// so decoders can parse a whole section and check once.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint64_t n = U64();
    if (n > remaining()) {
      failed_ = true;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// Carves the next `n` bytes out as a sub-range (for a nested
  /// payload with its own reader); empty view on truncation.
  std::string_view Bytes(uint64_t n) {
    if (n > remaining()) {
      failed_ = true;
      return {};
    }
    std::string_view view = data_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool failed() const { return failed_; }
  Status status() const {
    return failed_ ? Status::InvalidArgument("snapshot truncated")
                   : Status::OK();
  }

 private:
  void Raw(void* p, size_t n) {
    if (n > remaining()) {
      failed_ = true;
      return;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// A stream processor whose carried window state can be serialized and
/// rebuilt. The envelope (SaveStreamCheckpoint) owns the shared parts —
/// algorithm identity, tau, instance fingerprint, emission log, replay
/// cursor; implementations serialize only their algorithm-specific
/// canonical state and re-derive the rest on restore.
class CheckpointableStream {
 public:
  virtual ~CheckpointableStream() = default;

  /// Appends the algorithm payload to `writer`. Must not include the
  /// emission log (the envelope carries it).
  virtual void SaveStreamState(SnapshotWriter* writer) const = 0;

  /// Rebuilds carried state from `reader`. Called on a processor
  /// constructed with the same (instance, model, tau, variant) whose
  /// emission log has already been restored; any mismatch with the
  /// payload's recorded configuration is an error, not a migration.
  virtual Status RestoreStreamState(SnapshotReader* reader) = 0;
};

/// FNV-1a over `bytes`, chainable via `seed`. The checksum every MQD
/// snapshot format (stream checkpoints, tenant snapshots) appends to
/// its body.
uint64_t SnapshotChecksum(std::string_view bytes,
                          uint64_t seed = 1469598103934665603ULL);

/// The envelope every MQD snapshot format shares: an 8-byte `magic`
/// naming the format, the body, then SnapshotChecksum(body) as a
/// little-endian u64. Writing fails with Internal when `os` goes bad.
Status WriteSnapshotEnvelope(std::string_view magic, std::string_view body,
                             std::ostream& os);

/// Reads all of `is` into `*body` and checks the envelope around it.
/// InvalidArgument when the bytes are too short to hold magic and
/// checksum, when the magic is not `magic`, or when the checksum does
/// not match.
Status OpenSnapshotEnvelope(std::string_view magic, std::istream& is,
                            std::string* body);

/// Fingerprint of the instance a snapshot was taken against — FNV-1a
/// over every post's (value bits, label mask). Carried state indexes
/// into the value-sorted post table, so resuming against a different
/// table would silently emit the wrong posts.
uint64_t InstanceFingerprint(const Instance& inst);

/// Serializes `processor`'s full recovery state to `os`. `next_post`
/// is the replay cursor: the first post NOT yet delivered via
/// OnArrival. Returns Unimplemented for processors that do not
/// implement CheckpointableStream.
///
/// Snapshot layout: magic "MQDSNAP1", then a checksummed body
/// (format version, algorithm name, tau, instance fingerprint, replay
/// cursor, emission log, algorithm payload), then a u64 FNV-1a
/// checksum of the body. Version policy: readers accept exactly the
/// versions they know; there are no silent migrations — a version
/// bump means old snapshots are rejected with InvalidArgument.
Status SaveStreamCheckpoint(const StreamProcessor& processor,
                            PostId next_post, std::ostream& os);

/// Restores a checkpoint into a freshly created `processor` (same
/// algorithm, instance, model and tau as the saved one) and returns
/// the replay cursor to pass to ResumeStream. Verifies the magic,
/// checksum, format version, algorithm identity, tau, and the
/// instance fingerprint before touching the processor; a processor
/// handed a corrupt or mismatched snapshot is left untouched.
Result<PostId> RestoreStreamCheckpoint(StreamProcessor* processor,
                                       const Instance& inst,
                                       std::istream& is);

/// SaveStreamCheckpoint to a file, atomically: the snapshot is
/// written and flushed to `<path>.tmp` first and renamed over `path`
/// only on success, so a failed or torn write — a full disk, a kill
/// mid-write, or the deterministic "io.write_checkpoint" fault site —
/// leaves any previous snapshot at `path` intact (the tmp file is
/// removed). An injected fault additionally leaves a deliberately
/// truncated tmp behind the error to model a torn write; it is never
/// renamed into place.
Status WriteStreamCheckpointToFile(const StreamProcessor& processor,
                                   PostId next_post, const std::string& path);

/// RestoreStreamCheckpoint from `path`, with the same corruption /
/// mismatch detection (truncated or checksum-broken files are
/// rejected with InvalidArgument and the processor is left untouched).
Result<PostId> ReadStreamCheckpointFromFile(StreamProcessor* processor,
                                            const Instance& inst,
                                            const std::string& path);

}  // namespace mqd

#endif  // MQD_STREAM_CHECKPOINT_H_
