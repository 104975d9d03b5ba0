#ifndef MDE_CKPT_SNAPSHOT_H_
#define MDE_CKPT_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

/// Deterministic checkpoint/restart for the long-running engines (DSGD,
/// matrix completion, SimSQL chains, particle filters, wildfire
/// assimilation). The paper's model-data ecosystems run on infrastructure
/// where worker loss is routine — SimSQL inherits Hadoop's restartable
/// steps, Indemics assumes HPC job preemption — and the engines here already
/// have the per-step determinism (substream RNGs, conflict-free strata) that
/// makes recovery *bit-identical*: kill at step k, restore the snapshot,
/// replay, and the final result equals an uninterrupted run at any thread
/// count.
///
/// Snapshot format (versioned, CRC-checked, little-endian):
///
///   offset  size  field
///   0       8     magic "MDECKPT\0"
///   8       4     format version (u32, currently 1)
///   12      var   engine name (u32 length + bytes)
///   ..      4     section count (u32)
///   per section:
///           var   name (u32 length + bytes)
///           8     payload size (u64)
///           var   payload (typed little-endian fields, engine-defined)
///   tail    4     CRC-32 (IEEE 802.3) over every preceding byte
///
/// Sections are looked up by name, so engines may add sections without
/// breaking older readers; unknown sections are ignored. Doubles are stored
/// bit-exactly (IEEE-754 bits), never formatted — restore must reproduce
/// the working state to the last ulp or downstream replay diverges.
namespace mde::ckpt {

/// Current snapshot format version written by SnapshotWriter.
inline constexpr uint32_t kFormatVersion = 1;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `n` bytes,
/// continuing from `seed` (pass a previous return value to chain).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Typed little-endian append-only buffer: the payload of one section.
class SectionWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Bit-exact: stores the IEEE-754 bits, not a formatted value.
  void PutDouble(double v);
  void PutString(const std::string& s);
  void PutRngState(const Rng::State& s);

  void PutU64Vec(const std::vector<uint64_t>& v);
  void PutSizeVec(const std::vector<size_t>& v);
  void PutDoubleVec(const std::vector<double>& v);
  void PutBytes(const void* data, size_t n);

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Typed reader over one section's payload. Reads past the end (or any
/// earlier failure) latch an error status and return zero values, so
/// restore code can decode a full section and check `status()` once.
class SectionReader {
 public:
  explicit SectionReader(std::string_view payload) : data_(payload) {}

  uint8_t U8();
  bool Bool() { return U8() != 0; }
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double Double();
  std::string String();
  Rng::State RngState();

  std::vector<uint64_t> U64Vec();
  std::vector<size_t> SizeVec();
  std::vector<double> DoubleVec();

  /// Error latched by any out-of-bounds read so far.
  const Status& status() const { return status_; }
  /// Remaining unread bytes (0 when fully consumed).
  size_t remaining() const { return data_.size() - pos_; }
  /// Fails the reader if any payload bytes were left unread.
  Status ExpectEnd();
  /// Latches an InvalidArgument error (the first one wins); decoders call
  /// it when a field reads fine but its value is invalid.
  void Fail(const std::string& what);

 private:
  bool Take(void* out, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

/// Builds one snapshot: header, named sections, trailing CRC.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::string engine) : engine_(std::move(engine)) {}

  /// Adds a section; returns the writer for its payload. The pointer stays
  /// valid until Finish(). Section names must be unique per snapshot.
  SectionWriter* AddSection(const std::string& name);

  /// Serializes header + sections + CRC. The writer is exhausted after.
  std::string Finish();

 private:
  std::string engine_;
  std::vector<std::pair<std::string, SectionWriter>> sections_;
};

/// Parses and validates a snapshot (magic, version, CRC) and exposes its
/// sections by name.
class SnapshotReader {
 public:
  /// Validates the container; fails with InvalidArgument on a bad magic or
  /// truncation, FailedPrecondition on a version or CRC mismatch.
  static Result<SnapshotReader> Parse(std::string bytes);

  const std::string& engine() const { return engine_; }
  bool has_section(const std::string& name) const;
  /// Reader over the named section's payload; NotFound if absent.
  Result<SectionReader> section(const std::string& name) const;

 private:
  SnapshotReader() = default;

  std::string bytes_;  // owns the payload the section offsets point into
  std::string engine_;
  /// (name, payload offset into bytes_, payload length) — offsets rather
  /// than views so the reader stays valid across moves.
  struct Section {
    std::string name;
    size_t offset = 0;
    size_t length = 0;
  };
  std::vector<Section> sections_;
};

/// Writes `bytes` to `path` atomically (temp file + rename), so a crash
/// mid-write never leaves a truncated checkpoint behind.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads a whole file; NotFound if it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

}  // namespace mde::ckpt

#endif  // MDE_CKPT_SNAPSHOT_H_
