// Crash-consistent, versioned binary snapshots. Every long-running pipeline
// (FedAvg training, CGBD solves, trading sessions, the chain WAL) persists
// its state through this layer instead of rolling its own ofstream
// format — tfl-lint enforces that. Payload layouts are the persisted
// structs' fields() (common/fields.h): one function per struct drives both
// the writer and the reader, and tests/integration/test_golden_bytes.cpp pins
// the resulting bytes of every kind.
//
// File layout (all integers little-endian, floats as IEEE-754 bit patterns):
//
//   [u32 magic "TFLS"] [u32 schema version] [u64 kind length][kind bytes]
//   [u64 payload length][payload bytes] [u32 CRC32 over everything before it]
//
// Durability contract:
//   * write_snapshot_file writes to `<path>.tmp` and renames into place, so a
//     crash mid-write leaves either the old snapshot or the new one — never a
//     torn file.
//   * read_snapshot_file is strict: wrong magic, kind mismatch, a version
//     newer than the reader supports, truncation, or a CRC mismatch each
//     yield a typed Error (codes snapshot.magic / snapshot.kind /
//     snapshot.version / snapshot.truncated / snapshot.crc) and never partial
//     state.
//
// Layering: this lives in common/ and therefore emits no metrics itself;
// write_snapshot_file returns the byte count so call sites in fl/, chain/,
// and tradefl/ can feed the snapshot.{writes,bytes,resumes} counters.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/result.h"

namespace tradefl {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `size` bytes. `seed` lets
/// callers chain partial computations; pass the previous return value.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                                  std::uint32_t seed = 0);
[[nodiscard]] std::uint32_t crc32(const std::vector<std::uint8_t>& data);

/// Thrown by SnapshotReader on overrun / malformed payloads; decode_snapshot
/// converts it into a typed Error so pipeline code never sees the exception.
class SnapshotError : public std::exception {
 public:
  explicit SnapshotError(std::string message) : message_(std::move(message)) {}
  [[nodiscard]] const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

/// Appends fields to a snapshot payload in the canonical little-endian
/// encoding (u64 length prefixes). The writer is append-only; payload() hands
/// the bytes to write_snapshot_file. Structs are written through their
/// fields() with the verbs of common/fields.h.
class SnapshotWriter : public FieldWriter<SnapshotWriter> {
 public:
  void put_u8(std::uint8_t value);
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  void put_i64(std::int64_t value);
  void put_bool(bool value);
  /// IEEE-754 bit pattern — round-trips every float bit-exactly, NaNs included.
  void put_f32(float value);
  void put_f64(double value);
  /// u64 length prefix followed by the raw bytes.
  void put_string(const std::string& value);
  void put_bytes(const std::vector<std::uint8_t>& value);
  void put_bytes(const std::uint8_t* value, std::size_t size);

  [[nodiscard]] const std::vector<std::uint8_t>& payload() const { return buffer_; }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Strict mirror of SnapshotWriter. Every overrun, oversized length prefix or
/// out-of-range field throws SnapshotError immediately — a corrupt payload
/// can never yield a partially-plausible value.
class SnapshotReader : public FieldReader<SnapshotReader> {
 public:
  explicit SnapshotReader(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}
  SnapshotReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] bool get_bool();
  [[nodiscard]] float get_f32();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_string();
  [[nodiscard]] std::vector<std::uint8_t> get_bytes();

  [[nodiscard]] std::size_t remaining() const { return size_ - offset_; }

  /// Decoders call this last: trailing bytes mean the payload and the decoder
  /// disagree about the schema, which is corruption, not slack.
  void require_exhausted() const;

  [[noreturn]] void fail(const std::string& message) const { throw SnapshotError(message); }

 private:
  void require(std::size_t bytes) const;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t offset_ = 0;
};

/// Atomically persists `payload` under the snapshot framing. Returns the
/// total file size in bytes on success (callers feed snapshot.bytes).
Result<std::size_t> write_snapshot_file(const std::string& path, const std::string& kind,
                                        std::uint32_t version, const SnapshotWriter& payload);

/// Reads and fully validates a snapshot, returning the payload bytes.
/// `kind` must match what was written; `max_version` is the newest schema the
/// caller understands (older versions are the caller's job to migrate).
Result<std::vector<std::uint8_t>> read_snapshot_file(const std::string& path,
                                                     const std::string& kind,
                                                     std::uint32_t max_version);

/// True when a regular file exists at `path` (resume=1 with no snapshot yet
/// is a cold start, not an error).
[[nodiscard]] bool snapshot_exists(const std::string& path);

/// Runs `decode(reader)` over a validated payload, converting any
/// SnapshotError into Error{"snapshot.decode", ...} so callers stay in
/// Result-land.
template <typename T, typename Decode>
Result<T> decode_snapshot(const std::vector<std::uint8_t>& payload, Decode&& decode) {
  SnapshotReader reader(payload);
  try {
    T value = decode(reader);
    reader.require_exhausted();
    return value;
  } catch (const SnapshotError& error) {
    return Error{"snapshot.decode", error.what()};
  }
}

/// Persists `value` through its fields() under the snapshot framing.
template <typename T>
Result<std::size_t> write_snapshot_value(const std::string& path, const std::string& kind,
                                         std::uint32_t version, const T& value) {
  SnapshotWriter writer;
  fields(writer, value);
  return write_snapshot_file(path, kind, version, writer);
}

/// Reads, validates and decodes a snapshot written by write_snapshot_value.
template <typename T>
Result<T> read_snapshot_value(const std::string& path, const std::string& kind,
                              std::uint32_t max_version) {
  auto payload = read_snapshot_file(path, kind, max_version);
  if (!payload.ok()) return payload.error();
  return decode_snapshot<T>(payload.value(), [](SnapshotReader& reader) {
    T value{};
    fields(reader, value);
    return value;
  });
}

}  // namespace tradefl
