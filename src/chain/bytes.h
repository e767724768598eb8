// Byte-buffer helpers shared by the chain substrate: hex encoding and a
// little-endian serializer used for transaction/block hashing, ABI payloads,
// the WAL and the chain state.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/fields.h"

namespace tradefl::chain {

using Bytes = std::vector<std::uint8_t>;

std::string to_hex(const Bytes& bytes);
Bytes from_hex(const std::string& hex);  // throws std::invalid_argument on bad input

/// Appends fixed-width little-endian integers / u32-length-prefixed blobs.
/// Structs are written through their fields() with the verbs of
/// common/fields.h; sequence counts are u64.
class ByteWriter : public FieldWriter<ByteWriter> {
 public:
  void put_u8(std::uint8_t value);
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  void put_i64(std::int64_t value);
  void put_bool(bool value) { put_u8(value ? 1 : 0); }
  void put_bytes(const Bytes& value);      // length-prefixed
  void put_bytes(const std::uint8_t* value, std::size_t size);  // same framing
  void put_string(const std::string& value);  // length-prefixed

  /// `value`'s fields as one u32-length-prefixed blob, encoded in place.
  template <class T>
  void nested(const T& value) {
    const std::size_t at = buffer_.size();
    put_u32(0);
    fields(*this, value);
    close_nested(at);
  }

  /// Pre-sizes the buffer for a known payload (hot hashing paths).
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  [[nodiscard]] const Bytes& data() const { return buffer_; }

  /// Moves the encoded bytes out of an expiring writer, reserved capacity
  /// and all, so a function returning its encoding pays no copy.
  [[nodiscard]] Bytes take() && { return std::move(buffer_); }

 private:
  void close_nested(std::size_t at);

  Bytes buffer_;
};

/// Mirror image of ByteWriter; throws std::out_of_range when reading past
/// the end and std::invalid_argument on a malformed field.
class ByteReader : public FieldReader<ByteReader> {
 public:
  explicit ByteReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  bool get_bool();
  Bytes get_bytes();
  std::string get_string();

  /// Reads a ByteWriter::nested blob; its fields must fill it exactly.
  template <class T>
  void nested(T& value) {
    const std::uint32_t size = get_u32();
    require(size);
    ByteReader inner(data_ + offset_, size);
    fields(inner, value);
    if (!inner.exhausted()) fail("trailing bytes in nested record");
    offset_ += size;
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - offset_; }
  [[nodiscard]] bool exhausted() const { return offset_ == size_; }

  [[noreturn]] void fail(const std::string& message) const;

 private:
  void require(std::size_t count) const;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t offset_ = 0;
};

}  // namespace tradefl::chain
