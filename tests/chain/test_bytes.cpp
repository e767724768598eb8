#include "chain/bytes.h"

#include <gtest/gtest.h>

#include <utility>

namespace tradefl::chain {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data{0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(data), "00deadbeefff");
  EXPECT_EQ(from_hex("00deadbeefff"), data);
  EXPECT_EQ(from_hex("00DEADBEEFFF"), data);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // bad digit
  EXPECT_TRUE(from_hex("").empty());
}

TEST(ByteWriterReader, ScalarRoundTrip) {
  ByteWriter writer;
  writer.put_u8(0xAB);
  writer.put_u32(0xDEADBEEF);
  writer.put_u64(0x0123456789ABCDEFULL);
  writer.put_i64(-42);
  ByteReader reader(writer.data());
  EXPECT_EQ(reader.get_u8(), 0xAB);
  EXPECT_EQ(reader.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.get_i64(), -42);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteWriterReader, TakeMovesTheBufferOut) {
  ByteWriter writer;
  writer.reserve(64);
  writer.put_u32(0xDEADBEEF);
  const Bytes expected = writer.data();
  const Bytes taken = std::move(writer).take();
  EXPECT_EQ(taken, expected);
  // The reserved buffer itself came out, not a size-fitted copy.
  EXPECT_GE(taken.capacity(), 64u);
}

TEST(ByteWriterReader, BlobAndStringRoundTrip) {
  ByteWriter writer;
  writer.put_bytes({1, 2, 3});
  writer.put_string("hello");
  writer.put_bytes({});
  ByteReader reader(writer.data());
  EXPECT_EQ(reader.get_bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(reader.get_string(), "hello");
  EXPECT_TRUE(reader.get_bytes().empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteReader, TruncatedThrows) {
  ByteWriter writer;
  writer.put_u32(7);
  ByteReader reader(writer.data());
  EXPECT_EQ(reader.get_u32(), 7u);
  EXPECT_THROW(reader.get_u8(), std::out_of_range);
}

TEST(ByteReader, TruncatedBlobThrows) {
  ByteWriter writer;
  writer.put_u32(100);  // claims 100 bytes follow, but none do
  ByteReader reader(writer.data());
  EXPECT_THROW(reader.get_bytes(), std::out_of_range);
}

TEST(ByteWriterReader, NegativeI64MinMax) {
  ByteWriter writer;
  writer.put_i64(std::numeric_limits<std::int64_t>::min());
  writer.put_i64(std::numeric_limits<std::int64_t>::max());
  ByteReader reader(writer.data());
  EXPECT_EQ(reader.get_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(reader.get_i64(), std::numeric_limits<std::int64_t>::max());
}

}  // namespace
}  // namespace tradefl::chain
