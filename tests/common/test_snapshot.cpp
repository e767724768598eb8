// Crash-consistent snapshot layer: canonical encoding round trips, atomic
// file framing, and — the robustness contract — every corruption mode fails
// closed with a typed error while the previous checkpoint stays intact.
#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace tradefl {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good()) << path;
}

SnapshotWriter sample_payload() {
  SnapshotWriter writer;
  writer.put_u8(7);
  writer.put_u32(0xDEADBEEFu);
  writer.put_u64(1ull << 60);
  writer.put_i64(-42);
  writer.put_bool(true);
  writer.put_f32(1.5f);
  writer.put_f64(-0.0);
  writer.put_string("TradeFL");
  writer.put_bytes({0x00, 0xFF, 0x10});
  writer.seq(std::vector<float>{0.25f, std::numeric_limits<float>::quiet_NaN()});
  writer.seq(std::vector<double>{1e-300, 2.5});
  writer.seq(std::vector<std::uint64_t>{1, 2, 3});
  return writer;
}

TEST(Snapshot, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
}

TEST(Snapshot, WriterReaderRoundTripsEveryFieldType) {
  const SnapshotWriter writer = sample_payload();
  SnapshotReader reader(writer.payload());
  EXPECT_EQ(reader.get_u8(), 7u);
  EXPECT_EQ(reader.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.get_u64(), 1ull << 60);
  EXPECT_EQ(reader.get_i64(), -42);
  EXPECT_TRUE(reader.get_bool());
  EXPECT_EQ(reader.get_f32(), 1.5f);
  const double negative_zero = reader.get_f64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));  // bit-exact, not value-equal
  EXPECT_EQ(reader.get_string(), "TradeFL");
  EXPECT_EQ(reader.get_bytes(), (std::vector<std::uint8_t>{0x00, 0xFF, 0x10}));
  std::vector<float> floats;
  reader.seq(floats);
  ASSERT_EQ(floats.size(), 2u);
  EXPECT_EQ(floats[0], 0.25f);
  EXPECT_TRUE(std::isnan(floats[1]));  // NaN payloads survive
  std::vector<double> doubles;
  reader.seq(doubles);
  EXPECT_EQ(doubles, (std::vector<double>{1e-300, 2.5}));
  std::vector<std::uint64_t> words;
  reader.seq(words);
  EXPECT_EQ(words, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_NO_THROW(reader.require_exhausted());
}

TEST(Snapshot, ReaderOverrunThrowsInsteadOfFabricating) {
  SnapshotWriter writer;
  writer.put_u32(5);
  SnapshotReader reader(writer.payload());
  EXPECT_EQ(reader.get_u32(), 5u);
  EXPECT_THROW(static_cast<void>(reader.get_u64()), SnapshotError);
}

TEST(Snapshot, FileRoundTripPreservesPayload) {
  const std::string path = temp_path("roundtrip.snap");
  const SnapshotWriter writer = sample_payload();
  const auto written = write_snapshot_file(path, "test.kind", 3, writer);
  ASSERT_TRUE(written.ok()) << written.error().to_string();
  EXPECT_EQ(written.value(), slurp(path).size());
  EXPECT_TRUE(snapshot_exists(path));

  const auto payload = read_snapshot_file(path, "test.kind", 3);
  ASSERT_TRUE(payload.ok()) << payload.error().to_string();
  EXPECT_EQ(payload.value(), writer.payload());
}

TEST(Snapshot, OlderVersionStillReadable) {
  const std::string path = temp_path("old_version.snap");
  ASSERT_TRUE(write_snapshot_file(path, "test.kind", 2, sample_payload()).ok());
  EXPECT_TRUE(read_snapshot_file(path, "test.kind", 5).ok());
}

TEST(Snapshot, MissingFileIsTypedIoError) {
  const auto payload = read_snapshot_file(temp_path("never_written.snap"), "test.kind", 1);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.error().code, "io");
  EXPECT_FALSE(snapshot_exists(temp_path("never_written.snap")));
}

TEST(Snapshot, WriteToUnwritablePathFailsClosed) {
  const auto written =
      write_snapshot_file("/nonexistent-dir/x.snap", "test.kind", 1, sample_payload());
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.error().code, "io");
}

// ----- satellite: corruption suite. Each mode must fail closed with a
// descriptive typed error, and a prior good checkpoint must stay intact. ---

/// Writes a good snapshot, applies `corrupt` to its bytes, and returns the
/// read error. Also asserts a sibling "previous" checkpoint still reads back.
template <typename Corrupt>
Error corrupt_and_read(const std::string& name, Corrupt&& corrupt) {
  const std::string previous = temp_path(name + ".previous.snap");
  const std::string path = temp_path(name + ".snap");
  EXPECT_TRUE(write_snapshot_file(previous, "test.kind", 1, sample_payload()).ok());
  EXPECT_TRUE(write_snapshot_file(path, "test.kind", 1, sample_payload()).ok());

  std::vector<std::uint8_t> bytes = slurp(path);
  corrupt(bytes);
  dump(path, bytes);

  const auto damaged = read_snapshot_file(path, "test.kind", 1);
  EXPECT_FALSE(damaged.ok());

  // The corruption of one file can never bleed into the previous checkpoint.
  const auto intact = read_snapshot_file(previous, "test.kind", 1);
  EXPECT_TRUE(intact.ok());
  if (intact.ok()) EXPECT_EQ(intact.value(), sample_payload().payload());
  return damaged.ok() ? Error{"", ""} : damaged.error();
}

TEST(SnapshotCorruption, TruncatedBelowMinimumFrameFailsClosed) {
  const Error error = corrupt_and_read("truncated", [](std::vector<std::uint8_t>& bytes) {
    bytes.resize(10);  // smaller than any legal header + trailer
  });
  EXPECT_EQ(error.code, "snapshot.truncated");
  EXPECT_FALSE(error.message.empty());
}

TEST(SnapshotCorruption, TruncatedMidPayloadFailsClosed) {
  // A torn write that keeps a plausible header still dies at the CRC gate:
  // the checksum covers the whole frame, so missing tail bytes cannot pass.
  const Error error = corrupt_and_read("torn", [](std::vector<std::uint8_t>& bytes) {
    bytes.resize(bytes.size() / 2);
  });
  EXPECT_EQ(error.code, "snapshot.crc");
}

TEST(SnapshotCorruption, SingleFlippedByteTripsCrc) {
  const Error error = corrupt_and_read("bitflip", [](std::vector<std::uint8_t>& bytes) {
    bytes[bytes.size() / 2] ^= 0x01;  // one bit, mid-payload
  });
  EXPECT_EQ(error.code, "snapshot.crc");
}

TEST(SnapshotCorruption, WrongMagicFailsClosed) {
  const Error error = corrupt_and_read("magic", [](std::vector<std::uint8_t>& bytes) {
    bytes[0] = 'X';
  });
  EXPECT_EQ(error.code, "snapshot.magic");
}

TEST(SnapshotCorruption, FutureSchemaVersionRejected) {
  const std::string path = temp_path("future.snap");
  ASSERT_TRUE(write_snapshot_file(path, "test.kind", 9, sample_payload()).ok());
  const auto payload = read_snapshot_file(path, "test.kind", 1);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.error().code, "snapshot.version");
  EXPECT_NE(payload.error().message.find("9"), std::string::npos)
      << "error should name the offending version: " << payload.error().message;
}

TEST(SnapshotCorruption, KindMismatchRejected) {
  const std::string path = temp_path("kind.snap");
  ASSERT_TRUE(write_snapshot_file(path, "fl.fedavg", 1, sample_payload()).ok());
  const auto payload = read_snapshot_file(path, "core.gbd", 1);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.error().code, "snapshot.kind");
}

TEST(SnapshotCorruption, EmptyFileFailsClosed) {
  const std::string path = temp_path("empty.snap");
  dump(path, {});
  const auto payload = read_snapshot_file(path, "test.kind", 1);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.error().code, "snapshot.truncated");
}

TEST(Snapshot, RewriteIsAtomicReplacingOldContent) {
  const std::string path = temp_path("rewrite.snap");
  SnapshotWriter first;
  first.put_u64(1);
  SnapshotWriter second;
  second.put_u64(2);
  ASSERT_TRUE(write_snapshot_file(path, "test.kind", 1, first).ok());
  ASSERT_TRUE(write_snapshot_file(path, "test.kind", 1, second).ok());
  const auto payload = read_snapshot_file(path, "test.kind", 1);
  ASSERT_TRUE(payload.ok());
  SnapshotReader reader(payload.value());
  EXPECT_EQ(reader.get_u64(), 2u);
  // No stray temp file left behind.
  EXPECT_FALSE(snapshot_exists(path + ".tmp"));
}

TEST(Snapshot, DecodeSnapshotConvertsThrowToTypedError) {
  SnapshotWriter writer;
  writer.put_u32(1);
  // Decoder demands more than the payload holds -> snapshot.decode, no throw.
  const Result<int> decoded =
      decode_snapshot<int>(writer.payload(), [](SnapshotReader& reader) {
        (void)reader.get_u64();
        return 1;
      });
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "snapshot.decode");
}

TEST(Snapshot, DecodeSnapshotRejectsTrailingBytes) {
  SnapshotWriter writer;
  writer.put_u32(1);
  writer.put_u32(2);
  const Result<int> decoded =
      decode_snapshot<int>(writer.payload(), [](SnapshotReader& reader) {
        (void)reader.get_u32();
        return 1;  // leaves 4 bytes unread
      });
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "snapshot.decode");
}

}  // namespace
}  // namespace tradefl
