// Fail-closed decoding of persisted state that passed its CRC but was never
// authenticated: every malformed field must surface as a typed error, never
// as an out-of-bounds write, a giant allocation or a foreign exception type.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "chain/tradefl_contract.h"
#include "common/snapshot.h"
#include "core/mechanism.h"
#include "game/strategy.h"
#include "tradefl/server.h"

namespace tradefl {
namespace {

using chain::Address;
using chain::Bytes;
using chain::ByteWriter;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/fail_closed_" + name;
}

chain::TradeFlContractConfig two_org_config() {
  chain::TradeFlContractConfig config;
  config.org_count = 2;
  config.gamma_scaled = chain::Fixed::from_double(5.12);
  config.lambda = chain::Fixed::from_double(2.0);
  config.rho = {chain::Fixed{}, chain::Fixed::from_double(0.05),
                chain::Fixed::from_double(0.05), chain::Fixed{}};
  config.data_size_gb = {chain::Fixed::from_double(20.0), chain::Fixed::from_double(10.0)};
  config.min_deposit = 1000;
  return config;
}

/// A two-org contract state whose second account blob is `account_bytes`
/// long instead of an address's 20.
Bytes contract_state_with_account_of(std::size_t account_bytes) {
  ByteWriter writer;
  writer.put_u8(0);   // phase
  writer.put_u8(0);   // payoffs calculated
  writer.put_u64(1);  // round
  writer.put_u32(2);  // org count
  for (std::size_t size : {std::size_t{20}, account_bytes}) {
    writer.put_bytes(Bytes(size, 0xAB));
    writer.put_u8(1);    // registered
    writer.put_i64(0);   // deposit
    writer.put_u8(0);    // contributed
    writer.put_i64(0);   // d
    writer.put_i64(0);   // f
    writer.put_i64(0);   // net payoff
  }
  return writer.data();
}

Bytes length_prefixed(const Bytes& blob) {
  ByteWriter writer;
  writer.put_bytes(blob);
  return writer.data();
}

TEST(CodecFailClosed, ContractStateRejectsOversizedAccount) {
  chain::TradeFlContract contract(two_org_config());
  EXPECT_NO_THROW(contract.load_state(contract_state_with_account_of(20)));
  EXPECT_THROW(contract.load_state(contract_state_with_account_of(200)), std::invalid_argument);
}

TEST(CodecFailClosed, ChainStateWithOversizedContractAccountIsAnError) {
  chain::Blockchain chain;
  const Address contract =
      chain.deploy(std::make_unique<chain::TradeFlContract>(two_org_config()));
  const Bytes state = chain.save_chain_state();

  // Swap the contract's state blob for one carrying a 200-byte account.
  const Bytes good = length_prefixed(chain.contract_at(contract).save_state());
  const auto at = std::search(state.begin(), state.end(), good.begin(), good.end());
  ASSERT_NE(at, state.end());
  Bytes forged(state.begin(), at);
  const Bytes bad = length_prefixed(contract_state_with_account_of(200));
  forged.insert(forged.end(), bad.begin(), bad.end());
  forged.insert(forged.end(), at + static_cast<std::ptrdiff_t>(good.size()), state.end());

  const chain::ContractFactory factory = [](const std::string& name) -> chain::ContractPtr {
    if (name != "TradeFL") return nullptr;
    return std::make_unique<chain::TradeFlContract>(two_org_config());
  };
  chain::Blockchain restored;
  ASSERT_TRUE(restored.restore_chain_state(state, factory).ok());
  const Status status = restored.restore_chain_state(forged, factory);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "chain.snapshot");
}

TEST(CodecFailClosed, ProfileCountBeyondPayloadIsTypedError) {
  SnapshotWriter writer;
  writer.put_u64(1ULL << 62);
  const auto decoded = decode_snapshot<game::StrategyProfile>(
      writer.payload(), [](SnapshotReader& reader) {
        game::StrategyProfile profile;
        reader.seq(profile);
        return profile;
      });
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "snapshot.decode");
}

TEST(CodecFailClosed, RegistryCountBeyondPayloadIsTypedError) {
  SnapshotWriter writer;
  writer.put_u64(1);           // next session id
  writer.put_u64(1ULL << 62);  // entry count
  const std::string path = temp_path("registry_count.snap");
  ASSERT_TRUE(write_snapshot_file(path, "tradefl.server.registry", 1, writer).ok());
  const auto loaded = server::load_registry(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, "snapshot.decode");
}

TEST(CodecFailClosed, RegistryStateOutsideTheEnumIsTypedError) {
  SnapshotWriter writer;
  writer.put_u64(2);  // next session id
  writer.put_u64(1);  // one entry
  writer.put_u64(1);  // id
  writer.put_u8(3);   // no such SessionState
  writer.put_string("orgs=3\n");
  writer.put_u64(0);  // attempts
  const std::string path = temp_path("registry_state.snap");
  ASSERT_TRUE(write_snapshot_file(path, "tradefl.server.registry", 1, writer).ok());
  const auto loaded = server::load_registry(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, "snapshot.decode");
}

TEST(CodecFailClosed, MechanismSchemeOutsideTheEnumIsTypedError) {
  SnapshotWriter writer;
  writer.put_u64(99);  // no such Scheme
  const auto decoded = decode_snapshot<core::MechanismResult>(
      writer.payload(), [](SnapshotReader& reader) {
        core::MechanismResult result;
        fields(reader, result);
        return result;
      });
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "snapshot.decode");
}

TEST(CodecFailClosed, BoolAboveOneIsRejectedInBothFamilies) {
  SnapshotWriter snapshot;
  snapshot.put_u8(2);
  SnapshotReader snapshot_reader(snapshot.payload());
  bool flag = false;
  EXPECT_THROW(snapshot_reader.boolean(flag), SnapshotError);

  ByteWriter bytes;
  bytes.put_u8(2);
  chain::ByteReader bytes_reader(bytes.data());
  EXPECT_THROW(bytes_reader.boolean(flag), std::invalid_argument);
}

}  // namespace
}  // namespace tradefl
