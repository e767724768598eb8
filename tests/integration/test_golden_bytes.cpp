// Golden bytes for every persisted format. Each case builds one fixed, fully
// populated value, encodes it through the production codec and compares the
// exact bytes (hex) and their CRC-32 with constants checked in here. A codec
// change that reorders, drops or re-encodes a field fails here even when the
// writer and reader still agree with each other, so resumed runs, WAL
// replays and tx/block hashes stay readable across versions.
//
// If a format changes on purpose, bump its schema version and regenerate the
// constant from the failure message; never edit a constant to make a codec
// change pass silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "chain/abi.h"
#include "chain/block.h"
#include "chain/blockchain.h"
#include "chain/tradefl_contract.h"
#include "chain/web3.h"
#include "common/snapshot.h"
#include "core/gbd.h"
#include "fl/fedasync.h"
#include "fl/fedavg.h"
#include "tradefl/server.h"
#include "tradefl/session.h"

namespace tradefl {
namespace {

using chain::Address;
using chain::Bytes;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/golden_" + name;
}

Bytes slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

void expect_golden(const Bytes& bytes, const std::string& hex, std::uint32_t crc) {
  const std::string actual = chain::to_hex(bytes);
  EXPECT_EQ(actual, hex) << "bytes changed; actual hex:\n" << actual;
  EXPECT_EQ(crc32(bytes), crc) << "actual crc32: " << crc32(bytes);
}

// A snapshot file ends in the CRC-32 of everything before it (so the CRC of
// the whole file is the constant CRC residue); compare that body CRC.
void expect_golden_file(const std::string& path, const std::string& hex, std::uint32_t crc) {
  const Bytes bytes = slurp(path);
  ASSERT_GE(bytes.size(), 4u);
  const std::string actual = chain::to_hex(bytes);
  EXPECT_EQ(actual, hex) << "bytes changed; actual hex:\n" << actual;
  const std::uint32_t body_crc = crc32(bytes.data(), bytes.size() - 4);
  EXPECT_EQ(body_crc, crc) << "actual crc32: " << body_crc;
}

// ----- fixed values -----

fl::AggregatorSpec sample_aggregator() {
  fl::AggregatorSpec spec;
  spec.kind = fl::AggregatorKind::kTrimmedMean;
  spec.trim = 1;
  spec.clip_norm = 2.5;
  return spec;
}

fl::RoundMetrics sample_round() {
  fl::RoundMetrics metrics;
  metrics.round = 2;
  metrics.train_loss = 0.75;
  metrics.test_loss = 0.5;
  metrics.test_accuracy = 0.875;
  metrics.participants = 3;
  metrics.dropped = 1;
  metrics.quarantined = 1;
  metrics.skipped = true;
  metrics.attacked = 2;
  metrics.rejected = 1;
  metrics.clipped = 4;
  metrics.attacker_influence = 0.125;
  return metrics;
}

game::StrategyProfile sample_profile() {
  return {game::Strategy{0.25, 1}, game::Strategy{1.0, 0}};
}

core::IterationRecord sample_record() {
  core::IterationRecord record;
  record.iteration = 3;
  record.potential = 1.5;
  record.paper_potential = -2.25;
  record.welfare = 4.0;
  record.payoffs = {1.0, -0.5};
  record.profile = sample_profile();
  return record;
}

core::MechanismResult sample_mechanism() {
  core::MechanismResult result;
  result.scheme = core::Scheme::kCgbd;
  result.solution.profile = sample_profile();
  result.solution.trace = {sample_record()};
  result.solution.converged = true;
  result.solution.iterations = 5;
  result.solution.solve_seconds = 0.0625;
  result.solution.diagnostics = {{"gap", 0.001953125}};
  result.welfare = 3.5;
  result.potential = 1.25;
  result.paper_potential = -1.0;
  result.total_damage = 0.375;
  result.total_data_fraction = 1.25;
  result.performance = 0.8125;
  result.payoffs = {2.0, 1.5};
  result.redistribution = {{0.0, 0.5}, {-0.5, 0.0}};
  return result;
}

core::PropertyReport sample_properties() {
  core::PropertyReport report;
  report.individual_rationality = true;
  report.min_payoff = 1.5;
  report.budget_balance = true;
  report.redistribution_sum = 0.0;
  report.nash_equilibrium = false;
  report.max_unilateral_gain = 0.015625;
  report.computationally_efficient = true;
  report.iterations = 5;
  return report;
}

fl::FedAvgResult sample_training() {
  fl::FedAvgResult result;
  result.history = {sample_round()};
  result.final_accuracy = 0.875;
  result.final_loss = 0.5;
  result.total_contributed_samples = 40;
  result.final_weights = {0.5f, -1.25f};
  result.rounds_skipped = 1;
  result.total_dropped = 2;
  result.total_quarantined = 3;
  result.total_attacked = 4;
  result.total_rejected = 5;
  result.total_clipped = 6;
  result.client_influence = {0.25, 0.75};
  result.client_rejected = {0, 3};
  return result;
}

core::DeviationAudit sample_deviation() {
  core::DeviationAudit audit;
  audit.attacked = true;
  audit.analytic_accuracy = 0.875;
  audit.measured_accuracy = 0.75;
  audit.accuracy_ratio = 0.857421875;
  audit.attacked_updates = 3;
  audit.rejected_updates = 2;
  audit.clipped_updates = 1;
  audit.attacker_influence = 0.0625;
  audit.ir_empirical = true;
  audit.min_honest_payoff = 0.5;
  audit.bb_empirical = true;
  audit.redistribution_sum = 0.0;
  audit.ce_empirical = false;
  core::SiloDeviation silo;
  silo.silo = 1;
  silo.attack = "signflip";
  silo.truthful_payoff = 1.5;
  silo.empirical_payoff = 1.25;
  silo.payoff_gain = -0.25;
  silo.influence = 0.125;
  silo.rejected_share = 0.5;
  audit.silos = {silo};
  return audit;
}

SessionCheckpoint sample_session(bool populated) {
  SessionCheckpoint state;
  state.org_count = 2;
  state.seed = 5;
  state.scheme = static_cast<std::uint64_t>(core::Scheme::kCgbd);
  state.run_training = populated;
  state.aggregator = sample_aggregator();
  state.completed_phase = populated ? 5 : 1;
  SessionResult& result = state.result;
  result.mechanism = sample_mechanism();
  result.properties = sample_properties();
  if (populated) {
    result.training = sample_training();
    result.deviation = sample_deviation();
    result.degradations = {Degradation{"chain", "retried twice"}};
    state.has_chain = true;
    result.contract_address = Address::from_name("contract");
    state.chain_state = {1, 2, 3};
    state.call_index = 7;
    state.retry_sequence = 8;
    state.retry_attempts = 9;
    state.chain_ok = false;
    result.settlements_wei = {500, -500};
    result.settlement_sum = 0;
    result.max_settlement_gap = 0.000244140625;
    result.chain_valid = true;
    result.total_gas = 123456;
    result.blocks = 6;
    result.events = 11;
    result.settled = true;
    result.retry_attempts = 2;
  }
  return state;
}

// A 2-org TradeFL contract driven through registration, one deposit and one
// reverted call: receipts (both outcomes), events, balances and nonces.
struct SampleChain {
  chain::Blockchain chain;
  chain::Web3Client web3{chain};
  std::vector<Address> orgs = {Address::from_name("org-0"), Address::from_name("org-1")};
  Address contract;

  SampleChain() {
    chain::TradeFlContractConfig config;
    config.org_count = 2;
    config.gamma_scaled = chain::Fixed::from_double(5.12);
    config.lambda = chain::Fixed::from_double(2.0);
    config.rho = {chain::Fixed{}, chain::Fixed::from_double(0.05),
                  chain::Fixed::from_double(0.05), chain::Fixed{}};
    config.data_size_gb = {chain::Fixed::from_double(20.0), chain::Fixed::from_double(10.0)};
    config.min_deposit = 1000;
    contract = chain.deploy(std::make_unique<chain::TradeFlContract>(config));
    for (const Address& org : orgs) chain.credit(org, 5000);
    for (std::size_t i = 0; i < orgs.size(); ++i) {
      web3.call_or_throw(orgs[i], contract, "register", {orgs[i], std::uint64_t{i}});
    }
    web3.call_or_throw(orgs[0], contract, "depositSubmit", {}, 1000);
    const chain::CallOutcome reverted =
        web3.call(orgs[1], contract, "contributionSubmit",
                  {chain::Fixed::from_double(0.5), chain::Fixed::from_double(3.0)});
    EXPECT_FALSE(reverted.receipt.success);
  }
};

chain::Transaction sample_tx() {
  chain::Transaction tx;
  tx.from = Address::from_name("alice");
  tx.to = Address::from_name("bob");
  tx.value = -7;
  tx.nonce = 3;
  tx.data = {0xde, 0xad, 0xbe, 0xef};
  tx.gas_limit = 21000;
  tx.fee = 9;
  return tx;
}

std::vector<chain::AbiValue> sample_abi_values() {
  return {std::uint64_t{7},       std::int64_t{-3},
          std::string("memo"),    Address::from_name("carol"),
          Bytes{9, 8, 7},         chain::Fixed::from_raw(123456789)};
}

// ----- golden constants -----

constexpr const char* kFedAvgHex =
    "54464c53020000000900000000000000666c2e66656461766759010000000000000200000000000000030000"
    "0000000000070000000000000028000000000000000200000001000000000000000000000000000440020000"
    "000000000003000000000000000000003f0000a0bf0000404002000000000000000100000000000000020000"
    "0000000000030000000000000004000000000000000500000000000000060000000000000007000000000000"
    "00080000000000000001000000000000000200000000000000000000000000e83f000000000000e03f000000"
    "000000ec3f030000000000000001000000000000000100000000000000010200000000000000010000000000"
    "00000400000000000000000000000000c03f0100000000000000020000000000000003000000000000000400"
    "000000000000050000000000000006000000000000000200000000000000000000000000d03f000000000000"
    "e83f02000000000000000000000000000000030000000000000029f51c97";
constexpr std::uint32_t kFedAvgCrc = 0x971CF529u;
constexpr const char* kFedAsyncHex =
    "54464c53020000000b00000000000000666c2e6665646173796e631401000000000000020000000000000002"
    "0000000000000017000000000000000200000001000000000000000000000000000440040000000000000002"
    "000000000000000000803f000000bf020000000000000002000000000000000000803e0000003f0000000000"
    "0000000200000000000000030000000000000001000000000000000b000000000000000c000000000000000d"
    "000000000000000e0000000000000001000000000000000000000000000440000000000000f03f0100000000"
    "0000000100000000000000000000000000f83f0000000000000000000000000000e03f000000000000e43f04"
    "0000000000000001000000000000000200000000000000030000000000000004000000000000000500000000"
    "000000be406f09";
constexpr std::uint32_t kFedAsyncCrc = 0x096F40BEu;
constexpr const char* kGbdHex =
    "54464c53010000000800000000000000636f72652e67626480010000000000000200000000000000eeffc000"
    "000000000300000000000000020000000000000001000000000000000000000000000000000000000000f83f"
    "00000000000006400200000000000000000000000000d03f0100000000000000000000000000f03f00000000"
    "00000000040000000000000001000000000000000300000000000000000000000000f83f00000000000002c0"
    "00000000000010400200000000000000000000000000f03f000000000000e0bf020000000000000000000000"
    "0000d03f0100000000000000000000000000f03f00000000000000000100000000000000000000000000e03f"
    "02000000000000000200000000000000000000000000f03f0000000000000040020000000000000000000000"
    "0000f0bf000000000000d03f010000000000000001000000000000000200000000000000000000000000c03f"
    "000000000000e0bf020000000000000002000000000000000000000000000000010000000000000002000000"
    "00000000010000000000000001000000000000008c154a6f";
constexpr std::uint32_t kGbdCrc = 0x6F4A158Cu;
constexpr const char* kSessionHex =
    "54464c53020000000f000000000000007472616465666c2e73657373696f6ed1030000000000000200000000"
    "0000000500000000000000000000000000000001020000000100000000000000000000000000044005000000"
    "0000000000000000000000000200000000000000000000000000d03f0100000000000000000000000000f03f"
    "000000000000000001000000000000000300000000000000000000000000f83f00000000000002c000000000"
    "000010400200000000000000000000000000f03f000000000000e0bf0200000000000000000000000000d03f"
    "0100000000000000000000000000f03f0000000000000000010500000000000000000000000000b03f010000"
    "00000000000300000000000000676170000000000000603f0000000000000c40000000000000f43f00000000"
    "0000f0bf000000000000d83f000000000000f43f000000000000ea3f02000000000000000000000000000040"
    "000000000000f83f020000000000000002000000000000000000000000000000000000000000e03f02000000"
    "00000000000000000000e0bf000000000000000001000000000000f83f010000000000000000000000000000"
    "00903f0105000000000000000101000000000000000200000000000000000000000000e83f000000000000e0"
    "3f000000000000ec3f0300000000000000010000000000000001000000000000000102000000000000000100"
    "0000000000000400000000000000000000000000c03f000000000000ec3f000000000000e03f280000000000"
    "000002000000000000000000003f0000a0bf0100000000000000020000000000000003000000000000000400"
    "000000000000050000000000000006000000000000000200000000000000000000000000d03f000000000000"
    "e83f0200000000000000000000000000000003000000000000000101000000000000ec3f000000000000e83f"
    "000000000070eb3f030000000000000002000000000000000100000000000000000000000000b03f01000000"
    "000000e03f010000000000000000000100000000000000010000000000000008000000000000007369676e66"
    "6c6970000000000000f83f000000000000f43f000000000000d0bf000000000000c03f000000000000e03f01"
    "000000000000000500000000000000636861696e0d0000000000000072657472696564207477696365011400"
    "00000000000068adcdc5eb12190431f92cd42e04cc4127a155a8030000000000000001020307000000000000"
    "0008000000000000000900000000000000000200000000000000f4010000000000000cfeffffffffffff0000"
    "000000000000000000000000303f0140e201000000000006000000000000000b000000000000000102000000"
    "000000007a909015";
constexpr std::uint32_t kSessionCrc = 0x1590907Au;
constexpr const char* kSessionMinimalHex =
    "54464c53020000000f000000000000007472616465666c2e73657373696f6ee2010000000000000200000000"
    "0000000500000000000000000000000000000000020000000100000000000000000000000000044001000000"
    "0000000000000000000000000200000000000000000000000000d03f0100000000000000000000000000f03f"
    "000000000000000001000000000000000300000000000000000000000000f83f00000000000002c000000000"
    "000010400200000000000000000000000000f03f000000000000e0bf0200000000000000000000000000d03f"
    "0100000000000000000000000000f03f0000000000000000010500000000000000000000000000b03f010000"
    "00000000000300000000000000676170000000000000603f0000000000000c40000000000000f43f00000000"
    "0000f0bf000000000000d83f000000000000f43f000000000000ea3f02000000000000000000000000000040"
    "000000000000f83f020000000000000002000000000000000000000000000000000000000000e03f02000000"
    "00000000000000000000e0bf000000000000000001000000000000f83f010000000000000000000000000000"
    "00903f0105000000000000000000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000000000000000000000000d717aa61";
constexpr std::uint32_t kSessionMinimalCrc = 0x61AA17D7u;
constexpr const char* kRegistryHex =
    "54464c530100000017000000000000007472616465666c2e7365727665722e72656769737472797000000000"
    "000000040000000000000003000000000000000100000000000000010e000000000000006f7267733d330a73"
    "6565643d350a010000000000000002000000000000000207000000000000006f7267733d340a020000000000"
    "000003000000000000000000000000000000000000000000000000197385af";
constexpr std::uint32_t kRegistryCrc = 0xAF857319u;
constexpr const char* kChainStateHex =
    "54464c53010000000b00000000000000636861696e2e7374617465ab07000000000000a30700000000000002"
    "00000003000000000000001400000022455fb35bda42bb1d4ebaa1e0c2ff7dad178b55a00f00000000000014"
    "00000084c33a9dcb7b4d1a6dbe6fd7341e513430df791a881300000000000014000000f73e2fab31095ffab8"
    "e490228946962a579b0c49e803000000000000010000000000000014000000f73e2fab31095ffab8e4902289"
    "46962a579b0c49070000005472616465464c8200000000000100000000000000020000001400000022455fb3"
    "5bda42bb1d4ebaa1e0c2ff7dad178b5501e80300000000000000000000000000000000000000000000000000"
    "0000000000001400000084c33a9dcb7b4d1a6dbe6fd7341e513430df791a0100000000000000000000000000"
    "000000000000000000000000000000000000000002000000000000001400000022455fb35bda42bb1d4ebaa1"
    "e0c2ff7dad178b5502000000000000001400000084c33a9dcb7b4d1a6dbe6fd7341e513430df791a02000000"
    "0000000005000000000000006000000000000000000000000000000000000000200000000000000000000000"
    "0000000000000000000000000000000000000000000000002000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000e600000001000000000000000100000000000000"
    "20000000860ba0c7a7aecd275b13e29bc73ef78fe7f0541238730c8d2a0eedc52d1342d22000000035221a6e"
    "0d3b0fd194ef7204ff7b617cc498428faa5ea6971293d41d4bad974101000000000000001400000022455fb3"
    "5bda42bb1d4ebaa1e0c2ff7dad178b5514000000f73e2fab31095ffab8e490228946962a579b0c4900000000"
    "0000000000000000000000003200000008000000726567697374657202000000041400000022455fb35bda42"
    "bb1d4ebaa1e0c2ff7dad178b5501000000000000000080969800000000000000000000000000e60000000200"
    "00000000000002000000000000002000000039cf9af671ee89cc0ed5d6ce875dc9ba7f02350409ea94ff8c7a"
    "ab6bf69e630120000000d65a12a9fc4c9a50cc76f7d66eb68d36fcb418571c2a518cb76e3d4e0b2a5fa50100"
    "0000000000001400000084c33a9dcb7b4d1a6dbe6fd7341e513430df791a14000000f73e2fab31095ffab8e4"
    "90228946962a579b0c4900000000000000000000000000000000320000000800000072656769737465720200"
    "0000041400000084c33a9dcb7b4d1a6dbe6fd7341e513430df791a0101000000000000008096980000000000"
    "0000000000000000c9000000030000000000000003000000000000002000000019aaed656d9d630c1ce6ffe2"
    "4f5af0a6fd2893609f75dba9bfad9d94d5a14b0520000000743a2c6c37d14c9f08c9964952f48286df743772"
    "700ef98819fe01c448cd235d01000000000000001400000022455fb35bda42bb1d4ebaa1e0c2ff7dad178b55"
    "14000000f73e2fab31095ffab8e490228946962a579b0c49e803000000000000010000000000000015000000"
    "0d0000006465706f7369745375626d69740000000080969800000000000000000000000000e0000000040000"
    "0000000000040000000000000020000000fedda47d491010c467a59858b51a0b3cfe8073461524cfa3721b77"
    "98770a3e162000000099b79d2190ca4cd3a435e5cae662b428a773879b39a1ac10875941d236b09648010000"
    "00000000001400000084c33a9dcb7b4d1a6dbe6fd7341e513430df791a14000000f73e2fab31095ffab8e490"
    "228946962a579b0c49000000000000000001000000000000002c00000012000000636f6e747269627574696f"
    "6e5375626d697402000000060065cd1d0000000006005ed0b200000000809698000000000000000000000000"
    "0004000000000000002000000035221a6e0d3b0fd194ef7204ff7b617cc498428faa5ea6971293d41d4bad97"
    "410100000000276a0000000000000400000000000000010000000000000020000000d65a12a9fc4c9a50cc76"
    "f7d66eb68d36fcb418571c2a518cb76e3d4e0b2a5fa50100000000276a000000000000040000000000000002"
    "0000000000000020000000743a2c6c37d14c9f08c9964952f48286df743772700ef98819fe01c448cd235d01"
    "0000000057680000000000000d0000000100000002e80300000000000003000000000000002000000099b79d"
    "2190ca4cd3a435e5cae662b428a773879b39a1ac10875941d236b096480016000000636f6e74726962757469"
    "6f6e73206e6f74206f70656ec854000000000000000000000400000000000000030000000000000014000000"
    "f73e2fab31095ffab8e490228946962a579b0c490a0000005265676973746572656426000000020000000414"
    "00000022455fb35bda42bb1d4ebaa1e0c2ff7dad178b55010000000000000000010000000000000014000000"
    "f73e2fab31095ffab8e490228946962a579b0c490a0000005265676973746572656426000000020000000414"
    "00000084c33a9dcb7b4d1a6dbe6fd7341e513430df791a010100000000000000020000000000000014000000"
    "f73e2fab31095ffab8e490228946962a579b0c49100000004465706f7369745375626d697474656426000000"
    "02000000041400000022455fb35bda42bb1d4ebaa1e0c2ff7dad178b5502e803000000000000030000000000"
    "0000010000000000000005000000000000000b1d3247";
constexpr std::uint32_t kChainStateCrc = 0x47321D0Bu;
constexpr const char* kWalFrameHex =
    "4654574cb40000000100000000000000010000000000000020000000860ba0c7a7aecd275b13e29bc73ef78f"
    "e7f0541238730c8d2a0eedc52d1342d220000000270ee606f9cf3d200fb526020fb8a0e67d4112bab48b2f26"
    "ad3b0804d985a040010000000000000014000000d2a1db510e3d394fb78fc1764bea9ba9e988875514000000"
    "3dc06d9286e4fffe28956be0068a2d408da40873190000000000000000000000000000000000000080969800"
    "0000000000000000000000002043fe76";
constexpr std::uint32_t kWalFrameCrc = 0xF9AEDF1Cu;
constexpr const char* kContractStateHex =
    "00000100000000000000020000001400000022455fb35bda42bb1d4ebaa1e0c2ff7dad178b5501e803000000"
    "000000000000000000000000000000000000000000000000000000001400000084c33a9dcb7b4d1a6dbe6fd7"
    "341e513430df791a01000000000000000000000000000000000000000000000000000000000000000000";
constexpr std::uint32_t kContractStateCrc = 0x1CDCB593u;
constexpr const char* kTxPreimageHex =
    "14000000d2a1db510e3d394fb78fc1764bea9ba9e9888755140000003dc06d9286e4fffe28956be0068a2d40"
    "8da40873f9ffffffffffffff030000000000000004000000deadbeef08520000000000000900000000000000";
constexpr std::uint32_t kTxPreimageCrc = 0xB710730Eu;
constexpr const char* kHeaderPreimageHex =
    "040000000000000009000000000000002000000084fd9bac333ad79154348296204fa7f8c537a96e08983e5f"
    "73b3f5aca8e8edf7200000004813494d137e1631bba301d5acab6e7bb7aa74ce1185d456565ef51d737677b2";
constexpr std::uint32_t kHeaderPreimageCrc = 0x52175653u;
constexpr const char* kCallHex =
    "12000000636f6e747269627574696f6e5375626d69740600000001070000000000000002fdffffffffffffff"
    "03040000006d656d6f0414000000209f437d29682fbebcbe7c408bafb1acc52203c105030000000908070615"
    "cd5b0700000000";
constexpr std::uint32_t kCallCrc = 0x688727C4u;
constexpr const char* kValuesHex =
    "0600000001070000000000000002fdffffffffffffff03040000006d656d6f0414000000209f437d29682fbe"
    "bcbe7c408bafb1acc52203c105030000000908070615cd5b0700000000";
constexpr std::uint32_t kValuesCrc = 0xA28DDFDAu;

// ----- cases -----

TEST(GoldenBytes, FedAvgCheckpoint) {
  fl::FedAvgCheckpoint state;
  state.client_count = 2;
  state.weight_count = 3;
  state.shuffle_seed = 7;
  state.contributed_samples = 40;
  state.aggregator = sample_aggregator();
  state.round_completed = 2;
  state.global_weights = {0.5f, -1.25f, 3.0f};
  state.rng_states = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  state.history = {sample_round()};
  state.rounds_skipped = 1;
  state.total_dropped = 2;
  state.total_quarantined = 3;
  state.total_attacked = 4;
  state.total_rejected = 5;
  state.total_clipped = 6;
  state.influence_sums = {0.25, 0.75};
  state.client_rejected = {0, 3};
  const std::string path = temp_path("fedavg.snap");
  ASSERT_TRUE(fl::write_fedavg_checkpoint(path, state).ok());
  expect_golden_file(path, kFedAvgHex, kFedAvgCrc);
  ASSERT_TRUE(fl::read_fedavg_checkpoint(path).ok());
}

TEST(GoldenBytes, FedAsyncCheckpoint) {
  fl::FedAsyncCheckpoint state;
  state.client_count = 2;
  state.weight_count = 2;
  state.shuffle_seed = 23;
  state.aggregator = sample_aggregator();
  state.events_processed = 4;
  state.global_weights = {1.0f, -0.5f};
  state.pulled = {{0.25f, 0.5f}, {}};
  state.update_counts = {3, 1};
  state.shuffle_rng = {11, 12, 13, 14};
  state.queue = {fl::PendingUpdate{2.5, 1.0, 1}};
  state.partial.merges = {fl::AsyncMerge{1.5, 0, 0.5, 0.625}};
  state.partial.total_updates = 4;
  state.partial.total_dropped = 1;
  state.partial.total_quarantined = 2;
  state.partial.total_delayed = 3;
  state.partial.total_attacked = 4;
  state.partial.total_clipped = 5;
  const std::string path = temp_path("fedasync.snap");
  ASSERT_TRUE(fl::write_fedasync_checkpoint(path, state).ok());
  expect_golden_file(path, kFedAsyncHex, kFedAsyncCrc);
  ASSERT_TRUE(fl::read_fedasync_checkpoint(path).ok());
}

TEST(GoldenBytes, GbdCheckpoint) {
  core::GbdCheckpoint state;
  state.org_count = 2;
  state.level_fingerprint = 0xC0FFEE;
  state.iteration_completed = 3;
  state.freq = {1, 0};
  state.lower_bound = 1.5;
  state.upper_bound = 2.75;
  state.incumbent = sample_profile();
  state.total_tuples = 4;
  state.trace = {sample_record()};
  state.optimality_cuts = {core::OptimalityCut{0.5, {{1.0, 2.0}, {-1.0, 0.25}}}};
  state.feasibility_cuts = {core::FeasibilityCut{1, {0.125, -0.5}}};
  state.visited = {{0, 1}, {1, 1}};
  const std::string path = temp_path("cgbd.snap");
  ASSERT_TRUE(core::write_gbd_checkpoint(path, state).ok());
  expect_golden_file(path, kGbdHex, kGbdCrc);
  ASSERT_TRUE(core::read_gbd_checkpoint(path).ok());
}

TEST(GoldenBytes, SessionCheckpointWithTrainingDeviationAndChain) {
  const std::string path = temp_path("session.snap");
  ASSERT_TRUE(write_session_checkpoint(path, sample_session(true)).ok());
  expect_golden_file(path, kSessionHex, kSessionCrc);
  ASSERT_TRUE(read_session_checkpoint(path).ok());
}

TEST(GoldenBytes, SessionCheckpointWithoutOptionalParts) {
  const std::string path = temp_path("session_minimal.snap");
  ASSERT_TRUE(write_session_checkpoint(path, sample_session(false)).ok());
  expect_golden_file(path, kSessionMinimalHex, kSessionMinimalCrc);
  ASSERT_TRUE(read_session_checkpoint(path).ok());
}

TEST(GoldenBytes, ServerRegistry) {
  server::Registry registry;
  registry.next_session_id = 4;
  registry.entries = {
      server::RegistryEntry{1, server::SessionState::kDone, "orgs=3\nseed=5\n", 1},
      server::RegistryEntry{2, server::SessionState::kFailed, "orgs=4\n", 2},
      server::RegistryEntry{3, server::SessionState::kPending, "", 0}};
  const std::string path = temp_path("registry.snap");
  ASSERT_TRUE(server::save_registry(path, registry).ok());
  expect_golden_file(path, kRegistryHex, kRegistryCrc);
  ASSERT_TRUE(server::load_registry(path).ok());
}

TEST(GoldenBytes, ChainStateSnapshot) {
  SampleChain sample;
  const std::string path = temp_path("chain.snap");
  ASSERT_TRUE(sample.chain.save_snapshot(path).ok());
  expect_golden_file(path, kChainStateHex, kChainStateCrc);
}

TEST(GoldenBytes, WalFrame) {
  chain::Blockchain chain;
  const std::string path = temp_path("chain.wal");
  ASSERT_TRUE(chain.attach_wal(path).ok());
  chain::Web3Client web3(chain);
  chain.credit(Address::from_name("alice"), 100);
  ASSERT_TRUE(web3.transfer(Address::from_name("alice"), Address::from_name("bob"), 25).success);
  expect_golden_file(path, kWalFrameHex, kWalFrameCrc);
}

TEST(GoldenBytes, ContractState) {
  SampleChain sample;
  expect_golden(sample.chain.contract_at(sample.contract).save_state(), kContractStateHex,
                kContractStateCrc);
}

TEST(GoldenBytes, TransactionHashPreimage) {
  const chain::Transaction tx = sample_tx();
  expect_golden(tx.serialize(), kTxPreimageHex, kTxPreimageCrc);
  EXPECT_EQ(tx.hash(), chain::sha256(tx.serialize()));
}

TEST(GoldenBytes, BlockHeaderHashPreimage) {
  chain::BlockHeader header;
  header.index = 4;
  header.timestamp = 9;
  header.prev_hash = chain::sha256("prev");
  header.tx_root = chain::sha256("root");
  expect_golden(header.serialize(), kHeaderPreimageHex, kHeaderPreimageCrc);
  EXPECT_EQ(header.hash(), chain::sha256(header.serialize()));
}

TEST(GoldenBytes, AbiCallAndValues) {
  expect_golden(chain::encode_call(chain::CallPayload{"contributionSubmit", sample_abi_values()}),
                kCallHex, kCallCrc);
  expect_golden(chain::encode_values(sample_abi_values()), kValuesHex, kValuesCrc);
}

}  // namespace
}  // namespace tradefl
