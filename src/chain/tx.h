// Accounts, addresses, and transactions of the in-process Ethereum-like
// chain. Wei is a plain int64 (the simulation's money supply fits easily);
// contract calls carry an ABI-encoded payload in `data`.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "chain/bytes.h"
#include "chain/sha256.h"

namespace tradefl::chain {

using Wei = std::int64_t;

/// 20-byte account identifier, derived like Ethereum's: trailing bytes of a
/// hash of the owner's public name/key material.
struct Address {
  std::array<std::uint8_t, 20> bytes{};

  [[nodiscard]] static Address from_name(const std::string& name);
  [[nodiscard]] static Address zero() { return Address{}; }

  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] bool is_zero() const;

  auto operator<=>(const Address&) const = default;
};

/// A 20-byte blob whose reader checks the exact length.
template <class Io, FieldsOf<Address> Self>
void fields(Io& io, Self& address) {
  io.fixed(address.bytes);
}

struct Transaction {
  Address from;
  Address to;            // zero address = contract deployment
  Wei value = 0;
  std::uint64_t nonce = 0;
  Bytes data;            // ABI-encoded call: method + arguments
  std::uint64_t gas_limit = 10'000'000;
  /// Priority fee: orders the mempool (higher seals earlier within a nonce
  /// rank), is part of the signed/hashed bytes, but is never charged — the
  /// simulation's economics live in the contract, not in gas auctions.
  Wei fee = 0;

  /// The hash preimage: exactly the bytes the chain persists for this
  /// transaction (see fields below).
  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] Hash256 hash() const;
};

template <class Io, FieldsOf<Transaction> Self>
void fields(Io& io, Self& tx) {
  fields(io, tx.from);
  fields(io, tx.to);
  io.i64(tx.value);
  io.u64(tx.nonce);
  io.bytes(tx.data);
  io.u64(tx.gas_limit);
  io.i64(tx.fee);
}

/// Execution outcome recorded on-chain next to the transaction.
struct Receipt {
  Hash256 tx_hash{};
  bool success = false;
  std::string revert_reason;
  std::uint64_t gas_used = 0;
  Bytes return_data;
  std::uint64_t block_index = 0;
};

}  // namespace tradefl::chain
