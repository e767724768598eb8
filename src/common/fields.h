// Symmetric field codecs. Every persisted struct states its wire layout once:
//
//   template <class Io, FieldsOf<RoundMetrics> Self>
//   void fields(Io& io, Self& metrics) {
//     io.u64(metrics.round);
//     io.f64(metrics.train_loss);
//     io.seq(metrics.history);   // u64 count, then each element
//   }
//
// The same function drives the writer (Self = const T) and the reader
// (Self = T), so field order and encoding live in exactly one place and the
// two directions cannot drift apart.
//
// Two byte families implement the verbs through the mixins below, each with
// its own length-prefix width and error type:
//   * snapshots — SnapshotWriter/SnapshotReader (u64 prefixes, SnapshotError);
//   * chain bytes — ByteWriter/ByteReader (u32 prefixes, std::invalid_argument
//     or std::out_of_range); tx and block hashes are taken over these bytes.
//
// Verbs:
//   u8 u32 u64 i64    integers and enums; `io.u8(e, Enum::kLast)` (u8, u32,
//                     u64) rejects a decoded value above kLast
//   boolean f32 f64   bool is one byte that must be 0 or 1; floats travel as
//                     their IEEE-754 bit patterns
//   string bytes      length-prefixed blobs
//   fixed             std::array<uint8_t, N> as a blob whose length must be N
//   seq               vector/set/map: u64 count, then each element; the reader
//                     rejects a count larger than the bytes left before it
//                     reserves anything
//   optional          bool prefix, then the value
//   encoded           a value kept in a hand-written codec (the ABI), as a blob
//
// Elements of seq and optional pick their verb by type: bool, float, double,
// int64, uint64, strings, byte vectors, nested containers, pairs (first then
// second), std::array (its N elements, no prefix) and any struct with a
// fields() of its own, found by argument-dependent lookup.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace tradefl {

/// `Self` is T or const T: the reader passes the one, the writer the other.
template <class Self, class T>
concept FieldsOf = std::same_as<std::remove_const_t<Self>, T>;

template <class T>
concept FieldInteger = std::integral<T> || std::is_enum_v<T>;

namespace field_detail {

template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

template <class C>
concept Container = requires(C& c) {
  typename C::value_type;
  c.begin();
  c.size();
};

/// What a decoded element is built as before insertion (a map's value_type
/// has a const key).
template <class C>
struct Element {
  using type = typename C::value_type;
};
template <class K, class V, class... Rest>
struct Element<std::map<K, V, Rest...>> {
  using type = std::pair<K, V>;
};

template <class Io, class T>
void item(Io& io, T& value) {
  using V = std::remove_const_t<T>;
  if constexpr (std::is_same_v<V, bool>) {
    io.boolean(value);
  } else if constexpr (std::is_same_v<V, float>) {
    io.f32(value);
  } else if constexpr (std::is_same_v<V, double>) {
    io.f64(value);
  } else if constexpr (std::is_same_v<V, std::int64_t>) {
    io.i64(value);
  } else if constexpr (std::is_same_v<V, std::uint64_t>) {
    io.u64(value);
  } else if constexpr (std::is_same_v<V, std::string>) {
    io.string(value);
  } else if constexpr (std::is_same_v<V, std::vector<std::uint8_t>>) {
    io.bytes(value);
  } else if constexpr (kIsPair<V>) {
    item(io, value.first);
    item(io, value.second);
  } else if constexpr (kIsArray<V>) {
    for (auto& element : value) item(io, element);
  } else if constexpr (Container<V>) {
    io.seq(value);
  } else {
    fields(io, value);
  }
}

}  // namespace field_detail

/// Writer verbs over the family's put_* primitives.
template <class Io>
class FieldWriter {
 public:
  template <FieldInteger T>
  void u8(T value, T /*last*/ = {}) { io().put_u8(static_cast<std::uint8_t>(value)); }
  template <FieldInteger T>
  void u32(T value, T /*last*/ = {}) { io().put_u32(static_cast<std::uint32_t>(value)); }
  template <FieldInteger T>
  void u64(T value, T /*last*/ = {}) { io().put_u64(static_cast<std::uint64_t>(value)); }
  template <FieldInteger T>
  void i64(T value) { io().put_i64(static_cast<std::int64_t>(value)); }
  void boolean(bool value) { io().put_bool(value); }
  void f32(float value) { io().put_f32(value); }
  void f64(double value) { io().put_f64(value); }
  void string(const std::string& value) { io().put_string(value); }
  void bytes(const std::vector<std::uint8_t>& value) { io().put_bytes(value); }
  template <std::size_t N>
  void fixed(const std::array<std::uint8_t, N>& value) { io().put_bytes(value.data(), N); }

  template <class C>
  void seq(const C& container) {
    seq(container, [](Io& out, const auto& element) { field_detail::item(out, element); });
  }
  /// Same framing, with `each(io, element)` coding every element.
  template <class C, class Each>
  void seq(const C& container, Each each) {
    io().put_u64(static_cast<std::uint64_t>(container.size()));
    for (const auto& element : container) each(io(), element);
  }

  template <class T>
  void optional(const std::optional<T>& value) {
    boolean(value.has_value());
    if (value.has_value()) field_detail::item(io(), *value);
  }

  template <class T, class Encode, class Decode>
  void encoded(const T& value, Encode encode, Decode /*decode*/) { io().put_bytes(encode(value)); }

 private:
  Io& io() { return static_cast<Io&>(*this); }
};

/// Reader verbs over the family's get_* primitives; every malformed field
/// throws the family's error through Io::fail.
template <class Io>
class FieldReader {
 public:
  template <FieldInteger T>
  void u8(T& value) { value = static_cast<T>(io().get_u8()); }
  template <FieldInteger T>
  void u8(T& value, T last) { value = bounded(io().get_u8(), last); }
  template <FieldInteger T>
  void u32(T& value) { value = static_cast<T>(io().get_u32()); }
  template <FieldInteger T>
  void u32(T& value, T last) { value = bounded(io().get_u32(), last); }
  template <FieldInteger T>
  void u64(T& value) { value = static_cast<T>(io().get_u64()); }
  template <FieldInteger T>
  void u64(T& value, T last) { value = bounded(io().get_u64(), last); }
  template <FieldInteger T>
  void i64(T& value) { value = static_cast<T>(io().get_i64()); }
  void boolean(bool& value) { value = io().get_bool(); }
  void f32(float& value) { value = io().get_f32(); }
  void f64(double& value) { value = io().get_f64(); }
  void string(std::string& value) { value = io().get_string(); }
  void bytes(std::vector<std::uint8_t>& value) { value = io().get_bytes(); }
  template <std::size_t N>
  void fixed(std::array<std::uint8_t, N>& value) {
    const std::vector<std::uint8_t> raw = io().get_bytes();
    if (raw.size() != N) {
      io().fail("fixed field holds " + std::to_string(raw.size()) + " bytes, expected " +
                std::to_string(N));
    }
    std::copy(raw.begin(), raw.end(), value.begin());
  }

  template <class C>
  void seq(C& container) {
    seq(container, [](Io& in, auto& element) { field_detail::item(in, element); });
  }
  template <class C, class Each>
  void seq(C& container, Each each) {
    const std::uint64_t count = io().get_u64();
    // Every element occupies at least one byte, so a larger count is
    // corruption; checking before reserve() keeps a hostile count from
    // allocating.
    if (count > io().remaining()) {
      io().fail("sequence count " + std::to_string(count) + " exceeds the " +
                std::to_string(io().remaining()) + " bytes left");
    }
    container.clear();
    if constexpr (requires { container.reserve(std::size_t{}); }) {
      container.reserve(static_cast<std::size_t>(count));
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      typename field_detail::Element<C>::type element{};
      each(io(), element);
      container.insert(container.end(), std::move(element));
    }
  }

  template <class T>
  void optional(std::optional<T>& value) {
    if (!io().get_bool()) {
      value.reset();
      return;
    }
    T decoded{};
    field_detail::item(io(), decoded);
    value = std::move(decoded);
  }

  template <class T, class Encode, class Decode>
  void encoded(T& value, Encode /*encode*/, Decode decode) { value = decode(io().get_bytes()); }

 private:
  template <class T, class Wire>
  T bounded(Wire raw, T last) {
    if (raw > static_cast<Wire>(last)) {
      io().fail("enum value " + std::to_string(raw) + " exceeds " +
                std::to_string(static_cast<Wire>(last)));
    }
    return static_cast<T>(raw);
  }

  Io& io() { return static_cast<Io&>(*this); }
};

}  // namespace tradefl
