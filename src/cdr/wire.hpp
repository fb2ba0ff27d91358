// Declarative codec for the fixed-format wire and snapshot types.
//
// The BFT layer, SMIOP, batches and every replicated snapshot share one
// format: CDR primitives in little-endian order, aligned from the start of
// the encapsulation. (GIOP marshals in the sender's byte order by design,
// §3.6, and keeps its own codec in giop.cpp.) A type opts in by naming its
// fields once, in wire order:
//
//   struct CheckpointMsg {
//     SeqNum seq;
//     Digest state_digest{};
//     NodeId replica;
//     static auto wire_fields(auto& m) {
//       return wire::fields(m.seq, m.state_digest, m.replica);
//     }
//   };
//
// and wire::encode / wire::decode follow from the list. Field kinds:
//
//   bool, std::uint8_t, uint8 enums   one octet (a bool must be 0 or 1)
//   std::uint32_t, (u)int64_t         aligned CDR integers
//   strong ids (NodeId, SeqNum, ...)  their .value as a uint64
//   std::array<std::uint8_t, N>       N raw bytes (digests, MACs, signatures)
//   Bytes, BufView                    uint32 length + bytes; a BufView
//                                     decodes as a zero-copy sub-view
//   std::string                       CDR string (length includes the NUL)
//   std::optional<T>                  presence octet, then T
//   std::pair, std::tuple             their members in order
//   std::vector, std::map, std::set   uint32 count, then the elements
//   wire::capped<N>(v)                the same, but a count above N is
//                                     rejected before anything is sized
//   std::variant<A, B, ...>           octet (alternative index + 1), then it
//   wire::tag<V>                      the fixed octet V
//   wire::encap(x), encap_each(v)     x's own encoding as a length-prefixed
//                                     encapsulation (per element of v)
//   a type with wire_fields           its fields, inline
//
// Decoding is hostile-input-safe by construction rather than by hand-placed
// guards: every count is checked against the bytes left (count times the
// element's minimum wire size) before anything is sized from it, trailing
// bytes and nonzero alignment padding are rejected, a tag must match, and
// map/set keys must be strictly increasing. The encoder never emits
// duplicate or unordered keys, so every accepted input re-encodes to the
// same bytes. Semantic checks that are not about layout live in the type's
// `Status validate() const`, which runs as soon as that type's fields have
// decoded, at whatever depth it is nested.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "cdr/codec.hpp"
#include "common/ids.hpp"

namespace itdos::wire {

inline constexpr cdr::ByteOrder kOrder = cdr::ByteOrder::kLittleEndian;

/// A fixed kind-tag octet; decoding rejects any other value.
template <auto V>
struct Tag {
  static constexpr auto value = V;
};
template <auto V>
inline constexpr Tag<V> tag{};

/// A nested message carried as its own length-prefixed encapsulation.
template <typename T>
struct Encap {
  T& value;
};
template <typename T>
Encap<T> encap(T& value) {
  return {value};
}

/// A counted sequence whose every element is its own encapsulation.
template <typename T>
struct EncapEach {
  T& values;
};
template <typename T>
EncapEach<T> encap_each(T& values) {
  return {values};
}

/// A counted sequence of at most N elements.
template <std::uint32_t N, typename T>
struct Capped {
  static constexpr std::uint32_t kMax = N;
  T& values;
};
template <std::uint32_t N, typename T>
Capped<N, T> capped(T& values) {
  return {values};
}

/// Builds a field list: lvalue fields are held by reference (so one list
/// serves both directions), wrappers and computed values by value.
template <typename... F>
auto fields(F&&... f) {
  return std::tuple<F...>(std::forward<F>(f)...);
}

/// The by-value counterpart of a field list, for transactional restores:
/// decode into it, check, then move-assign through the reference list.
template <typename Tuple>
struct ValuesOf;
template <typename... F>
struct ValuesOf<std::tuple<F...>> {
  using type = std::tuple<std::remove_cvref_t<F>...>;
};
template <typename Tuple>
using Values = typename ValuesOf<Tuple>::type;

namespace impl {

template <typename T, template <typename...> class Tmpl>
inline constexpr bool is_a = false;
template <template <typename...> class Tmpl, typename... A>
inline constexpr bool is_a<Tmpl<A...>, Tmpl> = true;

template <typename T>
inline constexpr bool is_byte_array = false;
template <std::size_t N>
inline constexpr bool is_byte_array<std::array<std::uint8_t, N>> = true;

template <typename T>
inline constexpr bool is_tag = false;
template <auto V>
inline constexpr bool is_tag<Tag<V>> = true;

template <typename T>
inline constexpr bool is_sequence =
    is_a<T, std::vector> || is_a<T, std::set> || is_a<T, std::map>;

template <typename T>
inline constexpr bool is_capped = false;
template <std::uint32_t N, typename T>
inline constexpr bool is_capped<Capped<N, T>> = true;

template <typename T>
inline constexpr bool is_counted = std::is_same_v<T, Bytes> || std::is_same_v<T, BufView> ||
                                   is_sequence<T> || is_capped<T> || is_a<T, Encap> ||
                                   is_a<T, EncapEach>;

/// What one element of a sequence decodes into (map keys are not const).
template <typename T>
struct ElementOf {
  using type = typename T::value_type;
};
template <typename K, typename V, typename C, typename A>
struct ElementOf<std::map<K, V, C, A>> {
  using type = std::pair<K, V>;
};
template <typename T>
using Element = typename ElementOf<T>::type;

/// Lower bound on an encoding's size (alignment padding only adds to it).
template <typename T>
constexpr std::size_t min_size() {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t> ||
                std::is_enum_v<T> || is_tag<T> || is_a<T, std::optional> ||
                is_a<T, std::variant>) {
    return 1;
  } else if constexpr (std::is_same_v<T, std::uint32_t> || is_counted<T>) {
    return 4;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return 5;
  } else if constexpr (std::is_same_v<T, std::uint64_t> || std::is_same_v<T, std::int64_t> ||
                       is_a<T, itdos::detail::StrongId>) {
    return 8;
  } else if constexpr (is_byte_array<T>) {
    return std::tuple_size_v<T>;
  } else if constexpr (is_a<T, std::pair> || is_a<T, std::tuple>) {
    return []<template <typename...> class Tuple, typename... E>(
               std::type_identity<Tuple<E...>>) {
      return (std::size_t{0} + ... + min_size<std::remove_cvref_t<E>>());
    }(std::type_identity<T>{});
  } else {
    return min_size<Values<decltype(T::wire_fields(std::declval<T&>()))>>();
  }
}

}  // namespace impl

/// The one hostile-count guard: a count above the sequence's cap, or whose
/// elements cannot fit in the bytes left, is rejected before anything is
/// allocated or looped over.
inline Status check_count(const cdr::Decoder& dec, std::uint32_t count,
                          std::size_t min_element_size, std::uint32_t max_count) {
  if (count > max_count ||
      static_cast<std::uint64_t>(count) * min_element_size > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile element count");
  }
  return Status::ok();
}

template <typename T>
Bytes encode(const T& value);
template <typename Data, typename T>
Status decode_into(const Data& data, T&& out);

template <typename T>
void put(cdr::Encoder& enc, const T& v) {
  using impl::is_a;
  if constexpr (std::is_same_v<T, bool>) {
    enc.write_boolean(v);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    enc.write_octet(v);
  } else if constexpr (std::is_enum_v<T>) {
    put(enc, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    enc.write_uint32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    enc.write_uint64(v);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    enc.write_int64(v);
  } else if constexpr (is_a<T, itdos::detail::StrongId>) {
    enc.write_uint64(v.value);
  } else if constexpr (impl::is_byte_array<T>) {
    enc.write_raw(ByteView(v.data(), v.size()));
  } else if constexpr (std::is_same_v<T, Bytes> || std::is_same_v<T, BufView>) {
    enc.write_bytes(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    enc.write_string(v);
  } else if constexpr (impl::is_tag<T>) {
    put(enc, T::value);
  } else if constexpr (is_a<T, std::optional>) {
    enc.write_boolean(v.has_value());
    if (v) put(enc, *v);
  } else if constexpr (is_a<T, std::variant>) {
    enc.write_octet(static_cast<std::uint8_t>(v.index() + 1));
    std::visit([&](const auto& alternative) { put(enc, alternative); }, v);
  } else if constexpr (is_a<T, std::pair> || is_a<T, std::tuple>) {
    std::apply([&](const auto&... field) { (put(enc, field), ...); }, v);
  } else if constexpr (is_a<T, Encap>) {
    enc.write_bytes(encode(v.value));
  } else if constexpr (is_a<T, EncapEach>) {
    enc.write_uint32(static_cast<std::uint32_t>(v.values.size()));
    for (const auto& element : v.values) enc.write_bytes(encode(element));
  } else if constexpr (impl::is_sequence<T>) {
    enc.write_uint32(static_cast<std::uint32_t>(v.size()));
    for (const auto& element : v) put(enc, element);
  } else if constexpr (impl::is_capped<T>) {
    put(enc, v.values);
  } else {
    put(enc, T::wire_fields(v));
  }
}

template <typename T>
Status get(cdr::Decoder& dec, T& v);

/// Decodes alternative `index - 1` (the tag octet is index + 1 on the wire).
template <std::size_t I, typename V>
Status get_alternative(cdr::Decoder& dec, V& v, std::uint8_t index) {
  if constexpr (I == std::variant_size_v<V>) {
    return error(Errc::kMalformedMessage, "unknown variant tag");
  } else {
    if (index == I + 1) return get(dec, v.template emplace<I>());
    return get_alternative<I + 1>(dec, v, index);
  }
}

/// Decodes a uint32 count, then that many elements into `v`.
template <typename S>
Status get_sequence(cdr::Decoder& dec, S& v, std::uint32_t max_count) {
  using impl::is_a;
  using E = impl::Element<S>;
  ITDOS_ASSIGN_OR_RETURN(const std::uint32_t count, dec.read_uint32());
  ITDOS_RETURN_IF_ERROR(check_count(dec, count, impl::min_size<E>(), max_count));
  if constexpr (is_a<S, std::vector>) v.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    E element{};
    ITDOS_RETURN_IF_ERROR(get(dec, element));
    if constexpr (is_a<S, std::vector>) {
      v.push_back(std::move(element));
    } else {
      const auto key = [](const auto& e) -> const auto& {
        if constexpr (is_a<S, std::map>) {
          return e.first;
        } else {
          return e;
        }
      };
      if (!v.empty() && !v.key_comp()(key(*v.rbegin()), key(element))) {
        return error(Errc::kMalformedMessage, "duplicate or unordered key");
      }
      v.emplace_hint(v.end(), std::move(element));
    }
  }
  return Status::ok();
}

/// Decodes a pair's or tuple's members in order, stopping at the first error.
template <std::size_t I, typename Tuple>
Status get_members(cdr::Decoder& dec, Tuple& t) {
  if constexpr (I == std::tuple_size_v<Tuple>) {
    return Status::ok();
  } else {
    ITDOS_RETURN_IF_ERROR(get(dec, std::get<I>(t)));
    return get_members<I + 1>(dec, t);
  }
}

template <typename T>
Status get(cdr::Decoder& dec, T& v) {
  using impl::is_a;
  using U = std::remove_const_t<T>;  // only tags are decoded through const
  if constexpr (std::is_same_v<U, bool>) {
    ITDOS_ASSIGN_OR_RETURN(v, dec.read_boolean());
  } else if constexpr (std::is_same_v<U, std::uint8_t>) {
    ITDOS_ASSIGN_OR_RETURN(v, dec.read_octet());
  } else if constexpr (std::is_enum_v<U>) {
    std::underlying_type_t<U> raw{};
    ITDOS_RETURN_IF_ERROR(get(dec, raw));
    v = static_cast<U>(raw);
  } else if constexpr (std::is_same_v<U, std::uint32_t>) {
    ITDOS_ASSIGN_OR_RETURN(v, dec.read_uint32());
  } else if constexpr (std::is_same_v<U, std::uint64_t>) {
    ITDOS_ASSIGN_OR_RETURN(v, dec.read_uint64());
  } else if constexpr (std::is_same_v<U, std::int64_t>) {
    ITDOS_ASSIGN_OR_RETURN(v, dec.read_int64());
  } else if constexpr (is_a<U, itdos::detail::StrongId>) {
    ITDOS_ASSIGN_OR_RETURN(v.value, dec.read_uint64());
  } else if constexpr (impl::is_byte_array<U>) {
    ITDOS_RETURN_IF_ERROR(dec.read_raw_into(v.data(), v.size()));
  } else if constexpr (std::is_same_v<U, Bytes>) {
    ITDOS_ASSIGN_OR_RETURN(v, dec.read_bytes());
  } else if constexpr (std::is_same_v<U, BufView>) {
    ITDOS_ASSIGN_OR_RETURN(v, dec.read_bytes_view());
  } else if constexpr (std::is_same_v<U, std::string>) {
    ITDOS_ASSIGN_OR_RETURN(v, dec.read_string());
  } else if constexpr (impl::is_tag<U>) {
    std::remove_const_t<decltype(U::value)> got{};
    ITDOS_RETURN_IF_ERROR(get(dec, got));
    if (got != U::value) {
      return error(Errc::kMalformedMessage, "unexpected kind tag");
    }
  } else if constexpr (is_a<U, std::optional>) {
    bool present = false;
    ITDOS_RETURN_IF_ERROR(get(dec, present));
    v.reset();
    if (present) return get(dec, v.emplace());
  } else if constexpr (is_a<U, std::variant>) {
    std::uint8_t index = 0;
    ITDOS_RETURN_IF_ERROR(get(dec, index));
    return get_alternative<0>(dec, v, index);
  } else if constexpr (is_a<U, std::pair> || is_a<U, std::tuple>) {
    return get_members<0>(dec, v);
  } else if constexpr (is_a<U, Encap>) {
    ITDOS_ASSIGN_OR_RETURN(const BufView body, dec.read_bytes_view());
    return decode_into(body, v.value);
  } else if constexpr (is_a<U, EncapEach>) {
    ITDOS_ASSIGN_OR_RETURN(const std::uint32_t count, dec.read_uint32());
    // Each element costs at least its 4-byte length prefix.
    ITDOS_RETURN_IF_ERROR(check_count(dec, count, sizeof(std::uint32_t), UINT32_MAX));
    v.values.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Encap element{v.values.emplace_back()};
      ITDOS_RETURN_IF_ERROR(get(dec, element));
    }
  } else if constexpr (impl::is_sequence<U>) {
    return get_sequence(dec, v, UINT32_MAX);
  } else if constexpr (impl::is_capped<U>) {
    return get_sequence(dec, v.values, U::kMax);
  } else {
    auto list = U::wire_fields(v);
    ITDOS_RETURN_IF_ERROR(get(dec, list));
    if constexpr (requires { v.validate(); }) return v.validate();
  }
  return Status::ok();
}

template <typename T>
Bytes encode(const T& value) {
  cdr::Encoder enc(kOrder);
  put(enc, value);
  return enc.take();
}

/// Hot-path form: marshals into a recycled arena chunk.
template <typename T>
BufView encode_into(const T& value, Arena& arena) {
  cdr::Encoder enc(kOrder, &arena);
  put(enc, value);
  return enc.take_view();
}

/// Decodes all of `data` into `out`: a default-constructed value, or a
/// field list of references. BufView fields share `data`'s chunk when it is
/// a BufView and borrow it otherwise.
template <typename Data, typename T>
Status decode_into(const Data& data, T&& out) {
  cdr::Decoder dec(data, kOrder);
  ITDOS_RETURN_IF_ERROR(get(dec, out));
  if (!dec.exhausted()) return error(Errc::kMalformedMessage, "trailing bytes");
  return Status::ok();
}

template <typename T, typename Data>
Result<T> decode(const Data& data) {
  T out{};
  ITDOS_RETURN_IF_ERROR(decode_into(data, out));
  return out;
}

}  // namespace itdos::wire
