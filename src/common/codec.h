// Field lists: a wire format written down once. A type T with a field list
// declares
//
//   template <class V, class Self>
//   static void fields(V& v, Self& self);
//
// which names every field of `self` in wire order through the walker `v`
// (Self is T or const T). FieldWriter encodes, FieldReader decodes, and a
// host-side describer prints the same list, so a layout cannot drift
// between them. Plain C++ control flow expresses optional fields: `if
// (self.has_sketch) {...}` reads the flag the walker has just handled.
//
// Walker calls:
//   v.magic("QRY1")             varint-length string that must match
//   v.magic(kind, names)        one of `names`; its index is `kind`
//   v.field(name, x)            bool (u8 0/1), unsigned integer (fixed LE),
//                               enum (its underlying type; range-check it
//                               with v.check), std::array<u8, N> (raw), a
//                               struct whose `bytes` member is one (a
//                               digest, a signature: raw), std::array of
//                               unsigned integers (each fixed LE, no
//                               count), a type with a field list (nested),
//                               or else a type with its own
//                               serialize/deserialize
//   v.bytes(name, x)            Bytes: varint length, then the bytes
//   v.blob(name, x)             blob of x.to_bytes(); T::from_bytes on read
//   v.list(name, items, max)    varint count (at most `max`), then each item
//                               as v.field would write it
//   v.list(name, items, max, Count::u16)   the same after a fixed-width LE
//                               count (Count::u16 or Count::u32); the list
//                               must fit the width, so a producer refuses a
//                               longer one before it is encoded
//   v.derived(name, out, bytes) decode `out` from bytes already read (no
//                               wire bytes of its own)
//   v.check(cond, message)      reject the decode with `message` unless
//                               `cond` holds for the fields read so far
//
// Every decode failure is Errc::parse_error. One decode nests field lists
// at most kMaxFieldDepth deep, so a recursive format (a receipt holds its
// assumption receipts) cannot grow the decoder's stack with its input.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/serial.h"

namespace zkt {

/// Deepest nesting of field lists one decode accepts: the value decoded is
/// depth 1, and each nested field or list item one level more. 260 lets a
/// chain of 256 nested receipts (zvm::kMaxReceiptDepth) decode with a
/// composite seal's four levels (seal, segment, opening, Merkle proof)
/// below the innermost one.
inline constexpr u32 kMaxFieldDepth = 260;

/// The count in front of a list: a varint, or a fixed-width LE integer.
enum class Count : u8 { varint, u16, u32 };

namespace detail {
template <class T>
inline constexpr bool is_byte_array_v =
    std::is_same_v<T, std::array<u8, sizeof(T)>>;

template <class T>
struct uint_array : std::false_type {};
template <class U, size_t N>
struct uint_array<std::array<U, N>>
    : std::bool_constant<std::is_unsigned_v<U> && !std::is_same_v<U, u8>> {};
template <class T>
inline constexpr bool is_uint_array_v = uint_array<T>::value;

/// A struct that is a fixed byte string (crypto::Digest32, signatures).
template <class T>
concept ByteString = requires(const T& value) {
  requires is_byte_array_v<std::remove_cvref_t<decltype(value.bytes)>>;
};

template <class T>
concept HasFields = requires(int& walker, T& value) {
  T::fields(walker, value);
};
}  // namespace detail

/// Walks a field list, appending each field to a Writer.
class FieldWriter {
 public:
  explicit FieldWriter(Writer& w) : w_(w) {}

  void magic(std::string_view m) { w_.str(m); }
  template <class E>
  void magic(const E& which, std::span<const std::string_view> names) {
    const auto i = static_cast<size_t>(which);
    w_.str(names[i < names.size() ? i : 0]);
  }

  template <class T>
  void field(std::string_view, const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.u8v(value ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      w_.put_le(static_cast<std::underlying_type_t<T>>(value));
    } else if constexpr (std::is_unsigned_v<T>) {
      w_.put_le(value);
    } else if constexpr (detail::is_byte_array_v<T>) {
      w_.fixed(value);
    } else if constexpr (detail::ByteString<T>) {
      w_.fixed(value.bytes);
    } else if constexpr (detail::is_uint_array_v<T>) {
      for (const auto& x : value) w_.put_le(x);
    } else if constexpr (detail::HasFields<T>) {
      T::fields(*this, value);
    } else {
      value.serialize(w_);
    }
  }

  void bytes(std::string_view, const Bytes& value) { w_.blob(value); }

  template <class T>
  void blob(std::string_view, const T& value) {
    w_.blob(value.to_bytes());
  }

  template <class T>
  void list(std::string_view name, const std::vector<T>& items, u64,
            Count count = Count::varint) {
    switch (count) {
      case Count::varint: w_.varint(items.size()); break;
      case Count::u16: w_.u16v(static_cast<u16>(items.size())); break;
      case Count::u32: w_.u32v(static_cast<u32>(items.size())); break;
    }
    for (const T& item : items) field(name, item);
  }

  template <class T>
  void derived(std::string_view, const T&, BytesView) {}
  void check(bool, std::string_view) {}

 private:
  Writer& w_;
};

/// Walks a field list, reading each field from a Reader. The first failure
/// is kept and turns every later call into a no-op.
class FieldReader {
 public:
  explicit FieldReader(Reader& r) : r_(r) {}

  const Status& status() const { return status_; }

  /// Read `value` through its field list, one nesting level down.
  template <class T>
  void walk(T& value) {
    if (!status_.ok()) return;
    if (depth_ == kMaxFieldDepth) return fail("field lists nest too deep");
    ++depth_;
    T::fields(*this, value);
    --depth_;
  }

  void magic(std::string_view m) {
    std::string_view names[] = {m};
    size_t which = 0;
    magic(which, names);
  }
  template <class E>
  void magic(E& which, std::span<const std::string_view> names) {
    if (!status_.ok()) return;
    auto got = r_.blob_view();
    if (!got.ok()) return fail(got.error());
    const std::string_view text(
        reinterpret_cast<const char*>(got.value().data()), got.value().size());
    const auto at = std::find(names.begin(), names.end(), text);
    if (at == names.end()) return fail("bad magic");
    which = static_cast<E>(at - names.begin());
  }

  template <class T>
  void field(std::string_view name, T& value) {
    if (!status_.ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      auto v = r_.u8v();
      if (!v.ok()) return fail(v.error());
      if (v.value() > 1) return fail("bad " + std::string(name) + " flag");
      value = v.value() == 1;
    } else if constexpr (std::is_enum_v<T>) {
      auto v = r_.get_le<std::underlying_type_t<T>>();
      if (!v.ok()) return fail(v.error());
      value = static_cast<T>(v.value());
    } else if constexpr (std::is_unsigned_v<T>) {
      auto v = r_.get_le<T>();
      if (!v.ok()) return fail(v.error());
      value = v.value();
    } else if constexpr (detail::is_byte_array_v<T>) {
      if (auto s = r_.fixed(value); !s.ok()) return fail(s.error());
    } else if constexpr (detail::ByteString<T>) {
      if (auto s = r_.fixed(value.bytes); !s.ok()) return fail(s.error());
    } else if constexpr (detail::is_uint_array_v<T>) {
      for (auto& x : value) {
        auto v = r_.get_le<std::remove_reference_t<decltype(x)>>();
        if (!v.ok()) return fail(v.error());
        x = v.value();
      }
    } else if constexpr (detail::HasFields<T>) {
      walk(value);
    } else {
      auto v = T::deserialize(r_);
      if (!v.ok()) return fail(v.error());
      value = std::move(v.value());
    }
  }

  void bytes(std::string_view, Bytes& value) {
    if (!status_.ok()) return;
    auto v = r_.blob_view();
    if (!v.ok()) return fail(v.error());
    value.assign(v.value().begin(), v.value().end());
  }

  template <class T>
  void blob(std::string_view, T& value) {
    if (!status_.ok()) return;
    auto bytes = r_.blob_view();
    if (!bytes.ok()) return fail(bytes.error());
    auto v = T::from_bytes(bytes.value());
    if (!v.ok()) return fail(v.error());
    value = std::move(v.value());
  }

  template <class T>
  void list(std::string_view name, std::vector<T>& items, u64 max,
            Count count = Count::varint) {
    if (!status_.ok()) return;
    Result<u64> n = u64{0};
    switch (count) {
      case Count::varint: n = r_.varint(); break;
      case Count::u16: n = widen(r_.u16v()); break;
      case Count::u32: n = widen(r_.u32v()); break;
    }
    if (!n.ok()) return fail(n.error());
    if (n.value() > max) return fail("too many " + std::string(name));
    // No reserve: a hostile count must not allocate before the bytes are
    // there, and every item consumes some.
    for (u64 i = 0; i < n.value() && status_.ok(); ++i) {
      field(name, items.emplace_back());
    }
  }

  template <class T>
  void derived(std::string_view, T& out, BytesView bytes);

  void check(bool ok, std::string_view message) {
    if (status_.ok() && !ok) fail(message);
  }

 private:
  template <class U>
  static Result<u64> widen(const Result<U>& v) {
    if (!v.ok()) return v.error();
    return u64{v.value()};
  }

  void fail(std::string_view message) {
    status_ = Error{Errc::parse_error, std::string(message)};
  }
  void fail(const Error& e) {
    status_ = Error{Errc::parse_error, e.message};
  }

  Reader& r_;
  Status status_;
  u32 depth_ = 0;
};

/// Append `value`'s fields to `w`.
template <class T>
void encode(Writer& w, const T& value) {
  FieldWriter walker(w);
  T::fields(walker, value);
}

/// Encode `value` into a fresh buffer.
template <class T>
Bytes encode(const T& value) {
  Writer w;
  encode(w, value);
  return std::move(w).take();
}

/// Read one T from `r`, which may hold more bytes after it.
template <class T>
Result<T> decode(Reader& r) {
  FieldReader walker(r);
  T value;
  walker.walk(value);
  if (!walker.status().ok()) return walker.status().error();
  return value;
}

/// Decode exactly one T: bytes left over are a parse error.
template <class T>
Result<T> decode(BytesView bytes) {
  Reader r(bytes);
  auto value = decode<T>(r);
  if (value.ok() && !r.done()) {
    return Error{Errc::parse_error, "trailing bytes"};
  }
  return value;
}

template <class T>
void FieldReader::derived(std::string_view, T& out, BytesView bytes) {
  if (!status_.ok()) return;
  auto v = decode<T>(bytes);
  if (!v.ok()) return fail(v.error());
  out = std::move(v.value());
}

}  // namespace zkt
