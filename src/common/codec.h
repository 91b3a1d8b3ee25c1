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
//                               with v.check), std::array<u8, N> (raw),
//                               a type with its own serialize/deserialize,
//                               or a type with a field list (nested)
//   v.blob(name, x)             blob of x.to_bytes(); T::from_bytes on read
//   v.list(name, items, max)    varint count (at most `max`), then each item
//                               through its own field list
//   v.derived(out, bytes)       decode `out` from bytes already read (no
//                               wire bytes of its own)
//   v.check(cond, message)      reject the decode with `message` unless
//                               `cond` holds for the fields read so far
//
// Every decode failure is Errc::parse_error.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/serial.h"

namespace zkt {

namespace detail {
template <class T>
inline constexpr bool is_byte_array_v =
    std::is_same_v<T, std::array<u8, sizeof(T)>>;

template <class T>
concept OwnCodec = requires(Reader& r) {
  { T::deserialize(r) } -> std::same_as<Result<T>>;
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
    } else if constexpr (detail::OwnCodec<T>) {
      value.serialize(w_);
    } else {
      T::fields(*this, value);
    }
  }

  template <class T>
  void blob(std::string_view, const T& value) {
    w_.blob(value.to_bytes());
  }

  template <class T>
  void list(std::string_view, const std::vector<T>& items, u64) {
    w_.varint(items.size());
    for (const T& item : items) T::fields(*this, item);
  }

  template <class T>
  void derived(const T&, BytesView) {}
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
    } else if constexpr (detail::OwnCodec<T>) {
      auto v = T::deserialize(r_);
      if (!v.ok()) return fail(v.error());
      value = std::move(v.value());
    } else {
      T::fields(*this, value);
    }
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
  void list(std::string_view name, std::vector<T>& items, u64 max) {
    if (!status_.ok()) return;
    auto n = r_.varint();
    if (!n.ok()) return fail(n.error());
    if (n.value() > max) return fail("too many " + std::string(name));
    // No reserve: a hostile count must not allocate before the bytes are
    // there, and every item consumes some.
    for (u64 i = 0; i < n.value() && status_.ok(); ++i) {
      T::fields(*this, items.emplace_back());
    }
  }

  template <class T>
  void derived(T& out, BytesView bytes);

  void check(bool ok, std::string_view message) {
    if (status_.ok() && !ok) fail(message);
  }

 private:
  void fail(std::string_view message) {
    status_ = Error{Errc::parse_error, std::string(message)};
  }
  void fail(const Error& e) {
    status_ = Error{Errc::parse_error, e.message};
  }

  Reader& r_;
  Status status_;
};

/// Append `value`'s fields to `w`.
template <class T>
void encode(Writer& w, const T& value) {
  FieldWriter walker(w);
  T::fields(walker, value);
}

/// Read one T from `r`, which may hold more bytes after it.
template <class T>
Result<T> decode(Reader& r) {
  FieldReader walker(r);
  T value;
  T::fields(walker, value);
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
void FieldReader::derived(T& out, BytesView bytes) {
  if (!status_.ok()) return;
  auto v = decode<T>(bytes);
  if (!v.ok()) return fail(v.error());
  out = std::move(v.value());
}

}  // namespace zkt
