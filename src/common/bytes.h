// Byte-buffer aliases and hex helpers used across all zktel modules.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace zkt {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

using Bytes = std::vector<u8>;
using BytesView = std::span<const u8>;

/// Encode a byte span as lowercase hex.
std::string to_hex(BytesView data);

/// Decode a hex string (with or without "0x" prefix). Returns false on
/// malformed input (odd length or non-hex characters).
bool from_hex(std::string_view hex, Bytes& out);

/// Convenience: hex-decode or abort. Intended for test vectors and constants.
Bytes hex_bytes(std::string_view hex);

/// Constant-time equality for secrets/digests.
bool ct_equal(BytesView a, BytesView b);

/// View over the raw bytes of a trivially copyable value.
template <typename T>
  requires std::is_trivially_copyable_v<T>
BytesView as_bytes_view(const T& v) {
  return {reinterpret_cast<const u8*>(&v), sizeof(T)};
}

/// Append a byte span to a buffer (which `data` must not view): one resize,
/// one copy.
inline void append(Bytes& out, BytesView data) {
  if (data.empty()) return;
  const size_t at = out.size();
  out.resize(at + data.size());
  std::memcpy(out.data() + at, data.data(), data.size());
}

/// Append the bytes of a string.
inline void append(Bytes& out, std::string_view s) {
  append(out, BytesView(reinterpret_cast<const u8*>(s.data()), s.size()));
}

/// Bytes from a string literal/view.
inline Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

}  // namespace zkt
