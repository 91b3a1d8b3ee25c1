#include "common/serial.h"

namespace zkt {

void Writer::varint(u64 v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<u8>(v));
}

Result<u8> Reader::u8v() { return get_le<u8>(); }
Result<u16> Reader::u16v() { return get_le<u16>(); }
Result<u32> Reader::u32v() { return get_le<u32>(); }
Result<u64> Reader::u64v() { return get_le<u64>(); }

Result<i64> Reader::i64v() {
  auto r = get_le<u64>();
  if (!r.ok()) return r.error();
  return static_cast<i64>(r.value());
}

Result<u64> Reader::varint() {
  u64 v = 0;
  int shift = 0;
  while (true) {
    if (remaining() == 0) return Error{Errc::parse_error, "truncated varint"};
    if (shift >= 64) return Error{Errc::parse_error, "varint overflow"};
    u8 b = data_[pos_++];
    v |= static_cast<u64>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<Bytes> Reader::raw(size_t n) {
  if (remaining() < n) return Error{Errc::parse_error, "short raw read"};
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<Bytes> Reader::blob() {
  auto len = varint();
  if (!len.ok()) return len.error();
  if (len.value() > remaining())
    return Error{Errc::parse_error, "blob length exceeds buffer"};
  return raw(static_cast<size_t>(len.value()));
}

Result<BytesView> Reader::blob_view() {
  auto len = varint();
  if (!len.ok()) return len.error();
  if (len.value() > remaining())
    return Error{Errc::parse_error, "blob length exceeds buffer"};
  const BytesView out = data_.subspan(pos_, static_cast<size_t>(len.value()));
  pos_ += out.size();
  return out;
}

Result<std::string> Reader::str() {
  auto b = blob();
  if (!b.ok()) return b.error();
  return std::string(b.value().begin(), b.value().end());
}

}  // namespace zkt
