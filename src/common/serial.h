// Binary serialization: little-endian Writer/Reader with length-prefixed
// containers. All zktel wire objects (receipts, commitments, NetFlow export
// packets, store WAL records) are serialized through these.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"

namespace zkt {

/// Appends little-endian primitives and length-prefixed blobs to a buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(Bytes initial) : buf_(std::move(initial)) {}

  void u8v(u8 v) { buf_.push_back(v); }
  void u16v(u16 v) { put_le(v); }
  void u32v(u32 v) { put_le(v); }
  void u64v(u64 v) { put_le(v); }
  void i64v(i64 v) { put_le(static_cast<u64>(v)); }

  /// Unsigned LEB128 varint.
  void varint(u64 v);

  /// Raw bytes, no length prefix.
  void raw(BytesView data) { append(buf_, data); }

  /// varint length + bytes.
  void blob(BytesView data) {
    varint(data.size());
    raw(data);
  }

  void str(std::string_view s) {
    varint(s.size());
    append(buf_, s);
  }

  template <size_t N>
  void fixed(const std::array<u8, N>& a) {
    raw(BytesView(a.data(), N));
  }

  /// Make room for `n` more bytes, so writing them does not regrow the
  /// buffer.
  void reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  /// Any unsigned integer, little-endian at its own width. Grows the buffer
  /// once per value; the shifts compile to one store.
  template <typename T>
  void put_le(T v) {
    const size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_[at + i] = static_cast<u8>(v >> (8 * i));
    }
  }

 private:
  Bytes buf_;
};

/// Consumes little-endian primitives from a byte view; all reads are bounds-
/// checked and report Errc::parse_error instead of reading out of range.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  Result<u8> u8v();
  Result<u16> u16v();
  Result<u32> u32v();
  Result<u64> u64v();
  Result<i64> i64v();
  Result<u64> varint();

  /// Read exactly n raw bytes.
  Result<Bytes> raw(size_t n);

  /// Read a varint-length-prefixed blob.
  Result<Bytes> blob();
  /// The same, as a view into the reader's buffer (no copy; valid while
  /// that buffer is).
  Result<BytesView> blob_view();

  Result<std::string> str();

  template <size_t N>
  Status fixed(std::array<u8, N>& out) {
    if (remaining() < N) return Error{Errc::parse_error, "short fixed read"};
    std::memcpy(out.data(), data_.data() + pos_, N);
    pos_ += N;
    return {};
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  size_t position() const { return pos_; }

  /// Any unsigned integer, little-endian at its own width.
  template <typename T>
  Result<T> get_le() {
    if (remaining() < sizeof(T))
      return Error{Errc::parse_error, "short read"};
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

 private:
  BytesView data_;
  size_t pos_ = 0;
};

}  // namespace zkt
