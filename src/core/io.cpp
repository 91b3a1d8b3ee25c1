#include "core/io.h"

#include <cstdio>

#include "store/logstore.h"  // crc32

namespace zkt::core {

namespace {

constexpr std::string_view kCommitmentsMagic = "ZKTCOMM1";
constexpr std::string_view kReceiptsMagic = "ZKTRCPT1";

Bytes frame_items(std::string_view magic, const std::vector<Bytes>& items) {
  Writer w;
  w.str(magic);
  w.varint(items.size());
  for (const auto& item : items) {
    w.blob(item);
    w.u32v(store::crc32(item));
  }
  return std::move(w).take();
}

Result<std::vector<Bytes>> unframe_items(std::string_view magic,
                                         BytesView data) {
  Reader r(data);
  auto m = r.str();
  if (!m.ok()) return m.error();
  if (m.value() != magic) {
    return Error{Errc::parse_error, "bad file magic"};
  }
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() > (1u << 20)) {
    return Error{Errc::parse_error, "unreasonable item count"};
  }
  std::vector<Bytes> items;
  items.reserve(n.value());
  for (u64 i = 0; i < n.value(); ++i) {
    auto item = r.blob();
    if (!item.ok()) return item.error();
    auto crc = r.u32v();
    if (!crc.ok()) return crc.error();
    if (store::crc32(item.value()) != crc.value()) {
      return Error{Errc::parse_error,
                   "item " + std::to_string(i) + " failed CRC"};
    }
    items.push_back(std::move(item.value()));
  }
  if (!r.done()) return Error{Errc::parse_error, "trailing file bytes"};
  return items;
}

// --- streaming reads -------------------------------------------------------

/// LEB128 varint straight off the file, mirroring Reader::varint's limits.
Result<u64> fread_varint(std::FILE* f) {
  u64 value = 0;
  for (u32 shift = 0; shift < 64; shift += 7) {
    const int c = std::fgetc(f);
    if (c == EOF) return Error{Errc::parse_error, "short read"};
    value |= static_cast<u64>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) return value;
  }
  return Error{Errc::parse_error, "varint too long"};
}

Result<Bytes> fread_exact(std::FILE* f, size_t n) {
  Bytes out(n);
  if (n != 0 && std::fread(out.data(), 1, n, f) != n) {
    return Error{Errc::parse_error, "short read"};
  }
  return out;
}

}  // namespace

Result<ReceiptFileSource> ReceiptFileSource::open(const std::string& path,
                                                  Options options) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error{Errc::io_error, "cannot open for reading: " + path};
  }
  ReceiptFileSource source(f, options);
  // Header: varint-length-prefixed magic string, then the item count —
  // exactly the unframe_items() validation, done incrementally.
  auto magic_len = fread_varint(f);
  if (!magic_len.ok()) return magic_len.error();
  if (magic_len.value() != kReceiptsMagic.size()) {
    return Error{Errc::parse_error, "bad file magic"};
  }
  auto magic = fread_exact(f, kReceiptsMagic.size());
  if (!magic.ok()) return magic.error();
  if (std::string_view(reinterpret_cast<const char*>(magic.value().data()),
                       magic.value().size()) != kReceiptsMagic) {
    return Error{Errc::parse_error, "bad file magic"};
  }
  auto n = fread_varint(f);
  if (!n.ok()) return n.error();
  if (n.value() > (1u << 20)) {
    return Error{Errc::parse_error, "unreasonable item count"};
  }
  source.count_ = n.value();
  return source;
}

Result<std::optional<zvm::Receipt>> ReceiptFileSource::next() {
  if (failed_.has_value()) return *failed_;
  const auto fail = [this](Error e) -> Result<std::optional<zvm::Receipt>> {
    failed_ = e;
    return e;
  };
  if (read_ == count_) {
    // Clean end-of-stream requires the file to end exactly here.
    if (std::fgetc(file_.get()) != EOF) {
      return fail({Errc::parse_error, "trailing file bytes"});
    }
    return std::optional<zvm::Receipt>{};
  }
  if (options_.fault != nullptr &&
      options_.fault->fire(store::FaultPoint::scan)) {
    return fail({Errc::io_error, "injected fault: receipt scan"});
  }
  auto len = fread_varint(file_.get());
  if (!len.ok()) return fail(len.error());
  if (len.value() > (1u << 30)) {
    return fail({Errc::parse_error, "unreasonable item size"});
  }
  auto item = fread_exact(file_.get(), len.value());
  if (!item.ok()) return fail(item.error());
  // 4-byte little-endian CRC, as written by frame_items.
  std::array<u8, 4> crc_bytes;
  if (std::fread(crc_bytes.data(), 1, 4, file_.get()) != 4) {
    return fail({Errc::parse_error, "short read"});
  }
  const u32 crc = static_cast<u32>(crc_bytes[0]) |
                  static_cast<u32>(crc_bytes[1]) << 8 |
                  static_cast<u32>(crc_bytes[2]) << 16 |
                  static_cast<u32>(crc_bytes[3]) << 24;
  if (store::crc32(item.value()) != crc) {
    return fail({Errc::parse_error,
                 "item " + std::to_string(read_) + " failed CRC"});
  }
  auto receipt = zvm::Receipt::from_bytes(item.value());
  if (!receipt.ok()) return fail(receipt.error());
  ++read_;
  return std::optional<zvm::Receipt>{std::move(receipt.value())};
}

Status write_file(const std::string& path, BytesView data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Error{Errc::io_error, "cannot open for writing: " + path};
  }
  const size_t written = std::fwrite(data.data(), 1, data.size(), f);
  // A write smaller than the stdio buffer only fails (ENOSPC, EIO) when
  // the buffer is flushed, which fclose does.
  const bool closed = std::fclose(f) == 0;
  if (written != data.size()) {
    return Error{Errc::io_error, "short write: " + path};
  }
  if (!closed) {
    return Error{Errc::io_error, "write failed at close: " + path};
  }
  return {};
}

Result<Bytes> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error{Errc::io_error, "cannot open for reading: " + path};
  }
  Bytes out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

Status save_commitments(const CommitmentBoard& board,
                        const std::string& path) {
  std::vector<Bytes> items;
  for (const auto& commitment : board.all()) {
    items.push_back(commitment.to_bytes());
  }
  return write_file(path, frame_items(kCommitmentsMagic, items));
}

Status load_commitments(const std::string& path, CommitmentBoard& board) {
  auto data = read_file(path);
  if (!data.ok()) return data.error();
  auto items = unframe_items(kCommitmentsMagic, data.value());
  if (!items.ok()) return items.error();
  for (const auto& item : items.value()) {
    Reader r(item);
    auto commitment = Commitment::deserialize(r);
    if (!commitment.ok()) return commitment.error();
    ZKT_TRY(board.publish(commitment.value()));
  }
  return {};
}

Status save_receipts(const std::vector<zvm::Receipt>& receipts,
                     const std::string& path) {
  std::vector<Bytes> items;
  items.reserve(receipts.size());
  for (const auto& receipt : receipts) {
    items.push_back(receipt.to_bytes());
  }
  return write_file(path, frame_items(kReceiptsMagic, items));
}

Result<std::vector<zvm::Receipt>> load_receipts(const std::string& path) {
  auto data = read_file(path);
  if (!data.ok()) return data.error();
  auto items = unframe_items(kReceiptsMagic, data.value());
  if (!items.ok()) return items.error();
  std::vector<zvm::Receipt> receipts;
  receipts.reserve(items.value().size());
  for (const auto& item : items.value()) {
    auto receipt = zvm::Receipt::from_bytes(item);
    if (!receipt.ok()) return receipt.error();
    receipts.push_back(std::move(receipt.value()));
  }
  return receipts;
}

}  // namespace zkt::core
