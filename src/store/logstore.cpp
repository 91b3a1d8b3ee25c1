#include "store/logstore.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/log.h"
#include "common/serial.h"

namespace zkt::store {

u32 crc32(BytesView data) {
  static const auto table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  u32 c = 0xFFFFFFFFu;
  for (u8 b : data) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

namespace {
// "ZKW2": v2 frames carry the row's per-table id so replay can skip rows a
// checkpoint snapshot already accounts for (crash between rename and
// truncation).
constexpr u32 kWalMagic = 0x5A4B5732;
// "ZKS2" snapshots record each table's next row id; "ZKS1" ones, which
// predate drop_rows checkpointing, still load (next id = row count).
constexpr u32 kSnapMagic = 0x5A4B5332;
constexpr u32 kSnapV1Magic = 0x5A4B5331;
}

LogStore::LogStore(StoreConfig config) : config_(std::move(config)) {
  if (config_.snapshot_path.empty() && !config_.wal_path.empty()) {
    config_.snapshot_path = config_.wal_path + ".snap";
  }
}

LogStore::~LogStore() {
  if (wal_file_ != nullptr) std::fclose(wal_file_);
}

Status LogStore::recover() {
  if (config_.wal_path.empty()) return {};
  std::lock_guard<std::mutex> lock(mutex_);

  // Load the snapshot first (a compacted prefix of history); the WAL holds
  // only appends made after the last checkpoint.
  if (std::FILE* f = std::fopen(config_.snapshot_path.c_str(), "rb")) {
    Bytes contents;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.insert(contents.end(), buf, buf + n);
    }
    std::fclose(f);

    Reader r(contents);
    auto magic = r.u32v();
    if (!magic.ok() ||
        (magic.value() != kSnapMagic && magic.value() != kSnapV1Magic)) {
      return Error{Errc::parse_error, "bad snapshot magic"};
    }
    auto n_tables = r.varint();
    if (!n_tables.ok()) return n_tables.error();
    for (u64 t = 0; t < n_tables.value(); ++t) {
      auto name = r.str();
      if (!name.ok()) return name.error();
      u64 next_id = 0;
      if (magic.value() == kSnapMagic) {
        auto id = r.varint();
        if (!id.ok()) return id.error();
        next_id = id.value();
      }
      auto n_rows = r.varint();
      if (!n_rows.ok()) return n_rows.error();
      if (magic.value() == kSnapV1Magic) next_id = n_rows.value();
      if (next_id < n_rows.value()) {
        return Error{Errc::parse_error, "snapshot row count above next id"};
      }
      auto& table = tables_[name.value()];
      // Kept rows' ids only need to be distinct and below the next id.
      table.next_id = next_id - n_rows.value();
      for (u64 i = 0; i < n_rows.value(); ++i) {
        auto k1 = r.u64v();
        auto k2 = k1.ok() ? r.u64v() : Result<u64>(Errc::parse_error);
        auto payload = k2.ok() ? r.blob() : Result<Bytes>(Errc::parse_error);
        auto crc = payload.ok() ? r.u32v() : Result<u32>(Errc::parse_error);
        if (!crc.ok() || crc32(payload.value()) != crc.value()) {
          return Error{Errc::parse_error, "snapshot row failed CRC"};
        }
        StoredRow row;
        row.id = table.next_id++;
        row.k1 = k1.value();
        row.k2 = k2.value();
        row.payload = std::move(payload.value());
        table.rows.push_back(std::move(row));
        ++stats_.snapshot_rows;
      }
    }
    if (!r.done()) {
      return Error{Errc::parse_error, "trailing snapshot bytes"};
    }
  }

  // Replay an existing WAL.
  if (std::FILE* f = std::fopen(config_.wal_path.c_str(), "rb")) {
    Bytes contents;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.insert(contents.end(), buf, buf + n);
    }
    std::fclose(f);

    Reader r(contents);
    while (!r.done()) {
      const size_t frame_start = r.position();
      auto magic = r.u32v();
      if (!magic.ok() || magic.value() != kWalMagic) {
        ++stats_.truncated_frames;
        break;
      }
      auto table = r.str();
      auto id = table.ok() ? r.u64v() : Result<u64>(Errc::parse_error);
      auto k1 = id.ok() ? r.u64v() : Result<u64>(Errc::parse_error);
      auto k2 = k1.ok() ? r.u64v() : Result<u64>(Errc::parse_error);
      Result<Bytes> payload =
          k2.ok() ? r.blob() : Result<Bytes>(Errc::parse_error);
      auto crc = payload.ok() ? r.u32v() : Result<u32>(Errc::parse_error);
      if (!crc.ok()) {
        ++stats_.truncated_frames;
        break;
      }
      if (crc32(payload.value()) != crc.value()) {
        ZKT_LOG(warn) << "WAL frame at offset " << frame_start
                      << " failed CRC; truncating";
        ++stats_.truncated_frames;
        break;
      }
      auto& t = tables_[std::string(table.value())];
      if (id.value() < t.next_id) {
        // The snapshot already accounts for this row (holds it, or dropped
        // it) — the WAL survived a crash between checkpoint()'s rename and
        // its truncation.
        ++stats_.deduped_frames;
        continue;
      }
      if (id.value() > t.next_id) {
        ZKT_LOG(warn) << "WAL frame at offset " << frame_start
                      << " skips row ids (next " << t.next_id
                      << ", frame claims " << id.value() << "); truncating";
        ++stats_.truncated_frames;
        break;
      }
      StoredRow row;
      row.id = t.next_id++;
      row.k1 = k1.value();
      row.k2 = k2.value();
      row.payload = std::move(payload.value());
      t.rows.push_back(std::move(row));
      ++stats_.recovered_rows;
    }
  }

  wal_file_ = std::fopen(config_.wal_path.c_str(), "ab");
  if (wal_file_ == nullptr) {
    return Error{Errc::io_error, "cannot open WAL for append: " +
                                     config_.wal_path};
  }
  return {};
}

Status LogStore::wal_append_locked(std::string_view table,
                                   const StoredRow& row) {
  if (wal_file_ == nullptr) return {};
  if (faults_ != nullptr && faults_->fire(FaultPoint::wal_append)) {
    return Error{Errc::io_error, "injected fault: WAL append"};
  }
  Writer w;
  w.u32v(kWalMagic);
  w.str(table);
  w.u64v(row.id);
  w.u64v(row.k1);
  w.u64v(row.k2);
  w.blob(row.payload);
  w.u32v(crc32(row.payload));
  const auto& frame = w.bytes();
  if (faults_ != nullptr && faults_->fire(FaultPoint::wal_torn_write)) {
    // Leave exactly what a mid-write crash would: a prefix of the frame on
    // disk and a dead process. Closing the WAL makes every later append
    // fail until a fresh LogStore recover()s — appending past a torn frame
    // would make the tail unreadable.
    const size_t torn = frame.size() / 2;
    std::fwrite(frame.data(), 1, torn, wal_file_);
    std::fflush(wal_file_);
    std::fclose(wal_file_);
    wal_file_ = nullptr;
    return Error{Errc::io_error, "injected fault: torn WAL write (crashed)"};
  }
  if (std::fwrite(frame.data(), 1, frame.size(), wal_file_) != frame.size()) {
    return Error{Errc::io_error, "WAL write failed"};
  }
  if (faults_ != nullptr && faults_->fire(FaultPoint::fsync)) {
    return Error{Errc::io_error, "injected fault: fsync"};
  }
  stats_.wal_bytes += frame.size();
  return {};
}

Result<u64> LogStore::append(std::string_view table, u64 k1, u64 k2,
                             BytesView payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!config_.wal_path.empty() && wal_file_ == nullptr) {
    return Error{Errc::io_error, "recover() must be called before append"};
  }
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    it = tables_.emplace(std::string(table), Table{}).first;
  }
  StoredRow row;
  row.id = it->second.next_id;
  row.k1 = k1;
  row.k2 = k2;
  row.payload.assign(payload.begin(), payload.end());
  ZKT_TRY(wal_append_locked(table, row));
  const u64 id = it->second.next_id++;
  it->second.rows.push_back(std::move(row));
  ++stats_.appends;
  return id;
}

std::vector<StoredRow> LogStore::scan(std::string_view table, u64 k1_min,
                                      u64 k1_max) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StoredRow> out;
  auto it = tables_.find(table);
  if (it == tables_.end()) return out;
  for (const auto& row : it->second.rows) {
    if (row.k1 >= k1_min && row.k1 <= k1_max) out.push_back(row);
  }
  return out;
}

std::vector<StoredRow> LogStore::scan_exact(std::string_view table, u64 k1,
                                            u64 k2) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StoredRow> out;
  auto it = tables_.find(table);
  if (it == tables_.end()) return out;
  for (const auto& row : it->second.rows) {
    if (row.k1 == k1 && row.k2 == k2) out.push_back(row);
  }
  return out;
}

Status LogStore::for_each(
    std::string_view table, u64 k1_min, u64 k1_max,
    const std::function<void(const StoredRow&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (faults_ != nullptr && faults_->fire(FaultPoint::scan)) {
    return Error{Errc::io_error, "injected fault: scan"};
  }
  auto it = tables_.find(table);
  if (it == tables_.end()) return {};
  for (const auto& row : it->second.rows) {
    if (row.k1 >= k1_min && row.k1 <= k1_max) fn(row);
  }
  return {};
}

std::optional<StoredRow> LogStore::latest(std::string_view table,
                                          u64 k1) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return std::nullopt;
  for (auto rit = it->second.rows.rbegin(); rit != it->second.rows.rend();
       ++rit) {
    if (rit->k1 == k1) return *rit;
  }
  return std::nullopt;
}

std::optional<StoredRow> LogStore::last_row(std::string_view table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end() || it->second.rows.empty()) return std::nullopt;
  return it->second.rows.back();
}

u64 LogStore::row_count(std::string_view table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.rows.size();
}

std::vector<std::string> LogStore::table_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

LogStore::Stats LogStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Result<u64> LogStore::drop_rows(std::string_view table, u64 k1_max) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return u64{0};
  auto& rows = it->second.rows;
  const size_t before = rows.size();
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [k1_max](const StoredRow& row) {
                              return row.k1 <= k1_max;
                            }),
             rows.end());
  const u64 dropped = before - rows.size();
  if (dropped > 0) ZKT_TRY(checkpoint_locked());
  return dropped;
}

Status LogStore::checkpoint() {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoint_locked();
}

Status LogStore::checkpoint_locked() {
  if (config_.wal_path.empty()) return {};  // in-memory store: nothing to do
  if (wal_file_ == nullptr) {
    return Error{Errc::io_error, "recover() must run before checkpoint"};
  }

  Writer w;
  w.u32v(kSnapMagic);
  w.varint(tables_.size());
  for (const auto& [name, table] : tables_) {
    w.str(name);
    w.varint(table.next_id);
    w.varint(table.rows.size());
    for (const auto& row : table.rows) {
      w.u64v(row.k1);
      w.u64v(row.k2);
      w.blob(row.payload);
      w.u32v(crc32(row.payload));
    }
  }

  // Write-then-rename for atomicity, then truncate the WAL: a crash before
  // the rename keeps the old snapshot + full WAL; after it, the new
  // snapshot + stale WAL, whose frames replay dedupes by row id.
  const std::string tmp = config_.snapshot_path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      return Error{Errc::io_error, "cannot write snapshot: " + tmp};
    }
    const auto& bytes = w.bytes();
    if (faults_ != nullptr &&
        faults_->fire(FaultPoint::checkpoint_snapshot_write)) {
      // A partial .tmp, as a crash mid-write would leave; recover() never
      // reads it.
      std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
      std::fclose(f);
      return Error{Errc::io_error, "injected fault: snapshot write"};
    }
    const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    // A snapshot smaller than the stdio buffer only fails (ENOSPC, EIO) at
    // the flush; renaming it over the good snapshot would lose every row.
    const bool flushed = std::fflush(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (written != bytes.size()) {
      return Error{Errc::io_error, "short snapshot write"};
    }
    if (!flushed || !closed) {
      return Error{Errc::io_error, "snapshot flush failed: " + tmp};
    }
  }
  if (faults_ != nullptr && faults_->fire(FaultPoint::checkpoint_rename)) {
    return Error{Errc::io_error, "injected fault: snapshot rename"};
  }
  if (std::rename(tmp.c_str(), config_.snapshot_path.c_str()) != 0) {
    return Error{Errc::io_error, "snapshot rename failed"};
  }
  if (faults_ != nullptr &&
      faults_->fire(FaultPoint::checkpoint_wal_truncate)) {
    return Error{Errc::io_error, "injected fault: WAL truncation"};
  }
  std::fclose(wal_file_);
  wal_file_ = std::fopen(config_.wal_path.c_str(), "wb");
  if (wal_file_ == nullptr) {
    return Error{Errc::io_error, "cannot truncate WAL"};
  }
  ++stats_.checkpoints;
  return {};
}

}  // namespace zkt::store
