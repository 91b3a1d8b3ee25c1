// LogStore: embedded, thread-safe, append-only table store — the stand-in
// for the shared PostgreSQL backend in the paper's evaluation setup.
//
// Routers (producer threads) append RLog batches; the commitment scheduler
// appends published commitments; the aggregator scans by window. Rows are
// opaque payloads addressed by (table, k1, k2) where k1 is typically the
// commitment-window id and k2 the router id.
//
// Durability: when configured with a WAL path, every append is framed and
// CRC-protected on disk and recover() replays it after a restart, truncating
// at the first corrupt frame (standard WAL torn-write handling). Frames
// carry the row's per-table id, which is never reused (not even after
// drop_rows), and the snapshot records each table's next id, so a WAL that
// survives a crash between checkpoint()'s snapshot rename and its WAL
// truncation replays without duplicating or resurrecting rows the snapshot
// already accounts for.
//
// Failure testing: set_fault_injector() installs a store::FaultInjector
// whose armed fault points make appends, flushes, scans and checkpoints
// fail deterministically (see store/fault.h and docs/RECOVERY.md).
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "store/fault.h"

namespace zkt::store {

/// CRC-32 (IEEE 802.3, reflected) over a byte span.
u32 crc32(BytesView data);

struct StoreConfig {
  /// Empty = in-memory only.
  std::string wal_path = {};
  /// Snapshot file used by checkpoint(); defaults to wal_path + ".snap".
  std::string snapshot_path = {};
};

struct StoredRow {
  u64 id = 0;  ///< per-table row id: increasing, never reused
  u64 k1 = 0;
  u64 k2 = 0;
  Bytes payload;
};

class LogStore {
 public:
  struct Stats {
    u64 appends = 0;
    u64 wal_bytes = 0;
    u64 recovered_rows = 0;
    u64 truncated_frames = 0;
    u64 checkpoints = 0;
    u64 snapshot_rows = 0;  ///< rows loaded from the snapshot at recover()
    /// WAL frames skipped at recover() because the snapshot already held
    /// their row (possible after a crash between snapshot rename and WAL
    /// truncation).
    u64 deduped_frames = 0;
  };

  explicit LogStore(StoreConfig config = {});
  ~LogStore();

  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  /// Append a row; returns its row id. Thread-safe.
  Result<u64> append(std::string_view table, u64 k1, u64 k2,
                     BytesView payload);

  /// All rows of `table` with k1 in [k1_min, k1_max], in append order.
  std::vector<StoredRow> scan(std::string_view table, u64 k1_min,
                              u64 k1_max) const;

  /// All rows of `table` with exact (k1, k2).
  std::vector<StoredRow> scan_exact(std::string_view table, u64 k1,
                                    u64 k2) const;

  /// Visit every row of `table` with k1 in [k1_min, k1_max], in append
  /// order, without copying payloads (the hot-path alternative to scan).
  /// `fn` runs under the store lock: it must not call back into the store.
  /// Fails (io_error) when a scan fault is injected — callers on the
  /// aggregation path surface this instead of treating it as "no rows".
  Status for_each(std::string_view table, u64 k1_min, u64 k1_max,
                  const std::function<void(const StoredRow&)>& fn) const;

  /// The most recently appended row with the given k1 (any k2).
  std::optional<StoredRow> latest(std::string_view table, u64 k1) const;

  /// The most recently appended row in the table.
  std::optional<StoredRow> last_row(std::string_view table) const;

  u64 row_count(std::string_view table) const;
  std::vector<std::string> table_names() const;
  Stats stats() const;

  /// Load the snapshot (if present), then replay the WAL file (if
  /// configured) into memory. Call on a fresh LogStore before appending.
  Status recover();

  /// Compact durability: atomically write all tables to the snapshot file
  /// and truncate the WAL, bounding recovery time and disk growth. Safe to
  /// call at any quiescent point (commitment-window boundaries, say).
  Status checkpoint();

  /// Drop every row of `table` with k1 <= k1_max (e.g. raw logs whose
  /// window has been aggregated under proof — the paper's "logs are
  /// ephemeral" retention model; the commitments and receipts stay).
  /// A durable store checkpoint()s when rows went, so the drop survives a
  /// restart and the disk is reclaimed; if that fails the rows are gone in
  /// memory only, and a restart brings them back. Returns the number of
  /// rows dropped.
  Result<u64> drop_rows(std::string_view table, u64 k1_max);

  /// Install (or clear, with nullptr) a fault injector. Not owned; must
  /// outlive the store or be cleared first. Testing hook — production
  /// stores never set one.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

 private:
  struct Table {
    std::vector<StoredRow> rows;
    u64 next_id = 0;  ///< id of the table's next append
  };

  Status wal_append_locked(std::string_view table, const StoredRow& row);
  Status checkpoint_locked();

  StoreConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, Table, std::less<>> tables_;
  Stats stats_;
  std::FILE* wal_file_ = nullptr;
  FaultInjector* faults_ = nullptr;
};

// Conventional table names used by the telemetry pipeline. The prover keeps
// ONE table family for every shard count K (a plain chain is K = 1):
// chain_state + receipts, plus tree_seals (K >= 2 with a fold) and
// epoch_seals (K = 1 with a ladder).
inline constexpr const char* kTableRlogs = "rlogs";
inline constexpr const char* kTableCommitments = "commitments";
inline constexpr const char* kTableClogs = "clogs";
/// Aggregation receipts (k1 = window id, k2 = shard id; latest row per
/// (window, shard) wins on recovery). A plain chain writes shard 0 only.
inline constexpr const char* kTableReceipts = "receipts";
/// Per-round prover chain snapshots (serialized core::ShardedChainSnapshot
/// bundles of K per-shard snapshots, k1 = window id, k2 = round id) — what
/// ProviderPipeline::recover() resumes from.
inline constexpr const char* kTableChainState = "chain_state";
/// Join-tree seals of folded sharded rounds (k1 = window id, k2 = round
/// id) — one receipt per round that transitively verifies every shard
/// receipt of that round (see core/join.h).
inline constexpr const char* kTableTreeSeals = "tree_seals";
/// Epoch-ladder seals of the plain (K = 1) chain (serialized
/// core::EpochSeal rows, k1 = ladder level, k2 = start round; latest row per
/// key wins on recovery). Append-only — superseded levels keep their rows;
/// recover() re-validates each seal it adopts and re-folds any level the
/// store is missing, so a crash mid-ladder-persist loses no soundness.
inline constexpr const char* kTableEpochSeals = "epoch_seals";

}  // namespace zkt::store
