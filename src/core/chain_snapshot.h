// ChainSnapshot: one durable record of one chain's position after an
// aggregation round — the serialized CLog state plus the identifiers that
// bind it to the round's receipt. ShardedChainSnapshot bundles the K
// per-shard snapshots of one round; a plain chain is the K = 1 bundle.
//
// ProviderPipeline appends one bundle to store::kTableChainState (k1 =
// window id, k2 = round id) every checkpoint interval, *before* the round's
// receipts are appended: a crash between the appends leaves an orphan
// bundle with no matching receipts, which recover() simply skips in favor
// of an older one — the receipts table never runs ahead of a usable
// snapshot for the same round. See docs/RECOVERY.md for the full crash
// matrix.
//
// The snapshot is self-checking (CRC over the state bytes) and
// cross-checked at recovery: each claim digest must match the stored
// receipt, and the rebuilt state's Merkle root and entry count must match
// that receipt's journal. A tampered snapshot therefore cannot silently
// fork the chain — it fails recovery with a typed error instead.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "core/clog.h"
#include "netflow/sketch.h"

namespace zkt::core {

struct ChainSnapshot {
  u64 round_id = 0;    ///< rounds completed up to and including this round
  u64 window_id = 0;   ///< last aggregated commitment window
  Digest32 claim_digest;  ///< claim digest of this round's receipt
  Digest32 root;          ///< CLog Merkle root after the round
  u64 entry_count = 0;    ///< CLog entries after the round
  Bytes state_bytes;      ///< CLogState::serialize output
  /// Proof-carrying round sketch after the round (DESIGN.md §10), CRC'd
  /// like state_bytes.
  bool has_sketch = false;
  Bytes sketch_bytes;  ///< RoundSketch canonical bytes when has_sketch

  /// Build from live chain state (serializes `state`, and `sketch` when the
  /// chain carries one).
  static ChainSnapshot capture(u64 round_id, u64 window_id,
                               const Digest32& claim_digest,
                               const CLogState& state,
                               const netflow::RoundSketch* sketch = nullptr);

  /// Rebuild the CLog state and verify it against the snapshot's own root
  /// and entry count.
  Result<CLogState> restore_state() const;

  /// Rebuild the round sketch (nullopt when the snapshot carries none).
  Result<std::optional<netflow::RoundSketch>> restore_sketch() const;

  /// Append / consume the serialized form in place (bundles embed it).
  void write(Writer& w) const;
  static Result<ChainSnapshot> read(Reader& r);
};

/// One durable record of a round's chain position: the per-shard chain
/// snapshots of one round, bundled so recovery adopts all K shard chains
/// (or none) atomically. K = 1 (one ChainSnapshot) is the plain chain.
/// from_bytes rejects a bare ChainSnapshot — the pre-bundle store layout —
/// with Errc::unsupported, so an old store fails recovery typed instead of
/// being skipped as unreadable.
struct ShardedChainSnapshot {
  u64 round_id = 0;
  u64 window_id = 0;
  u32 shard_count = 0;
  /// Per-shard snapshots, in shard order. Each inner claim_digest names the
  /// shard's own receipt for this round.
  std::vector<ChainSnapshot> shards;

  Bytes to_bytes() const;
  static Result<ShardedChainSnapshot> from_bytes(BytesView data);
};

}  // namespace zkt::core
