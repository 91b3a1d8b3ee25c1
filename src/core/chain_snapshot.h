// ChainSnapshot: one durable record of one chain's position after an
// aggregation round — the CLog entries plus the identifiers that bind them
// to the round's receipt. ShardedChainSnapshot bundles the K per-shard
// snapshots of one round; a plain chain is the K = 1 bundle.
//
// A shard's snapshot carries one of two bodies: a *full* body (every CLog
// entry) or a *delta* body (only the entries whose keys changed since the
// previous chain_state row, named by its round id). A steady round that
// touches k of N entries therefore persists O(k) bytes, not O(N);
// ProviderPipeline decides full vs delta from byte counts alone (see
// docs/RECOVERY.md), and recovery folds a full bundle and the contiguous
// deltas after it back into one full position (collapse()).
//
// ProviderPipeline appends one bundle to store::kTableChainState (k1 =
// window id, k2 = round id) every checkpoint interval, *before* the round's
// receipts are appended: a crash between the appends leaves an orphan
// bundle with no matching receipts, which recover() simply skips in favor
// of an older one — the receipts table never runs ahead of a usable
// snapshot for the same round.
//
// The snapshot is self-checking (CRC over the entry bytes) and
// cross-checked at recovery: each claim digest must match the stored
// receipt, and the rebuilt state's Merkle root and entry count must match
// that receipt's journal. A tampered snapshot therefore cannot silently
// fork the chain — it fails recovery with a typed error instead.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "core/clog.h"
#include "netflow/sketch.h"

namespace zkt::core {

struct ChainSnapshot {
  enum class Body : u8 {
    full = 0,   ///< entries = the whole CLog
    delta = 1,  ///< entries = the upserts since the base_round_id row
  };

  Body body = Body::full;
  /// Delta only: round id of the chain_state row this body extends.
  u64 base_round_id = 0;
  Digest32 claim_digest;  ///< claim digest of this round's receipt
  Digest32 root;          ///< CLog Merkle root after the round
  u64 entry_count = 0;    ///< CLog entries after the round
  /// Strictly key-sorted: every entry (full) or the changed ones (delta).
  std::vector<CLogEntry> entries;
  /// Proof-carrying round sketch after the round (DESIGN.md §10), CRC'd
  /// like the entries.
  bool has_sketch = false;
  Bytes sketch_bytes;  ///< RoundSketch canonical bytes when has_sketch

  /// A full body of the live chain state (and `sketch`, when the chain
  /// carries one).
  static ChainSnapshot full(const Digest32& claim_digest,
                            const CLogState& state,
                            const netflow::RoundSketch* sketch = nullptr);

  /// A delta body: the entries of `state` under `changed_keys` (sorted,
  /// unique, all present in `state`), extending the row of `base_round_id`.
  static ChainSnapshot delta(u64 base_round_id, const Digest32& claim_digest,
                             const CLogState& state,
                             std::span<const netflow::FlowKey> changed_keys,
                             const netflow::RoundSketch* sketch = nullptr);

  /// Rebuild the CLog state of a full body (the tree is built here, once)
  /// and verify it against the snapshot's own root and entry count.
  Result<CLogState> restore_state() const;

  /// Rebuild the round sketch (nullopt when the snapshot carries none).
  Result<std::optional<netflow::RoundSketch>> restore_sketch() const;
};

/// One durable record of a round's chain position: the per-shard chain
/// snapshots of one round, bundled so recovery adopts all K shard chains
/// (or none) atomically. K = 1 (one ChainSnapshot) is the plain chain.
/// from_bytes rejects a bare ChainSnapshot — the pre-bundle store layout —
/// and bundles of any other version with Errc::unsupported, so an old store
/// fails recovery typed instead of being skipped as unreadable.
struct ShardedChainSnapshot {
  u64 round_id = 0;
  u64 window_id = 0;
  u32 shard_count = 0;
  /// Per-shard snapshots, in shard order. Each inner claim_digest names the
  /// shard's own receipt for this round.
  std::vector<ChainSnapshot> shards;

  /// No shard carries a delta body: the bundle stands on its own.
  bool is_full() const;
  /// The round every delta shard extends (0 for a full bundle; from_bytes
  /// guarantees the delta shards of a bundle agree).
  u64 base_round_id() const;

  Bytes to_bytes() const;
  static Result<ShardedChainSnapshot> from_bytes(BytesView data);
  /// The bundle's identifiers only — round, window, shard count, and per
  /// shard the body kind, base round and claim digest — without decoding
  /// entries or sketches or checking CRCs. O(K), not O(entries): recovery
  /// indexes every chain_state row this way and decodes only the ones it
  /// adopts.
  static Result<ShardedChainSnapshot> peek(BytesView data);

  /// Fold a full bundle and the deltas that extend it, oldest first (each
  /// bundle's delta shards based on the previous bundle's round), into one
  /// full bundle at the newest position: per shard, the newest full body
  /// plus every later upsert, newest wins. Identifiers, root, entry count
  /// and sketch are the newest bundle's; restore_state() then rebuilds and
  /// checks the tree once.
  static Result<ShardedChainSnapshot> collapse(
      std::vector<ShardedChainSnapshot> chain);
};

}  // namespace zkt::core
