// ProviderPipeline: the provider-side orchestration loop — watch the shared
// log store for newly committed windows, aggregate each through the zkVM in
// window order, and persist the receipts back into the store. This is the
// "aggregation phase … runs independently in the background" of §4,
// packaged as a library component (the zkt-prove tool and the simulator
// integration tests drive it).
//
// One round shape: every window runs through ShardedAggregationService as
// stage -> prove_shards -> persist -> fold. A plain chain is the K = 1
// round (options.sharded.shard_count <= 1): no split proof, no fold, one
// receipt per window. K >= 2 adds split proofs, K parallel shard chains
// and ONE tree seal per round. With options.sharded.pipeline_depth > 1 the
// pipeline overlaps windows — window i+1 loads and stages on a pool worker
// while window i's shards prove, and window i's tree folds while window
// i+1 proves. Chain LINKING stays strictly serial (prove_shards runs in
// window order on the caller's thread), so receipts and auditor decisions
// are byte-identical at every depth; depth 1 is exactly the sequential
// loop.
//
// Crash safety: every checkpoint interval the pipeline appends a
// core::ShardedChainSnapshot bundle (per shard, the whole CLog or a delta of
// the entries changed since the previous bundle, + round identifiers) to
// store::kTableChainState, and recover() resumes a restarted process from
// the newest full bundle whose receipts check out, extended by the deltas
// that chain onto it, rolling forward over receipts proven after it without
// re-proving (see docs/RECOVERY.md). The persist order is snapshot(i),
// the K receipts(i), then the tree seal(i) before snapshot(i+1) (K >= 2;
// at most one fold is in flight) or the epoch seals finished so far
// (K = 1): a crash leaves an orphan snapshot or the chain tip's missing
// seal — never a receipt ahead of a usable snapshot — and recovery
// re-folds that one seal from the shard sketches it restored or replayed.
//
// Failure policy: transient store errors (io_error) are retried with
// exponential backoff per RetryPolicy; integrity failures (tampered or
// uncommitted data, broken chains) are terminal and halt the chain, per §6.
#pragma once

#include <chrono>
#include <deque>

#include "core/chain_snapshot.h"
#include "core/epoch.h"
#include "core/service.h"
#include "core/sharded.h"
#include "store/logstore.h"

namespace zkt::core {

/// Bounded retry-with-backoff for transient storage errors.
struct RetryPolicy {
  /// Total attempts per store operation (1 = no retry).
  u32 max_attempts = 3;
  /// First backoff; doubles per retry up to max_backoff.
  std::chrono::milliseconds base_backoff{10};
  std::chrono::milliseconds max_backoff{1'000};
};

/// Construction-time knobs for ProviderPipeline. Growing this struct is the
/// supported way to add knobs — not new positional constructor parameters.
struct PipelineOptions {
  /// Persist a chain snapshot every N rounds (1 = every round). 0 disables
  /// snapshots: recover() then replays the whole receipt chain from the raw
  /// logs, so only use 0 when the store never prunes.
  u64 checkpoint_every_n_rounds = 1;
  RetryPolicy retry;
  /// After a successful aggregate_pending(), drop raw logs for aggregated
  /// windows (the paper's retention model). Leave off when recover() must
  /// be able to roll forward past the last snapshot.
  bool prune_aggregated = false;
  /// Round shape and proving: shard_count >= 2 splits every window over K
  /// shard chains (1 = the plain chain) and folds each K >= 2 round into
  /// one tree seal of join_fanout children per node; pipeline_depth > 1
  /// overlaps windows (see the header comment). prove_options, agg_mode and
  /// sketch configure every chain at every K; the epoch ladder proves with
  /// the same prove_options.
  ShardedOptions sharded;
  /// Epoch-seal ladder (DESIGN.md §11): every N rounds a chain-summary seal
  /// is proven asynchronously and merged into a binary-counter ladder, so a
  /// cold verifier catches up via Auditor::catch_up in O(log T) seal
  /// verifications instead of O(T) replay. 0 disables the ladder. K = 1
  /// only — with K >= 2 aggregate_pending() and recover() fail with
  /// invalid_argument (shard chains have no single round chain to seal).
  u64 epoch_every = 0;
};

class ProviderPipeline {
 public:
  ProviderPipeline(store::LogStore& store, const CommitmentBoard& board,
                   PipelineOptions options = {});

  /// What recover() found and did.
  struct RecoveryInfo {
    /// False when the store held no usable chain state (fresh start).
    bool resumed = false;
    /// Rounds restored directly from the adopted snapshot.
    u64 rounds_restored = 0;
    /// Rounds rolled forward from receipts proven after that snapshot.
    u64 rounds_replayed = 0;
    /// Snapshots that were skipped (orphaned by a crash before their
    /// receipts were appended, or unreadable).
    u64 snapshots_skipped = 0;
    /// Sharded rounds whose tree seal was missing from the store (crash
    /// after the tip's shard receipts, before its seal) and was re-folded
    /// from the verified shard receipts during recovery: at most one.
    u64 seals_refolded = 0;
    /// Epoch seals adopted from the store after validating against the
    /// recovered receipt chain.
    u64 epoch_seals_adopted = 0;
    /// Ladder levels the store was missing (crash mid-ladder-persist, or
    /// validation failure) that were re-folded from the recovered receipts.
    u64 epoch_levels_refolded = 0;
    /// Last aggregated window after recovery, if any.
    std::optional<u64> last_window;
  };

  /// Resume a previous process's chain from the store: adopt the newest
  /// full snapshot bundle whose receipts check out, extended by the delta
  /// bundles that chain onto it (claim digests per bundle; journal root
  /// against the rebuilt state), then roll forward over receipts proven
  /// after it by replaying their raw batches — no re-proving. Only valid
  /// before the first aggregate_pending(). Integrity violations (snapshot/
  /// receipt mismatch, missing raw logs for a later receipt) are terminal
  /// typed errors; a store with no chain state recovers to a fresh start.
  /// The store must match the pipeline's shard count (a snapshot bundle or
  /// receipt row for another K is invalid_argument), and a store in the
  /// pre-bundle layout fails with unsupported — never a fresh start.
  Result<RecoveryInfo> recover();

  /// Aggregate every committed window newer than the last one processed,
  /// in ascending window order. Each round persists a snapshot bundle (per
  /// options.checkpoint_every_n_rounds), then its K receipts, then its tree
  /// seal (K >= 2, before the next round's first row) or epoch seals (K = 1
  /// with a ladder). Returns the rounds proven in this call (possibly
  /// empty). Stops at — and returns — the first terminal failure (a
  /// tampered window blocks the chain, by design); transient store errors
  /// are retried per options.retry first. A failure that leaves the store
  /// behind the chains in memory (a proven round or a seal it could not
  /// persist) halts the pipeline: every later call fails with
  /// invalid_argument, and a new pipeline recover()s from the store.
  Result<std::vector<RoundResult>> aggregate_pending();

  /// Windows present in the store's rlogs table that have not been
  /// aggregated yet. Store read failures surface as errors (after
  /// retries) — an unreadable store is not "no pending work".
  Result<std::vector<u64>> pending_windows() const;

  /// Whether rounds split over K >= 2 shard chains.
  bool sharded() const { return service_->shard_count() >= 2; }
  bool has_rounds() const { return service_->has_rounds(); }
  /// Shard 0's chain service. Meaningful as "the" chain at K = 1 only.
  const AggregationService& aggregation() const {
    return service_->shard_service(0);
  }
  /// The round service every window runs through (never null).
  const ShardedAggregationService* sharded_service() const {
    return service_.get();
  }
  const PipelineOptions& options() const { return options_; }

  /// The K = 1 receipt chain, in round order — including rounds recovered
  /// from the store by recover(). Empty at K >= 2 (per-shard chains live in
  /// the store; the seals below are the round-level proof objects).
  const std::vector<zvm::Receipt>& receipts() const { return receipts_; }

  /// Tree seals of K >= 2 rounds, in window order — including seals
  /// recovered (or re-folded) by recover(). Empty at K = 1.
  const std::vector<zvm::Receipt>& tree_seals() const { return tree_seals_; }

  /// The live epoch-seal ladder, settled (waits for in-flight seal proving
  /// and surfaces its first error). Chain order, tallest first — exactly
  /// what Auditor::catch_up and save_epoch_seals take. Empty vector when
  /// options.epoch_every is 0.
  Result<std::vector<EpochSeal>> epoch_seals();

  /// Drop raw logs whose windows have been aggregated under proof — the
  /// paper's retention model (§2.2: "raw logs are often discarded after a
  /// period of time"; the commitments and receipts keep the history
  /// verifiable). Returns the number of rows dropped. A durable store
  /// checkpoints as it drops them (LogStore::drop_rows), so the prune
  /// survives a restart.
  Result<u64> prune_aggregated();

 private:
  /// Run `op` (returning Status) with bounded retry on transient errors.
  Status with_retry(const char* what,
                    const std::function<Status()>& op) const;
  /// The one configuration check: epoch seals need the K = 1 chain.
  Status check_options() const;
  /// Append one row with bounded retry.
  Status append_row(const char* what, std::string_view table, u64 k1, u64 k2,
                    BytesView payload);
  /// A captured chain snapshot bundle, waiting to be appended.
  struct SnapshotRow {
    Bytes payload;
    bool full = false;
  };
  /// The round's snapshot bundle when the checkpoint interval is due (full
  /// or delta), else nullopt. It reads only the chain services, so it runs
  /// while the previous window's fold is still in flight.
  std::optional<SnapshotRow> capture_snapshot(u64 window);
  /// Append the round's captured snapshot bundle (if any), then its K
  /// receipts.
  Status persist_chain(u64 window, const RoundResult& round,
                       std::optional<SnapshotRow> snapshot);
  Status persist_seal(u64 window, u64 round_id, const zvm::Receipt& seal);
  Status persist_epoch_seal(const EpochSeal& seal);
  Status load_batches(u64 window,
                      std::vector<netflow::RLogBatch>& batches) const;
  /// The latest stored receipt per (window, shard); nullopt when any
  /// shard's receipt is missing (a crash mid-persist).
  Result<std::optional<std::vector<zvm::Receipt>>> load_receipts(
      u64 window) const;
  /// Recovery for a K >= 2 round: adopt its stored tree seal, or re-fold
  /// a missing one from the verified shard receipts and the shard
  /// services' sketches — only when the services sit at this window (the
  /// chain tip); a missing seal anywhere else is chain_broken.
  Status recover_tree_seal(u64 window,
                           const std::vector<zvm::Receipt>& receipts,
                           RecoveryInfo& info);
  /// Drain finished ladder seals into kTableEpochSeals (append-only).
  Status persist_epoch_seals();
  /// Rebuild the ladder after recover() restored the K = 1 receipt chain:
  /// adopt every stored seal that validates, re-fold missing levels, then
  /// re-feed the unsealed tail into the ladder buffer. `round_windows` maps
  /// round index -> window id (parallel to receipts_).
  Status recover_epoch_ladder(const std::vector<u64>& round_windows,
                              RecoveryInfo& info);

  store::LogStore* store_;
  PipelineOptions options_;
  std::unique_ptr<ShardedAggregationService> service_;
  std::vector<zvm::Receipt> receipts_;
  std::vector<zvm::Receipt> tree_seals_;
  /// Non-null iff options.epoch_every > 0 and K = 1.
  std::unique_ptr<EpochLadder> epoch_;
  std::optional<u64> last_window_;
  /// Set by a failed aggregate_pending() whose store lags the chains.
  Status halted_;
  u64 rounds_since_snapshot_ = 0;
  /// Round of this process's last chain_state row whose receipts all
  /// landed: the next delta's base. nullopt = the next row is full.
  std::optional<u64> snapshot_base_;
  u64 full_snapshot_bytes_ = 0;     ///< size of the last full bundle
  u64 delta_bytes_since_full_ = 0;  ///< delta bytes written after it
};

}  // namespace zkt::core
