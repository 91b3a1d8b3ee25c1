// Verifiable sharded aggregation — the §7 "Proof parallelization" design,
// made sound end to end.
//
// Naively partitioning NetFlow records across shard provers breaks the
// commitment check: routers committed to whole batches, not sub-batches. We
// close that gap with a *split proof*: a zkVM guest that
//   1. verifies the original batch against its published commitment,
//   2. deterministically partitions its records by flow hash into K
//      sub-batches,
//   3. publishes the K sub-batch hashes (+ counts) in its journal.
//
// Each shard then runs the ordinary Algorithm-1 aggregation chain over its
// sub-batches, treating the split journal's hashes as its commitments, and
// the round's K shard receipts fold through a tree of join guests into ONE
// seal (see core/join.h) — so the verifier checks split receipts (against
// the board) plus one tree seal per round instead of O(K) receipts. Shards
// prove in parallel on common::ThreadPool, which is exactly the §7 speedup;
// the fold is log-depth and pool-parallel too.
//
// A plain chain is the K = 1 round: no split proof, no shard board, no
// fold — shard 0's AggregationService aggregates the window's batches
// against the main board, so its receipts are exactly those of a bare
// AggregationService. ProviderPipeline runs every K through this service.
//
// A round decomposes into stage -> commit_staged -> prove_shards ->
// fold_round so ProviderPipeline can overlap windows: stage() is const and
// thread-safe (window i+1 stages on a worker while window i proves), and
// fold_round() only reads the round's receipts (window i folds while window
// i+1 proves). aggregate() runs all four for callers that don't pipeline.
#pragma once

#include <map>
#include <memory>
#include <tuple>

#include "core/auditor.h"
#include "core/chain_snapshot.h"
#include "core/fold.h"
#include "core/service.h"

namespace zkt::core {

/// One sub-batch reference produced by a split proof.
struct ShardRef {
  u32 shard_id = 0;
  Digest32 sub_batch_hash;
  u64 record_count = 0;

  friend bool operator==(const ShardRef&, const ShardRef&) = default;
};

/// Public journal of a split proof.
struct SplitJournal {
  CommitmentRef source;  ///< the original (board-published) commitment
  u32 shard_count = 0;
  std::vector<ShardRef> shards;

  void write(Writer& w) const;
  static Result<SplitJournal> parse(BytesView journal);
};

/// The split guest's image (registered on first use).
zvm::ImageID shard_split_image();

/// Deterministic shard assignment for a flow (shared by host, guest and
/// tests): FlowKeyHasher(key) % shard_count.
u32 shard_of(const netflow::FlowKey& key, u32 shard_count);

/// The canonical serialization of shard `shard_id`'s sub-batch of `batch`.
netflow::RLogBatch sub_batch_for(const netflow::RLogBatch& batch,
                                 u32 shard_id, u32 shard_count);

/// Construction-time knobs for the sharded proving path, per the repo's
/// options-struct convention (PipelineOptions / AggregationOptions /
/// AuditorOptions). One struct configures the whole path: the service's
/// shard fan-out and fold shape here, and — via PipelineOptions — how many
/// windows ProviderPipeline keeps in flight.
struct ShardedOptions {
  /// Parallel proof chains per round (clamped to >= 1).
  u32 shard_count = 1;
  /// Children per join node when folding a K >= 2 round's shard receipts
  /// into its one tree seal (clamped to [2, 64]). It shapes the tree only:
  /// every K >= 2 round folds. Ignored when shard_count == 1.
  u32 join_fanout = 2;
  /// Windows kept in flight by ProviderPipeline when it drives this
  /// service: stage window i+1 (load + split-prove) and fold window i's
  /// tree while the current window's shards prove. 1 = fully sequential.
  /// The service itself is per-round; the knob lives here so one struct
  /// carries the sharded configuration end to end.
  u32 pipeline_depth = 1;
  /// Full-rebuild vs incremental-delta proving per shard chain.
  AggMode agg_mode = AggMode::auto_select;
  zvm::ProveOptions prove_options = {};
  /// Proof-carrying round sketch per shard chain (DESIGN.md §10); the fold
  /// then sums the shard sketches so the tree seal binds ONE round sketch.
  /// nullopt disables sketches on every shard.
  std::optional<netflow::SketchParams> sketch = netflow::SketchParams{};
};

/// Prover-side sharded pipeline.
class ShardedAggregationService {
 public:
  explicit ShardedAggregationService(const CommitmentBoard& board,
                                     ShardedOptions options = {});

  /// A staged-but-unpublished round: the split proofs for one window's
  /// batches plus the per-shard sub-batches and sub-commitments they
  /// attest. Produced by stage(), consumed by commit_staged() +
  /// prove_shards().
  struct StagedRound {
    /// K = 1 only: the window's batches, borrowed from the stage() caller,
    /// who keeps them alive until prove_shards() returns.
    std::span<const netflow::RLogBatch> batches;
    std::vector<zvm::Receipt> split_receipts;  ///< one per source batch (K >= 2)
    /// Sub-batches per shard: shard_batches[s][b] pairs with
    /// sub_commitments[s][b] (split output order = source batch order).
    std::vector<std::vector<netflow::RLogBatch>> shard_batches;
    std::vector<std::vector<Commitment>> sub_commitments;
    u64 split_cycles = 0;
    double split_ms = 0;
  };

  /// Split-prove every batch and derive the per-shard sub-batches and
  /// sub-commitments WITHOUT publishing them (K = 1: just borrow the
  /// batches; there is nothing to split). Reads only construction-time
  /// state (the main board, the shard keys) — thread-safe against
  /// commit_staged/prove_shards/fold_round of OTHER windows, which is what
  /// lets the pipeline stage window i+1 on a pool worker.
  Result<StagedRound> stage(std::span<const netflow::RLogBatch> batches) const;

  /// Publish a staged round's sub-commitments to the shard boards (a no-op
  /// at K = 1). Serial (call from one thread, in window order).
  Status commit_staged(const StagedRound& staged);

  /// Prove one round over a committed stage: every shard chain advances one
  /// round, in parallel on the shared pool. Serial across windows (shard
  /// chains link round i+1 onto round i). Does NOT fold; the returned
  /// round's tree_seal is empty until fold_round().
  Result<RoundResult> prove_shards(StagedRound staged);

  /// Fold the round's shard receipts into round.tree_seal (a no-op at
  /// K = 1). Reads only the receipts already in `round`, so the pipeline
  /// runs it on a worker while later windows stage and prove.
  Status fold_round(RoundResult& round) const;

  /// stage + commit_staged + prove_shards + fold_round, for callers that
  /// don't pipeline. Batches are borrowed, matching
  /// AggregationService::aggregate.
  Result<RoundResult> aggregate(std::span<const netflow::RLogBatch> batches);

  /// Convenience for literal batch lists: aggregate({a, b}).
  Result<RoundResult> aggregate(
      std::initializer_list<netflow::RLogBatch> batches) {
    return aggregate(
        std::span<const netflow::RLogBatch>(batches.begin(), batches.size()));
  }

  /// The snapshot bundle of the last proven round (window `window_id`):
  /// every shard's AggregationService::capture — full bodies when
  /// `delta_base` is nullopt, otherwise deltas extending the chain_state
  /// row of round `*delta_base`.
  ShardedChainSnapshot capture(u64 window_id, std::optional<u64> delta_base);

  /// Adopt a recovered chain position: restore every shard chain from the
  /// bundle's per-shard snapshots and receipts. Only valid on a fresh
  /// service; snap must be full (ShardedChainSnapshot::collapse folds
  /// deltas in) and snap.shard_count must match this service's.
  Status restore(const ShardedChainSnapshot& snap,
                 std::vector<zvm::Receipt> shard_receipts);

  /// Roll every shard chain forward over an ALREADY-PROVEN round recovered
  /// from storage: recompute each shard's sub-batches from the window's raw
  /// batches (sub_batch_for is deterministic) and replay them against the
  /// shard's stored receipt — verified, never re-proven (see
  /// AggregationService::replay_round).
  Status replay_round(std::span<const netflow::RLogBatch> batches,
                      std::span<const zvm::Receipt> shard_receipts);

  u32 shard_count() const { return shard_count_; }
  u64 rounds_completed() const { return rounds_; }
  bool has_rounds() const { return rounds_ > 0; }
  const ShardedOptions& options() const { return options_; }
  const AggregationService& shard_service(u32 shard) const {
    return *shards_[shard];
  }
  /// Total entries across all shard states.
  u64 total_entries() const;

 private:
  const CommitmentBoard* board_;
  ShardedOptions options_;
  u32 shard_count_;
  /// Per-shard boards holding the split-derived sub-commitments, and the
  /// per-shard aggregation chains on top of them. At K = 1 there are no
  /// shard boards or keys: the one chain runs on the main board.
  std::vector<std::unique_ptr<CommitmentBoard>> shard_boards_;
  // zkt-lint: shared(one chain per shard; parallel_for workers touch disjoint entries only)
  std::vector<std::unique_ptr<AggregationService>> shards_;
  std::vector<crypto::SchnorrKeyPair> shard_keys_;
  u64 rounds_ = 0;
};

/// Verifier-side: a K >= 2 round's proof objects are its split receipts
/// plus ONE tree seal. The seal's join receipt transitively verifies all K
/// shard chain rounds, and its journal's leaf links carry each shard's
/// chain fields in shard order; each link must pass the one chain-link
/// rule (ChainPosition::extend) against its shard's position and consume
/// exactly the split outputs for its shard. K >= 2 only: a K = 1 round is
/// a plain chain round, audited by Auditor (accept_round rejects it with
/// invalid_argument).
class ShardedAuditor {
 public:
  ShardedAuditor(const CommitmentBoard& board, u32 shard_count);

  /// Accept one round, or reject it and change nothing: every shard's link
  /// and split attestation is checked before any shard advances.
  Status accept_round(const RoundResult& round);

  u64 rounds_accepted() const { return rounds_; }
  /// Total entries across shard states after the last accepted round.
  u64 total_entries() const;
  /// Whether accepted rounds carry the proof-carrying sketch (meaningful
  /// once a round was accepted).
  bool has_sketch() const { return shards_.front().has_sketch; }
  /// Shard `s`'s sketch digest after the last accepted round.
  const Digest32& shard_sketch_digest(u32 s) const {
    return shards_[s].sketch_digest;
  }
  /// The merged round-sketch digest the last accepted tree seal binds.
  const Digest32& round_sketch_digest() const { return round_sketch_digest_; }

 private:
  Status verify_splits(
      const RoundResult& round,
      std::map<std::tuple<u32, u64, u32>, ShardRef>& expected);

  const CommitmentBoard* board_;
  u32 shard_count_;
  zvm::Verifier verifier_;
  u64 rounds_ = 0;
  /// Verified chain position per shard.
  std::vector<ChainPosition> shards_;
  Digest32 round_sketch_digest_;
};

}  // namespace zkt::core
