// Proof-tree aggregation, host side: fold K per-shard aggregation receipts
// into one join-tree seal (see core/join.h for the guest and its journal),
// running the joins of each tree level in parallel on common::ThreadPool.
//
// Host-only: fold_receipts times itself, publishes core.tree.* metrics and
// fans out over the pool, so this header must stay OUT of the guest
// include closure (join.h holds everything guests reach).
#pragma once

#include <optional>
#include <span>

#include "core/join.h"
#include "zvm/prover.h"
#include "zvm/verifier.h"

namespace zkt::common {
class ThreadPool;
}  // namespace zkt::common

namespace zkt::core {

/// Fold-tree knobs.
struct FoldOptions {
  /// Children per join node, clamped to [2, 64]. Wider fanout means fewer,
  /// larger join proofs (a shallower tree); 2 is the classic binary fold.
  u32 fanout = 2;
  /// Proving options for the joins. seal_kind applies to the ROOT join only
  /// (succinct there yields the one constant-size tree seal); interior
  /// joins always prove composite so their receipts can embed the children
  /// they verified as assumption receipts.
  zvm::ProveOptions prove_options;
  /// Worker pool for the per-level parallel joins; nullptr uses
  /// common::ThreadPool::shared().
  common::ThreadPool* pool = nullptr;
  /// Per-shard round sketches, one per leaf in shard order, when the shard
  /// chains carry the proof-carrying sketch (DESIGN.md §10); empty when they
  /// don't. The fold feeds each child's sketch bytes to its join guest and
  /// mirrors the guests' left-to-right merges host-side, so the root journal
  /// binds the sum of all shard sketches.
  std::span<const netflow::RoundSketch> leaf_sketches;
};

/// What a fold produced.
struct FoldResult {
  zvm::Receipt root;     ///< the tree seal
  JoinJournal journal;   ///< root journal, parsed
  u64 joins = 0;         ///< join proofs generated across all levels
  u64 total_cycles = 0;  ///< guest cycles across those joins
  double wall_ms = 0;
  /// Host-merged round sketch matching journal.sketch_digest (set iff
  /// FoldOptions::leaf_sketches was supplied). This is the state the next
  /// round's shards chain from and the sketch query guests open.
  std::optional<netflow::RoundSketch> sketch;
};

/// Fold `leaves` — aggregation receipts in shard order — into one join
/// receipt, level by level: joins within a level prove in parallel on the
/// pool, a trailing group smaller than fanout still joins, and a single
/// leftover child passes through to the next level unchanged. Requires at
/// least 2 leaves (a 1-shard round has nothing to fold). Publishes
/// core.tree.* metrics (see docs/OBSERVABILITY.md).
Result<FoldResult> fold_receipts(std::span<const zvm::Receipt> leaves,
                                 const FoldOptions& options = {});

/// Verify `receipt` as a join receipt: the claim must name the join image
/// and the seal must verify (composite seals recursively verify the
/// embedded subtree down to the shard receipts; succinct seals are the
/// constant-cost client path).
Status verify_join_receipt(const zvm::Verifier& verifier,
                           const zvm::Receipt& receipt,
                           const zvm::VerifyContext& context = {});

}  // namespace zkt::core
