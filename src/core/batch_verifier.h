// core::BatchVerifier — verify many aggregation receipts per round-trip.
//
// Verification is the client-scale side of the protocol: an auditor catching
// up on a chain has N receipts in hand, not one. Verifying them one at a
// time wastes the two structural redundancies batches expose:
//
//   1. Independent receipts: each receipt's seal checks are a pure function
//      of its bytes, so receipts fan out over common::ThreadPool and the
//      per-receipt hashing inside each lane still goes through the batched
//      SHA-256 backends (MerkleTree::hash_leaves / verify_batch).
//   2. Chained receipts: a composite round embeds its predecessor receipt
//      as an assumption receipt, so a sequential chain walk verifies every
//      round TWICE — once standalone, once as the next round's assumption.
//      BatchVerifier seeds each receipt's zvm::VerifiedCache with its
//      predecessor; the assumption pass skips the re-verification when (and
//      only when) the embedded copy is byte-identical.
//
// Decisions are identical to the sequential walk for every receipt whose
// predecessors in the same call verified (a cache hit requires byte-equal
// content, and verification is a deterministic function of those bytes).
// When a predecessor FAILS, its successor's optimistic skip is repaired by
// re-verifying uncached — so every returned outcome is authoritative on its
// own, in input order, across all backends and thread counts.
//
// Host-side only (guests never verify); guest-reachable headers may still
// include this one — it carries no nondeterminism tokens of its own.
#pragma once

#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/guests.h"
#include "zvm/verifier.h"

namespace zkt::core {

/// Verify `receipt` as an aggregation receipt of EITHER kind: the claim
/// must name one of the two aggregation images (full rebuild or incremental
/// delta) and the receipt must verify against that image. Chains mix the
/// two kinds freely, so every chain consumer goes through this instead of
/// pinning guest_images().aggregate.
Status verify_aggregation_receipt(zvm::Verifier& verifier,
                                  const zvm::Receipt& receipt);

/// As above, with batch-verification context (assumption dedup cache and
/// stats accounting — see zvm::VerifyContext). Decisions are identical.
Status verify_aggregation_receipt(zvm::Verifier& verifier,
                                  const zvm::Receipt& receipt,
                                  const zvm::VerifyContext& context);

/// Construction knobs, per the repo's options-struct convention.
struct BatchVerifierOptions {
  /// Soundness floor forwarded to the underlying zvm::Verifier.
  u32 min_queries = 32;
  /// Verify receipts of one call concurrently. Off = same work on the
  /// calling thread (bit-identical outcomes either way).
  bool parallel = true;
  /// Worker pool for the fan-out; nullptr uses common::ThreadPool::shared()
  /// (sized by ZKT_POOL_THREADS). Ignored when `parallel` is false.
  common::ThreadPool* pool = nullptr;
};

class BatchVerifier {
 public:
  explicit BatchVerifier(BatchVerifierOptions options = {})
      : options_(options), verifier_(options.min_queries) {}

  /// Verify every receipt as an aggregation receipt. Outcomes are returned
  /// in input order; a failure does not stop the rest of the batch.
  ///
  /// Chain dedup treats receipts[i-1] as receipt i's candidate predecessor
  /// (and the last receipt that verified OK in the previous call on this
  /// object as receipt 0's) — for unrelated receipts the candidate simply
  /// never matches an embedded assumption and the batch degrades to a pure
  /// pool fan-out.
  std::vector<Status> verify_aggregation(
      std::span<const zvm::Receipt> receipts,
      zvm::VerifyStats* stats = nullptr);

  /// Cumulative accounting across every call on this object.
  const zvm::VerifyStats& stats() const { return stats_; }

  const BatchVerifierOptions& options() const { return options_; }

 private:
  BatchVerifierOptions options_;
  zvm::Verifier verifier_;
  /// Last receipt that verified OK (cross-call chain head candidate).
  zvm::VerifiedCache head_cache_;
  zvm::VerifyStats stats_;
};

}  // namespace zkt::core
