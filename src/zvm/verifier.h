// Verifier: checks receipts without access to the private input.
//
// Composite receipts: recompute the Fiat–Shamir challenges, check every
// opened leaf's Merkle inclusion against the trace root and the internal
// semantics of each of its kRowsPerLeaf rows (recompute SHA-256
// compressions / ALU ops, check asserts), check bind rows against the
// claim, and recursively verify assumption receipts.
//
// Succinct receipts: check the simulated SNARK seal binding (see DESIGN.md)
// and the journal digest. This is the client-side path the paper measures at
// ~3 ms regardless of entry count.
//
// Verification is the side that runs at client scale, so the composite path
// hashes in batch: opened leaf digests go through MerkleTree::
// hash_leaves (one sha256_many per segment) and all openings' Merkle paths
// through MerkleTree::verify_batch (level-synchronous hash_pairs with
// converging-path dedup) — the same SIMD backends the prover uses, with
// bit-identical digests and identical accept/reject decisions.
#pragma once

#include "zvm/image.h"
#include "zvm/receipt.h"

namespace zkt::zvm {

/// Accounting from a verification pass. All fields are cumulative across
/// every receipt (including recursively verified assumptions) checked
/// through the same VerifyContext. The obs layer sits above zvm's callers;
/// the auditor publishes these as core.auditor.* metrics.
struct VerifyStats {
  u64 receipts = 0;             ///< receipts verified (incl. assumptions)
  u64 openings = 0;             ///< composite seal openings (leaves) checked
  u64 node_hashes = 0;          ///< Merkle path hashes actually computed
  u64 node_hashes_shared = 0;   ///< path hashes deduplicated across openings
  u64 assumptions_skipped = 0;  ///< embedded receipts equal to `verified`

  void merge(const VerifyStats& other) {
    receipts += other.receipts;
    openings += other.openings;
    node_hashes += other.node_hashes;
    node_hashes_shared += other.node_hashes_shared;
    assumptions_skipped += other.assumptions_skipped;
  }
};

/// Per-call knobs for Verifier::verify. Both pointers are optional and
/// non-owning; the defaults verify every embedded receipt in full.
///
/// Chained composite receipts embed their predecessor as an assumption
/// receipt, so a chain walk that verifies every round on its own verifies
/// each one TWICE (once standalone, once as the next round's assumption).
/// A walk that passes the round it just accepted as `verified` skips that
/// re-verification — but only for an embedded receipt that EQUALS it, field
/// by field (at least as strict as equal serialized bytes), so a skip is
/// always equivalent to re-verifying the identical receipt and decisions
/// match the plain path exactly (a forged seal under a verified claim is
/// verified, and fails). The compare runs in place, neither serializing nor
/// hashing: chained receipts grow with the rounds they embed, and either
/// would cost more than the re-verification it avoids.
struct VerifyContext {
  const Receipt* verified = nullptr;  ///< a receipt already verified
  VerifyStats* stats = nullptr;       ///< accounting sink
};

class Verifier {
 public:
  /// min_queries is the verifier's own soundness policy: a composite seal
  /// must open at least min(min_queries, leaf count) Fiat–Shamir-chosen
  /// leaves per segment, each holding kRowsPerLeaf rows.
  /// Without this floor a malicious prover could ship a seal with fewer
  /// (even zero) openings and trivially pass the sampled checks.
  explicit Verifier(u32 min_queries = 32) : min_queries_(min_queries) {}

  /// Verify a receipt against the image the caller expects. Decisions are
  /// identical for every context.
  Status verify(const Receipt& receipt, const ImageID& expected_image_id,
                const VerifyContext& context = {}) const;

 private:
  Status verify_composite(const Receipt& receipt,
                          const VerifyContext& context) const;
  Status verify_succinct(const Receipt& receipt) const;

  u32 min_queries_;
};

}  // namespace zkt::zvm
