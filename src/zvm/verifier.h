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

#include <map>

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
  u64 assumptions_skipped = 0;  ///< assumption receipts resolved from cache

  void merge(const VerifyStats& other) {
    receipts += other.receipts;
    openings += other.openings;
    node_hashes += other.node_hashes;
    node_hashes_shared += other.node_hashes_shared;
    assumptions_skipped += other.assumptions_skipped;
  }
};

/// Receipts already verified in the current batch, keyed by claim digest.
/// Chained composite receipts embed their predecessor as an assumption
/// receipt, so a sequential chain walk verifies every round TWICE (once
/// standalone, once as the next round's assumption). A batch verifier adds
/// each accepted receipt here and the assumption pass skips re-verifying it.
///
/// A cache hit requires the embedded receipt to EQUAL the cached one, field
/// by field (at least as strict as equal serialized bytes) — so a hit is
/// always equivalent to re-verifying the identical receipt, and decisions
/// match the uncached path exactly (a forged seal sharing a verified claim
/// digest is NOT resolved from cache). The compare runs in place, neither
/// serializing nor hashing: chained receipts grow with the rounds they
/// embed, and either would cost more than the re-verification the cache
/// avoids.
class VerifiedCache {
 public:
  void add(const Receipt& receipt);
  bool contains(const Receipt& receipt) const;
  size_t size() const { return by_claim_.size(); }

 private:
  /// claim digest -> the verified receipt.
  std::map<std::array<u8, 32>, Receipt> by_claim_;
};

/// Per-call knobs for Verifier::verify. Both pointers are optional and
/// non-owning; the defaults reproduce the plain two-argument verify().
struct VerifyContext {
  const VerifiedCache* cache = nullptr;  ///< skip re-verified assumptions
  VerifyStats* stats = nullptr;          ///< accounting sink
};

class Verifier {
 public:
  /// min_queries is the verifier's own soundness policy: a composite seal
  /// must open at least min(min_queries, leaf count) Fiat–Shamir-chosen
  /// leaves per segment, each holding kRowsPerLeaf rows.
  /// Without this floor a malicious prover could ship a seal with fewer
  /// (even zero) openings and trivially pass the sampled checks.
  explicit Verifier(u32 min_queries = 32) : min_queries_(min_queries) {}

  /// Verify a receipt against the image the caller expects.
  Status verify(const Receipt& receipt, const ImageID& expected_image_id) const {
    return verify(receipt, expected_image_id, VerifyContext{});
  }

  /// As above, with batch-verification context (assumption dedup cache and
  /// stats accounting). Decisions are identical for every context.
  Status verify(const Receipt& receipt, const ImageID& expected_image_id,
                const VerifyContext& context) const;

 private:
  Status verify_composite(const Receipt& receipt,
                          const VerifyContext& context) const;
  Status verify_succinct(const Receipt& receipt) const;

  u32 min_queries_;
};

}  // namespace zkt::zvm
