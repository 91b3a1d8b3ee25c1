#include "zvm/verifier.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "zvm/image.h"
#include "zvm/prover.h"

namespace zkt::zvm {

namespace {

/// One opened row's semantics, and its agreement with the claim for rows
/// that reference it.
Status check_row(const TraceRow& row, const Claim& claim) {
  ZKT_TRY(row.check());
  if (const auto* bind = std::get_if<RowBindDigest>(&row.op)) {
    const Digest32& expect = bind->target == BindTarget::input
                                 ? claim.input_digest
                                 : claim.journal_digest;
    if (bind->computed != expect) {
      return Error{Errc::proof_invalid, "bind row does not match claim"};
    }
  }
  if (const auto* assume = std::get_if<RowAssume>(&row.op)) {
    const Assumption a{assume->image_id, assume->claim_digest};
    if (std::find(claim.assumptions.begin(), claim.assumptions.end(), a) ==
        claim.assumptions.end()) {
      return Error{Errc::proof_invalid, "assume row not in claim"};
    }
  }
  return {};
}

}  // namespace

Status Verifier::verify(const Receipt& receipt,
                        const ImageID& expected_image_id,
                        const VerifyContext& context) const {
  if (context.stats != nullptr) ++context.stats->receipts;
  if (receipt.claim.image_id != expected_image_id) {
    return Error{Errc::proof_invalid, "receipt is for a different image"};
  }
  // The journal is public: its digest must match the claim regardless of
  // seal kind.
  if (crypto::sha256(receipt.journal) != receipt.claim.journal_digest) {
    return Error{Errc::proof_invalid, "journal digest mismatch"};
  }
  switch (receipt.seal_kind) {
    case SealKind::composite: return verify_composite(receipt, context);
    case SealKind::succinct: return verify_succinct(receipt);
  }
  return Error{Errc::proof_invalid, "unknown seal kind"};
}

Status Verifier::verify_succinct(const Receipt& receipt) const {
  return receipt.succinct.check(receipt.claim.digest());
}

Status Verifier::verify_composite(const Receipt& receipt,
                                  const VerifyContext& context) const {
  const auto& seal = receipt.composite;
  if (seal.segments.empty()) {
    return Error{Errc::proof_invalid, "seal has no segments"};
  }
  auto total_rows = seal.total_rows();
  if (!total_rows.ok()) return total_rows.error();
  if (total_rows.value() != receipt.claim.cycle_count) {
    return Error{Errc::proof_invalid, "cycle count does not match trace"};
  }
  if (receipt.claim.cycle_count == 0) {
    return Error{Errc::proof_invalid, "empty trace"};
  }

  const Digest32 claim_digest = receipt.claim.digest();
  const Digest32 roots_digest = seal.roots_digest();

  for (u64 seg = 0; seg < seal.segments.size(); ++seg) {
    const auto& segment = seal.segments[seg];
    if (segment.row_count == 0) {
      return Error{Errc::proof_invalid, "empty trace segment"};
    }
    const u64 leaf_count = leaves_for_rows(segment.row_count);
    // The prover may open more leaves than our policy requires, never fewer.
    const u64 required = std::min<u64>(min_queries_, leaf_count);
    if (segment.openings.size() < required) {
      return Error{Errc::proof_invalid, "too few seal openings"};
    }

    // Recompute the Fiat–Shamir challenges; the prover cannot choose which
    // leaves to open.
    const auto expect_indices = derive_query_indices(
        claim_digest, roots_digest, seg, segment.trace_root,
        segment.row_count, static_cast<u32>(segment.openings.size()));
    if (expect_indices.size() != segment.openings.size()) {
      return Error{Errc::proof_invalid, "wrong number of openings"};
    }

    // Index and proof-shape checks for every opening first...
    for (size_t i = 0; i < segment.openings.size(); ++i) {
      const auto& opening = segment.openings[i];
      if (opening.leaf_index != expect_indices[i]) {
        return Error{Errc::proof_invalid, "opening index mismatch"};
      }
      if (opening.proof.leaf_index != opening.leaf_index ||
          opening.proof.leaf_count != leaf_count) {
        return Error{Errc::proof_invalid, "opening proof shape mismatch"};
      }
    }

    // ...then one batched leaf hash (sha256_many lanes) and one batched
    // Merkle-path pass (hash_pairs + converging-path dedup) over the whole
    // segment, instead of per-opening hashing.
    std::vector<BytesView> leaf_views(segment.openings.size());
    for (size_t i = 0; i < segment.openings.size(); ++i) {
      leaf_views[i] = BytesView(segment.openings[i].leaf_bytes);
    }
    const std::vector<Digest32> leaves =
        crypto::MerkleTree::hash_leaves(leaf_views);
    std::vector<crypto::LeafProof> path_items(segment.openings.size());
    for (size_t i = 0; i < segment.openings.size(); ++i) {
      path_items[i] = {&leaves[i], &segment.openings[i].proof};
    }
    crypto::PathBatchStats path_stats;
    ZKT_TRY(crypto::MerkleTree::verify_batch(segment.trace_root, path_items,
                                             &path_stats));
    if (context.stats != nullptr) {
      context.stats->openings += segment.openings.size();
      context.stats->node_hashes += path_stats.node_hashes;
      context.stats->node_hashes_shared += path_stats.node_hashes_shared;
    }

    // Semantics of every row of every opened leaf, in opening order: leaf
    // i holds exactly min(kRowsPerLeaf, rows - kRowsPerLeaf·i) rows (i is
    // below leaf_count, so that product stays below row_count).
    for (const auto& opening : segment.openings) {
      const u64 rows = std::min(
          kRowsPerLeaf, segment.row_count - opening.leaf_index * kRowsPerLeaf);
      Reader r(opening.leaf_bytes);
      for (u64 j = 0; j < rows; ++j) {
        if (r.done()) {
          return Error{Errc::proof_invalid, "trace leaf holds too few rows"};
        }
        auto row = TraceRow::deserialize(r);
        if (!row.ok()) return row.error();
        ZKT_TRY(check_row(row.value(), receipt.claim));
      }
      if (!r.done()) {
        return Error{Errc::proof_invalid, "trailing bytes in trace leaf"};
      }
    }
  }

  // Every claimed assumption must be backed by an embedded receipt that
  // itself verifies — or that equals the receipt the caller already
  // verified, so skipping is exactly equivalent to re-verifying.
  for (const auto& assumption : receipt.claim.assumptions) {
    bool matched = false;
    for (const auto& inner : receipt.assumption_receipts) {
      if (inner.claim.image_id == assumption.image_id &&
          inner.claim.digest() == assumption.claim_digest) {
        if (context.verified != nullptr && inner == *context.verified) {
          if (context.stats != nullptr) ++context.stats->assumptions_skipped;
        } else {
          ZKT_TRY(verify(inner, assumption.image_id, context));
        }
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Error{Errc::proof_invalid, "unresolved assumption"};
    }
  }
  return {};
}

}  // namespace zkt::zvm
