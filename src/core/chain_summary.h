// Chain summaries and epoch seals: merge a span of aggregation rounds into
// ONE receipt — §7's "partial proofs can then be merged into a single final
// proof", applied to the round chain, incrementally.
//
// The summary guest folds a mixed list of children in chain order. A child
// is either an aggregation ROUND receipt or a prior SUMMARY receipt; every
// child is verified via the assumption mechanism (exactly like
// zkt.guest.join binds its children) and the chain links — claim digest,
// Merkle root, entry count, sketch digest — are re-checked inside the
// proven execution across every splice point. That makes summaries
// *incremental*:
//
//   summary(0..j) = fold(summary(0..i), rounds(i+1..j))
//
// so extending a sealed chain by one epoch costs O(epoch), not O(chain).
//
// The journal is CONSTANT SIZE in the rounds covered: instead of the full
// consumed-commitment list it carries a running commitment-chain digest
// (first -> final, domain "zkt.epoch.commitments.v1" — the same trick the
// AGG1 journal uses for its touched-entry list). The ordered CommitmentRef
// list travels out-of-band (EpochSeal records, files); the verifier
// recomputes the chain with host hashing and cross-checks every ref against
// the public board, so an auditor who was offline for the whole history
// verifies one receipt + a ref list — no round-by-round replay.
#pragma once

#include "core/auditor.h"
#include "core/guests.h"
#include "zvm/prover.h"

namespace zkt::core {

/// Public journal of a chain-summary / epoch-seal receipt ("EPOCH1").
/// Describes a SPAN of consecutive rounds: the chain state it folds from
/// (first_*) and the state it establishes (final_*). A genesis span folds
/// from the empty chain; a non-genesis span is only meaningful spliced onto
/// a summary whose finals equal its firsts.
struct ChainSummaryJournal {
  u64 rounds = 0;        ///< rounds the span covers
  bool genesis = false;  ///< span starts at the chain's genesis round

  // Span-start links (what the span chains FROM; zero/empty at genesis).
  Digest32 first_claim_digest;  ///< prev-claim of the span's first round
  Digest32 first_root;          ///< Merkle root before the span
  u64 first_entry_count = 0;

  // Span-end state (what the span establishes).
  Digest32 final_claim_digest;  ///< claim of the last round in the span
  Digest32 final_root;
  u64 final_entry_count = 0;

  // Commitment-chain digest: hash-chained over every CommitmentRef the span
  // consumed, in consumption order, starting from first_commitments_digest
  // (the genesis init is sha256("zkt.epoch.commitments.v1")). Constant size
  // no matter how many rounds/commitments the span covers.
  u64 commitment_count = 0;
  Digest32 first_commitments_digest;
  Digest32 final_commitments_digest;

  // Proof-carrying sketch continuity (DESIGN.md §10), chained through the
  // span exactly like the Merkle root so a cold verifier re-establishes the
  // sketch position from the seal alone.
  bool has_sketch = false;
  netflow::SketchParams sketch_params;
  Digest32 first_sketch_digest;  ///< prev sketch digest before the span
  Digest32 final_sketch_digest;  ///< sketch digest after the span
  u64 final_sketch_total = 0;

  void write(Writer& w) const;
  static Result<ChainSummaryJournal> parse(BytesView journal);
};

zvm::ImageID chain_summary_image();
bool is_chain_summary_image(const zvm::ImageID& image);

/// Host mirror of the in-guest commitment-chain digest: the init value and
/// one fold step per consumed ref. Catch-up verifiers replay this (cheap
/// host SHA-256) over the out-of-band ref list to anchor a seal's
/// final_commitments_digest.
Digest32 epoch_commitments_init();
Digest32 epoch_commitments_fold(const Digest32& digest,
                                const CommitmentRef& ref);

struct ChainSummaryResponse {
  zvm::Receipt receipt;
  ChainSummaryJournal journal;
  /// Commitment refs consumed by ROUND children, in consumption order (a
  /// summary child's refs are NOT re-materialized here — the caller holding
  /// the child's seal record already has them; see EpochSeal).
  std::vector<CommitmentRef> commitments;
  zvm::ProveInfo prove_info;
};

/// Per-call options for prove_epoch_span, per the repo's options-struct
/// convention.
struct EpochSpanOptions {
  /// Commitment-chain digest before the span. Required when the span's
  /// first child is a NON-genesis round; ignored when the first child is a
  /// summary (derived from its journal) and must be absent-or-init when the
  /// span starts at genesis.
  std::optional<Digest32> first_commitments_digest;
  zvm::ProveOptions prove_options;
};

/// Prove a summary over a mixed child list in chain order: each child is
/// either an aggregation-round receipt or a prior summary receipt, and
/// consecutive children must chain (finals == nexts' firsts — asserted
/// in-trace). This is the incremental fold: [prior_summary, new rounds…]
/// extends a sealed prefix by a span of new rounds in O(span), and
/// [seal_a, seal_b] merges two adjacent seals in O(1) rounds' work (the
/// binary-counter ladder's merge step). A genesis-anchored summary child
/// can only appear first.
Result<ChainSummaryResponse> prove_epoch_span(
    std::span<const zvm::Receipt> children,
    const EpochSpanOptions& options = {});

/// Verifier side: verify the summary receipt with the caller's `verifier`
/// (and its soundness floor), recompute the commitment chain from
/// `commitments` (the span's out-of-band ordered ref list) and check it
/// lands on the journal's final digest. Genesis spans must start from the
/// init digest. The refs are not looked up here: Auditor::catch_up checks
/// them against the public board, and validate_recovered_seal against the
/// chain's own journals. `options.stats` is merged when set
/// (expected_query is ignored).
Result<ChainSummaryJournal> verify_chain_summary(
    const zvm::Verifier& verifier, const zvm::Receipt& receipt,
    std::span<const CommitmentRef> commitments,
    const VerifyOptions& options = {});

}  // namespace zkt::core
