// Auditor: the client/regulator-side verifier (the "Verifier" box of
// Figure 1). Holds no private data — only receipts, their public journals,
// and the public commitment board.
//
// The auditor maintains the verified chain of aggregation rounds: each new
// round's receipt must verify, extend the verified ChainPosition under the
// one chain-link rule (ChainPosition::extend), and consume only
// commitments that routers actually published (signatures checked by the
// board). Query receipts are then verified against any accepted round.
//
// Three ways to feed it, all with byte-identical accept/reject decisions:
//   accept_round()   — one receipt at a time (the original surface);
//   accept_rounds()  — a batch per round-trip, verified through
//                      core::BatchVerifier (pool fan-out + chain dedup);
//   audit()          — a whole chain pulled off a core::ReceiptSource in
//                      bounded windows, so an arbitrarily long receipt file
//                      verifies in O(1) memory.
// Verification work is published to obs as core.auditor.* instruments (see
// docs/OBSERVABILITY.md).
#pragma once

#include <deque>
#include <optional>
#include <set>

#include "core/batch_verifier.h"
#include "core/commitment.h"
#include "core/guests.h"
#include "core/sketch_query.h"
#include "crypto/sha256_backend.h"
#include "zvm/verifier.h"

namespace zkt::core {

class ReceiptSource;  // core/io.h (host-side streaming input)
struct EpochSeal;     // core/epoch.h (ladder seal record)

/// A verified chain head: what an audit or catch-up reports.
struct ChainHead {
  u64 rounds = 0;            ///< rounds the chain covers
  Digest32 claim_digest;     ///< claim digest of the last round
  Digest32 root;             ///< Merkle root after the last round
  u64 entry_count = 0;       ///< entries under `root`
};

struct ChainPosition;

/// The chain-link fields of one proof object covering `rounds` consecutive
/// rounds — a round receipt, a tree seal's shard link, or an epoch seal:
/// the position it extends (has_prev, prev_*) and the one it establishes.
/// Sketch fields are meaningful only when has_sketch.
struct ChainSpan {
  u64 rounds = 1;
  bool has_prev = false;  ///< false: the span starts at genesis
  Digest32 prev_claim_digest;
  Digest32 prev_root;
  u64 prev_entry_count = 0;
  Digest32 claim_digest;  ///< claim digest of the span's last round
  Digest32 new_root;
  u64 new_entry_count = 0;
  bool has_sketch = false;
  netflow::SketchParams sketch_params;
  Digest32 prev_sketch_digest;
  Digest32 sketch_digest;

  /// The positions the span starts from and ends at, when it starts
  /// `before` rounds into the chain.
  ChainPosition start(u64 before) const;
  ChainPosition end(u64 before) const;
};

/// The span of one aggregation round receipt with this claim digest.
ChainSpan span_of(const AggJournal& journal, const Digest32& claim_digest);

/// A verified chain position: ChainHead plus the proof-carrying sketch
/// (DESIGN.md §10). A default position is genesis — no rounds, the empty
/// tree's root, no sketch yet.
struct ChainPosition {
  u64 rounds = 0;
  Digest32 claim_digest;
  Digest32 root = crypto::MerkleTree::empty_leaf();
  u64 entry_count = 0;
  bool has_sketch = false;
  netflow::SketchParams sketch_params;
  Digest32 sketch_digest;

  /// The one chain-link rule (DESIGN.md §8): check that `span` extends this
  /// position — at genesis, that it starts from the empty state and the
  /// empty sketch; afterwards, that it chains onto this claim, root, entry
  /// count and sketch — and only then advance to the span's end. A
  /// rejected span (chain_broken) leaves the position unchanged.
  Status extend(const ChainSpan& span);

  ChainHead head() const {
    return ChainHead{rounds, claim_digest, root, entry_count};
  }
  friend bool operator==(const ChainPosition&, const ChainPosition&) = default;
};

/// Per-call knobs for the query/summary verification surface. One struct
/// for every verify_* entry point, per the repo's options convention.
struct VerifyOptions {
  /// When set, the receipt must prove exactly this query.
  const Query* expected_query = nullptr;
  /// Optional accounting sink (merged, not overwritten).
  zvm::VerifyStats* stats = nullptr;
};

/// Construction knobs for Auditor.
struct AuditorOptions {
  /// Soundness floor: composite seals must open at least
  /// min(min_queries, row_count) Fiat–Shamir-chosen rows. Overrides
  /// batch.min_queries (the auditor is the single source of truth).
  u32 min_queries = 32;
  /// Accepted-claim window capacity: queries must target one of the last N
  /// accepted rounds; older targets are rejected as chain_broken even
  /// though they once verified. 0 = unbounded (the pre-window behavior —
  /// O(chain length) memory, which defeats streaming audits). The current
  /// head is always retained.
  u64 accepted_claim_window = 1024;
  /// Pin the SHA-256 backend (process-global, like ZKT_SHA256_BACKEND).
  /// Best-effort: an unavailable backend leaves runtime dispatch in place;
  /// callers that must know use crypto::sha256_force_backend directly.
  std::optional<crypto::Sha256Backend> backend;
  /// Batch-verification knobs (pool, parallelism) for accept_rounds/audit.
  BatchVerifierOptions batch;
};

/// Per-call knobs for Auditor::audit.
struct AuditOptions {
  /// Receipts pulled off the source and verified per round-trip. This is
  /// the audit's peak receipt residency — memory is O(batch_size), never
  /// O(chain length). 0 behaves as 1.
  u64 batch_size = 64;
  /// Optional accounting sink (merged, not overwritten).
  zvm::VerifyStats* stats = nullptr;
};

/// What an audit established.
struct AuditReport {
  u64 rounds = 0;   ///< rounds accepted by THIS audit call
  ChainHead head;   ///< chain head after the audit
};

/// What a catch_up() established (see Auditor::catch_up).
struct CatchUpReport {
  u64 seals_adopted = 0;    ///< epoch seals verified and adopted
  u64 seal_rounds = 0;      ///< rounds covered by those seals
  u64 rounds_replayed = 0;  ///< suffix rounds verified individually
  ChainHead head;           ///< chain head after catch-up
};

/// Bounded, insertion-ordered set of accepted aggregation claim digests.
/// The unbounded std::set it replaces grew by 32 bytes per accepted round
/// forever — fine for a demo, wrong for an auditor tracking years of
/// rounds. Capacity 0 means unbounded; otherwise the oldest claims are
/// evicted first, so the chain head is always retained.
class AcceptedClaimWindow {
 public:
  explicit AcceptedClaimWindow(u64 capacity) : capacity_(capacity) {}

  void insert(const Digest32& claim_digest);
  bool contains(const Digest32& claim_digest) const {
    return lookup_.count(claim_digest.bytes) > 0;
  }
  u64 size() const { return order_.size(); }
  u64 capacity() const { return capacity_; }

 private:
  u64 capacity_;
  std::set<std::array<u8, 32>> lookup_;
  std::deque<std::array<u8, 32>> order_;
};

class Auditor {
 public:
  explicit Auditor(const CommitmentBoard& board, AuditorOptions options = {});

  /// Verify an aggregation receipt and append it to the trusted chain.
  /// Returns the parsed journal on success.
  Result<AggJournal> accept_round(const zvm::Receipt& receipt);

  /// Verify a batch of consecutive rounds in one round-trip (BatchVerifier:
  /// pool fan-out, chain-continuity sibling dedup), then chain them on in
  /// order. Stops at the first failure — the already-accepted prefix stays
  /// accepted (exactly as a loop over accept_round would leave it) and the
  /// returned error is the same the sequential walk reports. On success
  /// returns the number of rounds accepted by this call. `stats` (optional)
  /// receives the verification accounting, merged.
  Result<u64> accept_rounds(std::span<const zvm::Receipt> receipts,
                            zvm::VerifyStats* stats = nullptr);

  /// Streaming audit: pull receipts off `source` in batch_size windows and
  /// accept_rounds() each window. Peak memory is O(batch_size) receipts —
  /// independent of chain length — so arbitrarily long receipt files audit
  /// in O(1) memory. Source errors (truncation, CRC, injected faults) and
  /// verification/continuity failures surface unchanged.
  Result<AuditReport> audit(ReceiptSource& source,
                            const AuditOptions& options = {});

  /// Cold-verifier catch-up: verify a ladder of epoch seals in chain order,
  /// advancing a local position through each seal under the same
  /// chain-link rule accept_round applies (plus the seals' commitment-chain
  /// splice), adopt that position, then accept the unsealed suffix rounds
  /// through the normal batch path. Accept/reject decisions are
  /// byte-identical to a full sequential audit of the same chain; the cost
  /// is O(log T) seal verifications + O(epoch) suffix instead of O(T). The
  /// seal journals carry the sketch position, so sketch queries work
  /// immediately after catch-up. Only allowed on a fresh auditor.
  /// Implemented in core/epoch.cpp.
  Result<CatchUpReport> catch_up(std::span<const EpochSeal> seals,
                                 std::span<const zvm::Receipt> suffix,
                                 zvm::VerifyStats* stats = nullptr);

  /// Verify a query receipt (complete-scan or selective). It must target an
  /// accepted aggregation round (within the accepted-claim window), carry
  /// the seal of the mode it claims, and (if options.expected_query is set)
  /// prove exactly that query. Returns the parsed journal — check `.mode`
  /// before treating COUNT-style results as complete.
  Result<QueryJournal> verify_query(const zvm::Receipt& receipt,
                                    const VerifyOptions& options = {});

  /// Verify a sketch heavy-hitters receipt: it must target an accepted
  /// round, and when it targets the current head, answer against exactly
  /// the sketch digest this chain carried there (a stale or forged sketch
  /// digest is rejected even though the receipt itself verifies).
  Result<SketchHeavyJournal> verify_heavy_hitters(
      const zvm::Receipt& receipt, const VerifyOptions& options = {});

  /// Verify a sketch cardinality receipt, with the same binding rules.
  Result<SketchCardinalityJournal> verify_cardinality(
      const zvm::Receipt& receipt, const VerifyOptions& options = {});

  u64 rounds_accepted() const { return position_.rounds; }
  const Digest32& current_root() const { return position_.root; }
  u64 current_entry_count() const { return position_.entry_count; }
  ChainHead head() const { return position_.head(); }
  /// Whether an aggregation receipt with this claim digest was accepted and
  /// is still inside the accepted-claim window.
  bool is_accepted_claim(const Digest32& claim_digest) const {
    return claims_.contains(claim_digest);
  }
  const AuditorOptions& options() const { return options_; }

  /// Whether accepted rounds carry the proof-carrying sketch.
  bool has_sketch() const { return position_.has_sketch; }
  /// The sketch digest after the last accepted round.
  const Digest32& sketch_digest() const { return position_.sketch_digest; }
  const netflow::SketchParams& sketch_params() const {
    return position_.sketch_params;
  }

 private:
  /// Chain-link rule + board cross-checks and state update for a receipt
  /// whose SEAL already verified. Shared by the single and batch paths.
  Result<AggJournal> adopt_verified(const zvm::Receipt& receipt);
  /// Shared binding checks for the round-sketch query verifiers.
  Status check_sketch_query_binding(const Digest32& agg_claim_digest,
                                    const Digest32& queried_sketch_digest,
                                    const netflow::SketchParams& params);

  const CommitmentBoard* board_;
  AuditorOptions options_;
  zvm::Verifier verifier_;
  BatchVerifier batch_;
  ChainPosition position_;
  AcceptedClaimWindow claims_;
};

}  // namespace zkt::core
