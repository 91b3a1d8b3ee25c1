// Prover: executes a guest image over private input and produces a Receipt.
//
// Pipeline (mirrors a zkVM prover):
//   1. bind the private input into the claim (traced hashing),
//   2. execute the guest, recording the operation trace once, as row bytes;
//      each segment of max_segment_rows rows is handed to the shared pool
//      the moment it fills and Merkle-committed there while the guest keeps
//      executing,
//   3. bind the public journal into the claim,
//   4. commit the last, partial segment and wait for the others,
//   5. derive Fiat–Shamir query indices and open those leaves (each one
//      kRowsPerLeaf consecutive rows),
//   6. optionally wrap the composite seal into a constant-size succinct seal.
// Overlapping commitment with execution changes only when the hashing runs:
// segment boundaries, roots, openings and receipt bytes are the same at
// every pool width.
//
// A guest abort (failed assertion — e.g. an RLog hash mismatch during
// aggregation) aborts proving with the guest's error: tampered data makes
// proof generation fail, exactly the behaviour the paper's §5/§6 describe.
#pragma once

#include "zvm/env.h"
#include "zvm/image.h"
#include "zvm/receipt.h"

namespace zkt::zvm {

struct ProveOptions {
  SealKind seal_kind = SealKind::succinct;
  /// Number of Fiat–Shamir leaf openings per trace segment (each leaf holds
  /// kRowsPerLeaf rows).
  u32 num_queries = 32;
  /// Maximum rows per trace segment (the continuation size). Long guests
  /// are split into ceil(rows / max_segment_rows) segments, each committed
  /// and opened independently; every full one is committed while the guest
  /// is still executing.
  u64 max_segment_rows = kDefaultSegmentRows;
  /// Receipts backing the guest's verify_assumption calls.
  std::vector<Receipt> assumptions;
};

struct ProveInfo {
  u64 cycles = 0;        ///< trace rows (the zvm cost unit)
  u64 sha_rows = 0;      ///< SHA-256 compression rows
  u64 segments = 0;      ///< trace segments sealed
  double execute_ms = 0; ///< guest execution + trace recording (full
                         ///< segments are committed meanwhile)
  double commit_ms = 0;  ///< the rest after bind_journal: last segment's
                         ///< commitment, waiting for the others, openings
  double total_ms = 0;
  /// Per-phase cycle attribution from the guest's profiling regions
  /// (first-seen order; cycles outside any region are not listed).
  std::vector<std::pair<std::string, u64>> regions;

  /// STARK-equivalent cost estimate: a SHA-256 compression circuit costs
  /// ~68 RISC-V-cycle-equivalents in provers like RISC Zero, while our
  /// trace charges every row equally. This reweights accordingly, which is
  /// the right unit when comparing against the paper's proving times.
  u64 weighted_cycles() const {
    return sha_rows * 68 + (cycles - sha_rows);
  }
};

class Prover {
 public:
  explicit Prover(const ImageRegistry& registry = ImageRegistry::instance())
      : registry_(&registry) {}

  Result<Receipt> prove(const ImageID& image_id, BytesView input,
                        const ProveOptions& options = {},
                        ProveInfo* info = nullptr) const;

 private:
  const ImageRegistry* registry_;
};

/// Derive the Fiat–Shamir leaf-query indices for one trace segment of
/// `row_count` rows: min(num_queries, leaf count) distinct indices below its
/// leaf count, in draw order. The challenges bind the claim, the digest of
/// ALL segment roots, this segment's index, its own root and its row count
/// — so no segment's openings can be recomputed without fixing the whole
/// seal first. Shared between prover and verifier so challenges are
/// reproducible.
std::vector<u64> derive_query_indices(const Digest32& claim_digest,
                                      const Digest32& roots_digest,
                                      u64 segment_index,
                                      const Digest32& segment_root,
                                      u64 row_count, u32 num_queries);

}  // namespace zkt::zvm
