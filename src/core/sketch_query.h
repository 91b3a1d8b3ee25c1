// Verifiable round-sketch queries: prove answers against the sketch an
// aggregation round committed, without revealing it, in time flat in the
// CLog size.
//
// Two guests share the module:
//
//   sketch_heavy — heavy hitters above threshold T against the ROUND
//       sketch an aggregation receipt carries (DESIGN.md §10): binds the
//       receipt, authenticates the sketch bytes against the journal's
//       sketch digest, proves in-trace that T clears the Space-Saving
//       completeness floor (T * capacity > total, so no qualifying flow can
//       be missing), and publishes every tracked flow with count >= T plus
//       its Count-Min cross-estimate. Cost O(width * depth + capacity) —
//       flat in the number of flows N.
//
//   sketch_card — distinct-flow cardinality against the round sketch: the
//       exact count is the bound journal's new_entry_count (the CLog holds
//       one entry per flow); the guest additionally derives the Count-Min
//       nonzero-counter lower bound and proves the two consistent.
//
// The client learns only the journal — never the sketch bytes. Per-flow
// questions go to the selective exact point query (core/query.h).
#pragma once

#include "core/guests.h"
#include "netflow/sketch.h"
#include "zvm/prover.h"

namespace zkt::core {

/// One reported heavy hitter: the Space-Saving entry plus the Count-Min
/// cross-estimate at the same key. The proven bracket is
///   count - error <= true count <= cms_estimate.
struct SketchHeavyHit {
  netflow::FlowKey key;
  u64 count = 0;         ///< Space-Saving counter (overestimate)
  u64 error = 0;         ///< Space-Saving overestimate bound
  u64 cms_estimate = 0;  ///< Count-Min point estimate (overestimate)

  friend bool operator==(const SketchHeavyHit&,
                         const SketchHeavyHit&) = default;
};

/// Public journal of a heavy-hitters proof ("SKHH").
struct SketchHeavyJournal {
  Digest32 agg_claim_digest;  ///< aggregation receipt the query bound
  Digest32 sketch_digest;     ///< the round sketch digest it queried
  netflow::SketchParams params;
  u64 total = 0;      ///< sketch's total folded weight
  u64 threshold = 0;  ///< the query's T
  /// Every flow with Space-Saving count >= threshold, (count desc, key asc).
  /// Complete by the in-trace floor check threshold * capacity > total.
  std::vector<SketchHeavyHit> hits;

  void write(Writer& w) const;
  static Result<SketchHeavyJournal> parse(BytesView journal);
};

/// Public journal of a distinct-flow cardinality proof ("SKCD").
struct SketchCardinalityJournal {
  Digest32 agg_claim_digest;
  Digest32 sketch_digest;
  netflow::SketchParams params;
  u64 total = 0;            ///< sketch's total folded weight
  u64 distinct_flows = 0;   ///< exact: the bound round's CLog entry count
  u64 cms_lower_bound = 0;  ///< max over rows of nonzero counters (<= exact)

  void write(Writer& w) const;
  static Result<SketchCardinalityJournal> parse(BytesView journal);
};

zvm::ImageID sketch_heavy_image();
zvm::ImageID sketch_card_image();

struct SketchHeavyResponse {
  zvm::Receipt receipt;
  SketchHeavyJournal journal;
  zvm::ProveInfo prove_info;
};

struct SketchCardinalityResponse {
  zvm::Receipt receipt;
  SketchCardinalityJournal journal;
  zvm::ProveInfo prove_info;
};

/// True iff the Space-Saving completeness floor holds for `threshold`
/// against a sketch with the given capacity and total weight — the
/// error-bound gate QueryService's router and the in-guest assert share.
bool sketch_heavy_bound_ok(u64 threshold, u64 capacity, u64 total);

/// Prove the heavy hitters above `threshold` against the round sketch the
/// aggregation receipt committed. `sketch` must be the prover's copy of
/// that round's sketch (its hash must equal the journal's sketch_digest —
/// anything else fails in-guest). Fails fast with invalid_argument when the
/// receipt carries no sketch or `threshold` does not clear the provable
/// floor (callers should fall back to an exact query).
Result<SketchHeavyResponse> prove_sketch_heavy(
    const zvm::Receipt& agg_receipt, const netflow::RoundSketch& sketch,
    u64 threshold, const zvm::ProveOptions& options = {});

/// Prove the distinct-flow cardinality of the round the aggregation receipt
/// committed, against its round sketch.
Result<SketchCardinalityResponse> prove_sketch_cardinality(
    const zvm::Receipt& agg_receipt, const netflow::RoundSketch& sketch,
    const zvm::ProveOptions& options = {});

}  // namespace zkt::core
