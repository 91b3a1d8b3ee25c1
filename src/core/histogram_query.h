// Verifiable quantile bounds from committed latency histograms: the SLA
// claim of §2.1 — "at least 90 % of [samples] achieve RTT < X ms" — proven
// without revealing the latency distribution.
//
// The guest checks the histogram bytes against the published commitment,
// recomputes (count of samples provably below the bound, total) with traced
// arithmetic, and publishes only those two numbers plus the bound. The
// verifier derives the fraction; the shape of the distribution stays
// private.
#pragma once

#include "core/commitment.h"
#include "core/guests.h"
#include "netflow/histogram.h"
#include "zvm/prover.h"

namespace zkt::core {

struct HistogramQueryJournal {
  /// Published histogram commitment: rlog_hash = histogram hash,
  /// record_count = total samples.
  CommitmentRef commitment;
  u64 bound_us = 0;
  u64 count_below = 0;  ///< samples provably below bound_us
  u64 total = 0;

  // NOTE: the floating-point view (fraction below the bound) lives in
  // core/describe.h as free function fraction_below() — this header is
  // guest-reachable and must stay float-free (rule guest-determinism).

  /// The HQRY1 layout (common/codec.h): the commitment without its tag.
  template <class V, class Self>
  static void fields(V& v, Self& j) {
    v.magic("HQRY1");
    CommitmentRef::untagged_fields(v, j.commitment);
    v.field("bound_us", j.bound_us);
    v.field("count_below", j.count_below);
    v.field("total", j.total);
  }
  void write(Writer& w) const { encode(w, *this); }
  static Result<HistogramQueryJournal> parse(BytesView journal) {
    return decode<HistogramQueryJournal>(journal);
  }
};

zvm::ImageID histogram_query_image();

struct HistogramQueryResponse {
  zvm::Receipt receipt;
  HistogramQueryJournal journal;
  zvm::ProveInfo prove_info;
};

/// Prove the below-bound count for `bound_us` against `histogram`, whose
/// hash must already be published as `ref`.
Result<HistogramQueryResponse> prove_histogram_query(
    const CommitmentRef& ref, const netflow::LatencyHistogram& histogram,
    u64 bound_us, const zvm::ProveOptions& options = {});

}  // namespace zkt::core
