// Table 1 reproduction: proof / journal / receipt sizes of the aggregation
// step vs the number of records.
//
// Proofs are constant-size (256 B — the succinct SNARK seal), as in the
// paper. Unlike the paper, journal and receipt are constant too: the
// journal carries the public commitment references and commits the
// per-entry updates by digest (update_count + updates_digest), so the
// linear growth lives in the out-of-band update list; the receipt adds the
// claim and seal. See EXPERIMENTS.md, Table 1.
#include <cstdio>

#include "bench_util.h"

using namespace zkt;

int main() {
  std::printf("=== Table 1: proof size of aggregation ===\n");
  std::printf("%12s | %13s | %12s | %12s\n", "# of records", "Proof (bytes)",
              "Journal (KB)", "Receipt (KB)");
  std::printf("-------------+---------------+--------------+--------------\n");

  for (u64 n : bench::paper_sweep()) {
    auto workload = bench::make_committed_workload(n);
    core::AggregationService aggregation(*workload.board);
    auto round = aggregation.aggregate(workload.batches);
    if (!round.ok()) {
      std::printf("aggregation failed at %llu: %s\n", (unsigned long long)n,
                  round.error().to_string().c_str());
      return 1;
    }
    const auto& receipt = round.value().receipt;
    std::printf("%12llu | %13zu | %12.1f | %12.1f\n", (unsigned long long)n,
                receipt.proof_size_bytes(),
                static_cast<double>(receipt.journal.size()) / 1024.0,
                static_cast<double>(receipt.receipt_size_bytes()) / 1024.0);
  }

  std::printf("\npaper: proof constant at 256 B; journal 3.6 KB -> 176.7 KB "
              "and receipt 7.6 KB -> 346 KB from 50 to 3000 records.\n");

  // Query receipts behave the same way (paper: "the query proof and
  // verification show similar behavior").
  std::printf("\n--- query receipts over the same states ---\n");
  std::printf("%12s | %13s | %12s | %12s\n", "# of records", "Proof (bytes)",
              "Journal (KB)", "Receipt (KB)");
  for (u64 n : bench::paper_sweep()) {
    auto workload = bench::make_committed_workload(n);
    core::AggregationService aggregation(*workload.board);
    auto round = aggregation.aggregate(workload.batches);
    if (!round.ok()) return 1;
    core::QueryService queries(aggregation);
    auto resp = queries.run(core::Query::sum(core::QField::packets));
    if (!resp.ok()) return 1;
    const auto& receipt = resp.value().receipt;
    std::printf("%12llu | %13zu | %12.3f | %12.3f\n", (unsigned long long)n,
                receipt.proof_size_bytes(),
                static_cast<double>(receipt.journal.size()) / 1024.0,
                static_cast<double>(receipt.receipt_size_bytes()) / 1024.0);
  }
  zkt::bench::write_metrics_snapshot("table1_sizes");
  return 0;
}
