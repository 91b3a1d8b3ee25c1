// Figure 4 reproduction: proof-generation latency for aggregation and query
// vs the number of NetFlow records (50 .. 3000), on the paper's setup shape
// (4 routers, 5 s commitment windows, SUM(hop_count) query with src/dst
// filter).
//
// Methodology: window 1 establishes the CLog state (genesis round, not
// measured); the measured aggregation is window 2 over the SAME flows, so
// every record exercises Algorithm 1's full update path — RLog hash checks,
// per-record Merkle verification against T_prev (line 16), aggregation, and
// the in-zkVM Merkle rebuild (line 25) that the paper's profiling identifies
// as the dominant cost. The query column uses the paper's §4.2 selective
// mechanism (Merkle-open only the relevant entries); the complete-scan
// column is our extension that additionally proves completeness.
//
// The paper reports minutes (RISC Zero STARK prover); our prover is a
// trace-commitment argument, so absolute times are milliseconds. The
// reproduced *shape*: both curves grow with input size, aggregation is the
// most expensive phase at equal size (more in-zkVM hashing), verification
// stays flat (see bench_verify), and zkVM cycle counts — the quantity
// that drives the paper's latency — grow the same way.
//
// Exits 1 unless the cycle columns have Fig. 4's shape: aggregation cycles
// rise at every step of the sweep, the cycles per added record rise at
// every step too (the n·log n growth, stated without the fixed per-round
// cost that dominates the smallest N), and aggregation is at least 10x the
// selective query's cycles at every N. Cycles are deterministic, so the
// check holds on any machine.
#include <cstdio>

#include "bench_util.h"

using namespace zkt;

int main() {
  std::printf("=== Figure 4: proof generation latency ===\n");
  std::printf("%8s | %12s %12s | %15s %15s | %15s %15s\n", "records",
              "agg ms", "agg cycles", "sel query ms", "sel query cyc",
              "full query ms", "full query cyc");
  std::printf("---------+----------------------------+------------------------"
              "---------+---------------------------------\n");

  const std::vector<u64>& sweep = bench::paper_sweep();
  std::vector<u64> agg_cycles;
  std::vector<u64> selective_cycles;
  for (u64 n : sweep) {
    auto workload = bench::make_committed_workload(n);
    core::AggregationService aggregation(*workload.board);
    auto genesis = aggregation.aggregate(workload.batches);
    if (!genesis.ok()) {
      std::printf("genesis failed at %llu: %s\n", (unsigned long long)n,
                  genesis.error().to_string().c_str());
      return 1;
    }

    // Measured round: same flows again -> all updates.
    auto window2 = bench::add_window(workload, n, /*window_id=*/2);
    auto round = aggregation.aggregate(window2);
    if (!round.ok()) {
      std::printf("aggregation failed at %llu: %s\n", (unsigned long long)n,
                  round.error().to_string().c_str());
      return 1;
    }

    // The paper's example query, against the aggregated state.
    const auto& first_key = workload.batches[0].records[0].key;
    core::Query query =
        core::Query::sum(core::QField::hop_sum)
            .and_where(core::QField::src_ip, core::CmpOp::eq, first_key.src_ip)
            .and_where(core::QField::dst_ip, core::CmpOp::eq, first_key.dst_ip);
    core::QueryService queries(aggregation);
    auto selective = queries.run(
        query, {.mode = core::QueryMode::selective});
    auto complete = queries.run(query);
    if (!selective.ok() || !complete.ok()) {
      std::printf("query failed at %llu\n", (unsigned long long)n);
      return 1;
    }
    if (selective.value().value != complete.value().value) {
      std::printf("query modes disagree at %llu\n", (unsigned long long)n);
      return 1;
    }

    std::printf("%8llu | %12.2f %12llu | %15.2f %15llu | %15.2f %15llu\n",
                (unsigned long long)n, round.value().prove_info.total_ms,
                (unsigned long long)round.value().prove_info.cycles,
                selective.value().prove_info.total_ms,
                (unsigned long long)selective.value().prove_info.cycles,
                complete.value().prove_info.total_ms,
                (unsigned long long)complete.value().prove_info.cycles);
    agg_cycles.push_back(round.value().prove_info.cycles);
    selective_cycles.push_back(selective.value().prove_info.cycles);

    if (n == sweep.front() || n == 3000) {
      // The paper: "Profiling with RISC Zero indicates the majority of this
      // overhead stems from Merkle tree updates performed within the zkVM."
      // At the smallest N the same regions show the fixed per-round cost.
      std::printf("\naggregation cycle breakdown at %llu records "
                  "(weighted: SHA-256 row = 68 cycle-equivalents, as in a "
                  "STARK prover; total %llu weighted):\n",
                  (unsigned long long)n,
                  (unsigned long long)round.value()
                      .prove_info.weighted_cycles());
      for (const auto& [region, cycles] : round.value().prove_info.regions) {
        std::printf("  %-26s %10llu cycles (%5.1f%%)\n", region.c_str(),
                    (unsigned long long)cycles,
                    100.0 * static_cast<double>(cycles) /
                        static_cast<double>(round.value().prove_info.cycles));
      }
    }
  }

  std::printf("\npaper (RISC Zero v3.0, Threadripper PRO 5955WX): aggregation"
              " ~87 min, query ~16 min at 3000 entries; both grow with input\n"
              "size and aggregation dominates, driven by in-zkVM Merkle work "
              "— reproduced by the cycle columns above (agg > query,\n"
              "selective query cheapest because it only opens relevant "
              "entries, exactly as §4.2 describes).\n");
  zkt::bench::write_metrics_snapshot("fig4_proofgen");

  bool rising = true;
  bool marginal_rising = true;
  bool dominant = true;
  double prev_marginal = 0;
  std::printf("\naggregation cycles per added record:");
  for (size_t i = 0; i < sweep.size(); ++i) {
    dominant = dominant && agg_cycles[i] >= 10 * selective_cycles[i];
    if (i == 0) continue;
    rising = rising && agg_cycles[i] > agg_cycles[i - 1];
    const double marginal =
        (static_cast<double>(agg_cycles[i]) -
         static_cast<double>(agg_cycles[i - 1])) /
        static_cast<double>(sweep[i] - sweep[i - 1]);
    std::printf(" %.1f", marginal);
    marginal_rising = marginal_rising && (i == 1 || marginal > prev_marginal);
    prev_marginal = marginal;
  }
  std::printf("\n\nFig. 4 shape: aggregation cycles rise at every N: %s; "
              "cycles per added record rise at every N: %s; >= 10x the "
              "selective query at every N: %s\n",
              rising ? "yes" : "NO", marginal_rising ? "yes" : "NO",
              dominant ? "yes" : "NO");
  return rising && marginal_rising && dominant ? 0 : 1;
}
