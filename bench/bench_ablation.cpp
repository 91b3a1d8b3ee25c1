// Design-choice ablations called out in DESIGN.md:
//
//  (a) seal soundness vs size/latency: number of Fiat–Shamir openings in the
//      composite seal (each opening halves-ish a cheating prover's escape
//      probability; more openings = bigger seal, slower prove/verify);
//  (b) composite vs succinct sealing (the Groth16-wrapper trade: constant
//      256 B proof vs transparent but growing seal);
//  (c) complete vs selective query proofs (completeness costs O(state),
//      selectivity costs O(matches·log n)).
#include <cstdio>

#include "bench_util.h"

using namespace zkt;

int main() {
  constexpr u64 kRecords = 1000;

  std::printf("=== (a) Fiat-Shamir opening count (records=%llu, composite)"
              " ===\n",
              (unsigned long long)kRecords);
  std::printf("%9s | %12s | %14s | %12s\n", "openings", "prove ms",
              "seal bytes", "verify ms");
  std::printf("----------+--------------+----------------+-------------\n");
  for (u32 queries : {8u, 16u, 32u, 64u, 128u, 256u}) {
    auto workload = bench::make_committed_workload(kRecords);
    zvm::ProveOptions options;
    options.seal_kind = zvm::SealKind::composite;
    options.num_queries = queries;
    core::AggregationService service(*workload.board,
                                     core::AggregationOptions{options});
    auto round = service.aggregate(workload.batches);
    if (!round.ok()) return 1;

    zvm::Verifier verifier(queries);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 20; ++i) {
      if (!verifier.verify(round.value().receipt,
                           core::guest_images().aggregate)
               .ok()) {
        return 1;
      }
    }
    const double verify_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        20;
    std::printf("%9u | %12.1f | %14zu | %12.3f\n", queries,
                round.value().prove_info.total_ms,
                round.value().receipt.seal_size_bytes(), verify_ms);
  }

  std::printf("\n=== (b) composite vs succinct sealing (aggregation) ===\n");
  std::printf("%8s | %10s | %14s %14s | %14s %14s\n", "records", "seal",
              "prove ms", "proof bytes", "receipt KB", "verify ms");
  std::printf("---------+------------+-------------------------------+------"
              "-------------------------\n");
  for (u64 n : {100ULL, 1000ULL, 3000ULL}) {
    for (auto kind : {zvm::SealKind::composite, zvm::SealKind::succinct}) {
      auto workload = bench::make_committed_workload(n);
      zvm::ProveOptions options;
      options.seal_kind = kind;
      core::AggregationService service(*workload.board,
                                       core::AggregationOptions{options});
      auto round = service.aggregate(workload.batches);
      if (!round.ok()) return 1;
      zvm::Verifier verifier;
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < 20; ++i) {
        (void)verifier.verify(round.value().receipt,
                              core::guest_images().aggregate);
      }
      const double verify_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count() /
          20;
      std::printf("%8llu | %10s | %14.1f %14zu | %14.1f %14.3f\n",
                  (unsigned long long)n,
                  kind == zvm::SealKind::composite ? "composite" : "succinct",
                  round.value().prove_info.total_ms,
                  round.value().receipt.proof_size_bytes(),
                  static_cast<double>(
                      round.value().receipt.receipt_size_bytes()) /
                      1024.0,
                  verify_ms);
    }
  }

  std::printf("\n=== (c) complete vs selective query (vary selectivity, "
              "records=%llu) ===\n",
              (unsigned long long)kRecords);
  std::printf("%12s | %14s %14s | %14s %14s\n", "matches", "complete ms",
              "cycles", "selective ms", "cycles");
  std::printf("-------------+-------------------------------+--------------"
              "-----------------\n");
  {
    auto workload = bench::make_committed_workload(kRecords);
    core::AggregationService service(*workload.board);
    if (!service.aggregate(workload.batches).ok()) return 1;
    core::QueryService queries(service);
    // dst_port filters with increasing selectivity. The synthetic keys use
    // six common ports, so a k-port disjunction matches ~k/6 of the state.
    const u16 ports[] = {80, 443, 53, 8080, 22, 3478};
    for (size_t k : {1u, 2u, 4u, 6u}) {
      std::vector<core::Condition> clause;
      for (size_t i = 0; i < k; ++i) {
        clause.push_back({core::QField::dst_port, core::CmpOp::eq, ports[i]});
      }
      core::Query q = core::Query::sum(core::QField::bytes).and_any(clause);
      auto complete = queries.run(q);
      auto selective = queries.run(
          q, {.mode = core::QueryMode::selective});
      if (!complete.ok() || !selective.ok()) return 1;
      if (complete.value().value != selective.value().value) return 1;
      std::printf("%12llu | %14.1f %14llu | %14.1f %14llu\n",
                  (unsigned long long)complete.value().journal.result.matched,
                  complete.value().prove_info.total_ms,
                  (unsigned long long)complete.value().prove_info.cycles,
                  selective.value().prove_info.total_ms,
                  (unsigned long long)selective.value().prove_info.cycles);
    }
  }

  std::printf("\nshape: (a) seal size and verify time grow linearly in the "
              "opening count while prove time is flat (openings are cheap "
              "next to trace generation); (b) succinct seals pin the proof "
              "at 256 B at ~equal prove cost; (c) selective query cost "
              "scales with matches, complete-scan cost with state size — "
              "they cross once most of the state matches.\n");
  zkt::bench::write_metrics_snapshot("ablation");
  return 0;
}
