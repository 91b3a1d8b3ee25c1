// SLA verification scenario (§2.1 of the paper): an operator proves that at
// least 90% of flows meet "avg RTT < 50 ms" without exposing any telemetry.
//
// The operator runs the SLA workload through the 4-router simulator, commits
// every window, aggregates with chained proofs, then answers two queries:
//   COUNT(*)                                -> total flows
//   COUNT(*) WHERE rtt_avg_us < 50'000      -> compliant flows
// The auditor verifies the full receipt chain plus both query receipts and
// computes the compliance ratio from proven numbers only.
#include <cstdio>
#include <vector>

#include "core/describe.h"
#include "core/histogram_query.h"
#include "core/zkt.h"
#include "sim/simulator.h"

using namespace zkt;

int main() {
  // --- Network simulation: 4 routers, 5 s commitment windows ------------
  store::LogStore logs;
  core::CommitmentBoard board;
  sim::SimConfig sim_config;
  sim_config.router_count = 4;
  sim_config.window_ms = 5'000;
  sim::NetFlowSimulator simulator(sim_config, logs, board);

  sim::SlaWorkloadConfig workload_config;
  workload_config.flow_count = 120;
  workload_config.violating_fraction = 0.05;  // the operator is compliant
  workload_config.compliant_rtt_us = 18'000;
  workload_config.violating_rtt_us = 90'000;
  auto workload = sim::sla_workload(workload_config, 20'000);
  std::printf("workload: %zu packets, %llu compliant / %llu violating flows\n",
              workload.packets.size(),
              (unsigned long long)workload.compliant_flows,
              (unsigned long long)workload.violating_flows);

  // The router also maintains a per-packet RTT histogram for the window
  // (committed like any log object) — used below for the distributional
  // form of the SLA claim.
  netflow::LatencyHistogram rtt_histogram;
  for (const auto& pkt : workload.packets) {
    if (!pkt.dropped && pkt.rtt_us > 0) rtt_histogram.add(pkt.rtt_us);
  }

  if (auto s = simulator.run(std::move(workload.packets)); !s.ok()) {
    std::printf("simulation failed: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("committed windows: %zu, commitments on board: %zu\n",
              simulator.committed_windows().size(), board.size());

  // --- Provider aggregates every window with chained proofs --------------
  core::AggregationService aggregation(board);
  std::vector<zvm::Receipt> round_receipts;  // published alongside the board
  for (u64 window : simulator.committed_windows()) {
    auto batches = simulator.batches_for_window(window);
    if (!batches.ok()) {
      std::printf("bad window %llu: %s\n", (unsigned long long)window,
                  batches.error().to_string().c_str());
      return 1;
    }
    auto round = aggregation.aggregate(batches.value());
    if (!round.ok()) {
      std::printf("aggregation failed: %s\n",
                  round.error().to_string().c_str());
      return 1;
    }
    std::printf("  window %llu: %zu batches -> %llu entries (%.1f ms, %llu cycles)\n",
                (unsigned long long)window,
                round.value().journal.commitments.size(),
                (unsigned long long)round.value().journal.new_entry_count,
                round.value().prove_info.total_ms,
                (unsigned long long)round.value().prove_info.cycles);
    round_receipts.push_back(std::move(round.value().receipt));
  }

  // --- SLA queries --------------------------------------------------------
  constexpr u64 kSlaRttUs = 50'000;
  core::Query total = core::Query::count();
  core::Query compliant = core::Query::count().and_where(
      core::QField::rtt_avg_us, core::CmpOp::lt, kSlaRttUs);

  core::QueryService queries(aggregation);
  auto total_resp = queries.run(total);
  auto compliant_resp = queries.run(compliant);
  if (!total_resp.ok() || !compliant_resp.ok()) {
    std::printf("query proving failed\n");
    return 1;
  }

  // --- Auditor: verify the chain, then the query proofs -------------------
  core::Auditor auditor(board);
  for (const auto& receipt : round_receipts) {
    if (auto accepted = auditor.accept_round(receipt); !accepted.ok()) {
      std::printf("auditor rejected a round: %s\n",
                  accepted.error().to_string().c_str());
      return 1;
    }
  }
  std::printf("auditor accepted %llu aggregation rounds (root %s...)\n",
              (unsigned long long)auditor.rounds_accepted(),
              auditor.current_root().hex().substr(0, 16).c_str());

  auto total_verified = auditor.verify_query(total_resp.value().receipt, {.expected_query = &total});
  auto compliant_verified =
      auditor.verify_query(compliant_resp.value().receipt, {.expected_query = &compliant});
  if (!total_verified.ok() || !compliant_verified.ok()) {
    std::printf("auditor rejected a query proof\n");
    return 1;
  }

  const u64 total_flows = total_verified.value().result.matched;
  const u64 compliant_flows = compliant_verified.value().result.matched;
  const double ratio =
      total_flows == 0 ? 0.0
                       : 100.0 * static_cast<double>(compliant_flows) /
                             static_cast<double>(total_flows);
  std::printf("proven: %llu of %llu flows have avg RTT < %llu us (%.1f%%)\n",
              (unsigned long long)compliant_flows,
              (unsigned long long)total_flows,
              (unsigned long long)kSlaRttUs, ratio);
  std::printf("SLA (>= 90%% compliant): %s\n",
              ratio >= 90.0 ? "SATISFIED" : "VIOLATED");

  // --- Distributional form: per-PACKET percentile from a committed
  // histogram (not just per-flow averages) -------------------------------
  const auto hist_key = crypto::schnorr_keygen_from_seed("sla-histogram");
  auto hist_commitment = core::make_commitment_raw(
      /*router=*/100, /*window=*/1, rtt_histogram.hash(),
      rtt_histogram.total(), hist_key, 5000);
  if (!hist_commitment.ok() ||
      !board.publish(hist_commitment.value()).ok()) {
    std::printf("histogram commitment failed\n");
    return 1;
  }
  const core::CommitmentRef hist_ref{100, 1, rtt_histogram.hash(),
                                     rtt_histogram.total()};
  const u64 bound_us = (1ULL << 16) - 1;  // ~65.5 ms, bucket-aligned
  auto hist_proof =
      core::prove_histogram_query(hist_ref, rtt_histogram, bound_us);
  if (!hist_proof.ok()) {
    std::printf("histogram proof failed: %s\n",
                hist_proof.error().to_string().c_str());
    return 1;
  }
  auto hist_verified =
      auditor.verify_histogram(hist_proof.value().receipt, {}, bound_us);
  if (!hist_verified.ok()) {
    std::printf("histogram proof rejected: %s\n",
                hist_verified.error().to_string().c_str());
    return 1;
  }
  std::printf("proven (distribution): %llu of %llu RTT samples < %.1f ms "
              "(%.2f%%), without revealing the distribution\n",
              (unsigned long long)hist_verified.value().count_below,
              (unsigned long long)hist_verified.value().total,
              static_cast<double>(bound_us) / 1000.0,
              100.0 * core::fraction_below(hist_verified.value()));

  return ratio >= 90.0 ? 0 : 2;
}
