// Full pipeline mirroring the paper's evaluation setup (§6): 4 routers on
// dedicated threads, Zipf traffic, NetFlow v9 export into a shared log store
// with WAL persistence, 5 s commitment windows, chained aggregation rounds,
// and an auditor replaying the whole public transcript:
//
//   packets -> FlowCache -> v9 wire -> LogStore (+WAL)        [per router]
//           -> signed commitments -> CommitmentBoard           [per window]
//   batches -> Algorithm-1 zkVM rounds -> receipts             [prover]
//   receipts + board -> chain verification -> verified queries [auditor]
#include <cstdio>
#include <vector>

#include "core/grouped_query.h"
#include "core/zkt.h"
#include "sim/simulator.h"

using namespace zkt;

int main() {
  // Shared backend with durability (the paper's PostgreSQL role).
  const std::string wal_path = "/tmp/zktel_pipeline.wal";
  std::remove(wal_path.c_str());
  store::LogStore logs(store::StoreConfig{.wal_path = wal_path});
  if (auto s = logs.recover(); !s.ok()) {
    std::printf("store recovery failed: %s\n", s.to_string().c_str());
    return 1;
  }

  core::CommitmentBoard board;
  sim::SimConfig sim_config;
  sim_config.router_count = 4;
  sim_config.window_ms = 5'000;
  sim_config.path_length = 2;  // each flow crosses 2 routers
  sim::NetFlowSimulator simulator(sim_config, logs, board);

  sim::ZipfWorkloadConfig workload;
  workload.flow_count = 150;
  workload.duration_ms = 25'000;  // 5 commitment windows
  auto packets = sim::zipf_workload(workload, 30'000);
  std::printf("generated %zu packets over %llu ms across %llu flows\n",
              packets.size(), (unsigned long long)workload.duration_ms,
              (unsigned long long)workload.flow_count);

  if (auto s = simulator.run(std::move(packets)); !s.ok()) {
    std::printf("simulation failed: %s\n", s.to_string().c_str());
    return 1;
  }
  for (u32 r = 0; r < simulator.router_count(); ++r) {
    const auto& st = simulator.router_stats()[r];
    std::printf("router %u: %llu packets -> %llu records in %llu batches "
                "(%llu v9 packets)\n",
                r, (unsigned long long)st.packets,
                (unsigned long long)st.records,
                (unsigned long long)st.batches,
                (unsigned long long)st.v9_packets);
  }
  std::printf("store: %llu rlog rows, WAL %llu bytes; board: %zu commitments\n",
              (unsigned long long)logs.row_count(store::kTableRlogs),
              (unsigned long long)logs.stats().wal_bytes, board.size());

  // Prover: one chained aggregation round per window.
  core::AggregationService aggregation(board);
  std::vector<zvm::Receipt> receipts;
  for (u64 window : simulator.committed_windows()) {
    auto batches = simulator.batches_for_window(window);
    if (!batches.ok()) return 1;
    auto round = aggregation.aggregate(batches.value());
    if (!round.ok()) {
      std::printf("aggregation failed at window %llu: %s\n",
                  (unsigned long long)window,
                  round.error().to_string().c_str());
      return 1;
    }
    const auto& r = round.value();
    std::printf("round %llu (window %llu): %llu entries, %llu updates, "
                "%llu cycles, prove %.1f ms, receipt %zu B (proof %zu B)\n",
                (unsigned long long)r.round_id, (unsigned long long)window,
                (unsigned long long)r.journal.new_entry_count,
                (unsigned long long)r.journal.update_count,
                (unsigned long long)r.prove_info.cycles,
                r.prove_info.total_ms, r.receipt.receipt_size_bytes(),
                r.receipt.proof_size_bytes());
    receipts.push_back(round.value().receipt);
  }

  // Auditor replays the public transcript.
  core::Auditor auditor(board);
  for (const auto& receipt : receipts) {
    if (auto accepted = auditor.accept_round(receipt); !accepted.ok()) {
      std::printf("auditor rejected: %s\n",
                  accepted.error().to_string().c_str());
      return 1;
    }
  }
  std::printf("auditor accepted all %llu rounds; final root %s..., %llu entries\n",
              (unsigned long long)auditor.rounds_accepted(),
              auditor.current_root().hex().substr(0, 16).c_str(),
              (unsigned long long)auditor.current_entry_count());

  // A few verified queries over the final state.
  core::QueryService queries(aggregation);
  struct Named {
    const char* label;
    core::Query query;
  };
  const Named examples[] = {
      {"total flows", core::Query::count()},
      {"total packets", core::Query::sum(core::QField::packets)},
      {"total bytes", core::Query::sum(core::QField::bytes)},
      {"TCP flows", core::Query::count().and_where(core::QField::protocol,
                                                   core::CmpOp::eq, 6)},
      {"max avg RTT (us)", core::Query::max(core::QField::rtt_avg_us)},
      {"flows with loss",
       core::Query::count().and_where(core::QField::lost_packets,
                                      core::CmpOp::gt, 0)},
  };
  for (const auto& [label, query] : examples) {
    auto resp = queries.run(query);
    if (!resp.ok()) {
      std::printf("query '%s' failed: %s\n", label,
                  resp.error().to_string().c_str());
      return 1;
    }
    auto verified = auditor.verify_query(resp.value().receipt, {.expected_query = &query});
    if (!verified.ok()) {
      std::printf("query '%s' rejected: %s\n", label,
                  verified.error().to_string().c_str());
      return 1;
    }
    std::printf("verified  %-20s = %llu  (prove %.1f ms, verify receipt %zu B)\n",
                label,
                (unsigned long long)verified.value().result.value(
                    resp.value().journal.query.agg),
                resp.value().prove_info.total_ms,
                resp.value().receipt.receipt_size_bytes());
  }

  // One grouped proof: per-protocol traffic report in a single receipt.
  {
    core::Query q = core::Query::sum(core::QField::bytes);
    auto grouped = queries.grouped(q, core::QField::protocol);
    if (!grouped.ok()) {
      std::printf("grouped query failed: %s\n",
                  grouped.error().to_string().c_str());
      return 1;
    }
    auto verified = auditor.verify_grouped(grouped.value().receipt,
                                           {.expected_query = &q});
    if (!verified.ok()) {
      std::printf("grouped query rejected: %s\n",
                  verified.error().to_string().c_str());
      return 1;
    }
    std::printf("verified GROUP BY protocol (one receipt, %zu B):\n",
                grouped.value().receipt.receipt_size_bytes());
    for (const auto& group : verified.value().groups) {
      std::printf("  protocol %3llu: %llu flows, %llu bytes\n",
                  (unsigned long long)group.group_value,
                  (unsigned long long)group.stats.matched,
                  (unsigned long long)group.stats.sum);
    }
  }

  std::remove(wal_path.c_str());
  return 0;
}
