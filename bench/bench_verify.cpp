// Verifier benchmarks -> BENCH_verify.json, in two parts.
//
// Part 1, Table 1 and §6 "verification remains lightweight, completing in
// 3 ms regardless of the number of entries": for every N in paper_sweep(),
// the sizes of succinct aggregation and SUM-query receipts (Table 1's
// proof, journal and receipt columns) and the client-side verify latency
// of those receipts with succinct seals (the deployed path) and composite
// seals. The binary checks the machine-checkable half of both claims and
// exits nonzero when it fails: the proof is the constant 256-B seal at
// every N for both kinds, and succinct aggregation receipts, and succinct
// query receipts, have the same receipt bytes and the same journal bytes
// at every N. The wall-time table is reported but not gated (shared and
// one-core hosts jitter).
//
// Part 2, chain verification: an R-round composite-seal chain
// (full-rebuild and incremental-delta variants) is verified two ways from
// the same receipt vector:
//
//   sequential — one zvm::Verifier, one receipt at a time, nothing shared:
//                every composite round re-verifies its embedded
//                predecessor receipt (and that receipt's own embedded
//                chain), so the loop does O(R^2) receipt verifications —
//                the oracle;
//   walk       — core::Auditor::accept_round, one receipt at a time: an
//                embedded predecessor equal to the round just accepted is
//                not verified again, so the walk does O(R).
//
// Both must accept every receipt. The walk's counts are exact and gated:
// it must accept all R rounds, verifying exactly R receipts and skipping
// exactly R - 1 embedded predecessors, on each chain. Wall times are
// printed next to each other (receipts/sec) and not gated.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "crypto/sha256_backend.h"

using namespace zkt;

namespace {

constexpr u64 kRounds = 10;
constexpr u64 kRecords = 192;
constexpr int kIters = 5;
/// Table 1's proof size: the succinct SNARK seal, constant in N.
constexpr size_t kProofBytes = 256;

/// One N of the Table 1 / §6 sweep.
struct SweepRow {
  u64 records = 0;
  double agg_succinct_ms = 0, agg_composite_ms = 0;
  double query_succinct_ms = 0, query_composite_ms = 0;
  /// Succinct receipts' sizes.
  size_t agg_proof_bytes = 0, agg_receipt_bytes = 0, agg_journal_bytes = 0;
  size_t query_proof_bytes = 0, query_receipt_bytes = 0,
         query_journal_bytes = 0;
};

/// Mean verify latency over `iters` runs, after one checked warm-up.
double time_verify(const zvm::Receipt& receipt, const zvm::ImageID& image,
                   int iters) {
  zvm::Verifier verifier;
  if (auto s = verifier.verify(receipt, image); !s.ok()) {
    std::fprintf(stderr, "receipt does not verify: %s\n",
                 s.to_string().c_str());
    std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) (void)verifier.verify(receipt, image);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count() /
         iters;
}

/// Prove one aggregation round and one SUM query over N records with the
/// given seal kind; exits on any proving failure.
std::pair<zvm::Receipt, zvm::Receipt> prove_round_and_query(
    u64 records, zvm::SealKind seal_kind) {
  auto workload = bench::make_committed_workload(records);
  zvm::ProveOptions prove;
  prove.seal_kind = seal_kind;
  core::AggregationService aggregation(*workload.board,
                                       core::AggregationOptions{prove});
  auto round = aggregation.aggregate(workload.batches);
  if (!round.ok()) {
    std::fprintf(stderr, "aggregation failed: %s\n",
                 round.error().to_string().c_str());
    std::exit(1);
  }
  core::QueryService queries(aggregation, core::QueryServiceOptions{prove});
  auto resp = queries.run(core::Query::sum(core::QField::bytes));
  if (!resp.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 resp.error().to_string().c_str());
    std::exit(1);
  }
  return {std::move(round.value().receipt), std::move(resp.value().receipt)};
}

double kb(size_t bytes) { return static_cast<double>(bytes) / 1024.0; }

std::vector<SweepRow> run_paper_sweep() {
  std::printf("=== §6 verification latency (ms/verify) and succinct sizes "
              "(B) ===\n");
  std::printf("%8s | %12s %12s | %12s %12s | %13s %13s\n", "records",
              "agg succ", "agg comp", "query succ", "query comp",
              "agg rcpt/jrnl", "qry rcpt/jrnl");
  const int iters = 50;
  const auto images = core::guest_images();
  std::vector<SweepRow> rows;
  for (u64 n : bench::paper_sweep()) {
    const auto [agg, query] =
        prove_round_and_query(n, zvm::SealKind::succinct);
    const auto [agg_comp, query_comp] =
        prove_round_and_query(n, zvm::SealKind::composite);
    SweepRow row;
    row.records = n;
    row.agg_succinct_ms = time_verify(agg, images.aggregate, iters);
    row.agg_composite_ms = time_verify(agg_comp, images.aggregate, iters);
    row.query_succinct_ms = time_verify(query, images.query, iters);
    row.query_composite_ms = time_verify(query_comp, images.query, iters);
    row.agg_proof_bytes = agg.proof_size_bytes();
    row.agg_receipt_bytes = agg.receipt_size_bytes();
    row.agg_journal_bytes = agg.journal.size();
    row.query_proof_bytes = query.proof_size_bytes();
    row.query_receipt_bytes = query.receipt_size_bytes();
    row.query_journal_bytes = query.journal.size();
    std::printf("%8llu | %12.3f %12.3f | %12.3f %12.3f | %6zu/%-6zu "
                "%6zu/%-6zu\n",
                (unsigned long long)n, row.agg_succinct_ms,
                row.agg_composite_ms, row.query_succinct_ms,
                row.query_composite_ms, row.agg_receipt_bytes,
                row.agg_journal_bytes, row.query_receipt_bytes,
                row.query_journal_bytes);
    rows.push_back(row);
  }
  return rows;
}

/// Table 1 over the sweep's succinct receipts, aggregation then query.
void print_table1(const std::vector<SweepRow>& rows) {
  std::printf("\n=== Table 1: proof / journal / receipt sizes (succinct) "
              "===\n");
  std::printf("%8s | %8s %10s %10s | %8s %10s %10s\n", "records",
              "agg B", "jrnl KB", "rcpt KB", "query B", "jrnl KB",
              "rcpt KB");
  for (const SweepRow& row : rows) {
    std::printf("%8llu | %8zu %10.3f %10.3f | %8zu %10.3f %10.3f\n",
                (unsigned long long)row.records, row.agg_proof_bytes,
                kb(row.agg_journal_bytes), kb(row.agg_receipt_bytes),
                row.query_proof_bytes, kb(row.query_journal_bytes),
                kb(row.query_receipt_bytes));
  }
  std::printf("paper: proof constant at 256 B; journal 3.6 KB -> 176.7 KB "
              "and receipt 7.6 KB -> 346 KB from 50 to 3000 records.\n");
}

/// The Table 1 gate: the proof is the 256-B seal at every N, both kinds.
bool proof_constant_256(const std::vector<SweepRow>& rows) {
  bool constant = true;
  for (const SweepRow& row : rows) {
    if (row.agg_proof_bytes != kProofBytes ||
        row.query_proof_bytes != kProofBytes) {
      std::fprintf(stderr,
                   "Table 1 check FAILED at N=%llu: proof is %zu B "
                   "(aggregation) / %zu B (query), not %zu B\n",
                   (unsigned long long)row.records, row.agg_proof_bytes,
                   row.query_proof_bytes, kProofBytes);
      constant = false;
    }
  }
  return constant;
}

/// The §6 gate: every succinct size equals the first row's.
bool sizes_flat_in_n(const std::vector<SweepRow>& rows) {
  bool flat = true;
  const SweepRow& first = rows.front();
  for (const SweepRow& row : rows) {
    if (row.agg_receipt_bytes != first.agg_receipt_bytes ||
        row.agg_journal_bytes != first.agg_journal_bytes ||
        row.query_receipt_bytes != first.query_receipt_bytes ||
        row.query_journal_bytes != first.query_journal_bytes) {
      std::fprintf(stderr,
                   "§6 check FAILED at N=%llu: succinct sizes differ from "
                   "N=%llu\n",
                   (unsigned long long)row.records,
                   (unsigned long long)first.records);
      flat = false;
    }
  }
  return flat;
}

/// An R-round composite chain and the board its rounds consume.
struct Chain {
  bench::CommittedWorkload workload;
  std::vector<zvm::Receipt> receipts;
};

/// Prove an R-round composite chain in the given mode. Incremental mode
/// re-touches the same flows each window, so rounds 1..R-1 run the AGGI
/// delta guest; full mode rebuilds every round.
Chain build_chain(core::AggMode mode, u64 seed) {
  Chain chain{bench::make_committed_workload(kRecords, 4, 1, seed), {}};
  bench::CommittedWorkload& workload = chain.workload;
  zvm::ProveOptions composite;
  composite.seal_kind = zvm::SealKind::composite;
  core::AggregationService service(
      *workload.board, {.prove_options = composite, .mode = mode});

  std::vector<zvm::Receipt>& receipts = chain.receipts;
  auto batches = workload.batches;
  for (u64 window = 1; window <= kRounds; ++window) {
    if (window > 1) {
      batches = bench::add_window(workload, kRecords, window, 4, seed);
    }
    auto round = service.aggregate(batches);
    if (!round.ok()) {
      std::fprintf(stderr, "round %llu failed: %s\n",
                   (unsigned long long)window,
                   round.error().to_string().c_str());
      std::exit(1);
    }
    receipts.push_back(std::move(round.value().receipt));
  }
  return chain;
}

struct Measurement {
  double ms = 0;  ///< best-of-kIters wall time for the whole chain
  zvm::VerifyStats stats;

  double receipts_per_sec(u64 rounds) const {
    return ms > 0 ? rounds / (ms / 1e3) : 0.0;
  }
};

template <typename Body>
Measurement measure(const Body& body) {
  Measurement best;
  for (int i = 0; i < kIters; ++i) {
    zvm::VerifyStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    body(stats);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (i == 0 || ms < best.ms) {
      best.ms = ms;
      best.stats = stats;
    }
  }
  return best;
}

/// The auditor's walk over the whole chain, on a fresh auditor; exits on
/// any rejection.
void walk_chain(const Chain& chain, zvm::VerifyStats& stats) {
  core::Auditor auditor(*chain.workload.board);
  for (const auto& receipt : chain.receipts) {
    if (auto accepted = auditor.accept_round(receipt, &stats);
        !accepted.ok()) {
      std::fprintf(stderr, "walk rejected a valid receipt: %s\n",
                   accepted.error().to_string().c_str());
      std::exit(1);
    }
  }
}

struct Cell {
  const char* chain = "";
  Measurement sequential, walk;

  double speedup() const {
    return sequential.ms > 0 && walk.ms > 0 ? sequential.ms / walk.ms : 0.0;
  }
  /// The gate: R receipts verified and R - 1 embedded predecessors skipped
  /// (every walk accepts all R rounds or exits).
  bool counts_exact() const {
    return walk.stats.receipts == kRounds &&
           walk.stats.assumptions_skipped == kRounds - 1;
  }
};

Cell run_chain(const char* name, core::AggMode mode, u64 seed) {
  const Chain chain = build_chain(mode, seed);
  Cell cell;
  cell.chain = name;

  cell.sequential = measure([&](zvm::VerifyStats& stats) {
    zvm::Verifier verifier;
    for (const auto& receipt : chain.receipts) {
      if (!core::verify_aggregation_receipt(verifier, receipt,
                                            {nullptr, &stats})
               .ok()) {
        std::fprintf(stderr, "sequential loop rejected a valid receipt\n");
        std::exit(1);
      }
    }
  });

  cell.walk =
      measure([&](zvm::VerifyStats& stats) { walk_chain(chain, stats); });

  std::printf("%12s | %9.2f %10.0f %6llu | %9.2f %10.0f %6llu | %7.2fx | "
              "%6llu %8llu\n",
              name, cell.sequential.ms,
              cell.sequential.receipts_per_sec(kRounds),
              (unsigned long long)cell.sequential.stats.receipts,
              cell.walk.ms, cell.walk.receipts_per_sec(kRounds),
              (unsigned long long)cell.walk.stats.receipts, cell.speedup(),
              (unsigned long long)cell.walk.stats.assumptions_skipped,
              (unsigned long long)cell.walk.stats.node_hashes_shared);
  if (!cell.counts_exact()) {
    std::fprintf(stderr,
                 "walk count check FAILED on the %s chain: %llu receipts "
                 "verified, %llu skipped (want %llu and %llu)\n",
                 name, (unsigned long long)cell.walk.stats.receipts,
                 (unsigned long long)cell.walk.stats.assumptions_skipped,
                 (unsigned long long)kRounds,
                 (unsigned long long)(kRounds - 1));
  }
  return cell;
}

}  // namespace

int main() {
  const std::vector<SweepRow> sweep = run_paper_sweep();
  const bool flat = sizes_flat_in_n(sweep);
  std::printf("succinct receipt and journal bytes flat in N: %s\n",
              flat ? "yes" : "NO");
  print_table1(sweep);
  const bool proof_256 = proof_constant_256(sweep);
  std::printf("proof 256 B at every N: %s\n\n", proof_256 ? "yes" : "NO");

  std::printf("=== chain verification (%llu composite rounds, %llu "
              "records/window) ===\n",
              (unsigned long long)kRounds, (unsigned long long)kRecords);
  std::printf("%12s | %9s %10s %6s | %9s %10s %6s | %8s | %6s %8s\n",
              "chain", "seq ms", "seq r/s", "rcpts", "walk ms", "walk r/s",
              "rcpts", "speedup", "skips", "shared");

  std::vector<Cell> cells;
  cells.push_back(run_chain("full", core::AggMode::full, 7));
  cells.push_back(run_chain("incremental", core::AggMode::incremental, 11));
  bool counts_exact = true;
  for (const auto& c : cells) counts_exact = counts_exact && c.counts_exact();

  // Forced-backend sweep over the walk (skipped where the ISA extension is
  // unavailable; dispatch order itself is bench_hashcost's subject — this
  // row just shows verification inherits the win).
  struct BackendRow {
    const char* name;
    double ms;
  };
  std::vector<BackendRow> backend_rows;
  {
    const Chain chain = build_chain(core::AggMode::full, 7);
    for (size_t b = 0; b < crypto::kSha256BackendCount; ++b) {
      const auto backend = static_cast<crypto::Sha256Backend>(b);
      if (!crypto::sha256_force_backend(backend)) continue;
      const auto m = measure(
          [&](zvm::VerifyStats& stats) { walk_chain(chain, stats); });
      backend_rows.push_back({crypto::sha256_backend_name(backend), m.ms});
      std::printf("%12s | walk full chain: %9.2f ms (%0.0f r/s)\n",
                  crypto::sha256_backend_name(backend), m.ms,
                  m.receipts_per_sec(kRounds));
    }
    crypto::sha256_force_backend(std::nullopt);
  }

  std::ofstream out("BENCH_verify.json");
  out << "{\n  \"rounds\": " << kRounds
      << ",\n  \"records_per_window\": " << kRecords
      << ",\n  \"chains\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "    {\"chain\": \"" << c.chain << "\""
        << ", \"sequential_ms\": " << c.sequential.ms
        << ", \"sequential_receipts_per_sec\": "
        << c.sequential.receipts_per_sec(kRounds)
        << ", \"sequential_receipts_verified\": " << c.sequential.stats.receipts
        << ", \"walk_ms\": " << c.walk.ms
        << ", \"walk_receipts_per_sec\": " << c.walk.receipts_per_sec(kRounds)
        << ", \"walk_receipts_verified\": " << c.walk.stats.receipts
        << ", \"assumptions_skipped\": " << c.walk.stats.assumptions_skipped
        << ", \"node_hashes_shared\": " << c.walk.stats.node_hashes_shared
        << ", \"speedup_walk_vs_sequential\": " << c.speedup() << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"backend_sweep_full_chain_walk_ms\": {";
  for (size_t i = 0; i < backend_rows.size(); ++i) {
    out << "\"" << backend_rows[i].name << "\": " << backend_rows[i].ms
        << (i + 1 < backend_rows.size() ? ", " : "");
  }
  out << "},\n  \"paper_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& row = sweep[i];
    out << "    {\"records\": " << row.records
        << ", \"agg_succinct_ms\": " << row.agg_succinct_ms
        << ", \"agg_composite_ms\": " << row.agg_composite_ms
        << ", \"query_succinct_ms\": " << row.query_succinct_ms
        << ", \"query_composite_ms\": " << row.query_composite_ms
        << ", \"agg_proof_bytes\": " << row.agg_proof_bytes
        << ", \"agg_receipt_bytes\": " << row.agg_receipt_bytes
        << ", \"agg_journal_bytes\": " << row.agg_journal_bytes
        << ", \"query_proof_bytes\": " << row.query_proof_bytes
        << ", \"query_receipt_bytes\": " << row.query_receipt_bytes
        << ", \"query_journal_bytes\": " << row.query_journal_bytes << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"succinct_sizes_flat_in_n\": "
      << (flat ? "true" : "false")
      << ",\n  \"proof_constant_256\": " << (proof_256 ? "true" : "false")
      << ",\n  \"walk_counts_exact\": " << (counts_exact ? "true" : "false")
      << "\n}\n";
  if (out) {
    std::printf("\nsweep -> BENCH_verify.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_verify.json\n");
    return 1;
  }
  bench::write_metrics_snapshot("verify");

  bool met = true;
  for (const auto& c : cells) met = met && c.speedup() >= 2.0;
  std::printf("walk >= 2x sequential: %s\n", met ? "yes" : "NO");
  std::printf("walk verifies %llu receipts and skips %llu on each chain: "
              "%s\n",
              (unsigned long long)kRounds, (unsigned long long)(kRounds - 1),
              counts_exact ? "yes" : "NO");
  return flat && proof_256 && counts_exact ? 0 : 1;
}
