// Verifier benchmarks -> BENCH_verify.json, in two parts.
//
// Part 1, §6 "verification remains lightweight, completing in 3 ms
// regardless of the number of entries": client-side verify latency of
// aggregation and query receipts for every N in paper_sweep(), with
// succinct seals (the deployed path) and composite seals. The binary checks
// the machine-checkable half of the claim and exits nonzero when it fails:
// succinct aggregation receipts, and succinct query receipts, have the same
// receipt bytes and the same journal bytes at every N. The wall-time table
// is reported but not gated (shared and one-core hosts jitter).
//
// Part 2, chain-verification throughput: sequential accept_round walk vs
// core::BatchVerifier (chain-continuity dedup, serial) vs BatchVerifier over
// the shared thread pool. An R-round composite-seal chain (full-rebuild and
// incremental-delta variants) is verified three ways from the same receipt
// vector:
//
//   sequential — one zvm::Verifier, one receipt at a time, no cache: every
//                composite round re-verifies its embedded predecessor
//                receipt (and that receipt's own embedded chain), so the
//                walk does O(R^2) receipt verifications;
//   batch      — BatchVerifier with parallel=false: the predecessor cache
//                collapses each round's assumption pass to a digest compare,
//                O(R) receipt verifications on one thread;
//   pooled     — the same batch fanned out over common::ThreadPool::shared()
//                (ZKT_POOL_THREADS), per-receipt hashing still flowing
//                through the batched SHA-256 backends.
//
// All three must accept every receipt and land on the same chain head — the
// equivalence streaming_audit_test asserts in miniature, checked here at
// bench scale. The headline column is receipts/sec; the acceptance bar for
// this harness is pooled >= 2x sequential.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/batch_verifier.h"
#include "crypto/sha256_backend.h"

using namespace zkt;

namespace {

constexpr u64 kRounds = 10;
constexpr u64 kRecords = 192;
constexpr int kIters = 5;

/// One N of the §6 sweep.
struct SweepRow {
  u64 records = 0;
  double agg_succinct_ms = 0, agg_composite_ms = 0;
  double query_succinct_ms = 0, query_composite_ms = 0;
  size_t agg_receipt_bytes = 0, agg_journal_bytes = 0;  ///< succinct
  size_t query_receipt_bytes = 0, query_journal_bytes = 0;
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
    row.agg_receipt_bytes = agg.receipt_size_bytes();
    row.agg_journal_bytes = agg.journal.size();
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

/// Prove an R-round composite chain in the given mode. Incremental mode
/// re-touches the same flows each window, so rounds 1..R-1 run the AGGI
/// delta guest; full mode rebuilds every round.
std::vector<zvm::Receipt> build_chain(core::AggMode mode, u64 seed) {
  auto workload = bench::make_committed_workload(kRecords, 4, 1, seed);
  zvm::ProveOptions composite;
  composite.seal_kind = zvm::SealKind::composite;
  core::AggregationService service(
      *workload.board, {.prove_options = composite, .mode = mode});

  std::vector<zvm::Receipt> receipts;
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
  return receipts;
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

void require_all_ok(const std::vector<Status>& outcomes, const char* what) {
  for (const auto& outcome : outcomes) {
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s rejected a valid receipt: %s\n", what,
                   outcome.error().to_string().c_str());
      std::exit(1);
    }
  }
}

struct Cell {
  const char* chain = "";
  Measurement sequential, batch, pooled;

  double speedup() const {
    return sequential.ms > 0 && pooled.ms > 0 ? sequential.ms / pooled.ms
                                              : 0.0;
  }
};

Cell run_chain(const char* name, core::AggMode mode, u64 seed) {
  const auto receipts = build_chain(mode, seed);
  Cell cell;
  cell.chain = name;

  cell.sequential = measure([&](zvm::VerifyStats& stats) {
    zvm::Verifier verifier;
    for (const auto& receipt : receipts) {
      zvm::VerifyContext context{nullptr, &stats};
      if (!core::verify_aggregation_receipt(verifier, receipt, context)
               .ok()) {
        std::fprintf(stderr, "sequential walk rejected a valid receipt\n");
        std::exit(1);
      }
    }
  });

  cell.batch = measure([&](zvm::VerifyStats& stats) {
    core::BatchVerifier verifier({.parallel = false});
    require_all_ok(verifier.verify_aggregation(receipts, &stats), "batch");
  });

  cell.pooled = measure([&](zvm::VerifyStats& stats) {
    core::BatchVerifier verifier;
    require_all_ok(verifier.verify_aggregation(receipts, &stats), "pooled");
  });

  std::printf(
      "%12s | %9.2f %10.0f | %9.2f %10.0f | %9.2f %10.0f | %7.2fx | "
      "%6llu %8llu\n",
      name, cell.sequential.ms, cell.sequential.receipts_per_sec(kRounds),
      cell.batch.ms, cell.batch.receipts_per_sec(kRounds), cell.pooled.ms,
      cell.pooled.receipts_per_sec(kRounds), cell.speedup(),
      (unsigned long long)cell.pooled.stats.assumptions_skipped,
      (unsigned long long)cell.pooled.stats.node_hashes_shared);
  return cell;
}

}  // namespace

int main() {
  const std::vector<SweepRow> sweep = run_paper_sweep();
  const bool flat = sizes_flat_in_n(sweep);
  std::printf("succinct receipt and journal bytes flat in N: %s\n\n",
              flat ? "yes" : "NO");

  std::printf("=== chain verification throughput (%llu composite rounds, "
              "%llu records/window, %zu pool threads) ===\n",
              (unsigned long long)kRounds, (unsigned long long)kRecords,
              common::ThreadPool::shared().thread_count());
  std::printf("%12s | %9s %10s | %9s %10s | %9s %10s | %8s | %6s %8s\n",
              "chain", "seq ms", "seq r/s", "batch ms", "batch r/s",
              "pool ms", "pool r/s", "speedup", "skips", "shared");

  std::vector<Cell> cells;
  cells.push_back(run_chain("full", core::AggMode::full, 7));
  cells.push_back(run_chain("incremental", core::AggMode::incremental, 11));

  // Forced-backend sweep over the pooled path (skipped where the ISA
  // extension is unavailable; dispatch order itself is bench_hashcost's
  // subject — this row just shows verification inherits the win).
  struct BackendRow {
    const char* name;
    double ms;
  };
  std::vector<BackendRow> backend_rows;
  {
    const auto receipts = build_chain(core::AggMode::full, 7);
    for (size_t b = 0; b < crypto::kSha256BackendCount; ++b) {
      const auto backend = static_cast<crypto::Sha256Backend>(b);
      if (!crypto::sha256_force_backend(backend)) continue;
      const auto m = measure([&](zvm::VerifyStats& stats) {
        core::BatchVerifier verifier;
        require_all_ok(verifier.verify_aggregation(receipts, &stats),
                       "backend sweep");
      });
      backend_rows.push_back({crypto::sha256_backend_name(backend), m.ms});
      std::printf("%12s | pooled full chain: %9.2f ms (%0.0f r/s)\n",
                  crypto::sha256_backend_name(backend), m.ms,
                  m.receipts_per_sec(kRounds));
    }
    crypto::sha256_force_backend(std::nullopt);
  }

  std::ofstream out("BENCH_verify.json");
  out << "{\n  \"rounds\": " << kRounds
      << ",\n  \"records_per_window\": " << kRecords
      << ",\n  \"pool_threads\": " << common::ThreadPool::shared().thread_count()
      << ",\n  \"chains\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "    {\"chain\": \"" << c.chain << "\""
        << ", \"sequential_ms\": " << c.sequential.ms
        << ", \"sequential_receipts_per_sec\": "
        << c.sequential.receipts_per_sec(kRounds)
        << ", \"sequential_receipts_verified\": " << c.sequential.stats.receipts
        << ", \"batch_ms\": " << c.batch.ms
        << ", \"batch_receipts_per_sec\": " << c.batch.receipts_per_sec(kRounds)
        << ", \"pooled_ms\": " << c.pooled.ms
        << ", \"pooled_receipts_per_sec\": "
        << c.pooled.receipts_per_sec(kRounds)
        << ", \"pooled_receipts_verified\": " << c.pooled.stats.receipts
        << ", \"assumptions_skipped\": " << c.pooled.stats.assumptions_skipped
        << ", \"node_hashes_shared\": " << c.pooled.stats.node_hashes_shared
        << ", \"speedup_pooled_vs_sequential\": " << c.speedup() << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"backend_sweep_full_chain_pooled_ms\": {";
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
        << ", \"agg_receipt_bytes\": " << row.agg_receipt_bytes
        << ", \"agg_journal_bytes\": " << row.agg_journal_bytes
        << ", \"query_receipt_bytes\": " << row.query_receipt_bytes
        << ", \"query_journal_bytes\": " << row.query_journal_bytes << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"succinct_sizes_flat_in_n\": "
      << (flat ? "true" : "false") << "\n}\n";
  if (out) {
    std::printf("\nsweep -> BENCH_verify.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_verify.json\n");
    return 1;
  }
  bench::write_metrics_snapshot("verify");

  bool met = true;
  for (const auto& c : cells) met = met && c.speedup() >= 2.0;
  std::printf("pooled >= 2x sequential: %s\n", met ? "yes" : "NO");
  return flat ? 0 : 1;
}
