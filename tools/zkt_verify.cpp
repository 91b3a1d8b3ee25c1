// zkt-verify: the client/regulator-side auditor. Needs only public
// artifacts: the commitment board file and the receipts. Verifies the
// aggregation chain and (optionally) a query receipt, printing the proven
// result. Never touches the raw logs.
//
// Usage:
//   zkt-verify --data-dir DIR [--query "sum(hop_sum) where ..."]
//              [--sketch-query] [--catch-up] [--backend scalar|shani|avx2]
//              [--metrics] [--metrics-json [PATH]]
//
// --sketch-query verifies DIR/sketch_query_receipt.bin (written by
// zkt-prove --heavy-hitters/--cardinality), dispatching on the guest image:
// sketch-routed receipts bind the accepted chain head's sketch digest,
// exact-fallback receipts verify as ordinary complete-scan query proofs.
//
// Chain verification (identical accept/reject decisions either way):
//   default      — audit the receipts straight off the file, one at a time
//                  and in order: O(1) memory however long the chain is;
//   --catch-up   — cold-verifier sync off DIR/epoch_seals.bin (written by
//                  zkt-prove --epoch-every): verify the O(log T) ladder
//                  seals, adopt the sealed head, and replay only the
//                  unsealed suffix receipts.
//
// --backend pins the SHA-256 implementation.
// --metrics / --metrics-json dump the obs registry (core.auditor.* counters
// included; schema in docs/OBSERVABILITY.md), matching zkt-prove's flags.
#include <cstdio>
#include <fstream>

#include "common/flags.h"
#include "core/epoch.h"
#include "core/grouped_query.h"
#include "core/io.h"
#include "core/query_parser.h"
#include "core/zkt.h"
#include "crypto/sha256_backend.h"
#include "obs/metrics.h"

using namespace zkt;

namespace {

/// Final act of every exit path: dump the process-wide metrics as requested
/// (same surface as zkt-prove).
int finish(const Flags& flags, const std::string& data_dir, int exit_code) {
  const auto snapshot = obs::Registry::instance().snapshot();
  if (flags.has("metrics")) {
    std::fprintf(stderr, "%s", snapshot.to_table().c_str());
  }
  if (flags.has("metrics-json")) {
    std::string path = flags.get("metrics-json");
    if (path.empty()) path = data_dir + "/metrics.json";
    if (path == "-") {
      std::printf("%s", snapshot.to_json().c_str());
    } else {
      std::ofstream out(path);
      out << snapshot.to_json();
      if (!out) {
        std::fprintf(stderr, "metrics-json: cannot write %s\n", path.c_str());
        return exit_code == 0 ? 1 : exit_code;
      }
      std::printf("  metrics -> %s\n", path.c_str());
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string data_dir = flags.get("data-dir", "zkt-data");

  if (flags.has("backend")) {
    const std::string name = flags.get("backend");
    auto backend = crypto::sha256_backend_from_name(name);
    if (!backend.has_value() ||
        !crypto::sha256_force_backend(*backend)) {
      std::fprintf(stderr, "backend: '%s' unknown or unavailable here\n",
                   name.c_str());
      return finish(flags, data_dir, 1);
    }
  }

  core::CommitmentBoard board;
  if (auto s = core::load_commitments(data_dir + "/commitments.bin", board);
      !s.ok()) {
    std::fprintf(stderr, "commitments: %s\n", s.to_string().c_str());
    return finish(flags, data_dir, 1);
  }

  core::Auditor auditor(board);
  const std::string receipts_path = data_dir + "/aggregation_receipts.bin";
  zvm::VerifyStats stats;

  if (flags.has("catch-up")) {
    // Cold-verifier sync: O(log T) ladder seals + the unsealed suffix.
    auto seals = core::load_epoch_seals(data_dir + "/epoch_seals.bin");
    if (!seals.ok()) {
      std::fprintf(stderr, "epoch seals: %s\n",
                   seals.error().to_string().c_str());
      return finish(flags, data_dir, 1);
    }
    auto receipts = core::load_receipts(receipts_path);
    if (!receipts.ok()) {
      std::fprintf(stderr, "receipts: %s\n",
                   receipts.error().to_string().c_str());
      return finish(flags, data_dir, 1);
    }
    u64 sealed = 0;
    for (const auto& seal : seals.value()) sealed += seal.rounds;
    if (sealed > receipts.value().size()) {
      std::fprintf(stderr,
                   "epoch seals cover %llu rounds but only %zu receipts are "
                   "present\n",
                   (unsigned long long)sealed, receipts.value().size());
      return finish(flags, data_dir, 1);
    }
    std::printf(
        "zkt-verify: %zu commitments, %zu epoch seal(s) + %llu suffix "
        "receipts (catch-up)\n",
        board.size(), seals.value().size(),
        (unsigned long long)(receipts.value().size() - sealed));
    std::span<const zvm::Receipt> suffix(receipts.value());
    auto report =
        auditor.catch_up(seals.value(), suffix.subspan(sealed), &stats);
    if (!report.ok()) {
      std::printf("catch-up: REJECTED — %s\n",
                  report.error().to_string().c_str());
      return finish(flags, data_dir, 2);
    }
    std::printf("  caught up: %llu seal(s) covering %llu rounds, %llu "
                "suffix round(s) replayed\n",
                (unsigned long long)report.value().seals_adopted,
                (unsigned long long)report.value().seal_rounds,
                (unsigned long long)report.value().rounds_replayed);
  } else {
    // Receipts never materialize beyond the one being verified and the
    // last one accepted.
    auto source = core::ReceiptFileSource::open(receipts_path);
    if (!source.ok()) {
      std::fprintf(stderr, "receipts: %s\n",
                   source.error().to_string().c_str());
      return finish(flags, data_dir, 1);
    }
    std::printf("zkt-verify: %zu commitments, %llu aggregation receipts\n",
                board.size(),
                (unsigned long long)source.value().declared_count());
    auto report = auditor.audit(source.value(), &stats);
    if (!report.ok()) {
      std::printf("round %llu: REJECTED — %s\n",
                  (unsigned long long)auditor.rounds_accepted(),
                  report.error().to_string().c_str());
      return finish(flags, data_dir, 2);
    }
  }
  std::printf("aggregation chain VERIFIED: %llu rounds, final state root %s"
              "...\n",
              (unsigned long long)auditor.rounds_accepted(),
              auditor.current_root().hex().substr(0, 16).c_str());
  if (stats.receipts != 0) {
    std::printf("  verified %llu receipts, %llu openings, shared %llu path "
                "hashes, skipped %llu assumption re-verifications\n",
                (unsigned long long)stats.receipts,
                (unsigned long long)stats.openings,
                (unsigned long long)stats.node_hashes_shared,
                (unsigned long long)stats.assumptions_skipped);
  }

  if (flags.has("sketch-query")) {
    auto sketch_receipts =
        core::load_receipts(data_dir + "/sketch_query_receipt.bin");
    if (!sketch_receipts.ok() || sketch_receipts.value().size() != 1) {
      std::fprintf(stderr, "sketch query receipt missing or malformed\n");
      return finish(flags, data_dir, 1);
    }
    const zvm::Receipt& receipt = sketch_receipts.value()[0];
    if (receipt.claim.image_id == core::sketch_heavy_image()) {
      auto verified = auditor.verify_heavy_hitters(receipt);
      if (!verified.ok()) {
        std::printf("sketch heavy-hitters proof: REJECTED — %s\n",
                    verified.error().to_string().c_str());
        return finish(flags, data_dir, 2);
      }
      std::printf("sketch heavy-hitters proof: OK (threshold %llu, %zu "
                  "flow(s), flat in chain size)\n",
                  (unsigned long long)verified.value().threshold,
                  verified.value().hits.size());
      for (const auto& hit : verified.value().hits) {
        std::printf("    %s -> %llu (err<=%llu)\n",
                    hit.key.to_string().c_str(),
                    (unsigned long long)hit.count,
                    (unsigned long long)hit.error);
      }
    } else if (receipt.claim.image_id == core::sketch_card_image()) {
      auto verified = auditor.verify_cardinality(receipt);
      if (!verified.ok()) {
        std::printf("sketch cardinality proof: REJECTED — %s\n",
                    verified.error().to_string().c_str());
        return finish(flags, data_dir, 2);
      }
      std::printf("sketch cardinality proof: OK — %llu distinct flow(s) "
                  "(CMS lower bound %llu)\n",
                  (unsigned long long)verified.value().distinct_flows,
                  (unsigned long long)verified.value().cms_lower_bound);
    } else {
      // Exact fallback: the prover's cost estimator chose a complete scan.
      auto verified = auditor.verify_query(receipt);
      if (!verified.ok()) {
        std::printf("sketch query (exact fallback): REJECTED — %s\n",
                    verified.error().to_string().c_str());
        return finish(flags, data_dir, 2);
      }
      std::printf("sketch query (exact fallback): OK — %s => %llu\n",
                  verified.value().query.to_string().c_str(),
                  (unsigned long long)verified.value().result.value(
                      verified.value().query.agg));
    }
  }

  if (flags.has("query")) {
    auto expected = core::parse_query(flags.get("query"));
    if (!expected.ok()) {
      std::fprintf(stderr, "query parse: %s\n",
                   expected.error().to_string().c_str());
      return finish(flags, data_dir, 1);
    }
    auto query_receipts =
        core::load_receipts(data_dir + "/query_receipt.bin");
    if (!query_receipts.ok() || query_receipts.value().size() != 1) {
      std::fprintf(stderr, "query receipt missing or malformed\n");
      return finish(flags, data_dir, 1);
    }
    const zvm::Receipt& query_receipt = query_receipts.value()[0];

    // Grouped receipts carry a different guest image; dispatch on it.
    if (query_receipt.claim.image_id == core::grouped_query_image()) {
      auto grouped = auditor.verify_grouped(
          query_receipt, {.expected_query = &expected.value()});
      if (!grouped.ok()) {
        std::printf("grouped query proof: REJECTED — %s\n",
                    grouped.error().to_string().c_str());
        return finish(flags, data_dir, 2);
      }
      std::printf("grouped query proof: OK\n  %s GROUP BY %s\n",
                  grouped.value().query.to_string().c_str(),
                  core::qfield_name(grouped.value().group_field));
      for (const auto& group : grouped.value().groups) {
        std::printf("    %s=%llu -> %llu (over %llu flows)\n",
                    core::qfield_name(grouped.value().group_field),
                    (unsigned long long)group.group_value,
                    (unsigned long long)group.stats.value(
                        grouped.value().query.agg),
                    (unsigned long long)group.stats.matched);
      }
      return finish(flags, data_dir, 0);
    }

    auto verified = auditor.verify_query(
        query_receipt, {.expected_query = &expected.value()});
    if (!verified.ok()) {
      std::printf("query proof: REJECTED — %s\n",
                  verified.error().to_string().c_str());
      return finish(flags, data_dir, 2);
    }
    const auto& j = verified.value();
    std::printf("query proof: OK (%s mode)\n",
                j.mode == core::QueryMode::complete ? "complete"
                                                    : "selective");
    std::printf("  %s\n  => %llu  (matched %llu of %llu entries)\n",
                j.query.to_string().c_str(),
                (unsigned long long)j.result.value(j.query.agg),
                (unsigned long long)j.result.matched,
                (unsigned long long)j.entry_count);
    if (j.mode == core::QueryMode::selective) {
      std::printf("  note: selective proofs do not demonstrate completeness"
                  " (see docs)\n");
    }
  }
  return finish(flags, data_dir, 0);
}
