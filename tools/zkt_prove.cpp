// zkt-prove: the service provider's prover. Recovers the raw-log store
// written by zkt-sim, replays every committed window through the Algorithm-1
// aggregation guest (chained receipts), and optionally proves a query.
//
// Usage:
//   zkt-prove --data-dir DIR [--query "sum(hop_sum) where src_ip = 1.1.1.1"]
//             [--group-by FIELD] [--selective] [--composite]
//             [--agg-mode auto|full|incremental] [--no-sketch]
//             [--heavy-hitters T] [--cardinality]
//             [--shards N] [--join-fanout F] [--pipeline-depth D]
//             [--epoch-every N]
//             [--recover] [--checkpoint-every N] [--retry-attempts N]
//             [--prune] [--metrics] [--metrics-json [PATH]]
//
// --shards N (>= 2) proves each window as N parallel shard chains behind
// split proofs and folds each round's shard receipts into one tree seal
// (saved to DIR/tree_seals.bin) with --join-fanout children per join node
// (default 2, at least 2);
// --pipeline-depth D overlaps up to D windows (stage/prove/fold). Sharded
// mode is incompatible with --query (query proofs run over the
// single-chain state). The core.sharded.* / core.tree.* /
// core.pipeline.inflight metrics show what the sharded pipeline did.
//
// By default every round folds its records into the proof-carrying round
// sketch (DESIGN.md §10); --no-sketch disables it. --heavy-hitters T proves
// the flows with count >= T and --cardinality proves the distinct-flow
// count, both answered against the committed sketch when its error bound
// satisfies the query (flat in the CLog size) and by an exact complete
// scan otherwise; the receipt lands in DIR/sketch_query_receipt.bin.
//
// --agg-mode picks the aggregation guest per round: "full" always rebuilds
// the whole CLog state in-guest (Algorithm 1), "incremental" proves only
// the touched entries against a Merkle multiproof (O(k log N)), and "auto"
// (default) compares estimated costs per round. The core.agg.mode /
// core.agg.touched_entries metrics show what each round did.
//
// --epoch-every N maintains the binary-counter ladder of epoch seals
// (DESIGN.md §11): every N rounds a chain-summary seal is proven
// asynchronously and merged, the live ladder lands in DIR/epoch_seals.bin,
// and zkt-verify --catch-up syncs from it in O(log T) instead of replaying
// the whole receipt chain. Incompatible with --shards.
//
// --recover resumes a previous zkt-prove run's proof chain from the chain
// snapshots persisted in the store (see docs/RECOVERY.md) instead of
// re-proving from window 0; --checkpoint-every controls how often those
// snapshots are written (default: every round).
//
// Outputs (in DIR): aggregation_receipts.bin, query_receipt.bin; with
// --metrics-json also a metrics snapshot (default DIR/metrics.json, schema
// in docs/OBSERVABILITY.md).
#include <cstdio>
#include <fstream>

#include "common/flags.h"
#include "core/grouped_query.h"
#include "core/io.h"
#include "core/pipeline.h"
#include "core/query_parser.h"
#include "core/service.h"
#include "netflow/record.h"
#include "obs/metrics.h"
#include "store/logstore.h"

using namespace zkt;

namespace {

/// Final act of every exit path: dump the process-wide metrics as requested.
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

  // Load the provider's artifacts.
  store::LogStore logs(
      store::StoreConfig{.wal_path = data_dir + "/rlogs.wal"});
  if (auto s = logs.recover(); !s.ok()) {
    std::fprintf(stderr, "store: %s\n", s.to_string().c_str());
    return finish(flags, data_dir, 1);
  }
  core::CommitmentBoard board;
  if (auto s = core::load_commitments(data_dir + "/commitments.bin", board);
      !s.ok()) {
    std::fprintf(stderr, "commitments: %s\n", s.to_string().c_str());
    return finish(flags, data_dir, 1);
  }
  std::printf("zkt-prove: %llu stored rlog rows, %zu commitments\n",
              (unsigned long long)logs.row_count(store::kTableRlogs),
              board.size());

  zvm::ProveOptions options;
  if (flags.has("composite")) options.seal_kind = zvm::SealKind::composite;

  core::PipelineOptions pipeline_options;
  pipeline_options.sharded.prove_options = options;
  const std::string agg_mode = flags.get("agg-mode", "auto");
  if (agg_mode == "full") {
    pipeline_options.sharded.agg_mode = core::AggMode::full;
  } else if (agg_mode == "incremental") {
    pipeline_options.sharded.agg_mode = core::AggMode::incremental;
  } else if (agg_mode != "auto") {
    std::fprintf(stderr, "unknown --agg-mode: %s (auto|full|incremental)\n",
                 agg_mode.c_str());
    return finish(flags, data_dir, 1);
  }
  pipeline_options.checkpoint_every_n_rounds =
      flags.get_u64("checkpoint-every", 1);
  pipeline_options.retry.max_attempts =
      static_cast<u32>(flags.get_u64("retry-attempts", 3));
  pipeline_options.prune_aggregated = flags.has("prune");
  pipeline_options.sharded.shard_count =
      static_cast<u32>(flags.get_u64("shards", 1));
  pipeline_options.sharded.join_fanout =
      static_cast<u32>(flags.get_u64("join-fanout", 2));
  if (pipeline_options.sharded.join_fanout < 2) {
    std::fprintf(stderr,
                 "--join-fanout must be at least 2 (every sharded round "
                 "folds into one tree seal)\n");
    return finish(flags, data_dir, 1);
  }
  pipeline_options.sharded.pipeline_depth =
      static_cast<u32>(flags.get_u64("pipeline-depth", 1));
  if (flags.has("no-sketch")) pipeline_options.sharded.sketch = std::nullopt;
  pipeline_options.epoch_every = flags.get_u64("epoch-every", 0);
  const bool sharded = pipeline_options.sharded.shard_count >= 2;
  if (sharded && pipeline_options.epoch_every > 0) {
    std::fprintf(stderr,
                 "--epoch-every is incompatible with --shards (epoch seals "
                 "fold the single round chain)\n");
    return finish(flags, data_dir, 1);
  }
  if (sharded &&
      (flags.has("heavy-hitters") || flags.has("cardinality"))) {
    std::fprintf(stderr,
                 "--heavy-hitters/--cardinality are incompatible with "
                 "--shards (sketch queries run over the single-chain "
                 "state)\n");
    return finish(flags, data_dir, 1);
  }
  if (sharded && flags.has("query")) {
    std::fprintf(stderr,
                 "--query is incompatible with --shards (query proofs run "
                 "over the single-chain state)\n");
    return finish(flags, data_dir, 1);
  }

  // The pipeline aggregates every committed window, in order, and persists
  // round receipts (plus chain snapshots) back into the store.
  core::ProviderPipeline pipeline(logs, board, pipeline_options);
  if (flags.has("recover")) {
    auto recovery = pipeline.recover();
    if (!recovery.ok()) {
      std::fprintf(stderr, "recovery FAILED: %s\n",
                   recovery.error().to_string().c_str());
      return finish(flags, data_dir, 2);
    }
    if (recovery.value().resumed) {
      std::printf(
          "  recovered chain: %llu rounds from snapshot, %llu replayed, "
          "%llu seals re-folded, resuming after window %llu\n",
          (unsigned long long)recovery.value().rounds_restored,
          (unsigned long long)recovery.value().rounds_replayed,
          (unsigned long long)recovery.value().seals_refolded,
          (unsigned long long)recovery.value().last_window.value_or(0));
    } else {
      std::printf("  no chain state to recover; starting fresh\n");
    }
  }
  auto rounds = pipeline.aggregate_pending();
  if (!rounds.ok()) {
    std::fprintf(stderr,
                 "aggregation FAILED: %s\n(by design: tampered or "
                 "uncommitted data cannot be proven)\n",
                 rounds.error().to_string().c_str());
    return finish(flags, data_dir, 2);
  }
  for (const auto& round : rounds.value()) {
    u64 entries = 0;
    for (const auto& shard : round.shard_rounds) {
      entries += shard.journal.new_entry_count;
    }
    const auto& commitments = round.shard_rounds.front().journal.commitments;
    std::printf(
        "  window %llu: %zu shard(s), %llu entries, %llu cycles, %.1f ms%s\n",
        (unsigned long long)(commitments.empty() ? 0
                                                 : commitments[0].window_id),
        round.shard_rounds.size(), (unsigned long long)entries,
        (unsigned long long)round.total_cycles, round.wall_ms,
        round.tree_seal.has_value() ? ", sealed" : "");
  }
  if (sharded) {
    // Sharded chains persist through the store (receipts / tree_seals
    // tables); the seals are additionally saved as the round proof objects
    // a verifier consumes.
    const std::string seals_path = data_dir + "/tree_seals.bin";
    if (auto s = core::save_receipts(pipeline.tree_seals(), seals_path);
        !s.ok()) {
      std::fprintf(stderr, "save tree seals: %s\n", s.to_string().c_str());
      return finish(flags, data_dir, 1);
    }
    std::printf("  tree seals -> %s (%zu rounds)\n", seals_path.c_str(),
                pipeline.tree_seals().size());
    return finish(flags, data_dir, 0);
  }
  const core::AggregationService& aggregation = pipeline.aggregation();
  const std::string receipts_path = data_dir + "/aggregation_receipts.bin";
  if (auto s = core::save_receipts(pipeline.receipts(), receipts_path);
      !s.ok()) {
    std::fprintf(stderr, "save receipts: %s\n", s.to_string().c_str());
    return finish(flags, data_dir, 1);
  }
  std::printf("  receipts -> %s (%zu rounds)\n", receipts_path.c_str(),
              pipeline.receipts().size());

  if (pipeline_options.epoch_every > 0) {
    auto seals = pipeline.epoch_seals();
    if (!seals.ok()) {
      std::fprintf(stderr, "epoch seals: %s\n",
                   seals.error().to_string().c_str());
      return finish(flags, data_dir, 2);
    }
    const std::string seals_path = data_dir + "/epoch_seals.bin";
    if (auto s = core::save_epoch_seals(seals.value(), seals_path); !s.ok()) {
      std::fprintf(stderr, "save epoch seals: %s\n", s.to_string().c_str());
      return finish(flags, data_dir, 1);
    }
    u64 sealed_rounds = 0;
    for (const auto& seal : seals.value()) sealed_rounds += seal.rounds;
    std::printf(
        "  epoch ladder -> %s (%zu seal(s) covering %llu of %zu rounds)\n",
        seals_path.c_str(), seals.value().size(),
        (unsigned long long)sealed_rounds, pipeline.receipts().size());
  }

  // Optional sketch-routed queries (heavy hitters / cardinality).
  if (flags.has("heavy-hitters") || flags.has("cardinality")) {
    core::QueryService queries(aggregation,
                               core::QueryServiceOptions{options});
    const std::string sketch_query_path =
        data_dir + "/sketch_query_receipt.bin";
    if (flags.has("heavy-hitters")) {
      const u64 threshold = flags.get_u64("heavy-hitters", 1);
      auto response = queries.heavy_hitters(threshold);
      if (!response.ok()) {
        std::fprintf(stderr, "heavy-hitters proof: %s\n",
                     response.error().to_string().c_str());
        return finish(flags, data_dir, 2);
      }
      const zvm::Receipt& receipt = response.value().used_sketch
                                        ? response.value().sketch->receipt
                                        : response.value().exact->receipt;
      if (auto s = core::save_receipts({receipt}, sketch_query_path);
          !s.ok()) {
        std::fprintf(stderr, "save sketch query receipt: %s\n",
                     s.to_string().c_str());
        return finish(flags, data_dir, 1);
      }
      if (response.value().used_sketch) {
        std::printf("  heavy hitters >= %llu: %zu flow(s) via sketch -> %s\n",
                    (unsigned long long)threshold,
                    response.value().sketch->journal.hits.size(),
                    sketch_query_path.c_str());
      } else {
        std::printf(
            "  heavy hitters >= %llu: %llu flow(s) via exact scan -> %s\n",
            (unsigned long long)threshold,
            (unsigned long long)response.value().exact->value,
            sketch_query_path.c_str());
      }
    } else {
      auto response = queries.cardinality();
      if (!response.ok()) {
        std::fprintf(stderr, "cardinality proof: %s\n",
                     response.error().to_string().c_str());
        return finish(flags, data_dir, 2);
      }
      const zvm::Receipt& receipt = response.value().used_sketch
                                        ? response.value().sketch->receipt
                                        : response.value().exact->receipt;
      if (auto s = core::save_receipts({receipt}, sketch_query_path);
          !s.ok()) {
        std::fprintf(stderr, "save sketch query receipt: %s\n",
                     s.to_string().c_str());
        return finish(flags, data_dir, 1);
      }
      const u64 distinct =
          response.value().used_sketch
              ? response.value().sketch->journal.distinct_flows
              : response.value().exact->value;
      std::printf("  cardinality: %llu distinct flow(s) via %s -> %s\n",
                  (unsigned long long)distinct,
                  response.value().used_sketch ? "sketch" : "exact scan",
                  sketch_query_path.c_str());
    }
  }

  // Optional query proof.
  if (flags.has("query")) {
    auto query = core::parse_query(flags.get("query"));
    if (!query.ok()) {
      std::fprintf(stderr, "query parse: %s\n",
                   query.error().to_string().c_str());
      return finish(flags, data_dir, 1);
    }
    std::printf("  query: %s\n", query.value().to_string().c_str());
    const std::string query_path = data_dir + "/query_receipt.bin";
    core::QueryService queries(aggregation,
                               core::QueryServiceOptions{options});

    if (flags.has("group-by")) {
      // Grouped proof: one receipt covering every group.
      const std::string field_name = flags.get("group-by");
      std::optional<core::QField> group;
      for (u8 f = 1; f <= static_cast<u8>(core::QField::jitter_avg_us); ++f) {
        if (field_name == core::qfield_name(static_cast<core::QField>(f))) {
          group = static_cast<core::QField>(f);
        }
      }
      if (!group.has_value()) {
        std::fprintf(stderr, "unknown group-by field: %s\n",
                     field_name.c_str());
        return finish(flags, data_dir, 1);
      }
      auto response = queries.grouped(query.value(), *group);
      if (!response.ok()) {
        std::fprintf(stderr, "grouped query proof: %s\n",
                     response.error().to_string().c_str());
        return finish(flags, data_dir, 2);
      }
      if (auto s = core::save_receipts({response.value().receipt}, query_path);
          !s.ok()) {
        std::fprintf(stderr, "save query receipt: %s\n", s.to_string().c_str());
        return finish(flags, data_dir, 1);
      }
      std::printf("  %zu groups proven (%.1f ms) -> %s\n",
                  response.value().journal.groups.size(),
                  response.value().prove_info.total_ms, query_path.c_str());
      for (const auto& group_entry : response.value().journal.groups) {
        std::printf("    %s=%llu -> %llu\n", field_name.c_str(),
                    (unsigned long long)group_entry.group_value,
                    (unsigned long long)group_entry.stats.value(
                        query.value().agg));
      }
      return finish(flags, data_dir, 0);
    }

    core::QueryOptions query_options;
    if (flags.has("selective")) {
      query_options.mode = core::QueryMode::selective;
    }
    auto response = queries.run(query.value(), query_options);
    if (!response.ok()) {
      std::fprintf(stderr, "query proof: %s\n",
                   response.error().to_string().c_str());
      return finish(flags, data_dir, 2);
    }
    if (auto s = core::save_receipts({response.value().receipt}, query_path);
        !s.ok()) {
      std::fprintf(stderr, "save query receipt: %s\n",
                   s.to_string().c_str());
      return finish(flags, data_dir, 1);
    }
    std::printf("  result = %llu (%s mode, %.1f ms) -> %s\n",
                (unsigned long long)response.value().value,
                flags.has("selective") ? "selective" : "complete",
                response.value().prove_info.total_ms, query_path.c_str());
  }
  return finish(flags, data_dir, 0);
}
