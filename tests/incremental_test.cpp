// Incremental (delta) aggregation rounds: equivalence with full rebuilds,
// mixed-chain verification, soundness negatives against hand-built delta
// inputs, and crash recovery across incremental rounds.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "core/auditor.h"
#include "core/chain_summary.h"
#include "core/service.h"
#include "sim/crash.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

RLogBatch batch_of(u32 router, u64 window, std::vector<u32> srcs) {
  RLogBatch batch;
  batch.router_id = router;
  batch.window_id = window;
  for (u32 src : srcs) {
    FlowRecord record;
    PacketObservation pkt;
    pkt.key = {src, 0x09090909, 1000, 443, 6};
    pkt.timestamp_ms = window * 5000;
    pkt.bytes = 100 + src % 37;
    pkt.hop_count = 3;
    record.observe(pkt);
    batch.records.push_back(std::move(record));
  }
  return batch;
}

struct Fixture {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("inc");

  RLogBatch committed(u32 router, u64 window, std::vector<u32> srcs) {
    auto batch = batch_of(router, window, std::move(srcs));
    EXPECT_TRUE(
        board.publish(make_commitment(batch, key, window).value()).ok());
    return batch;
  }
};

AggregationOptions forced(AggMode mode) {
  AggregationOptions options;
  options.mode = mode;
  return options;
}

// A stream that exercises merges, middle inserts (cascade), frontier
// inserts, and a front-of-state insert, round by round.
std::vector<std::vector<u32>> kStream = {
    {10, 20, 30, 40},  // genesis (always full)
    {20, 25, 50},      // merge 20, middle insert 25, frontier insert 50
    {60, 20},          // frontier insert + merge
    {5},               // insert before everything (full cascade)
    {25, 25, 61},      // duplicate records within a round + frontier
};

TEST(Incremental, ForcedModesProduceIdenticalRoots) {
  Fixture fx;
  AggregationService full_svc(fx.board, forced(AggMode::full));
  AggregationService inc_svc(fx.board, forced(AggMode::incremental));

  for (size_t w = 0; w < kStream.size(); ++w) {
    auto batch = fx.committed(0, w + 1, kStream[w]);
    auto full_round = full_svc.aggregate({batch});
    auto inc_round = inc_svc.aggregate({batch});
    ASSERT_TRUE(full_round.ok()) << full_round.error().to_string();
    ASSERT_TRUE(inc_round.ok()) << inc_round.error().to_string();

    // Same transition, same root — regardless of which guest proved it.
    EXPECT_EQ(full_round.value().journal.new_root,
              inc_round.value().journal.new_root);
    EXPECT_EQ(full_round.value().journal.new_entry_count,
              inc_round.value().journal.new_entry_count);
    EXPECT_EQ(full_round.value().journal.kind, RoundKind::full);
    // Genesis has no state to anchor a delta on; every later round does.
    EXPECT_EQ(inc_round.value().journal.kind,
              w == 0 ? RoundKind::full : RoundKind::incremental);
    if (w > 0) {
      EXPECT_GE(inc_round.value().journal.touched_entries, 1u);
      // A round that opens EVERY slot (front-of-state insert) legitimately
      // needs zero siblings; anything narrower needs at least one.
      if (inc_round.value().journal.touched_entries <
          full_round.value().journal.new_entry_count - 1) {
        EXPECT_GE(inc_round.value().journal.multiproof_siblings, 1u);
      }
    }
  }
  EXPECT_EQ(full_svc.state().root(), inc_svc.state().root());
  EXPECT_EQ(inc_svc.last_kind(), RoundKind::incremental);
}

TEST(Incremental, AuditorAcceptsIncrementalChain) {
  Fixture fx;
  AggregationService service(fx.board, forced(AggMode::incremental));
  Auditor auditor(fx.board);
  for (size_t w = 0; w < kStream.size(); ++w) {
    auto batch = fx.committed(0, w + 1, kStream[w]);
    auto round = service.aggregate({batch});
    ASSERT_TRUE(round.ok()) << round.error().to_string();
    auto accepted = auditor.accept_round(round.value().receipt);
    ASSERT_TRUE(accepted.ok()) << accepted.error().to_string();
  }
  EXPECT_EQ(auditor.rounds_accepted(), kStream.size());
  EXPECT_EQ(auditor.current_root(), service.state().root());
}

TEST(Incremental, MixedChainVerifiesEndToEnd) {
  // auto_select picks incremental for narrow rounds and falls back to full
  // for state-wide ones; the resulting mixed chain must verify through the
  // auditor, the chain-summary guest, AND queries against the head.
  Fixture fx;
  AggregationService service(fx.board);  // auto_select
  std::vector<zvm::Receipt> receipts;
  std::vector<RoundKind> kinds;

  // Wide genesis so later narrow rounds look cheap to the cost model.
  std::vector<u32> wide;
  for (u32 i = 0; i < 64; ++i) wide.push_back(100 + 4 * i);
  auto seed_round = service.aggregate({fx.committed(0, 1, wide)});
  ASSERT_TRUE(seed_round.ok());
  receipts.push_back(seed_round.value().receipt);
  kinds.push_back(seed_round.value().journal.kind);

  // Narrow round: merge two existing flows -> incremental.
  auto narrow = service.aggregate({fx.committed(0, 2, {100, 104})});
  ASSERT_TRUE(narrow.ok());
  receipts.push_back(narrow.value().receipt);
  kinds.push_back(narrow.value().journal.kind);

  // Front-of-state insert: the cascade opens everything -> full rebuild.
  auto front = service.aggregate({fx.committed(0, 3, {1})});
  ASSERT_TRUE(front.ok());
  receipts.push_back(front.value().receipt);
  kinds.push_back(front.value().journal.kind);

  // Another narrow round on top of the full one.
  auto narrow2 = service.aggregate({fx.committed(0, 4, {1, 100})});
  ASSERT_TRUE(narrow2.ok());
  receipts.push_back(narrow2.value().receipt);
  kinds.push_back(narrow2.value().journal.kind);

  EXPECT_EQ(kinds[0], RoundKind::full);
  EXPECT_EQ(kinds[1], RoundKind::incremental);
  EXPECT_EQ(kinds[2], RoundKind::full);
  EXPECT_EQ(kinds[3], RoundKind::incremental);

  Auditor auditor(fx.board);
  for (const auto& receipt : receipts) {
    ASSERT_TRUE(auditor.accept_round(receipt).ok());
  }

  // One chain-summary receipt covering the mixed chain.
  auto summary = prove_epoch_span(receipts);
  ASSERT_TRUE(summary.ok()) << summary.error().to_string();
  auto verified = verify_chain_summary(
      zvm::Verifier{}, summary.value().receipt, summary.value().commitments);
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_EQ(verified.value().final_root, service.state().root());

  // Queries bind to the (incremental) head receipt.
  QueryService queries(service);
  auto complete = queries.run(Query::sum(QField::packets));
  ASSERT_TRUE(complete.ok()) << complete.error().to_string();
  EXPECT_TRUE(auditor.verify_query(complete.value().receipt).ok());
  auto selective = queries.run(Query::count(), {.mode = QueryMode::selective,
                                                .prove_options_override = {}});
  ASSERT_TRUE(selective.ok()) << selective.error().to_string();
  EXPECT_TRUE(auditor.verify_query(selective.value().receipt).ok());
}

TEST(Incremental, CapacityGrowthRoundMatchesFullRebuild) {
  // N = 4 fills the padded tree exactly; two frontier inserts force the
  // guest through the virtual-growth path (capacity 4 -> 8).
  Fixture fx;
  AggregationService full_svc(fx.board, forced(AggMode::full));
  AggregationService inc_svc(fx.board, forced(AggMode::incremental));
  auto seed = fx.committed(0, 1, {10, 20, 30, 40});
  ASSERT_TRUE(full_svc.aggregate({seed}).ok());
  ASSERT_TRUE(inc_svc.aggregate({seed}).ok());

  auto growth = fx.committed(0, 2, {50, 60});
  auto full_round = full_svc.aggregate({growth});
  auto inc_round = inc_svc.aggregate({growth});
  ASSERT_TRUE(full_round.ok());
  ASSERT_TRUE(inc_round.ok()) << inc_round.error().to_string();
  EXPECT_EQ(inc_round.value().journal.kind, RoundKind::incremental);
  EXPECT_EQ(full_round.value().journal.new_root,
            inc_round.value().journal.new_root);
  EXPECT_EQ(inc_round.value().journal.new_entry_count, 6u);
}

TEST(Incremental, ForcedIncrementalFallsBackWhenNoDeltaIsPossible) {
  Fixture fx;
  AggregationService service(fx.board, forced(AggMode::incremental));
  // Genesis: nothing to extend — full guest.
  auto genesis = service.aggregate({fx.committed(0, 1, {10})});
  ASSERT_TRUE(genesis.ok());
  EXPECT_EQ(genesis.value().journal.kind, RoundKind::full);
  EXPECT_EQ(service.last_kind(), RoundKind::full);
  // A round with zero records touches nothing — full guest again.
  auto empty = service.aggregate({fx.committed(0, 2, {})});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().journal.kind, RoundKind::full);
  // And a real delta round switches over.
  auto delta = service.aggregate({fx.committed(0, 3, {10, 11})});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().journal.kind, RoundKind::incremental);
  EXPECT_EQ(service.last_kind(), RoundKind::incremental);
}

TEST(Incremental, BuildDeltaInputRequiresHistory) {
  Fixture fx;
  AggregationService service(fx.board);
  auto batch = fx.committed(0, 1, {10});
  auto before = service.build_delta_input({&batch, 1});
  ASSERT_FALSE(before.ok());
  EXPECT_EQ(before.error().code, Errc::invalid_argument);
}

// ---------------------------------------------------------------------------
// Soundness negatives: hand-built delta inputs straight into the prover.

struct ProverFixture : Fixture {
  AggregationService service{board, forced(AggMode::full)};

  /// Seed the chain with one full round over ascending keys.
  void seed(std::vector<u32> srcs, u64 window = 1) {
    auto batch = committed(0, window, std::move(srcs));
    auto round = service.aggregate({batch});
    ASSERT_TRUE(round.ok()) << round.error().to_string();
  }

  Result<zvm::Receipt> prove_delta(const DeltaAggregateInput& input) {
    zvm::ProveOptions options;
    options.assumptions.push_back(service.last_receipt());
    zvm::Prover prover;
    return prover.prove(guest_images().aggregate_incremental, input.to_bytes(),
                        options, nullptr);
  }
};

TEST(IncrementalSoundness, ValidHandBuiltDeltaProves) {
  // Control for the negatives below: the untampered input proves.
  ProverFixture fx;
  fx.seed({10, 20, 30, 40, 50, 60});
  auto batch = fx.committed(0, 2, {20, 55});
  auto input = fx.service.build_delta_input({&batch, 1});
  ASSERT_TRUE(input.ok()) << input.error().to_string();
  auto receipt = fx.prove_delta(input.value());
  ASSERT_TRUE(receipt.ok()) << receipt.error().to_string();
  auto journal = AggJournal::parse(receipt.value().journal);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal.value().kind, RoundKind::incremental);
  EXPECT_GE(journal.value().multiproof_siblings, 1u);
}

TEST(IncrementalSoundness, TamperedMultiproofSiblingRejected) {
  ProverFixture fx;
  fx.seed({10, 20, 30, 40, 50, 60});
  auto batch = fx.committed(0, 2, {20, 55});
  auto input = fx.service.build_delta_input({&batch, 1});
  ASSERT_TRUE(input.ok());
  ASSERT_FALSE(input.value().proof.siblings.empty());
  input.value().proof.siblings[0].bytes[7] ^= 0x40;
  EXPECT_FALSE(fx.prove_delta(input.value()).ok());
}

TEST(IncrementalSoundness, TamperedOpenedEntryRejected) {
  // Inflating an opened entry's counters breaks the old-lane walk even
  // though the new root is recomputed consistently.
  ProverFixture fx;
  fx.seed({10, 20, 30, 40, 50, 60});
  auto batch = fx.committed(0, 2, {20});
  auto input = fx.service.build_delta_input({&batch, 1});
  ASSERT_TRUE(input.ok());
  ASSERT_FALSE(input.value().opened.empty());
  // Bump a byte inside the serialized entry (counter region, well past the
  // key prefix so the record still parses).
  auto& bytes = input.value().opened[0].entry;
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() - 2] ^= 0x01;
  EXPECT_FALSE(fx.prove_delta(input.value()).ok());
}

TEST(IncrementalSoundness, DuplicateKeyInsertionRejectedByAdjacency) {
  // Present an EXISTING key as "new" by opening a non-adjacent pair that
  // brackets it by key. The multiproof itself is genuine — only the
  // adjacency (non-membership) check can catch the hidden entry.
  ProverFixture fx;
  fx.seed({10, 20, 30, 40, 50, 60});  // state indices 0..5
  const CLogState& state = fx.service.state();
  const u64 n = state.entry_count();
  ASSERT_EQ(n, 6u);

  // The round claims key 50 (state index 4) is new, opening indices 3 and 5
  // — which DO bracket key 50, but are not adjacent.
  auto batch = fx.committed(0, 2, {50});

  DeltaAggregateInput input;
  input.prev_claim_digest = fx.service.last_receipt().claim.digest();
  input.prev_image_kind = fx.service.last_kind();
  input.prev_root = state.root();
  input.prev_entry_count = n;
  for (u64 idx : {u64{3}, u64{5}}) {
    DeltaAggregateInput::OpenedEntry opened;
    opened.index = idx;
    opened.entry = state.entry(idx).canonical_bytes();
    input.opened.push_back(std::move(opened));
  }
  input.proof = state.prove_multi(std::vector<u64>{3, 5, n});
  CommitmentRef ref;
  ref.router_id = batch.router_id;
  ref.window_id = batch.window_id;
  ref.rlog_hash = batch.hash();
  ref.record_count = batch.records.size();
  input.batches.emplace_back(ref, batch.canonical_bytes());

  EXPECT_FALSE(fx.prove_delta(input).ok());
}

TEST(IncrementalSoundness, InsertWithoutCascadeRejected) {
  // A middle insert that opens only its bracketing pair (not the shifted
  // suffix) must be rejected: the entries after the insertion point move,
  // and their digests are unknown to the guest.
  ProverFixture fx;
  fx.seed({10, 20, 30, 40, 50, 60});
  const CLogState& state = fx.service.state();
  const u64 n = state.entry_count();
  auto batch = fx.committed(0, 2, {25});  // belongs between indices 1 and 2

  DeltaAggregateInput input;
  input.prev_claim_digest = fx.service.last_receipt().claim.digest();
  input.prev_image_kind = fx.service.last_kind();
  input.prev_root = state.root();
  input.prev_entry_count = n;
  for (u64 idx : {u64{1}, u64{2}}) {
    DeltaAggregateInput::OpenedEntry opened;
    opened.index = idx;
    opened.entry = state.entry(idx).canonical_bytes();
    input.opened.push_back(std::move(opened));
  }
  input.proof = state.prove_multi(std::vector<u64>{1, 2, n});
  CommitmentRef ref;
  ref.router_id = batch.router_id;
  ref.window_id = batch.window_id;
  ref.rlog_hash = batch.hash();
  ref.record_count = batch.records.size();
  input.batches.emplace_back(ref, batch.canonical_bytes());

  EXPECT_FALSE(fx.prove_delta(input).ok());
}

TEST(IncrementalSoundness, StalePrevRootRejectedInGuest) {
  // Claiming a different prev_root than the multiproof's tree fails the
  // old-lane convergence check.
  ProverFixture fx;
  fx.seed({10, 20, 30, 40, 50, 60});
  auto batch = fx.committed(0, 2, {20});
  auto input = fx.service.build_delta_input({&batch, 1});
  ASSERT_TRUE(input.ok());
  input.value().prev_root.bytes[0] ^= 0x01;
  EXPECT_FALSE(fx.prove_delta(input.value()).ok());
}

TEST(IncrementalSoundness, StaleChainPositionRejectedByAuditor) {
  // A delta receipt proven against an OLD head is internally valid but can
  // no longer extend the chain once a newer round exists.
  ProverFixture fx;
  fx.seed({10, 20, 30, 40, 50, 60});
  auto genesis_receipt = fx.service.last_receipt();
  auto stale_batch = fx.committed(0, 2, {20});
  auto stale_input = fx.service.build_delta_input({&stale_batch, 1});
  ASSERT_TRUE(stale_input.ok());
  auto stale_receipt = fx.prove_delta(stale_input.value());
  ASSERT_TRUE(stale_receipt.ok()) << stale_receipt.error().to_string();

  // The chain moves on.
  auto round2 = fx.service.aggregate({fx.committed(1, 2, {30, 70})});
  ASSERT_TRUE(round2.ok());

  Auditor auditor(fx.board);
  ASSERT_TRUE(auditor.accept_round(genesis_receipt).ok());
  ASSERT_TRUE(auditor.accept_round(round2.value().receipt).ok());
  auto stale = auditor.accept_round(stale_receipt.value());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, Errc::chain_broken);
}

TEST(IncrementalSoundness, TamperedSnapshotOrderRejected) {
  // The persisted entry order IS the flow-key index; a snapshot with
  // swapped entries must not be adopted.
  ProverFixture fx;
  fx.seed({10, 20, 30});
  const CLogState& state = fx.service.state();
  auto tampered = CLogState::from_entries(
      {state.entry(1), state.entry(0), state.entry(2)});  // swapped pair
  ASSERT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.error().code, Errc::parse_error);
}

TEST(Incremental, CrashRestartAcrossIncrementalRounds) {
  const auto data_dir =
      std::filesystem::temp_directory_path() /
      ("zkt_crash_incremental_" + std::to_string(::getpid()));
  std::filesystem::remove_all(data_dir);
  ASSERT_TRUE(std::filesystem::create_directories(data_dir));

  sim::CrashRestartConfig config;
  config.data_dir = data_dir.string();
  config.sim.router_count = 2;
  config.sim.window_ms = 2'000;
  config.workload.duration_ms = 10'000;  // ~5 commitment windows
  config.packet_count = 800;
  config.crash_after_rounds = 2;
  config.pipeline.sharded.agg_mode = AggMode::incremental;
  config.pipeline.retry.base_backoff = std::chrono::milliseconds(1);
  config.pipeline.retry.max_backoff = std::chrono::milliseconds(2);

  auto report = sim::run_crash_restart(config);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_TRUE(report.value().recovery.resumed);
  EXPECT_GT(report.value().rounds_after_restart, 0u);
  EXPECT_TRUE(report.value().chain_verified);

  // The recovered chain actually contains incremental rounds.
  u64 incremental_rounds = 0;
  for (const auto& receipt : report.value().receipts) {
    auto journal = AggJournal::parse(receipt.journal);
    ASSERT_TRUE(journal.ok());
    if (journal.value().kind == RoundKind::incremental) ++incremental_rounds;
  }
  EXPECT_GT(incremental_rounds, 0u);

  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace zkt::core
