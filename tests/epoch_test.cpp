// Epoch-seal tests: the binary-counter ladder (plan, build, merge, adopt),
// seal persistence + crash recovery through the pipeline, Auditor::catch_up
// soundness (splice negatives, tamper rejection), and the headline
// guarantee — catch-up decisions identical to a full replay.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "common/serial.h"
#include "core/epoch.h"
#include "core/io.h"
#include "core/pipeline.h"
#include "core/service.h"
#include "store/fault.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

EpochLadderOptions every(u64 n) {
  EpochLadderOptions options;
  options.epoch_every = n;
  return options;
}

// ---------------------------------------------------------------------------
// Ladder plan: pure function of (rounds, epoch_every).

TEST(EpochLadderPlan, BinaryDecomposition) {
  EXPECT_TRUE(epoch_ladder_plan(0, 4).empty());
  EXPECT_TRUE(epoch_ladder_plan(3, 4).empty());  // no completed unit
  EXPECT_TRUE(epoch_ladder_plan(100, 0).empty());

  // 7 rounds at epoch 4 -> one unit; the trailing 3 rounds stay unsealed.
  auto plan = epoch_ladder_plan(7, 4);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (EpochSpanSpec{0, 0, 4}));

  // 48 rounds at epoch 4 -> 12 units = 0b1100: a level-3 span then a
  // level-2 span, chain order, strictly decreasing levels.
  plan = epoch_ladder_plan(48, 4);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], (EpochSpanSpec{3, 0, 32}));
  EXPECT_EQ(plan[1], (EpochSpanSpec{2, 32, 16}));

  // Every plan covers floor(rounds/epoch)*epoch rounds contiguously.
  for (u64 rounds : {1ULL, 5ULL, 16ULL, 21ULL, 64ULL, 100ULL}) {
    u64 covered = 0;
    u32 prev_level = 64;
    for (const auto& spec : epoch_ladder_plan(rounds, 2)) {
      EXPECT_EQ(spec.start_round, covered);
      EXPECT_LT(spec.level, prev_level);
      prev_level = spec.level;
      covered += spec.rounds;
    }
    EXPECT_EQ(covered, (rounds / 2) * 2);
  }
}

// ---------------------------------------------------------------------------
// A real aggregation chain to seal.

struct ChainFixture {
  CommitmentBoard board;
  AggregationService service{board};
  std::vector<zvm::Receipt> rounds;
  std::vector<u64> windows;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("epoch-fix");

  void run_round(u64 window, std::vector<u32> srcs) {
    RLogBatch batch;
    batch.router_id = 0;
    batch.window_id = window;
    for (u32 src : srcs) {
      FlowRecord record;
      PacketObservation pkt;
      pkt.key = {src, 0x09090909, 1000, 443, 6};
      pkt.timestamp_ms = window * 5000;
      pkt.bytes = 100 * src;
      record.observe(pkt);
      batch.records.push_back(std::move(record));
    }
    ASSERT_TRUE(
        board.publish(make_commitment(batch, key, window).value()).ok());
    auto round = service.aggregate({batch});
    ASSERT_TRUE(round.ok()) << round.error().to_string();
    rounds.push_back(std::move(round.value().receipt));
    windows.push_back(window);
  }

  void run_rounds(u64 n) {
    const u64 first = windows.size() + 1;
    for (u64 w = first; w < first + n; ++w) {
      run_round(w, {static_cast<u32>(w), static_cast<u32>(w) + 100});
    }
  }
};

// Feed a fixture's chain through a ladder and settle.
std::vector<EpochSeal> build_ladder(ChainFixture& fx, EpochLadder& ladder) {
  for (size_t i = 0; i < fx.rounds.size(); ++i) {
    EXPECT_TRUE(ladder.feed(fx.rounds[i], fx.windows[i]).ok());
  }
  EXPECT_TRUE(ladder.settle().ok());
  return ladder.ladder();
}

TEST(EpochLadder, BuildsBinaryCounterAndSealsVerify) {
  ChainFixture fx;
  fx.run_rounds(5);

  EpochLadder ladder(every(2));
  auto live = build_ladder(fx, ladder);

  // 5 rounds at epoch 2 -> 2 completed units -> one level-1 seal; round 4
  // stays in the feed buffer.
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].level, 1u);
  EXPECT_EQ(live[0].start_round, 0u);
  EXPECT_EQ(live[0].rounds, 4u);
  EXPECT_EQ(live[0].first_window, fx.windows[0]);
  EXPECT_EQ(live[0].last_window, fx.windows[3]);
  EXPECT_TRUE(live[0].journal.genesis);
  EXPECT_EQ(ladder.rounds_fed(), 5u);

  // The ladder matches the pure plan.
  auto plan = epoch_ladder_plan(fx.rounds.size(), 2);
  ASSERT_EQ(plan.size(), live.size());
  EXPECT_EQ(plan[0], (EpochSpanSpec{live[0].level, live[0].start_round,
                                    live[0].rounds}));

  // take_completed drains every proven seal in completion order: two
  // level-0 units, then their merge — supersets included so persistence
  // can be append-only.
  auto completed = ladder.take_completed();
  ASSERT_EQ(completed.size(), 3u);
  EXPECT_EQ(completed[0].level, 0u);
  EXPECT_EQ(completed[1].level, 0u);
  EXPECT_EQ(completed[1].start_round, 2u);
  EXPECT_EQ(completed[2].level, 1u);
  EXPECT_TRUE(ladder.take_completed().empty());

  // Every seal (including the superseded level-0s) verifies on its own,
  // and the constant-size claim holds: seal receipts do not grow with the
  // rounds covered.
  for (const auto& seal : completed) {
    auto journal =
        verify_chain_summary(seal.receipt, fx.board, seal.commitments);
    ASSERT_TRUE(journal.ok()) << journal.error().to_string();
    EXPECT_EQ(journal.value().rounds, seal.rounds);
  }
  EXPECT_EQ(completed[2].receipt.seal_size_bytes(),
            completed[0].receipt.seal_size_bytes());

  // And each validates against the live chain (the recovery path's check).
  for (const auto& seal : completed) {
    EXPECT_TRUE(validate_recovered_seal(seal, fx.rounds, 2).ok());
  }
}

TEST(EpochLadder, SerializationRoundTripsAndRejectsCorruption) {
  ChainFixture fx;
  fx.run_rounds(2);
  EpochLadder ladder(every(2));
  auto live = build_ladder(fx, ladder);
  ASSERT_EQ(live.size(), 1u);

  auto bytes = live[0].to_bytes();
  auto back = EpochSeal::from_bytes(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().level, live[0].level);
  EXPECT_EQ(back.value().rounds, live[0].rounds);
  EXPECT_TRUE(back.value().commitments == live[0].commitments);

  // A seal whose ref list disagrees with its journal's count is rejected
  // at parse time (before any verification).
  EpochSeal trimmed = live[0];
  trimmed.commitments.pop_back();
  EXPECT_FALSE(EpochSeal::from_bytes(trimmed.to_bytes()).ok());

  // File bundle: round-trip, then a flipped payload byte fails the CRC.
  const auto path = std::filesystem::temp_directory_path() /
                    ("zkt_epoch_seals_" + std::to_string(::getpid()) + ".bin");
  ASSERT_TRUE(save_epoch_seals(live, path.string()).ok());
  auto loaded = load_epoch_seals(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].rounds, live[0].rounds);

  auto raw = read_file(path.string());
  ASSERT_TRUE(raw.ok());
  Bytes corrupt = raw.value();
  corrupt[corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(write_file(path.string(), corrupt).ok());
  auto bad = load_epoch_seals(path.string());
  ASSERT_FALSE(bad.ok());
  std::filesystem::remove(path);
}

TEST(EpochLadder, AdoptGuardsChainOrder) {
  ChainFixture fx;
  fx.run_rounds(4);
  EpochLadder source(every(2));
  build_ladder(fx, source);
  auto live = source.ladder();
  ASSERT_EQ(live.size(), 1u);  // level-1, rounds 0..3

  // Adoption replays a persisted ladder into a fresh instance.
  EpochLadder fresh(every(2));
  ASSERT_TRUE(fresh.adopt(live[0]).ok());
  EXPECT_EQ(fresh.rounds_fed(), 4u);

  // Wrong start position: adopting the same span again must fail.
  EXPECT_FALSE(fresh.adopt(live[0]).ok());

  // Level order: a same-or-taller seal after the tail breaks the ladder
  // invariant (levels strictly decrease in chain order).
  EpochSeal same_level = live[0];
  same_level.start_round = 4;
  EXPECT_FALSE(fresh.adopt(same_level).ok());

  // Adoption after feeding is rejected.
  EpochLadder fed(every(2));
  ASSERT_TRUE(fed.feed(fx.rounds[0], fx.windows[0]).ok());
  EXPECT_FALSE(fed.adopt(live[0]).ok());
}

// ---------------------------------------------------------------------------
// Catch-up: O(log T) seals + suffix, decisions identical to a full replay.

TEST(EpochCatchUp, MatchesFullReplayByteForByte) {
  ChainFixture fx;
  fx.run_rounds(5);
  EpochLadder ladder(every(2));
  auto live = build_ladder(fx, ladder);
  ASSERT_EQ(live.size(), 1u);

  // Full replay: every round receipt verified individually.
  Auditor replayed(fx.board);
  auto replay = replayed.accept_rounds(fx.rounds);
  ASSERT_TRUE(replay.ok()) << replay.error().to_string();

  // Catch-up: one seal + the unsealed suffix.
  Auditor cold(fx.board);
  auto report = cold.catch_up(
      live, std::span<const zvm::Receipt>(fx.rounds).subspan(4));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().seals_adopted, 1u);
  EXPECT_EQ(report.value().seal_rounds, 4u);
  EXPECT_EQ(report.value().rounds_replayed, 1u);

  // The two auditors end at the same head, bit for bit — including the
  // proof-carrying sketch position, which catch-up re-establishes from the
  // seal journal.
  EXPECT_EQ(cold.rounds_accepted(), replayed.rounds_accepted());
  EXPECT_EQ(cold.current_root(), replayed.current_root());
  EXPECT_EQ(cold.head().claim_digest, replayed.head().claim_digest);
  EXPECT_EQ(cold.head().entry_count, replayed.head().entry_count);
  EXPECT_EQ(cold.has_sketch(), replayed.has_sketch());
  if (cold.has_sketch()) {
    EXPECT_EQ(cold.sketch_digest(), replayed.sketch_digest());
  }

  // Both continue the live chain identically.
  fx.run_round(6, {42});
  ASSERT_TRUE(replayed.accept_round(fx.rounds.back()).ok());
  ASSERT_TRUE(cold.accept_round(fx.rounds.back()).ok());
  EXPECT_EQ(cold.current_root(), replayed.current_root());

  // And both reject the same doctored receipt (identical decisions on the
  // reject side too).
  zvm::Receipt forged = fx.rounds.back();
  forged.journal.back() ^= 1;
  EXPECT_FALSE(replayed.accept_round(forged).ok());
  EXPECT_FALSE(cold.accept_round(forged).ok());
}

TEST(EpochCatchUp, RequiresFreshAuditorAndGenesisAnchor) {
  ChainFixture fx;
  fx.run_rounds(4);
  EpochLadder ladder(every(2));
  build_ladder(fx, ladder);
  auto completed = ladder.take_completed();
  ASSERT_EQ(completed.size(), 3u);  // level-0 [0,2), level-0 [2,4), level-1

  // A mid-chain seal first: no genesis anchor.
  Auditor cold(fx.board);
  std::vector<EpochSeal> mid = {completed[1]};
  auto report = cold.catch_up(mid, {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, Errc::chain_broken);

  // A used auditor cannot catch up.
  Auditor used(fx.board);
  ASSERT_TRUE(used.accept_round(fx.rounds[0]).ok());
  std::vector<EpochSeal> ladder_seals = {completed[2]};
  EXPECT_FALSE(used.catch_up(ladder_seals, {}).ok());
}

TEST(EpochCatchUp, RejectsGapOverlapAndForgedSeals) {
  ChainFixture fx;
  fx.run_rounds(4);
  EpochLadder ladder(every(2));
  build_ladder(fx, ladder);
  auto completed = ladder.take_completed();
  ASSERT_EQ(completed.size(), 3u);
  const EpochSeal& unit0 = completed[0];  // rounds [0,2)
  const EpochSeal& unit1 = completed[1];  // rounds [2,4)
  const EpochSeal& merged = completed[2];

  // Overlap: the merged seal re-covers unit0's span. The genesis flag
  // betrays the splice before any state is adopted.
  {
    Auditor cold(fx.board);
    std::vector<EpochSeal> seals = {unit0, merged};
    auto report = cold.catch_up(seals, {});
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error().code, Errc::chain_broken);
  }

  // Gap: a seal whose recorded position skips rounds. The span/position
  // cross-check rejects it even though the receipt itself verifies.
  {
    EpochSeal displaced = unit1;
    displaced.start_round = 4;
    Auditor cold(fx.board);
    std::vector<EpochSeal> seals = {unit0, displaced};
    auto report = cold.catch_up(seals, {});
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error().code, Errc::chain_broken);
  }

  // Gap between the seals and the suffix: skipping the round after the
  // seal breaks the chain link in accept_rounds.
  {
    Auditor cold(fx.board);
    std::vector<EpochSeal> seals = {merged};
    fx.run_round(5, {7});
    auto report = cold.catch_up(
        seals, std::span<const zvm::Receipt>(fx.rounds).subspan(4));
    ASSERT_TRUE(report.ok());  // contiguous suffix: fine
    fx.run_round(6, {8});
    Auditor cold2(fx.board);
    std::vector<zvm::Receipt> gapped = {fx.rounds.back()};  // skips round 4
    EXPECT_FALSE(cold2.catch_up(seals, gapped).ok());
  }

  // Forged seal: doctor the journal (stale final sketch digest). The
  // journal digest is bound into the claim, so verification fails — a
  // stale or forged sketch position cannot splice.
  {
    EpochSeal forged = merged;
    ChainSummaryJournal j = forged.journal;
    j.final_sketch_digest.bytes[0] ^= 1;
    Writer w;
    j.write(w);
    forged.receipt.journal = std::move(w).take();
    forged.journal = j;
    Auditor cold(fx.board);
    std::vector<EpochSeal> seals = {forged};
    EXPECT_FALSE(cold.catch_up(seals, {}).ok());
    // The recovery-side validator rejects it too.
    EXPECT_FALSE(validate_recovered_seal(forged, fx.rounds, 2).ok());
  }

  // Commitment-digest mismatch: a seal shipped with a permuted ref list
  // no longer reproduces the proven commitment chain.
  {
    EpochSeal reordered = merged;
    ASSERT_GE(reordered.commitments.size(), 2u);
    std::swap(reordered.commitments.front(), reordered.commitments.back());
    Auditor cold(fx.board);
    std::vector<EpochSeal> seals = {reordered};
    auto report = cold.catch_up(seals, {});
    ASSERT_FALSE(report.ok());
    EXPECT_FALSE(validate_recovered_seal(reordered, fx.rounds, 2).ok());
  }
}

TEST(EpochSpan, GuestRejectsTamperedChildSummaryAndBadSplices) {
  ChainFixture fx;
  fx.run_rounds(3);

  auto prefix = prove_epoch_span(
      std::span<const zvm::Receipt>(fx.rounds).subspan(0, 2));
  ASSERT_TRUE(prefix.ok()) << prefix.error().to_string();

  // Honest incremental fold: [summary(0..1), round 2].
  {
    std::vector<zvm::Receipt> children = {prefix.value().receipt,
                                          fx.rounds[2]};
    auto extended = prove_epoch_span(children);
    ASSERT_TRUE(extended.ok()) << extended.error().to_string();
    EXPECT_EQ(extended.value().journal.rounds, 3u);
    EXPECT_TRUE(extended.value().journal.genesis);
  }

  // Tampered child summary: the assumption binding fails in-trace.
  {
    zvm::Receipt tampered = prefix.value().receipt;
    tampered.journal.back() ^= 1;
    std::vector<zvm::Receipt> children = {tampered, fx.rounds[2]};
    EXPECT_FALSE(prove_epoch_span(children).ok());
  }

  // Overlap at the splice: the summary already covers round 1, so folding
  // round 1 again breaks the claim-digest link (asserted in-trace).
  {
    std::vector<zvm::Receipt> children = {prefix.value().receipt,
                                          fx.rounds[1]};
    EXPECT_FALSE(prove_epoch_span(children).ok());
  }

  // Gap at the splice: skipping round 2 and folding a later round.
  {
    fx.run_round(4, {9});
    std::vector<zvm::Receipt> children = {prefix.value().receipt,
                                          fx.rounds[3]};
    EXPECT_FALSE(prove_epoch_span(children).ok());
  }

  // A genesis summary child can only appear first.
  {
    std::vector<zvm::Receipt> children = {fx.rounds[0],
                                          prefix.value().receipt};
    EXPECT_FALSE(prove_epoch_span(children).ok());
  }
}

// ---------------------------------------------------------------------------
// Pipeline persistence + crash recovery.

class EpochPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ =
        std::filesystem::temp_directory_path() /
        ("zkt_epoch_test_" + std::to_string(::getpid()) + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".wal");
    clean();
  }
  void TearDown() override { clean(); }
  void clean() {
    std::filesystem::remove(wal_path_);
    std::filesystem::remove(wal_path_.string() + ".snap");
    std::filesystem::remove(wal_path_.string() + ".snap.tmp");
  }

  store::StoreConfig config() const {
    return store::StoreConfig{.wal_path = wal_path_.string()};
  }

  void store_window(store::LogStore& store, CommitmentBoard& board,
                    u64 window) {
    RLogBatch batch;
    batch.router_id = 0;
    batch.window_id = window;
    FlowRecord record;
    PacketObservation pkt;
    pkt.key = {static_cast<u32>(window) + 1, 0x0A0A0A0A, 1000, 443, 6};
    pkt.timestamp_ms = window * 5000;
    pkt.bytes = 100 + window;
    record.observe(pkt);
    batch.records.push_back(record);
    ASSERT_TRUE(
        board.publish(make_commitment(batch, key_, window).value()).ok());
    ASSERT_TRUE(store
                    .append(store::kTableRlogs, window, 0,
                            batch.canonical_bytes())
                    .ok());
  }

  crypto::SchnorrKeyPair key_ = crypto::schnorr_keygen_from_seed("epoch-pipe");
  std::filesystem::path wal_path_;
};

TEST_F(EpochPipelineTest, PipelineBuildsPersistsAndRecoversLadder) {
  CommitmentBoard board;
  PipelineOptions options;
  options.epoch_every = 2;

  // Process 1: 5 windows -> 2 sealed units (merged to level 1), 1 tail
  // round. Seals land in the store as they complete.
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    for (u64 w = 1; w <= 5; ++w) store_window(store, board, w);
    ProviderPipeline pipeline(store, board, options);
    auto rounds = pipeline.aggregate_pending();
    ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
    ASSERT_EQ(rounds.value().size(), 5u);

    auto seals = pipeline.epoch_seals();
    ASSERT_TRUE(seals.ok()) << seals.error().to_string();
    ASSERT_EQ(seals.value().size(), 1u);
    EXPECT_EQ(seals.value()[0].level, 1u);
    EXPECT_EQ(seals.value()[0].rounds, 4u);
  }

  // Process 2: recovery adopts the stored seals instead of re-proving.
  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().epoch_seals_adopted, 1u);
  EXPECT_EQ(recovery.value().epoch_levels_refolded, 0u);

  auto seals = pipeline.epoch_seals();
  ASSERT_TRUE(seals.ok());
  ASSERT_EQ(seals.value().size(), 1u);

  // The recovered ladder still catches a cold auditor up, and the head
  // matches a full replay of the recovered receipts.
  Auditor cold(board);
  auto report = cold.catch_up(
      seals.value(),
      std::span<const zvm::Receipt>(pipeline.receipts()).subspan(4));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  Auditor replayed(board);
  ASSERT_TRUE(replayed.accept_rounds(pipeline.receipts()).ok());
  EXPECT_EQ(cold.current_root(), replayed.current_root());
  EXPECT_EQ(cold.rounds_accepted(), replayed.rounds_accepted());

  // The ladder keeps extending after recovery: one more window completes
  // the third unit and carries into a new level-0 seal.
  store_window(store, board, 6);
  auto more = pipeline.aggregate_pending();
  ASSERT_TRUE(more.ok()) << more.error().to_string();
  auto grown = pipeline.epoch_seals();
  ASSERT_TRUE(grown.ok());
  ASSERT_EQ(grown.value().size(), 2u);
  EXPECT_EQ(grown.value()[0].level, 1u);
  EXPECT_EQ(grown.value()[1].level, 0u);
  EXPECT_EQ(grown.value()[1].start_round, 4u);
}

TEST_F(EpochPipelineTest, CrashDuringLadderPersistRecovers) {
  // Sweep the WAL append fault across the run: some positions hit receipt
  // persistence, later ones hit the epoch-seal appends (mid-ladder
  // persist). Every crash must either complete after restart or fail
  // typed; after recovery the ladder must match the plan and catch-up must
  // agree with a full replay.
  for (u64 after_n : {0ULL, 2ULL, 4ULL, 6ULL, 8ULL}) {
    SCOPED_TRACE("wal_append after " + std::to_string(after_n) + " hits");
    clean();
    CommitmentBoard board;
    store::FaultInjector faults;
    PipelineOptions options;
    options.epoch_every = 2;
    options.retry.max_attempts = 1;  // crash-equivalent: no retry rescue

    // Process 1: populate, arm, aggregate into the fault.
    {
      store::LogStore store(config());
      ASSERT_TRUE(store.recover().ok());
      for (u64 w = 1; w <= 4; ++w) store_window(store, board, w);
      faults.arm(store::FaultPoint::wal_append, after_n);
      store.set_fault_injector(&faults);
      ProviderPipeline pipeline(store, board, options);
      auto rounds = pipeline.aggregate_pending();
      if (!rounds.ok()) {
        EXPECT_EQ(rounds.error().code, Errc::io_error)
            << rounds.error().to_string();
      } else {
        // The fault may land in the post-loop seal persist instead.
        (void)pipeline.epoch_seals();
      }
      store.set_fault_injector(nullptr);
    }

    // Process 2: restart; recovery re-validates stored seals and re-folds
    // whatever the crash swallowed.
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    ProviderPipeline pipeline(store, board, options);
    auto recovery = pipeline.recover();
    ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
    auto rounds = pipeline.aggregate_pending();
    ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
    ASSERT_EQ(pipeline.receipts().size(), 4u);

    auto seals = pipeline.epoch_seals();
    ASSERT_TRUE(seals.ok()) << seals.error().to_string();
    ASSERT_EQ(seals.value().size(), 1u);  // plan(4, 2) = one level-1 span
    EXPECT_EQ(seals.value()[0].level, 1u);
    EXPECT_TRUE(
        validate_recovered_seal(seals.value()[0], pipeline.receipts(), 2)
            .ok());

    Auditor cold(board);
    auto report = cold.catch_up(seals.value(), {});
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    Auditor replayed(board);
    ASSERT_TRUE(replayed.accept_rounds(pipeline.receipts()).ok());
    EXPECT_EQ(cold.current_root(), replayed.current_root());
    EXPECT_EQ(cold.rounds_accepted(), replayed.rounds_accepted());
  }
}

TEST(EpochPipeline, ShardedModeRejectsEpochSeals) {
  store::LogStore store;
  CommitmentBoard board;
  PipelineOptions options;
  options.epoch_every = 2;
  options.sharded.shard_count = 2;
  ProviderPipeline pipeline(store, board, options);
  auto rounds = pipeline.aggregate_pending();
  // No pending windows would normally be fine; the terminal configuration
  // error must fire first.
  ASSERT_FALSE(rounds.ok());
  EXPECT_EQ(rounds.error().code, Errc::invalid_argument);
}

}  // namespace
}  // namespace zkt::core
