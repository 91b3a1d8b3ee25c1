// Crash-safe prover recovery tests: ProviderPipeline::recover() over
// durable stores — snapshot adoption, roll-forward replay of receipts
// proven after the last snapshot, tamper detection on the replay path, a
// failed persist that halts the live pipeline, and the deterministic
// fault-injection sweep from docs/RECOVERY.md (every
// injected crash point must either recover fully or fail with a typed
// Errc; none may corrupt the chain).
#include <gtest/gtest.h>

#include <filesystem>

#include "core/auditor.h"
#include "core/pipeline.h"
#include "store/fault.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ =
        std::filesystem::temp_directory_path() /
        ("zkt_recovery_test_" + std::to_string(::getpid()) + "_" +
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

  /// One record per flow; flow f of router r has source port 1000 + f, so
  /// every window's first flow merges into the same CLog entry.
  RLogBatch make_batch(u64 window, u32 router, u32 flows = 1) const {
    RLogBatch batch;
    batch.router_id = router;
    batch.window_id = window;
    for (u32 f = 0; f < flows; ++f) {
      FlowRecord record;
      PacketObservation pkt;
      pkt.key = {router + 1, 0x0A0A0A0A, static_cast<u16>(1000 + f), 443, 6};
      pkt.timestamp_ms = window * 5000;
      pkt.bytes = 100 + window;
      record.observe(pkt);
      batch.records.push_back(record);
    }
    return batch;
  }

  void store_window(store::LogStore& store, CommitmentBoard& board,
                    u64 window, u32 routers, u32 flows = 1) {
    for (u32 r = 0; r < routers; ++r) {
      RLogBatch batch = make_batch(window, r, flows);
      ASSERT_TRUE(
          board.publish(make_commitment(batch, key_, window).value()).ok());
      ASSERT_TRUE(store
                      .append(store::kTableRlogs, window, r,
                              batch.canonical_bytes())
                      .ok());
    }
  }

  /// Body kinds of the chain_state rows, oldest first: 'F' full, 'D' delta.
  static std::string snapshot_kinds(const store::LogStore& store) {
    std::string kinds;
    for (const auto& row : store.scan(store::kTableChainState, 0, ~0ULL)) {
      auto head = ShardedChainSnapshot::peek(row.payload);
      kinds += !head.ok() ? '?' : head.value().is_full() ? 'F' : 'D';
    }
    return kinds;
  }

  /// A small sketch, so a one-entry delta is far smaller than a full bundle
  /// of a 128-entry CLog and several deltas fit before the next full one.
  static PipelineOptions delta_options() {
    PipelineOptions options;
    options.sharded.sketch = netflow::SketchParams{
        .cm = {.width = 16, .depth = 2, .seed = 7}, .heavy_capacity = 4};
    return options;
  }

  /// The K = 1 chain head a recovery must land on exactly.
  struct Head {
    Digest32 root;
    u64 entries = 0;
    Bytes sketch;

    explicit Head(const ProviderPipeline& pipeline)
        : root(pipeline.aggregation().state().root()),
          entries(pipeline.aggregation().state().entry_count()),
          sketch(pipeline.aggregation().sketch().canonical_bytes()) {}
    bool operator==(const Head&) const = default;
  };

  static void expect_chain_audits(const CommitmentBoard& board,
                                  const ProviderPipeline& pipeline,
                                  u64 rounds) {
    ASSERT_EQ(pipeline.receipts().size(), rounds);
    Auditor auditor(board);
    for (const auto& receipt : pipeline.receipts()) {
      ASSERT_TRUE(auditor.accept_round(receipt).ok());
    }
  }

  crypto::SchnorrKeyPair key_ = crypto::schnorr_keygen_from_seed("recover");
  std::filesystem::path wal_path_;
};

TEST_F(RecoveryTest, KillAndRestartResumesChainEndToEnd) {
  CommitmentBoard board;
  // Process 1: aggregate two windows, then die (scope exit).
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1, 2);
    store_window(store, board, 2, 2);
    ProviderPipeline pipeline(store, board);
    auto rounds = pipeline.aggregate_pending();
    ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
    ASSERT_EQ(rounds.value().size(), 2u);
  }

  // Process 2: a fresh store and pipeline resume where process 1 stopped.
  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  store_window(store, board, 3, 2);  // a new window arrived meanwhile
  ProviderPipeline pipeline(store, board);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_TRUE(recovery.value().resumed);
  EXPECT_EQ(recovery.value().rounds_restored, 2u);
  EXPECT_EQ(recovery.value().rounds_replayed, 0u);
  EXPECT_EQ(recovery.value().snapshots_skipped, 0u);
  EXPECT_EQ(recovery.value().last_window, 2u);

  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  ASSERT_EQ(rounds.value().size(), 1u);  // only window 3 was pending
  ASSERT_EQ(pipeline.receipts().size(), 3u);

  // The whole chain — two pre-crash rounds, one post-restart round —
  // verifies end-to-end, receipt by receipt.
  Auditor auditor(board);
  for (const auto& receipt : pipeline.receipts()) {
    ASSERT_TRUE(auditor.accept_round(receipt).ok());
  }
  EXPECT_EQ(auditor.rounds_accepted(), 3u);
}

TEST_F(RecoveryTest, ReceiptsPastTheLastSnapshotAreReplayedNotReproven) {
  CommitmentBoard board;
  PipelineOptions options;
  options.checkpoint_every_n_rounds = 2;  // snapshot only after round 2
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1, 1);
    store_window(store, board, 2, 1);
    store_window(store, board, 3, 1);
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    EXPECT_EQ(store.row_count(store::kTableChainState), 1u);
    EXPECT_EQ(store.row_count(store::kTableReceipts), 3u);
  }

  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().rounds_restored, 2u);  // from the snapshot
  EXPECT_EQ(recovery.value().rounds_replayed, 1u);  // round 3, rolled forward
  EXPECT_EQ(recovery.value().last_window, 3u);
  EXPECT_EQ(pipeline.receipts().size(), 3u);
  EXPECT_TRUE(pipeline.aggregate_pending().value().empty());

  Auditor auditor(board);
  for (const auto& receipt : pipeline.receipts()) {
    ASSERT_TRUE(auditor.accept_round(receipt).ok());
  }
}

TEST_F(RecoveryTest, ReplaysWholeChainWhenSnapshotsAreDisabled) {
  CommitmentBoard board;
  PipelineOptions options;
  options.checkpoint_every_n_rounds = 0;  // no snapshots at all
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1, 1);
    store_window(store, board, 2, 1);
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    EXPECT_EQ(store.row_count(store::kTableChainState), 0u);
  }

  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_TRUE(recovery.value().resumed);
  EXPECT_EQ(recovery.value().rounds_restored, 0u);
  EXPECT_EQ(recovery.value().rounds_replayed, 2u);
  Auditor auditor(board);
  for (const auto& receipt : pipeline.receipts()) {
    ASSERT_TRUE(auditor.accept_round(receipt).ok());
  }
}

TEST_F(RecoveryTest, RecoverOnEmptyStoreIsAFreshStart) {
  CommitmentBoard board;
  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery.value().resumed);
  EXPECT_FALSE(recovery.value().last_window.has_value());
}

TEST_F(RecoveryTest, RecoverAfterAggregationIsRejected) {
  CommitmentBoard board;
  store::LogStore store;  // in-memory is enough here
  ProviderPipeline pipeline(store, board);
  store_window(store, board, 1, 1);
  ASSERT_TRUE(pipeline.aggregate_pending().ok());
  auto recovery = pipeline.recover();
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.error().code, Errc::invalid_argument);
}

TEST_F(RecoveryTest, TamperedRawLogHaltsReplay) {
  CommitmentBoard board;
  store::LogStore store;  // same store, two pipeline "processes"
  PipelineOptions options;
  options.checkpoint_every_n_rounds = 0;  // force the replay path
  store_window(store, board, 1, 1);
  {
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
  }
  // Swap the stored batch for a doctored one after its receipt was proven.
  ASSERT_EQ(store.drop_rows(store::kTableRlogs, 1).value(), 1u);
  RLogBatch tampered = make_batch(1, 0);
  tampered.records[0].bytes += 1;
  ASSERT_TRUE(store
                  .append(store::kTableRlogs, 1, 0,
                          tampered.canonical_bytes())
                  .ok());

  ProviderPipeline fresh(store, board, options);
  auto recovery = fresh.recover();
  ASSERT_FALSE(recovery.ok());  // replay checks batches against the journal
  EXPECT_EQ(recovery.error().code, Errc::hash_mismatch);
}

TEST_F(RecoveryTest, PrunedLogsBeyondTheLastSnapshotBreakTheChain) {
  CommitmentBoard board;
  store::LogStore store;
  PipelineOptions options;
  options.checkpoint_every_n_rounds = 0;  // nothing to restore from...
  store_window(store, board, 1, 1);
  {
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    // ...and no raw logs left.
    EXPECT_EQ(pipeline.prune_aggregated().value(), 1u);
  }
  ProviderPipeline fresh(store, board, options);
  auto recovery = fresh.recover();
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.error().code, Errc::chain_broken);
}

TEST_F(RecoveryTest, OrphanSnapshotWithoutReceiptIsSkipped) {
  CommitmentBoard board;
  store::LogStore store;
  ProviderPipeline pipeline(store, board);
  store_window(store, board, 1, 1);
  store_window(store, board, 2, 1);
  ASSERT_TRUE(pipeline.aggregate_pending().ok());
  // Simulate a crash between snapshot append and receipt append: a
  // chain_state row (a K = 1 bundle) for a window that has no receipt.
  const ShardedChainSnapshot orphan{
      .round_id = 3,
      .window_id = 99,
      .shard_count = 1,
      .shards = {ChainSnapshot::full(pipeline.receipts().back().claim.digest(),
                                     pipeline.aggregation().state())}};
  ASSERT_TRUE(
      store.append(store::kTableChainState, 99, 3, orphan.to_bytes()).ok());

  ProviderPipeline fresh(store, board);
  auto recovery = fresh.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().snapshots_skipped, 1u);
  EXPECT_EQ(recovery.value().rounds_restored, 2u);  // older snapshot adopted
  EXPECT_EQ(recovery.value().last_window, 2u);
}

TEST_F(RecoveryTest, FullBundleAndDeltasRecoverTheLiveHeadExactly) {
  CommitmentBoard board;
  const PipelineOptions options = delta_options();
  std::optional<Head> live;
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1, 1, /*flows=*/128);
    for (u64 w = 2; w <= 5; ++w) store_window(store, board, w, 1);
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    // Each steady round touches one of 128 entries: one full bundle, then
    // deltas of a single upsert each.
    EXPECT_EQ(snapshot_kinds(store), "FDDDD");
    live.emplace(pipeline);
  }

  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().rounds_restored, 5u);
  EXPECT_EQ(recovery.value().rounds_replayed, 0u);
  EXPECT_EQ(recovery.value().snapshots_skipped, 0u);
  EXPECT_EQ(recovery.value().last_window, 5u);
  EXPECT_TRUE(Head(pipeline) == *live);

  // The restarted process's first snapshot is full; the chain continues.
  store_window(store, board, 6, 1);
  ASSERT_TRUE(pipeline.aggregate_pending().ok());
  EXPECT_EQ(snapshot_kinds(store), "FDDDDF");
  expect_chain_audits(board, pipeline, 6);
}

TEST_F(RecoveryTest, OrphanDeltaIsSkipped) {
  CommitmentBoard board;
  const PipelineOptions options = delta_options();
  store::LogStore store;
  store_window(store, board, 1, 1, /*flows=*/128);
  store_window(store, board, 2, 1);
  store_window(store, board, 3, 1);
  {
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    ASSERT_EQ(snapshot_kinds(store), "FDD");
    // A crash between window 4's delta append and its receipt append.
    store_window(store, board, 4, 1);
    const netflow::FlowKey touched = make_batch(4, 0).records[0].key;
    const ShardedChainSnapshot orphan{
        .round_id = 4,
        .window_id = 4,
        .shard_count = 1,
        .shards = {ChainSnapshot::delta(
            3, pipeline.receipts().back().claim.digest(),
            pipeline.aggregation().state(), {&touched, 1})}};
    ASSERT_TRUE(
        store.append(store::kTableChainState, 4, 4, orphan.to_bytes()).ok());
  }

  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().snapshots_skipped, 1u);
  EXPECT_EQ(recovery.value().rounds_restored, 3u);
  EXPECT_EQ(recovery.value().last_window, 3u);
  auto rounds = pipeline.aggregate_pending();  // window 4, proven afresh
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  ASSERT_EQ(rounds.value().size(), 1u);
  expect_chain_audits(board, pipeline, 4);
}

TEST_F(RecoveryTest, DroppingRowsOlderThanTheNewestFullBundleStillRecovers) {
  // The default sketch outweighs a few entries, so two deltas exceed a full
  // bundle: the rows alternate full, delta, full, delta.
  CommitmentBoard board;
  store::LogStore store;
  store_window(store, board, 1, 1, /*flows=*/8);
  for (u64 w = 2; w <= 4; ++w) store_window(store, board, w, 1);
  std::optional<Head> live;
  {
    ProviderPipeline pipeline(store, board);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    live.emplace(pipeline);
  }
  ASSERT_EQ(snapshot_kinds(store), "FDFD");
  // Retention may drop every row older than the newest full bundle (the
  // one of window 3).
  ASSERT_EQ(store.drop_rows(store::kTableChainState, 2).value(), 2u);

  ProviderPipeline pipeline(store, board);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().rounds_restored, 4u);
  EXPECT_EQ(recovery.value().rounds_replayed, 0u);
  EXPECT_EQ(recovery.value().snapshots_skipped, 0u);
  EXPECT_TRUE(Head(pipeline) == *live);
  expect_chain_audits(board, pipeline, 4);
}

TEST_F(RecoveryTest, DeltasWhoseBaseWasDroppedFallBackNeverFail) {
  CommitmentBoard board;
  store::LogStore store;
  store_window(store, board, 1, 1, /*flows=*/8);
  for (u64 w = 2; w <= 4; ++w) store_window(store, board, w, 1);
  std::optional<Head> live;
  {
    ProviderPipeline pipeline(store, board);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    live.emplace(pipeline);
  }
  ASSERT_EQ(snapshot_kinds(store), "FDFD");

  // To an older base: without window 3's full bundle, window 4's delta
  // links onto nothing; the window 1 + 2 chain is adopted and windows 3-4
  // replay from the raw logs.
  {
    store::LogStore copy;
    for (const char* table : {store::kTableRlogs, store::kTableReceipts,
                              store::kTableChainState}) {
      for (const auto& row : store.scan(table, 0, ~0ULL)) {
        if (table == store::kTableChainState && row.k1 == 3) continue;
        ASSERT_TRUE(copy.append(table, row.k1, row.k2, row.payload).ok());
      }
    }
    ASSERT_EQ(snapshot_kinds(copy), "FDD");
    ProviderPipeline pipeline(copy, board);
    auto recovery = pipeline.recover();
    ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
    EXPECT_EQ(recovery.value().rounds_restored, 2u);
    EXPECT_EQ(recovery.value().rounds_replayed, 2u);
    EXPECT_EQ(recovery.value().snapshots_skipped, 1u);
    EXPECT_TRUE(Head(pipeline) == *live);
    expect_chain_audits(board, pipeline, 4);
  }

  // To raw-log replay: with every full bundle gone, the lone delta is
  // skipped and the whole chain replays.
  ASSERT_EQ(store.drop_rows(store::kTableChainState, 3).value(), 3u);
  ASSERT_EQ(snapshot_kinds(store), "D");
  ProviderPipeline pipeline(store, board);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().rounds_restored, 0u);
  EXPECT_EQ(recovery.value().rounds_replayed, 4u);
  EXPECT_EQ(recovery.value().snapshots_skipped, 1u);
  EXPECT_TRUE(Head(pipeline) == *live);
  expect_chain_audits(board, pipeline, 4);
}

TEST_F(RecoveryTest, PrunedStoreRecoversFromTheDeltaChainAlone) {
  CommitmentBoard board;
  PipelineOptions options = delta_options();
  options.prune_aggregated = true;
  std::optional<Head> live;
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1, 1, /*flows=*/128);
    for (u64 w = 2; w <= 4; ++w) store_window(store, board, w, 1);
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    EXPECT_EQ(store.row_count(store::kTableRlogs), 0u);
    EXPECT_EQ(snapshot_kinds(store), "FDDD");
    live.emplace(pipeline);
  }

  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().rounds_restored, 4u);
  EXPECT_EQ(recovery.value().rounds_replayed, 0u);
  EXPECT_TRUE(Head(pipeline) == *live);
  store_window(store, board, 5, 1);
  ASSERT_TRUE(pipeline.aggregate_pending().ok());
  expect_chain_audits(board, pipeline, 5);
}

// A pruning pipeline whose caller never checkpoints: reopening the store
// must neither bring the pruned windows back nor lose a later window's raw
// logs (an append that reused a dropped row's id would replay as a
// duplicate of it).
TEST_F(RecoveryTest, RestartAfterPruneKeepsLaterRawLogs) {
  CommitmentBoard board;
  PipelineOptions options;
  options.prune_aggregated = true;
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1, 2);
    store_window(store, board, 2, 2);
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    ASSERT_EQ(store.row_count(store::kTableRlogs), 0u);
    store_window(store, board, 3, 2);
  }

  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  EXPECT_EQ(store.stats().deduped_frames, 0u);
  const auto rlogs = store.scan(store::kTableRlogs, 0, ~0ULL);
  ASSERT_EQ(rlogs.size(), 2u);
  for (const auto& row : rlogs) EXPECT_EQ(row.k1, 3u);
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(pipeline.pending_windows().value(), (std::vector<u64>{3}));
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  EXPECT_EQ(rounds.value().size(), 1u);
  expect_chain_audits(board, pipeline, 3);
}

TEST_F(RecoveryTest, PreBundleStoreLayoutsFailTyped) {
  // Stores written before a plain chain became the K = 1 round: a bare
  // chain snapshot in chain_state, or rows in the old sharded tables. Both
  // fail recovery typed — never a silent fresh start.
  CommitmentBoard board;
  {
    store::LogStore store;
    Writer bare;  // the leading magic of a bare "ZKCS" snapshot
    bare.u32v(0x5A4B4353);
    bare.u32v(2);
    ASSERT_TRUE(
        store.append(store::kTableChainState, 1, 0, bare.bytes()).ok());
    ProviderPipeline pipeline(store, board);
    auto recovery = pipeline.recover();
    ASSERT_FALSE(recovery.ok());
    EXPECT_EQ(recovery.error().code, Errc::unsupported);
  }
  for (const char* legacy : {"shard_state", "shard_receipts"}) {
    SCOPED_TRACE(legacy);
    store::LogStore store;
    ASSERT_TRUE(store.append(legacy, 1, 0, Bytes{0}).ok());
    PipelineOptions options;
    options.sharded.shard_count = 2;
    ProviderPipeline pipeline(store, board, options);
    auto recovery = pipeline.recover();
    ASSERT_FALSE(recovery.ok());
    EXPECT_EQ(recovery.error().code, Errc::unsupported);
  }
}

// The acceptance sweep: arm every fault point at every interesting
// occurrence index, run the pipeline into it, then "restart" and require
// that recovery completes the chain — or, where the injected fault kills
// the run, that the failure was a typed transient error. No (point, index)
// pair may corrupt the chain or trip an untyped failure.
TEST_F(RecoveryTest, FailedPersistHaltsThePipelineUntilRestart) {
  // Window 2's receipt append fails after its round proved: the chain in
  // memory is one round ahead of the store, so the same pipeline must not
  // prove window 2 again on top of it. A restarted pipeline resumes.
  CommitmentBoard board;
  store::FaultInjector faults;
  PipelineOptions options;
  options.retry.max_attempts = 1;
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1, 1);
    store_window(store, board, 2, 1);
    // Appends: snapshot(1), receipt(1), snapshot(2), then receipt(2).
    faults.arm(store::FaultPoint::wal_append, 3);
    store.set_fault_injector(&faults);
    ProviderPipeline pipeline(store, board, options);
    auto failed = pipeline.aggregate_pending();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, Errc::io_error);
    store.set_fault_injector(nullptr);

    auto retried = pipeline.aggregate_pending();
    ASSERT_FALSE(retried.ok());
    EXPECT_EQ(retried.error().code, Errc::invalid_argument);
    EXPECT_EQ(store.row_count(store::kTableReceipts), 1u);
    EXPECT_FALSE(pipeline.recover().ok());
  }
  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board, options);
  ASSERT_TRUE(pipeline.recover().ok());
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  EXPECT_EQ(rounds.value().size(), 1u);
  expect_chain_audits(board, pipeline, 2);
}

TEST_F(RecoveryTest, FaultSweepEveryCrashPointRecoversOrFailsTyped) {
  struct Case {
    store::FaultPoint point;
    u64 after_n;
  };
  std::vector<Case> cases;
  // Aggregating 3 single-router windows touches the store ~6 times per
  // append-class point (snapshot + receipt per round) and 4 times per
  // scan-class point (pending scan + one load per round): offsets 0..5
  // cover every crash position, plus a tail where the fault never fires.
  for (u64 n = 0; n < 6; ++n) {
    cases.push_back({store::FaultPoint::wal_append, n});
    cases.push_back({store::FaultPoint::wal_torn_write, n});
    cases.push_back({store::FaultPoint::fsync, n});
    cases.push_back({store::FaultPoint::scan, n});
  }
  // The checkpoint points fire inside the single checkpoint() call below.
  cases.push_back({store::FaultPoint::checkpoint_snapshot_write, 0});
  cases.push_back({store::FaultPoint::checkpoint_rename, 0});
  cases.push_back({store::FaultPoint::checkpoint_wal_truncate, 0});

  PipelineOptions options;
  options.retry.max_attempts = 2;
  options.retry.base_backoff = std::chrono::milliseconds(1);
  options.retry.max_backoff = std::chrono::milliseconds(2);

  // A 3-entry CLog that each later round touches once: the snapshots run
  // full, delta, full, so crashes land inside both kinds of row and in a
  // delta chain.
  auto populate = [&](store::LogStore& store, CommitmentBoard& board) {
    store_window(store, board, 1, 1, /*flows=*/3);
    store_window(store, board, 2, 1);
    store_window(store, board, 3, 1);
  };
  {
    CommitmentBoard board;
    store::LogStore store;
    populate(store, board);
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    ASSERT_EQ(snapshot_kinds(store), "FDF");
  }

  for (const auto& test_case : cases) {
    SCOPED_TRACE(std::string(store::fault_point_name(test_case.point)) +
                 " after " + std::to_string(test_case.after_n) + " hits");
    clean();
    CommitmentBoard board;
    store::FaultInjector faults;

    // Process 1: populate, arm the fault, aggregate into it.
    {
      store::LogStore store(config());
      ASSERT_TRUE(store.recover().ok());
      populate(store, board);
      faults.arm(test_case.point, test_case.after_n);
      store.set_fault_injector(&faults);
      ProviderPipeline pipeline(store, board, options);
      auto rounds = pipeline.aggregate_pending();
      if (!rounds.ok()) {
        // A crash-equivalent failure must surface as the typed transient
        // class — never a parse error, never silent corruption.
        EXPECT_EQ(rounds.error().code, Errc::io_error)
            << rounds.error().to_string();
      }
      (void)store.checkpoint();  // exercises the checkpoint crash points
      store.set_fault_injector(nullptr);
    }

    // Process 2: restart with a healthy store; the chain must complete.
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    ProviderPipeline pipeline(store, board, options);
    auto recovery = pipeline.recover();
    ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
    auto rounds = pipeline.aggregate_pending();
    ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
    ASSERT_EQ(pipeline.receipts().size(), 3u);
    Auditor auditor(board);
    for (const auto& receipt : pipeline.receipts()) {
      ASSERT_TRUE(auditor.accept_round(receipt).ok());
    }
    EXPECT_EQ(auditor.rounds_accepted(), 3u);
  }
}

}  // namespace
}  // namespace zkt::core
