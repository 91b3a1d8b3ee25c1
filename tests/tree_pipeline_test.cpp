// Sharded pipeline tests: end-to-end windows through split -> shard chains
// -> tree seal, pipeline-depth equivalence (byte-identical receipts at
// every depth), crash-restart recovery over the chain tables (verified
// prefix adopted, receipts replayed never re-proven, the tip's missing
// seal re-folded, a mid-chain one refused), a failed call that keeps every
// seal or halts the pipeline, mixed-mode store rejection, and the sharded
// fault-injection sweeps with crash points inside the fold persist and
// while the next window is staged, with and without the raw logs of sealed
// windows.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.h"
#include "store/fault.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

class TreePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ =
        std::filesystem::temp_directory_path() /
        ("zkt_tree_pipeline_test_" + std::to_string(::getpid()) + "_" +
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

  static PipelineOptions sharded_options(u32 shards, u32 fanout = 2,
                                         u32 depth = 1) {
    PipelineOptions options;
    options.sharded.shard_count = shards;
    options.sharded.join_fanout = fanout;
    options.sharded.pipeline_depth = depth;
    return options;
  }

  /// `flows` records; flow f has the same key in every window.
  RLogBatch make_batch(u64 window, u32 router, u32 flows = 8) const {
    RLogBatch batch;
    batch.router_id = router;
    batch.window_id = window;
    for (u32 f = 0; f < flows; ++f) {
      FlowRecord record;
      PacketObservation pkt;
      pkt.key = {0x0A000000 + f * 13 + router, 0x0B0B0B0B,
                 static_cast<u16>(3000 + f), 443, 6};
      pkt.timestamp_ms = window * 5000 + f;
      pkt.bytes = 100 + window + f;
      record.observe(pkt);
      batch.records.push_back(std::move(record));
    }
    return batch;
  }

  void store_window(store::LogStore& store, CommitmentBoard& board,
                    u64 window, u32 routers = 1, u32 flows = 8) {
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

  /// Body kinds of the chain_state bundles, oldest first: 'F' full, 'D'
  /// delta.
  static std::string snapshot_kinds(const store::LogStore& store) {
    std::string kinds;
    for (const auto& row : store.scan(store::kTableChainState, 0, ~0ULL)) {
      auto head = ShardedChainSnapshot::peek(row.payload);
      kinds += !head.ok() ? '?' : head.value().is_full() ? 'F' : 'D';
    }
    return kinds;
  }

  crypto::SchnorrKeyPair key_ = crypto::schnorr_keygen_from_seed("tree-pipe");
  std::filesystem::path wal_path_;
};

TEST_F(TreePipelineTest, ShardedWindowsSealAndAudit) {
  store::LogStore store;
  CommitmentBoard board;
  store_window(store, board, 1, 2);
  store_window(store, board, 2, 2);
  store_window(store, board, 3, 2);

  ProviderPipeline pipeline(store, board, sharded_options(2));
  ASSERT_TRUE(pipeline.sharded());
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  ASSERT_EQ(rounds.value().size(), 3u);
  EXPECT_EQ(pipeline.tree_seals().size(), 3u);

  // Persisted shape: one snapshot bundle + K receipts + one seal per
  // window, in the same table family a plain chain uses.
  EXPECT_EQ(store.row_count(store::kTableChainState), 3u);
  EXPECT_EQ(store.row_count(store::kTableReceipts), 6u);
  EXPECT_EQ(store.row_count(store::kTableTreeSeals), 3u);

  // Every round audits through its tree seal (the stock verifier path).
  ShardedAuditor auditor(board, 2);
  for (const auto& round : rounds.value()) {
    ASSERT_TRUE(round.tree_seal.has_value());
    auto accepted = auditor.accept_round(round);
    ASSERT_TRUE(accepted.ok()) << accepted.to_string();
  }
  EXPECT_EQ(auditor.rounds_accepted(), 3u);
}

TEST_F(TreePipelineTest, PipelineDepthsProduceByteIdenticalProofs) {
  // Depth 1 is the sequential loop; depths 2 and 3 overlap staging and
  // folding. The proof objects — and hence auditor decisions — must be
  // byte-identical, since chain linking stays serial in window order.
  std::vector<Bytes> reference_seals;
  std::vector<Bytes> reference_receipts;
  for (u32 depth : {1u, 2u, 3u}) {
    SCOPED_TRACE("pipeline_depth=" + std::to_string(depth));
    store::LogStore store;
    CommitmentBoard board;
    store_window(store, board, 1, 2);
    store_window(store, board, 2, 2);
    store_window(store, board, 3, 2);
    store_window(store, board, 4, 2);

    ProviderPipeline pipeline(store, board, sharded_options(4, 2, depth));
    auto rounds = pipeline.aggregate_pending();
    ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
    ASSERT_EQ(rounds.value().size(), 4u);

    std::vector<Bytes> seals;
    for (const auto& seal : pipeline.tree_seals()) {
      seals.push_back(seal.to_bytes());
    }
    std::vector<Bytes> receipts;
    for (const auto& round : rounds.value()) {
      for (const auto& shard : round.shard_rounds) {
        receipts.push_back(shard.receipt.to_bytes());
      }
    }
    if (depth == 1) {
      reference_seals = std::move(seals);
      reference_receipts = std::move(receipts);
    } else {
      EXPECT_EQ(seals, reference_seals);
      EXPECT_EQ(receipts, reference_receipts);
    }
  }
}

TEST_F(TreePipelineTest, KillAndRestartResumesShardedChain) {
  CommitmentBoard board;
  // Process 1: two sharded windows, then die.
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1);
    store_window(store, board, 2);
    ProviderPipeline pipeline(store, board, sharded_options(2));
    auto rounds = pipeline.aggregate_pending();
    ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
    ASSERT_EQ(rounds.value().size(), 2u);
  }

  // Process 2: resume, then prove the window that arrived meanwhile.
  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  store_window(store, board, 3);
  const u64 receipt_rows_before =
      store.row_count(store::kTableReceipts);
  ProviderPipeline pipeline(store, board, sharded_options(2));
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_TRUE(recovery.value().resumed);
  EXPECT_EQ(recovery.value().rounds_restored, 2u);
  EXPECT_EQ(recovery.value().rounds_replayed, 0u);
  EXPECT_EQ(recovery.value().seals_refolded, 0u);
  EXPECT_EQ(recovery.value().last_window, 2u);
  EXPECT_EQ(pipeline.tree_seals().size(), 2u);
  // Recovery adopted the stored proofs — it appended nothing.
  EXPECT_EQ(store.row_count(store::kTableReceipts),
            receipt_rows_before);

  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  ASSERT_EQ(rounds.value().size(), 1u);
  EXPECT_EQ(pipeline.tree_seals().size(), 3u);
  // The post-restart round chains onto the recovered state, so its links
  // carry has_prev — a fresh auditor rejects it only if the chain forked.
  // Audit it with adopted context: links[s].prev_* must equal process 1's
  // heads, which the seal transitively proves. Here we check the round
  // verifies as a join receipt and extends entry counts monotonically.
  zvm::Verifier verifier;
  ASSERT_TRUE(rounds.value()[0].tree_seal.has_value());
  ASSERT_TRUE(
      verify_join_receipt(verifier, *rounds.value()[0].tree_seal).ok());
  auto journal = JoinJournal::parse(rounds.value()[0].tree_seal->journal);
  ASSERT_TRUE(journal.ok());
  for (const auto& link : journal.value().links) {
    EXPECT_TRUE(link.has_prev);
    EXPECT_GE(link.new_entry_count, link.prev_entry_count);
  }
}

TEST_F(TreePipelineTest, FullBundleAndDeltasRecoverEveryShardExactly) {
  // A 128-flow genesis, then rounds touching two flows: one full bundle,
  // then delta bundles whose shards carry only their own changed entries
  // (possibly none).
  CommitmentBoard board;
  PipelineOptions options = sharded_options(2);
  options.sharded.sketch = netflow::SketchParams{
      .cm = {.width = 16, .depth = 2, .seed = 7}, .heavy_capacity = 4};
  struct ShardHead {
    Digest32 root;
    u64 entries = 0;
    Bytes sketch;
    bool operator==(const ShardHead&) const = default;
  };
  auto heads = [](const ProviderPipeline& pipeline) {
    std::vector<ShardHead> out;
    for (u32 s = 0; s < 2; ++s) {
      const AggregationService& shard =
          pipeline.sharded_service()->shard_service(s);
      out.push_back({shard.state().root(), shard.state().entry_count(),
                     shard.sketch().canonical_bytes()});
    }
    return out;
  };
  std::vector<ShardHead> live;
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1, 1, /*flows=*/128);
    for (u64 w = 2; w <= 5; ++w) store_window(store, board, w, 1, 2);
    ProviderPipeline pipeline(store, board, options);
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
    EXPECT_EQ(snapshot_kinds(store), "FDDDD");
    live = heads(pipeline);
  }

  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().rounds_restored, 5u);
  EXPECT_EQ(recovery.value().rounds_replayed, 0u);
  EXPECT_EQ(recovery.value().seals_refolded, 0u);
  EXPECT_EQ(pipeline.tree_seals().size(), 5u);
  EXPECT_TRUE(heads(pipeline) == live);

  store_window(store, board, 6, 1, 2);
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  ASSERT_EQ(rounds.value().size(), 1u);
  ASSERT_TRUE(rounds.value()[0].tree_seal.has_value());
  zvm::Verifier verifier;
  EXPECT_TRUE(verify_join_receipt(verifier, *rounds.value()[0].tree_seal).ok());
}

TEST_F(TreePipelineTest, ReceiptsPastSnapshotReplayedNotReproven) {
  CommitmentBoard board;
  PipelineOptions options = sharded_options(2);
  options.checkpoint_every_n_rounds = 2;  // snapshot after round 2 only
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1);
    store_window(store, board, 2);
    store_window(store, board, 3);
    ProviderPipeline pipeline(store, board, options);
    auto rounds = pipeline.aggregate_pending();
    ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
    ASSERT_EQ(rounds.value().size(), 3u);
  }

  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  EXPECT_EQ(store.row_count(store::kTableChainState), 1u);
  const u64 receipt_rows_before =
      store.row_count(store::kTableReceipts);
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().rounds_restored, 2u);
  EXPECT_EQ(recovery.value().rounds_replayed, 1u);  // window 3: replayed
  EXPECT_EQ(recovery.value().last_window, 3u);
  EXPECT_EQ(pipeline.tree_seals().size(), 3u);
  // Replay adopted the stored receipts verbatim — nothing re-proven.
  EXPECT_EQ(store.row_count(store::kTableReceipts),
            receipt_rows_before);
  EXPECT_TRUE(pipeline.pending_windows().value().empty());
}

TEST_F(TreePipelineTest, MissingSealIsRefoldedOnRecovery) {
  // Crash after the shard receipts, before the seal append: the restarted
  // process re-folds the seal from the verified receipts (O(K) joins, no
  // re-proving of the round).
  store::LogStore store;
  CommitmentBoard board;
  store_window(store, board, 1);
  {
    ProviderPipeline pipeline(store, board, sharded_options(2));
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
  }
  ASSERT_EQ(store.drop_rows(store::kTableTreeSeals, ~0ULL), 1u);
  const u64 receipt_rows_before =
      store.row_count(store::kTableReceipts);

  ProviderPipeline pipeline(store, board, sharded_options(2));
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().seals_refolded, 1u);
  EXPECT_EQ(pipeline.tree_seals().size(), 1u);
  EXPECT_EQ(store.row_count(store::kTableTreeSeals), 1u);
  EXPECT_EQ(store.row_count(store::kTableReceipts),
            receipt_rows_before);
  zvm::Verifier verifier;
  EXPECT_TRUE(verify_join_receipt(verifier, pipeline.tree_seals()[0]).ok());
}

TEST_F(TreePipelineTest, MidChainMissingSealIsChainBroken) {
  // Each window's seal lands before the next window's first row, so a seal
  // missing below the chain tip is damage, not a crash — and the shard
  // sketches its re-fold would need are gone from the live services.
  store::LogStore store;
  CommitmentBoard board;
  for (u64 w = 1; w <= 3; ++w) store_window(store, board, w);
  {
    ProviderPipeline pipeline(store, board, sharded_options(2));
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
  }
  ASSERT_EQ(store.drop_rows(store::kTableTreeSeals, 1), 1u);

  ProviderPipeline pipeline(store, board, sharded_options(2));
  auto recovery = pipeline.recover();
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.error().code, Errc::chain_broken);
  EXPECT_NE(recovery.error().message.find("window 1 "), std::string::npos)
      << recovery.error().to_string();
  EXPECT_EQ(store.row_count(store::kTableTreeSeals), 2u);
}

TEST_F(TreePipelineTest, MixedModeStoresAreRejected) {
  // A single-chain store cannot be recovered by a sharded pipeline (the
  // chains would fork), and vice versa — both are terminal typed errors,
  // not silent fresh starts.
  store::LogStore store;
  CommitmentBoard board;
  store_window(store, board, 1);
  {
    ProviderPipeline plain(store, board);
    ASSERT_TRUE(plain.aggregate_pending().ok());
  }
  ProviderPipeline sharded(store, board, sharded_options(2));
  auto sharded_over_plain = sharded.recover();
  ASSERT_FALSE(sharded_over_plain.ok());
  EXPECT_EQ(sharded_over_plain.error().code, Errc::invalid_argument);

  store::LogStore sharded_store;
  CommitmentBoard board2;
  {
    RLogBatch batch = make_batch(1, 0);
    ASSERT_TRUE(
        board2.publish(make_commitment(batch, key_, 1).value()).ok());
    ASSERT_TRUE(sharded_store
                    .append(store::kTableRlogs, 1, 0,
                            batch.canonical_bytes())
                    .ok());
    ProviderPipeline writer(sharded_store, board2, sharded_options(2));
    ASSERT_TRUE(writer.aggregate_pending().ok());
  }
  ProviderPipeline plain(sharded_store, board2);
  auto plain_over_sharded = plain.recover();
  ASSERT_FALSE(plain_over_sharded.ok());
  EXPECT_EQ(plain_over_sharded.error().code, Errc::invalid_argument);
}

TEST_F(TreePipelineTest, ShardCountMismatchOnRecoveryIsTerminal) {
  store::LogStore store;
  CommitmentBoard board;
  store_window(store, board, 1);
  {
    ProviderPipeline pipeline(store, board, sharded_options(3));
    ASSERT_TRUE(pipeline.aggregate_pending().ok());
  }
  ProviderPipeline wider(store, board, sharded_options(4));
  auto wider_recovery = wider.recover();
  ASSERT_FALSE(wider_recovery.ok());
  EXPECT_EQ(wider_recovery.error().code, Errc::invalid_argument);

  ProviderPipeline narrower(store, board, sharded_options(2));
  ASSERT_TRUE(narrower.sharded());
  // Re-check with fewer shards than the store holds: receipt rows for
  // shard ids past the configured count make the mismatch visible even
  // without a snapshot.
  ASSERT_EQ(store.drop_rows(store::kTableChainState, ~0ULL), 1u);
  auto narrower_recovery = narrower.recover();
  ASSERT_FALSE(narrower_recovery.ok());
  EXPECT_EQ(narrower_recovery.error().code, Errc::invalid_argument);
}

// The sharded acceptance sweep: crash points land inside every persist of
// the pipelined loop — the sharded snapshot, the shard receipts, the tree
// seal append (i.e. during the fold's persist), and the scans that stage
// window i+1 while window i proves (pipeline_depth 2). After a restart the
// chain must complete with the stored prefix adopted, not re-proven.
TEST_F(TreePipelineTest, FaultSweepShardedCrashPointsRecoverOrFailTyped) {
  struct Case {
    store::FaultPoint point;
    u64 after_n;
  };
  std::vector<Case> cases;
  // 3 windows × (1 snapshot + 2 shard receipts + 1 seal) = 12 append-class
  // hits per run; offsets 0..11 put a crash inside every one, including
  // the seal appends (fold persist). Scan-class hits cover the pending
  // scan and the staged-ahead batch loads of window i+1.
  for (u64 n = 0; n < 12; n += 1) {
    cases.push_back({store::FaultPoint::wal_append, n});
    cases.push_back({store::FaultPoint::wal_torn_write, n});
  }
  for (u64 n = 0; n < 5; ++n) {
    cases.push_back({store::FaultPoint::scan, n});
    cases.push_back({store::FaultPoint::fsync, n});
  }

  PipelineOptions options = sharded_options(2, 2, /*depth=*/2);
  options.retry.max_attempts = 2;
  options.retry.base_backoff = std::chrono::milliseconds(1);
  options.retry.max_backoff = std::chrono::milliseconds(2);

  // A 16-entry genesis, then two touched flows per window: the bundles run
  // full, delta, full, so crashes land in both kinds of row.
  auto populate = [&](store::LogStore& store, CommitmentBoard& board) {
    store_window(store, board, 1, 1, /*flows=*/16);
    store_window(store, board, 2, 1, 2);
    store_window(store, board, 3, 1, 2);
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

    // Process 1: populate, arm the fault, pipeline into it at depth 2
    // (window i+1 stages while window i proves and window i-1 folds).
    {
      store::LogStore store(config());
      ASSERT_TRUE(store.recover().ok());
      populate(store, board);
      faults.arm(test_case.point, test_case.after_n);
      store.set_fault_injector(&faults);
      ProviderPipeline pipeline(store, board, options);
      auto rounds = pipeline.aggregate_pending();
      if (!rounds.ok()) {
        EXPECT_EQ(rounds.error().code, Errc::io_error)
            << rounds.error().to_string();
      }
      store.set_fault_injector(nullptr);
    }

    // Process 2: restart healthy; recovery adopts the stored prefix and
    // aggregate_pending completes only the windows the crash lost.
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    ProviderPipeline pipeline(store, board, options);
    auto recovery = pipeline.recover();
    ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
    const u64 already_proven = recovery.value().rounds_restored +
                               recovery.value().rounds_replayed;
    auto rounds = pipeline.aggregate_pending();
    ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
    EXPECT_EQ(already_proven + rounds.value().size(), 3u);
    EXPECT_TRUE(pipeline.pending_windows().value().empty());
    EXPECT_EQ(pipeline.tree_seals().size(), 3u);
    zvm::Verifier verifier;
    for (const auto& seal : pipeline.tree_seals()) {
      ASSERT_TRUE(verify_join_receipt(verifier, seal).ok());
    }
  }
}

// A failed call on a live pipeline, at depth 2 where window 1 folds while
// window 2 stages and proves. Window 2's late commitment fails its stage:
// window 1's seal still lands, and the same pipeline goes on once the
// commitment is published. A failed seal append after window 2 proved
// halts the pipeline instead, so no later call persists window 2 over a
// store without window 1's seal; a restart re-folds it.
TEST_F(TreePipelineTest, FailedRoundNeverLeavesASealMidChain) {
  PipelineOptions options = sharded_options(2, 2, /*depth=*/2);
  options.retry.max_attempts = 1;
  zvm::Verifier verifier;
  {
    store::LogStore store;
    CommitmentBoard board;
    store_window(store, board, 1);
    const RLogBatch late = make_batch(2, 0);
    ASSERT_TRUE(
        store.append(store::kTableRlogs, 2, 0, late.canonical_bytes()).ok());
    ProviderPipeline pipeline(store, board, options);
    auto first = pipeline.aggregate_pending();
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.error().code, Errc::commitment_missing);
    EXPECT_EQ(store.row_count(store::kTableTreeSeals), 1u);

    ASSERT_TRUE(board.publish(make_commitment(late, key_, 2).value()).ok());
    store_window(store, board, 3);
    auto second = pipeline.aggregate_pending();
    ASSERT_TRUE(second.ok()) << second.error().to_string();
    EXPECT_EQ(second.value().size(), 2u);

    ProviderPipeline restarted(store, board, options);
    auto recovery = restarted.recover();
    ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
    EXPECT_EQ(recovery.value().seals_refolded, 0u);
    ASSERT_EQ(restarted.tree_seals().size(), 3u);
    for (const auto& seal : restarted.tree_seals()) {
      ASSERT_TRUE(verify_join_receipt(verifier, seal).ok());
    }
  }

  CommitmentBoard board;
  store::FaultInjector faults;
  {
    store::LogStore store(config());
    ASSERT_TRUE(store.recover().ok());
    store_window(store, board, 1);
    store_window(store, board, 2);
    // Appends: window 1's snapshot and two receipts, then its seal, which
    // lands after window 2's shards proved.
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
    EXPECT_EQ(store.row_count(store::kTableReceipts), 2u);
    EXPECT_EQ(store.row_count(store::kTableTreeSeals), 0u);
  }
  store::LogStore store(config());
  ASSERT_TRUE(store.recover().ok());
  ProviderPipeline pipeline(store, board, options);
  auto recovery = pipeline.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().seals_refolded, 1u);
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  EXPECT_EQ(rounds.value().size(), 1u);
  ASSERT_EQ(pipeline.tree_seals().size(), 2u);
  for (const auto& seal : pipeline.tree_seals()) {
    ASSERT_TRUE(verify_join_receipt(verifier, seal).ok());
  }
}

// The pruned sharded sweep: the raw logs of sealed windows are gone, so a
// lost seal can only be re-folded from the shard sketches recovery holds —
// the chain tip's. A clean call proves and prunes windows 1-2; a second
// call over windows 3-5 takes one fault at each of its appends. However it
// crashed, the restarted process re-folds at most one seal and finishes
// the chain.
TEST_F(TreePipelineTest, PrunedStoreRecoversFromEveryShardedCrashPoint) {
  // Windows 3-5 × (1 snapshot + 2 shard receipts + 1 seal).
  constexpr u64 kAppends = 12;
  for (u32 depth : {2u, 3u}) {
    PipelineOptions options = sharded_options(2, 2, depth);
    options.prune_aggregated = true;
    options.retry.max_attempts = 1;
    for (store::FaultPoint point :
         {store::FaultPoint::wal_append, store::FaultPoint::wal_torn_write,
          store::FaultPoint::fsync}) {
      for (u64 n = 0; n < kAppends; ++n) {
        SCOPED_TRACE("pipeline_depth=" + std::to_string(depth) + ", " +
                     store::fault_point_name(point) + " after " +
                     std::to_string(n) + " hits");
        clean();
        CommitmentBoard board;
        store::FaultInjector faults;
        {
          store::LogStore store(config());
          ASSERT_TRUE(store.recover().ok());
          store_window(store, board, 1);
          store_window(store, board, 2);
          ProviderPipeline pipeline(store, board, options);
          ASSERT_TRUE(pipeline.aggregate_pending().ok());
          // The prune is durable once the store checkpoints.
          ASSERT_TRUE(store.checkpoint().ok());
          ASSERT_EQ(store.row_count(store::kTableRlogs), 0u);
          for (u64 w = 3; w <= 5; ++w) store_window(store, board, w);
          faults.arm(point, n);
          store.set_fault_injector(&faults);
          auto rounds = pipeline.aggregate_pending();
          ASSERT_FALSE(rounds.ok());
          EXPECT_EQ(rounds.error().code, Errc::io_error)
              << rounds.error().to_string();
          store.set_fault_injector(nullptr);
        }

        store::LogStore store(config());
        ASSERT_TRUE(store.recover().ok());
        ProviderPipeline pipeline(store, board, options);
        auto recovery = pipeline.recover();
        ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
        EXPECT_LE(recovery.value().seals_refolded, 1u);
        const u64 already_proven = recovery.value().rounds_restored +
                                   recovery.value().rounds_replayed;
        auto rounds = pipeline.aggregate_pending();
        ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
        EXPECT_EQ(already_proven + rounds.value().size(), 5u);
        EXPECT_TRUE(pipeline.pending_windows().value().empty());
        ASSERT_EQ(pipeline.tree_seals().size(), 5u);
        zvm::Verifier verifier;
        for (const auto& seal : pipeline.tree_seals()) {
          ASSERT_TRUE(verify_join_receipt(verifier, seal).ok());
        }
      }
    }
  }
}

}  // namespace
}  // namespace zkt::core
