// ProviderPipeline tests: incremental aggregation of stored windows,
// receipt persistence, and failure blocking.
#include <gtest/gtest.h>

#include "core/auditor.h"
#include "core/pipeline.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

struct Fixture {
  store::LogStore store;
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("pipe");

  void store_window(u64 window, u32 routers, bool commit = true,
                    bool tamper = false) {
    for (u32 r = 0; r < routers; ++r) {
      RLogBatch batch;
      batch.router_id = r;
      batch.window_id = window;
      FlowRecord record;
      PacketObservation pkt;
      pkt.key = {r + 1, 0x09090909, 1000, 443, 6};
      pkt.timestamp_ms = window * 5000;
      pkt.bytes = 100;
      record.observe(pkt);
      batch.records.push_back(record);
      if (commit) {
        ASSERT_TRUE(
            board.publish(make_commitment(batch, key, window).value()).ok());
      }
      if (tamper) batch.records[0].bytes += 1;
      ASSERT_TRUE(store
                      .append(store::kTableRlogs, window, r,
                              batch.canonical_bytes())
                      .ok());
    }
  }
};

TEST(Pipeline, AggregatesAllStoredWindowsInOrder) {
  Fixture fx;
  fx.store_window(3, 2);
  fx.store_window(1, 2);
  fx.store_window(2, 2);

  ProviderPipeline pipeline(fx.store, fx.board);
  EXPECT_EQ(pipeline.pending_windows().value(), (std::vector<u64>{1, 2, 3}));
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  ASSERT_EQ(rounds.value().size(), 3u);
  EXPECT_EQ(rounds.value()[0].primary().journal.commitments[0].window_id, 1u);
  EXPECT_EQ(rounds.value()[2].primary().journal.commitments[0].window_id, 3u);
  EXPECT_TRUE(pipeline.pending_windows().value().empty());
  EXPECT_EQ(fx.store.row_count(store::kTableReceipts), 3u);

  // The persisted receipts replay through an auditor.
  Auditor auditor(fx.board);
  for (const auto& row : fx.store.scan(store::kTableReceipts, 0, ~0ULL)) {
    auto receipt = zvm::Receipt::from_bytes(row.payload);
    ASSERT_TRUE(receipt.ok());
    ASSERT_TRUE(auditor.accept_round(receipt.value()).ok());
  }
  EXPECT_EQ(auditor.rounds_accepted(), 3u);
}

TEST(Pipeline, IncrementalRuns) {
  Fixture fx;
  ProviderPipeline pipeline(fx.store, fx.board);
  EXPECT_TRUE(pipeline.aggregate_pending().value().empty());

  fx.store_window(1, 1);
  auto first = pipeline.aggregate_pending();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().size(), 1u);

  fx.store_window(2, 1);
  fx.store_window(3, 1);
  auto second = pipeline.aggregate_pending();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().size(), 2u);
  EXPECT_EQ(pipeline.receipts().size(), 3u);
}

TEST(Pipeline, TamperedWindowBlocksChain) {
  Fixture fx;
  fx.store_window(1, 1);
  fx.store_window(2, 1, /*commit=*/true, /*tamper=*/true);
  fx.store_window(3, 1);

  ProviderPipeline pipeline(fx.store, fx.board);
  auto result = pipeline.aggregate_pending();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::guest_abort);
  // Window 1 succeeded before the failure; 2 and 3 remain pending.
  EXPECT_EQ(pipeline.receipts().size(), 1u);
  EXPECT_EQ(pipeline.pending_windows().value(), (std::vector<u64>{2, 3}));
}

TEST(Pipeline, TransientScanFaultIsAbsorbedByRetry) {
  Fixture fx;
  fx.store_window(1, 1);
  store::FaultInjector faults;
  fx.store.set_fault_injector(&faults);
  faults.arm(store::FaultPoint::scan);

  PipelineOptions options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = std::chrono::milliseconds(1);
  options.retry.max_backoff = std::chrono::milliseconds(2);
  ProviderPipeline pipeline(fx.store, fx.board, options);
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  EXPECT_EQ(rounds.value().size(), 1u);
  EXPECT_EQ(faults.injected(), 1u);  // the fault fired and was retried over
  fx.store.set_fault_injector(nullptr);
}

TEST(Pipeline, ExhaustedRetriesSurfaceTypedIoError) {
  Fixture fx;
  fx.store_window(1, 1);
  store::FaultInjector faults;
  fx.store.set_fault_injector(&faults);

  PipelineOptions options;
  options.retry.max_attempts = 1;  // no second chance
  ProviderPipeline pipeline(fx.store, fx.board, options);

  faults.arm(store::FaultPoint::scan);
  auto pending = pipeline.pending_windows();
  ASSERT_FALSE(pending.ok());  // an unreadable store is not "no work"
  EXPECT_EQ(pending.error().code, Errc::io_error);

  faults.arm(store::FaultPoint::scan);
  auto rounds = pipeline.aggregate_pending();
  ASSERT_FALSE(rounds.ok());
  EXPECT_EQ(rounds.error().code, Errc::io_error);

  // Transient means transient: once the store heals, the same pipeline
  // picks the window up.
  fx.store.set_fault_injector(nullptr);
  auto retried = pipeline.aggregate_pending();
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value().size(), 1u);
}

TEST(Pipeline, PruneDropsOnlyAggregatedWindows) {
  Fixture fx;
  fx.store_window(1, 2);
  fx.store_window(2, 2);
  ProviderPipeline pipeline(fx.store, fx.board);
  // Nothing aggregated yet.
  EXPECT_EQ(pipeline.prune_aggregated().value(), 0u);
  ASSERT_TRUE(pipeline.aggregate_pending().ok());

  fx.store_window(3, 2);  // arrives after the last aggregation
  // Windows 1 and 2 dropped.
  EXPECT_EQ(pipeline.prune_aggregated().value(), 4u);
  EXPECT_EQ(fx.store.row_count(store::kTableRlogs), 2u);
  EXPECT_EQ(pipeline.pending_windows().value(), (std::vector<u64>{3}));

  // The chain continues over pruned history (receipts carry it).
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(rounds.value().size(), 1u);

  // The full receipt trail still audits even though raw logs are gone.
  Auditor auditor(fx.board);
  for (const auto& receipt : pipeline.receipts()) {
    ASSERT_TRUE(auditor.accept_round(receipt).ok());
  }
  EXPECT_EQ(auditor.rounds_accepted(), 3u);
}

TEST(Pipeline, UncommittedWindowBlocks) {
  Fixture fx;
  fx.store_window(1, 1, /*commit=*/false);
  ProviderPipeline pipeline(fx.store, fx.board);
  auto result = pipeline.aggregate_pending();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::commitment_missing);
}

}  // namespace
}  // namespace zkt::core
