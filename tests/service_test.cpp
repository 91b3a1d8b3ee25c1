// AggregationService / QueryService behavioural tests: determinism, batch
// ordering, failure atomicity, and options plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <optional>
#include <thread>

#include "core/auditor.h"
#include "core/service.h"
#include "common/thread_pool.h"
#include "core/sharded.h"
#include "obs/metrics.h"

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
    pkt.bytes = 100;
    pkt.hop_count = 3;
    record.observe(pkt);
    batch.records.push_back(std::move(record));
  }
  return batch;
}

struct Fixture {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("svc");

  RLogBatch committed(u32 router, u64 window, std::vector<u32> srcs) {
    auto batch = batch_of(router, window, std::move(srcs));
    EXPECT_TRUE(
        board.publish(make_commitment(batch, key, window).value()).ok());
    return batch;
  }
};

TEST(Service, BatchOrderWithinRoundIsCanonical) {
  // The same batches in any submission order give identical roots/receipts.
  Fixture fx;
  auto b0 = fx.committed(0, 1, {10, 11});
  auto b1 = fx.committed(1, 1, {20});
  auto b2 = fx.committed(2, 1, {30, 31, 32});

  AggregationService s1(fx.board);
  auto r1 = s1.aggregate({b0, b1, b2});
  ASSERT_TRUE(r1.ok());
  AggregationService s2(fx.board);
  auto r2 = s2.aggregate({b2, b0, b1});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().journal.new_root, r2.value().journal.new_root);
  EXPECT_EQ(r1.value().receipt.claim.digest(),
            r2.value().receipt.claim.digest());
}

TEST(Service, RoundsAreBitwiseDeterministic) {
  Fixture fx;
  auto batch = fx.committed(0, 1, {1, 2, 3});
  AggregationService s1(fx.board);
  AggregationService s2(fx.board);
  auto r1 = s1.aggregate({batch});
  auto r2 = s2.aggregate({batch});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().receipt.to_bytes(), r2.value().receipt.to_bytes());
}

TEST(Service, FailedRoundLeavesStateUntouched) {
  Fixture fx;
  auto good = fx.committed(0, 1, {1, 2});
  AggregationService service(fx.board);
  ASSERT_TRUE(service.aggregate({good}).ok());
  const auto root_before = service.state().root();
  const auto claim_before = service.last_claim_digest().value();

  // Tampered batch for window 2: guest aborts.
  auto bad = fx.committed(0, 2, {3});
  bad.records[0].bytes += 1;
  ASSERT_FALSE(service.aggregate({bad}).ok());
  EXPECT_EQ(service.state().root(), root_before);
  EXPECT_EQ(service.last_claim_digest().value(), claim_before);
  EXPECT_EQ(service.rounds_completed(), 1u);

  // And the service still works for honest data afterwards.
  auto good2 = fx.committed(1, 2, {4});
  EXPECT_TRUE(service.aggregate({good2}).ok());
}

/// Holds every shared-pool worker busy until destroyed, so a task queued
/// meanwhile can only run on a thread that help-waits for it.
class PoolBlocker {
 public:
  PoolBlocker() {
    common::ThreadPool& pool = common::ThreadPool::shared();
    const std::shared_future<void> release = release_.get_future().share();
    for (size_t i = 0; i < pool.thread_count(); ++i) {
      blockers_.push_back(pool.submit([this, release] {
        started_.fetch_add(1);
        release.wait();
      }));
    }
    while (started_.load() < pool.thread_count()) std::this_thread::yield();
  }
  ~PoolBlocker() {
    release_.set_value();
    for (auto& blocker : blockers_) blocker.get();
  }

 private:
  std::promise<void> release_;
  std::atomic<size_t> started_{0};
  std::vector<std::future<void>> blockers_;
};

/// Every piece of chain position a failed round must leave alone.
void expect_same_position(const AggregationService& service,
                          const AggregationService& twin) {
  EXPECT_EQ(service.state().root(), twin.state().root());
  EXPECT_EQ(service.state().entry_count(), twin.state().entry_count());
  EXPECT_EQ(service.state().entries(), twin.state().entries());
  EXPECT_EQ(service.sketch().hash(), twin.sketch().hash());
  EXPECT_EQ(service.rounds_completed(), twin.rounds_completed());
  EXPECT_EQ(service.last_claim_digest().value(),
            twin.last_claim_digest().value());
}

TEST(Service, AbortedRoundsLeaveMirrorStateUntouched) {
  // The host mirror (CLog plan + sketch fold) runs on the pool while the
  // guest executes; a guest abort must leave state, sketch, touched keys,
  // head and round count exactly as a twin service that never saw the bad
  // window — for a merge-only delta round and for a round with a new key,
  // each aborted several times so some aborts land while the mirror is
  // still running. With every worker held busy the mirror sits queued, so
  // its one busy-time sample shows the round's guard ran it before the
  // abort came back.
  Fixture fx;
  AggregationService service(fx.board);
  AggregationService twin(fx.board);
  ASSERT_TRUE(service.sketch_enabled());
  std::vector<u32> genesis;
  for (u32 src = 1; src <= 40; ++src) genesis.push_back(src);
  const auto b1 = fx.committed(0, 1, genesis);
  const auto b2 = fx.committed(0, 2, {3, 5, 7});
  for (AggregationService* s : {&service, &twin}) {
    ASSERT_TRUE(s->aggregate({b1}).ok());
    auto delta = s->aggregate({b2});
    ASSERT_TRUE(delta.ok());
    EXPECT_EQ(delta.value().journal.kind, RoundKind::incremental);
    s->capture(std::nullopt);  // touched keys restart here on both
  }

  auto merge_only = fx.committed(0, 3, {2, 5, 9});
  merge_only.records[1].bytes += 1;  // tampered after commitment
  auto new_key = fx.committed(1, 3, {4, 100});
  new_key.records[0].packets += 1;
  obs::Registry& metrics = obs::Registry::instance();
  const obs::Histogram& busy = metrics.histogram("core.agg.mirror_ms");
  const obs::Histogram& wait = metrics.histogram("core.agg.mirror_wait_ms");
  for (const RLogBatch* bad : {&merge_only, &new_key}) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::optional<PoolBlocker> blocker;
      if (attempt % 2 == 1) blocker.emplace();
      const u64 busy_before = busy.count();
      const u64 wait_before = wait.count();
      auto round = service.aggregate({*bad});
      ASSERT_FALSE(round.ok());
      EXPECT_EQ(round.error().code, Errc::guest_abort);
      EXPECT_EQ(busy.count(), busy_before + 1);  // drained before return
      EXPECT_EQ(wait.count(), wait_before);      // never reached the check
      blocker.reset();
      expect_same_position(service, twin);
    }
  }

  // The next delta snapshot holds exactly what the twin's does.
  const ChainSnapshot snap = service.capture(1);
  const ChainSnapshot twin_snap = twin.capture(1);
  EXPECT_EQ(snap.body, ChainSnapshot::Body::delta);
  EXPECT_TRUE(snap.entries.empty());
  EXPECT_EQ(snap.entries, twin_snap.entries);
  EXPECT_EQ(snap.root, twin_snap.root);
  EXPECT_EQ(snap.entry_count, twin_snap.entry_count);
  EXPECT_EQ(snap.claim_digest, twin_snap.claim_digest);
  EXPECT_EQ(snap.sketch_bytes, twin_snap.sketch_bytes);

  // Honest rounds afterwards prove byte-identically to the twin's: a
  // merge-only delta round, then one with a new key.
  const auto good = fx.committed(2, 4, {2, 9});
  const auto good_new = fx.committed(2, 5, {9, 100, 41});
  for (const RLogBatch* batch : {&good, &good_new}) {
    auto round = service.aggregate({*batch});
    auto twin_round = twin.aggregate({*batch});
    ASSERT_TRUE(round.ok()) << round.error().to_string();
    ASSERT_TRUE(twin_round.ok());
    EXPECT_EQ(round.value().receipt.to_bytes(),
              twin_round.value().receipt.to_bytes());
    expect_same_position(service, twin);
  }
}

TEST(Service, MirrorMetricsRecordOncePerRound) {
  Fixture fx;
  obs::Registry& metrics = obs::Registry::instance();
  const obs::Histogram& busy = metrics.histogram("core.agg.mirror_ms");
  const obs::Histogram& wait = metrics.histogram("core.agg.mirror_wait_ms");
  const u64 busy_before = busy.count();
  const u64 wait_before = wait.count();
  AggregationService service(fx.board);
  ASSERT_TRUE(service.aggregate({fx.committed(0, 1, {1, 2, 3})}).ok());
  ASSERT_TRUE(service.aggregate({fx.committed(0, 2, {2})}).ok());
  ASSERT_TRUE(service.aggregate({fx.committed(0, 3, {4})}).ok());
  EXPECT_EQ(busy.count() - busy_before, 3u);
  EXPECT_EQ(wait.count() - wait_before, 3u);
}

TEST(Service, EmptyRoundProvesVacuously) {
  // A round with zero batches is a valid (if pointless) state transition.
  Fixture fx;
  AggregationService service(fx.board);
  auto round = service.aggregate({});
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  EXPECT_EQ(round.value().journal.new_entry_count, 0u);
  Auditor auditor(fx.board);
  EXPECT_TRUE(auditor.accept_round(round.value().receipt).ok());
}

TEST(Service, EmptyBatchIsAggregatable) {
  // A router that saw no traffic still commits (to an empty batch).
  Fixture fx;
  auto empty = fx.committed(0, 1, {});
  AggregationService service(fx.board);
  auto round = service.aggregate({empty});
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().journal.new_entry_count, 0u);
  EXPECT_EQ(round.value().journal.commitments.size(), 1u);
}

TEST(Service, CompositeOptionsProduceCompositeReceipts) {
  Fixture fx;
  auto batch = fx.committed(0, 1, {1});
  zvm::ProveOptions options;
  options.seal_kind = zvm::SealKind::composite;
  options.num_queries = 8;
  AggregationService service(fx.board, AggregationOptions{options});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().receipt.seal_kind, zvm::SealKind::composite);
  // Chained second round embeds the first as an assumption receipt.
  auto batch2 = fx.committed(0, 2, {1});
  auto round2 = service.aggregate({batch2});
  ASSERT_TRUE(round2.ok());
  EXPECT_EQ(round2.value().receipt.assumption_receipts.size(), 1u);
  zvm::Verifier verifier(8);
  EXPECT_TRUE(
      verifier.verify(round2.value().receipt, guest_images().aggregate).ok());
}

TEST(Service, QueryBeforeAnyRoundFails) {
  Fixture fx;
  AggregationService service(fx.board);
  QueryService queries(service);
  EXPECT_FALSE(queries.run(Query::count()).ok());
  EXPECT_FALSE(queries.run(Query::count(), {.mode = QueryMode::selective})
                   .ok());
}

TEST(Service, NoRoundMeansNoClaimDigest) {
  // The chain head must be an explicit error before genesis — an all-zero
  // digest would be forgeable as a "previous claim".
  Fixture fx;
  AggregationService service(fx.board);
  ASSERT_FALSE(service.last_claim_digest().ok());
  EXPECT_EQ(service.last_claim_digest().error().code, Errc::chain_broken);
  ASSERT_TRUE(service.aggregate({}).ok());
  EXPECT_TRUE(service.last_claim_digest().ok());
  EXPECT_EQ(service.last_claim_digest().value(),
            service.last_receipt().claim.digest());
}

TEST(Service, SelectiveQueryOnEmptyStateWorks) {
  Fixture fx;
  AggregationService service(fx.board);
  ASSERT_TRUE(service.aggregate({}).ok());
  QueryService queries(service);
  QueryOptions selective;
  selective.mode = QueryMode::selective;
  auto resp = queries.run(Query::count(), selective);
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp.value().journal.result.matched, 0u);
}

TEST(Service, ShardedOptionsConfigureDeterministically) {
  // Two services built from the same ShardedOptions must prove identical
  // shard rounds and fold them into byte-identical tree seals.
  Fixture fx;
  auto batch = fx.committed(0, 1, {1, 2, 3, 4});
  zvm::ProveOptions prove;
  prove.seal_kind = zvm::SealKind::composite;
  const ShardedOptions options{.shard_count = 2, .prove_options = prove};
  ShardedAggregationService first(fx.board, options);
  ShardedAggregationService second(fx.board, options);
  auto first_round = first.aggregate({batch});
  auto second_round = second.aggregate({batch});
  ASSERT_TRUE(first_round.ok()) << first_round.error().to_string();
  ASSERT_TRUE(second_round.ok());
  ASSERT_TRUE(first_round.value().tree_seal.has_value());
  ASSERT_TRUE(second_round.value().tree_seal.has_value());
  EXPECT_EQ(first_round.value().tree_seal->to_bytes(),
            second_round.value().tree_seal->to_bytes());
  ASSERT_EQ(first_round.value().shard_rounds.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(first_round.value().shard_rounds[s].receipt.claim.digest(),
              second_round.value().shard_rounds[s].receipt.claim.digest());
  }
}

TEST(Service, QueryServiceProveOptionsTakeEffect) {
  Fixture fx;
  auto batch = fx.committed(0, 1, {1});
  AggregationService service(fx.board);
  ASSERT_TRUE(service.aggregate({batch}).ok());
  zvm::ProveOptions composite;
  composite.seal_kind = zvm::SealKind::composite;
  auto resp = QueryService(service, QueryServiceOptions{composite})
                  .run(Query::count());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().receipt.seal_kind, zvm::SealKind::composite);
  // The default service seals succinctly.
  auto plain = QueryService(service).run(Query::count());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().receipt.seal_kind, zvm::SealKind::succinct);
}

TEST(Service, SegmentedProvingWorksThroughTheFullStack) {
  // Tiny segments force multi-segment seals through aggregation, chaining,
  // queries and audit.
  Fixture fx;
  zvm::ProveOptions options;
  options.max_segment_rows = 16;
  AggregationService service(fx.board, AggregationOptions{options});
  auto b1 = fx.committed(0, 1, {1, 2, 3, 4, 5});
  auto r1 = service.aggregate({b1});
  ASSERT_TRUE(r1.ok());
  EXPECT_GT(r1.value().prove_info.segments, 1u);

  auto b2 = fx.committed(0, 2, {1, 6});
  auto r2 = service.aggregate({b2});
  ASSERT_TRUE(r2.ok());

  Auditor auditor(fx.board);
  ASSERT_TRUE(auditor.accept_round(r1.value().receipt).ok());
  ASSERT_TRUE(auditor.accept_round(r2.value().receipt).ok());

  QueryService queries(service, QueryServiceOptions{options});
  auto resp = queries.run(Query::sum(QField::packets));
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(resp.value().prove_info.segments, 1u);
  EXPECT_TRUE(auditor.verify_query(resp.value().receipt).ok());
}

TEST(Service, WeightedCyclesReflectShaShare) {
  Fixture fx;
  auto batch = fx.committed(0, 1, {1, 2, 3});
  AggregationService service(fx.board);
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  const auto& info = round.value().prove_info;
  EXPECT_EQ(info.weighted_cycles(),
            info.sha_rows * 68 + (info.cycles - info.sha_rows));
  EXPECT_GT(info.weighted_cycles(), info.cycles);
}

TEST(Service, ConcurrentBoardPublishes) {
  CommitmentBoard board;
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&board, &failures, t] {
      const auto key = crypto::schnorr_keygen_from_seed(
          "concurrent-" + std::to_string(t));
      for (u64 w = 1; w <= 20; ++w) {
        auto batch = batch_of(static_cast<u32>(t), w, {static_cast<u32>(w)});
        auto commitment = make_commitment(batch, key, w);
        if (!commitment.ok() || !board.publish(commitment.value()).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(board.size(), kThreads * 20u);
}

TEST(Service, ProveInfoIspopulated) {
  Fixture fx;
  auto batch = fx.committed(0, 1, {1, 2, 3, 4});
  AggregationService service(fx.board);
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  EXPECT_GT(round.value().prove_info.cycles, 0u);
  EXPECT_GT(round.value().prove_info.sha_rows, 0u);
  EXPECT_GE(round.value().prove_info.segments, 1u);
  EXPECT_GT(round.value().prove_info.total_ms, 0.0);
  EXPECT_EQ(round.value().prove_info.cycles,
            round.value().receipt.claim.cycle_count);
}

}  // namespace
}  // namespace zkt::core
