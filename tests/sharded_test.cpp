// Sharded aggregation tests: split-proof soundness, shard assignment,
// end-to-end sharded rounds, the K = 1 round as the plain chain, sharded
// audit acceptance, and tamper rejection.
#include <gtest/gtest.h>

#include "core/sharded.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

RLogBatch build_batch(u32 router, u64 window, u32 flows) {
  RLogBatch batch;
  batch.router_id = router;
  batch.window_id = window;
  for (u32 f = 0; f < flows; ++f) {
    FlowRecord record;
    PacketObservation pkt;
    pkt.key = {0x0A000000 + f * 7 + router, 0x09090909,
               static_cast<u16>(1000 + f), 443, 6};
    pkt.timestamp_ms = window * 5000 + f;
    pkt.bytes = 100 + f;
    pkt.hop_count = 5;
    record.observe(pkt);
    batch.records.push_back(std::move(record));
  }
  return batch;
}

struct Fixture {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("shard-fix");

  RLogBatch committed(u32 router, u64 window, u32 flows) {
    auto batch = build_batch(router, window, flows);
    EXPECT_TRUE(
        board.publish(make_commitment(batch, key, window * 5000).value())
            .ok());
    return batch;
  }
};

TEST(ShardOf, DeterministicAndInRange) {
  for (u32 count : {1u, 2u, 4u, 16u}) {
    for (u32 f = 0; f < 50; ++f) {
      const netflow::FlowKey k{f, f * 3, static_cast<u16>(f), 443, 6};
      const u32 s = shard_of(k, count);
      EXPECT_LT(s, count);
      EXPECT_EQ(s, shard_of(k, count));
    }
  }
}

TEST(SubBatch, PartitionIsCompleteAndDisjoint) {
  const auto batch = build_batch(0, 1, 50);
  for (u32 count : {1u, 3u, 8u}) {
    u64 total = 0;
    for (u32 s = 0; s < count; ++s) {
      const auto sub = sub_batch_for(batch, s, count);
      EXPECT_EQ(sub.router_id, batch.router_id);
      EXPECT_EQ(sub.window_id, batch.window_id);
      for (const auto& rec : sub.records) {
        EXPECT_EQ(shard_of(rec.key, count), s);
      }
      total += sub.records.size();
    }
    EXPECT_EQ(total, batch.records.size());
  }
}

TEST(SplitJournalSchema, RoundTrip) {
  SplitJournal j;
  j.source = {1, 2, crypto::sha256(std::string_view("src")), 10};
  j.shard_count = 2;
  j.shards = {{0, crypto::sha256(std::string_view("s0")), 6},
              {1, crypto::sha256(std::string_view("s1")), 4}};
  Writer w;
  j.write(w);
  auto parsed = SplitJournal::parse(w.bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().source, j.source);
  EXPECT_EQ(parsed.value().shards, j.shards);
  EXPECT_EQ(parsed.value().shard_count, 2u);
}

class ShardedE2E : public ::testing::TestWithParam<u32> {};

TEST_P(ShardedE2E, RoundsAggregateAndAudit) {
  const u32 shard_count = GetParam();
  Fixture fx;
  ShardedAggregationService service(fx.board,
                                    ShardedOptions{.shard_count = shard_count});
  ShardedAuditor auditor(fx.board, shard_count);

  // Two rounds, two routers each, overlapping flows.
  for (u64 window = 1; window <= 2; ++window) {
    std::vector<RLogBatch> batches = {fx.committed(0, window, 20),
                                      fx.committed(1, window, 15)};
    auto round = service.aggregate(batches);
    ASSERT_TRUE(round.ok()) << round.error().to_string();
    // The round records the fan-out it was proven with.
    EXPECT_EQ(round.value().shard_count, shard_count);
    EXPECT_EQ(round.value().split_receipts.size(), 2u);
    EXPECT_EQ(round.value().shard_rounds.size(), shard_count);
    EXPECT_TRUE(round.value().tree_seal.has_value());
    auto accepted = auditor.accept_round(round.value());
    ASSERT_TRUE(accepted.ok()) << accepted.to_string();
  }
  EXPECT_EQ(auditor.rounds_accepted(), 2u);

  // Shards jointly hold every distinct flow exactly once.
  u64 expected_flows = 0;
  {
    std::set<netflow::FlowKey> keys;
    for (u64 window = 1; window <= 2; ++window) {
      for (u32 router = 0; router < 2; ++router) {
        const auto batch = build_batch(router, window, router == 0 ? 20 : 15);
        for (const auto& rec : batch.records) {
          keys.insert(rec.key);
        }
      }
    }
    expected_flows = keys.size();
  }
  EXPECT_EQ(auditor.total_entries(), expected_flows);

  u64 shard_total = 0;
  for (u32 s = 0; s < shard_count; ++s) {
    shard_total += service.shard_service(s).state().entry_count();
  }
  EXPECT_EQ(shard_total, expected_flows);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedE2E, ::testing::Values(2, 4));

TEST(Sharded, SingleShardIsThePlainChain) {
  // K = 1 is the degenerate round: no split proof, no shard board, no fold —
  // and receipts byte-identical to a bare AggregationService's.
  Fixture fx;
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 1});
  AggregationService plain(fx.board);
  std::optional<RoundResult> last;
  for (u64 window = 1; window <= 2; ++window) {
    std::vector<RLogBatch> batches = {fx.committed(0, window, 20),
                                      fx.committed(1, window, 15)};
    auto round = service.aggregate(batches);
    ASSERT_TRUE(round.ok()) << round.error().to_string();
    auto reference = plain.aggregate(batches);
    ASSERT_TRUE(reference.ok()) << reference.error().to_string();
    EXPECT_EQ(round.value().shard_count, 1u);
    EXPECT_TRUE(round.value().split_receipts.empty());
    EXPECT_FALSE(round.value().tree_seal.has_value());
    EXPECT_TRUE(round.value().shard_sketches.empty());
    ASSERT_EQ(round.value().shard_rounds.size(), 1u);
    EXPECT_EQ(round.value().primary().receipt.to_bytes(),
              reference.value().receipt.to_bytes());
    last = std::move(round.value());
  }
  EXPECT_EQ(service.shard_service(0).state().root(), plain.state().root());

  // Its rounds are audited by Auditor; ShardedAuditor refuses them.
  ShardedAuditor auditor(fx.board, 1);
  auto rejected = auditor.accept_round(*last);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), Errc::invalid_argument);
}

TEST(Sharded, ShardedTotalsMatchUnsharded) {
  Fixture fx;
  auto batch = fx.committed(0, 1, 30);

  AggregationService plain(fx.board);
  ASSERT_TRUE(plain.aggregate({batch}).ok());
  const auto reference =
      evaluate_query(Query::sum(QField::bytes), plain.state().entries());

  Fixture fx2;
  auto batch2 = fx2.committed(0, 1, 30);
  ShardedAggregationService sharded(fx2.board, ShardedOptions{.shard_count = 4});
  ASSERT_TRUE(sharded.aggregate({batch2}).ok());
  u64 sharded_sum = 0;
  for (u32 s = 0; s < 4; ++s) {
    sharded_sum +=
        evaluate_query(Query::sum(QField::bytes),
                       sharded.shard_service(s).state().entries())
            .sum;
  }
  EXPECT_EQ(sharded_sum, reference.sum);
}

TEST(Sharded, TamperedBatchFailsSplitProof) {
  Fixture fx;
  auto batch = fx.committed(0, 1, 10);
  batch.records[2].bytes += 1;  // post-commitment edit
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({batch});
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.error().code, Errc::guest_abort);
}

TEST(Sharded, UncommittedBatchRejected) {
  Fixture fx;
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({build_batch(9, 9, 5)});
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.error().code, Errc::commitment_missing);
}

TEST(Sharded, AuditorRejectsForeignSplit) {
  // A round proven against a different board must not be accepted.
  Fixture trusted;
  Fixture rogue;
  auto batch = rogue.committed(0, 1, 10);
  ShardedAggregationService service(rogue.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  ShardedAuditor auditor(trusted.board, 2);
  auto rejected = auditor.accept_round(round.value());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), Errc::commitment_missing);
}

TEST(Sharded, AuditorRejectsWrongShardCount) {
  Fixture fx;
  auto batch = fx.committed(0, 1, 10);
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  ShardedAuditor auditor(fx.board, 4);
  EXPECT_FALSE(auditor.accept_round(round.value()).ok());
}

TEST(Sharded, AuditorRejectsDroppedShardRound) {
  Fixture fx;
  auto batch = fx.committed(0, 1, 10);
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  auto truncated = round.value();
  truncated.shard_rounds.pop_back();
  ShardedAuditor auditor(fx.board, 2);
  EXPECT_FALSE(auditor.accept_round(truncated).ok());
}

TEST(Sharded, AuditorRejectsCrossShardSwap) {
  // Swapped shard receipts no longer match the tree seal's leaves (a
  // leaf's position is its shard id).
  Fixture fx;
  auto batch = fx.committed(0, 1, 20);
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  auto swapped = round.value();
  std::swap(swapped.shard_rounds[0], swapped.shard_rounds[1]);
  ShardedAuditor auditor(fx.board, 2);
  EXPECT_FALSE(auditor.accept_round(swapped).ok());
}

TEST(Sharded, AuditorRejectsUnsealedShardedRound) {
  // A K >= 2 round's proof object is its tree seal: shard receipts without
  // one are not accepted, and the rejected round changes nothing.
  Fixture fx;
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({fx.committed(0, 1, 10)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  auto unsealed = round.value();
  unsealed.tree_seal.reset();
  ShardedAuditor auditor(fx.board, 2);
  auto rejected = auditor.accept_round(unsealed);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), Errc::proof_invalid);
  EXPECT_EQ(auditor.rounds_accepted(), 0u);
  EXPECT_EQ(auditor.total_entries(), 0u);
  EXPECT_TRUE(auditor.accept_round(round.value()).ok());
}

TEST(Sharded, RejectedRoundAdvancesNoShard) {
  // A seal whose shard 0 link is a valid genesis link but whose shard 1
  // link claims a predecessor is rejected — and shard 0 stays at genesis,
  // so the honest rounds still chain afterwards.
  Fixture fx;
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round1 = service.aggregate({fx.committed(0, 1, 12)});
  ASSERT_TRUE(round1.ok()) << round1.error().to_string();
  auto round2 = service.aggregate({fx.committed(0, 2, 12)});
  ASSERT_TRUE(round2.ok()) << round2.error().to_string();

  const std::vector<zvm::Receipt> leaves = {
      round1.value().shard_rounds[0].receipt,
      round2.value().shard_rounds[1].receipt};
  const std::vector<netflow::RoundSketch> sketches = {
      round1.value().shard_sketches[0], round2.value().shard_sketches[1]};
  FoldOptions options;
  options.leaf_sketches = sketches;
  auto mixed = fold_receipts(leaves, options);
  ASSERT_TRUE(mixed.ok()) << mixed.error().to_string();
  RoundResult forged = round1.value();
  forged.shard_rounds.clear();
  forged.tree_seal = mixed.value().root;

  ShardedAuditor auditor(fx.board, 2);
  auto rejected = auditor.accept_round(forged);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), Errc::chain_broken);
  EXPECT_EQ(auditor.rounds_accepted(), 0u);
  EXPECT_EQ(auditor.total_entries(), 0u);
  ASSERT_TRUE(auditor.accept_round(round1.value()).ok());
  ASSERT_TRUE(auditor.accept_round(round2.value()).ok());
  EXPECT_EQ(auditor.total_entries(), service.total_entries());
}

}  // namespace
}  // namespace zkt::core
