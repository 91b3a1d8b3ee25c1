// Proof-carrying round sketch, end to end (DESIGN.md §10): sketch digests
// chained through aggregation journals and accepted by the stock Auditor /
// ShardedAuditor paths, QueryService's error-bound routing between the
// sketch guests and exact complete-scan proofs, snapshot/restore of sketch
// state, and the soundness negatives (tampered counter, wrong seed, stale
// sketch, forged merge, params swap, doctored estimates).
#include <gtest/gtest.h>

#include "core/auditor.h"
#include "core/chain_snapshot.h"
#include "core/fold.h"
#include "core/service.h"
#include "core/sharded.h"
#include "sim/workload.h"

namespace zkt::core {
namespace {

using netflow::FlowKey;
using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;
using netflow::RoundSketch;
using netflow::SketchParams;

/// Small params so the query router's cost estimator favours the sketch
/// already at test-sized states: est_sketch = 64*2*8/64 + 8*2 = 32 traced
/// hashes, vs 2 per CLog entry for the exact scan.
SketchParams small_params() {
  SketchParams p;
  p.cm = {.width = 64, .depth = 2, .seed = 7};
  p.heavy_capacity = 8;
  return p;
}

/// `flows` mice with one packet each, plus one elephant flow with
/// `elephant_packets` observations — the heavy-hitter workload.
RLogBatch build_batch(u32 router, u64 window, u32 flows,
                      u32 elephant_packets = 0) {
  RLogBatch batch;
  batch.router_id = router;
  batch.window_id = window;
  for (u32 f = 0; f < flows; ++f) {
    FlowRecord record;
    PacketObservation pkt;
    pkt.key = sim::synth_flow_key(f, 31);
    pkt.timestamp_ms = window * 5000 + f;
    pkt.bytes = 100 + f;
    pkt.hop_count = 3;
    record.observe(pkt);
    batch.records.push_back(std::move(record));
  }
  if (elephant_packets > 0) {
    FlowRecord elephant;
    for (u32 i = 0; i < elephant_packets; ++i) {
      PacketObservation pkt;
      pkt.key = sim::synth_flow_key(10'000, 31);
      pkt.timestamp_ms = window * 5000 + 1000 + i;
      pkt.bytes = 1500;
      pkt.hop_count = 3;
      elephant.observe(pkt);
    }
    batch.records.push_back(std::move(elephant));
  }
  return batch;
}

struct Fixture {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("sketch-e2e");
  AggregationService service{
      board, AggregationOptions{.prove_options = {}, .sketch = small_params()}};

  RLogBatch committed(u32 router, u64 window, u32 flows,
                      u32 elephant_packets = 0) {
    auto batch = build_batch(router, window, flows, elephant_packets);
    EXPECT_TRUE(
        board.publish(make_commitment(batch, key, window * 5000).value())
            .ok());
    return batch;
  }
};

// ---------------------------------------------------------------------------
// Chaining through journals and the stock auditor paths.

TEST(SketchChain, JournalsChainSketchDigestsAcrossRounds) {
  Fixture fx;
  const Digest32 genesis = RoundSketch(small_params()).hash();
  Digest32 prev = genesis;
  for (u64 w = 1; w <= 3; ++w) {
    auto round = fx.service.aggregate({fx.committed(0, w, 10)});
    ASSERT_TRUE(round.ok()) << round.error().to_string();
    const AggJournal& j = round.value().journal;
    ASSERT_TRUE(j.has_sketch);
    EXPECT_EQ(j.sketch_params, small_params());
    EXPECT_EQ(j.prev_sketch_digest, prev);
    EXPECT_NE(j.sketch_digest, prev);
    prev = j.sketch_digest;
  }
  // The service's host mirror lands on the same digest the chain proved.
  EXPECT_EQ(fx.service.sketch().hash(), prev);
  EXPECT_EQ(fx.service.sketch().total(), 30u);
}

TEST(SketchChain, AuditorTracksSketchAcrossAcceptPaths) {
  Fixture fx;
  std::vector<zvm::Receipt> receipts;
  for (u64 w = 1; w <= 3; ++w) {
    auto round = fx.service.aggregate({fx.committed(0, w, 8)});
    ASSERT_TRUE(round.ok()) << round.error().to_string();
    receipts.push_back(round.value().receipt);
  }

  // One receipt at a time.
  Auditor one(fx.board);
  for (const auto& receipt : receipts) {
    ASSERT_TRUE(one.accept_round(receipt).ok());
  }
  EXPECT_TRUE(one.has_sketch());
  EXPECT_EQ(one.sketch_digest(), fx.service.sketch().hash());
  EXPECT_EQ(one.sketch_params(), small_params());

  // Batched: identical final sketch position.
  Auditor batched(fx.board);
  ASSERT_TRUE(batched.accept_rounds(receipts).ok());
  EXPECT_EQ(batched.sketch_digest(), one.sketch_digest());

  // A chain that chains onto a different sketch digest is rejected: feed
  // round 3 directly after round 1 (the root/claim checks would also fire;
  // tamper-free sketch continuity is what accept_round enforces together
  // with them).
  Auditor broken(fx.board);
  ASSERT_TRUE(broken.accept_round(receipts[0]).ok());
  EXPECT_FALSE(broken.accept_round(receipts[2]).ok());
}

TEST(SketchChain, UnsketchedChainsStillAuditAndRefuseSketchQueries) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("sketch-off");
  AggregationService service(board, AggregationOptions{.prove_options = {}, .sketch = std::nullopt});
  auto batch = build_batch(0, 1, 6);
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 5000).value()).ok());
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  EXPECT_FALSE(round.value().journal.has_sketch);

  Auditor auditor(board);
  ASSERT_TRUE(auditor.accept_round(round.value().receipt).ok());
  EXPECT_FALSE(auditor.has_sketch());

  // The heavy guest fails fast: there is no sketch to answer from.
  EXPECT_FALSE(
      prove_sketch_heavy(round.value().receipt, RoundSketch(small_params()), 3)
          .ok());
}

// ---------------------------------------------------------------------------
// Sharded path: shard sketches summed through the fold, bound by the seal.

TEST(SketchChain, ShardedTreeSealBindsMergedRoundSketch) {
  Fixture fx;
  ShardedAggregationService sharded(
      fx.board, ShardedOptions{.shard_count = 2, .sketch = small_params()});
  auto round = sharded.aggregate({fx.committed(0, 1, 16, 20)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  ASSERT_TRUE(round.value().tree_seal.has_value());
  ASSERT_EQ(round.value().shard_sketches.size(), 2u);
  ASSERT_TRUE(round.value().round_sketch.has_value());

  auto j = JoinJournal::parse(round.value().tree_seal->journal);
  ASSERT_TRUE(j.ok()) << j.error().to_string();
  ASSERT_TRUE(j.value().has_sketch);
  EXPECT_EQ(j.value().sketch_digest, round.value().round_sketch->hash());
  EXPECT_EQ(j.value().sketch_total, 36u);  // 16 mice + 20 elephant packets
  // The merged round sketch is the shard sketches' sum (order-sensitive
  // merge, left to right — replayed here).
  RoundSketch merged = round.value().shard_sketches[0];
  ASSERT_TRUE(merged.merge(round.value().shard_sketches[1]).ok());
  EXPECT_EQ(merged.hash(), round.value().round_sketch->hash());

  ShardedAuditor auditor(fx.board, 2);
  ASSERT_TRUE(auditor.accept_round(round.value()).ok());
  EXPECT_TRUE(auditor.has_sketch());
  EXPECT_EQ(auditor.round_sketch_digest(), round.value().round_sketch->hash());
  for (u32 s = 0; s < 2; ++s) {
    EXPECT_EQ(auditor.shard_sketch_digest(s),
              round.value().shard_sketches[s].hash());
  }
}

// ---------------------------------------------------------------------------
// QueryService routing + auditor verification of the sketch query guests.

TEST(SketchQueryRouting, HeavyHittersAboveFloorUseSketchAndVerify) {
  Fixture fx;
  // 29 mice + a 40-packet elephant: total weight 69, capacity 8, so the
  // Space-Saving floor is floor(69/8) = 8 — threshold 10 clears it.
  auto round = fx.service.aggregate({fx.committed(0, 1, 29, 40)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();

  QueryService queries(fx.service);
  auto response = queries.heavy_hitters(10);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  ASSERT_TRUE(response.value().used_sketch);
  ASSERT_TRUE(response.value().sketch.has_value());
  const SketchHeavyJournal& j = response.value().sketch->journal;
  EXPECT_EQ(j.threshold, 10u);
  EXPECT_EQ(j.total, 69u);
  ASSERT_GE(j.hits.size(), 1u);
  // The elephant leads, bracketed by [count - error, cms_estimate].
  EXPECT_EQ(j.hits[0].key, sim::synth_flow_key(10'000, 31));
  EXPECT_GE(j.hits[0].count, 40u);
  EXPECT_LE(j.hits[0].count - j.hits[0].error, 40u);
  EXPECT_GE(j.hits[0].cms_estimate, 40u);

  Auditor auditor(fx.board);
  ASSERT_TRUE(auditor.accept_round(round.value().receipt).ok());
  auto verified = auditor.verify_heavy_hitters(response.value().sketch->receipt);
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_EQ(verified.value().sketch_digest, auditor.sketch_digest());
}

TEST(SketchQueryRouting, ThresholdBelowFloorFallsBackToExact) {
  Fixture fx;
  auto round = fx.service.aggregate({fx.committed(0, 1, 29, 40)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();

  // Threshold 5 <= floor(69/8): the sketch cannot prove completeness, so
  // the router answers with an exact complete-scan count instead.
  QueryService queries(fx.service);
  auto response = queries.heavy_hitters(5);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_FALSE(response.value().used_sketch);
  ASSERT_TRUE(response.value().exact.has_value());
  EXPECT_EQ(response.value().exact->value, 1u);  // only the elephant >= 5

  Auditor auditor(fx.board);
  ASSERT_TRUE(auditor.accept_round(round.value().receipt).ok());
  auto verified = auditor.verify_query(response.value().exact->receipt);
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_EQ(verified.value().mode, QueryMode::complete);
}

TEST(SketchQueryRouting, TinyStateFallsBackToExactByCost) {
  Fixture fx;
  // 4 entries: est_exact = 8 traced hashes, est_sketch = 32 — the cost
  // estimator must pick the exact scan even though the bound would hold.
  auto round = fx.service.aggregate({fx.committed(0, 1, 0, 40)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  ASSERT_EQ(fx.service.state().entry_count(), 1u);

  QueryService queries(fx.service);
  auto heavy = queries.heavy_hitters(39);
  ASSERT_TRUE(heavy.ok()) << heavy.error().to_string();
  EXPECT_FALSE(heavy.value().used_sketch);
  auto card = queries.cardinality();
  ASSERT_TRUE(card.ok()) << card.error().to_string();
  EXPECT_FALSE(card.value().used_sketch);
  EXPECT_EQ(card.value().exact->value, 1u);
}

TEST(SketchQueryRouting, CardinalityUsesSketchAndVerifies) {
  Fixture fx;
  auto round = fx.service.aggregate({fx.committed(0, 1, 30)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();

  QueryService queries(fx.service);
  auto response = queries.cardinality();
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  ASSERT_TRUE(response.value().used_sketch);
  const SketchCardinalityJournal& j = response.value().sketch->journal;
  EXPECT_EQ(j.distinct_flows, 30u);  // exact: one CLog entry per flow
  EXPECT_LE(j.cms_lower_bound, 30u);
  EXPECT_GE(j.cms_lower_bound, 1u);

  Auditor auditor(fx.board);
  ASSERT_TRUE(auditor.accept_round(round.value().receipt).ok());
  auto verified =
      auditor.verify_cardinality(response.value().sketch->receipt);
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_EQ(verified.value().distinct_flows, 30u);
}

// ---------------------------------------------------------------------------
// Snapshot / restore of sketch state (the recovery surface; the full
// FaultInjector crash sweep runs in tree_pipeline_test / recovery_test with
// sketches on by default).

TEST(SketchSnapshot, RoundTripCarriesSketchAndRestores) {
  Fixture fx;
  auto round = fx.service.aggregate({fx.committed(0, 1, 12)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();

  const ShardedChainSnapshot snap{
      .round_id = 1,
      .window_id = 1,
      .shard_count = 1,
      .shards = {ChainSnapshot::full(round.value().receipt.claim.digest(),
                                     fx.service.state(),
                                     &fx.service.sketch())}};
  ASSERT_TRUE(snap.shards[0].has_sketch);
  auto bundle = ShardedChainSnapshot::from_bytes(snap.to_bytes());
  ASSERT_TRUE(bundle.ok()) << bundle.error().to_string();
  const ChainSnapshot& reparsed = bundle.value().shards[0];
  auto sketch = reparsed.restore_sketch();
  ASSERT_TRUE(sketch.ok()) << sketch.error().to_string();
  ASSERT_TRUE(sketch.value().has_value());
  EXPECT_EQ(sketch.value()->hash(), fx.service.sketch().hash());

  // A fresh service restored from the snapshot continues the chain.
  AggregationService resumed(fx.board,
                             AggregationOptions{.prove_options = {}, .sketch = small_params()});
  auto state = reparsed.restore_state();
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(resumed
                  .restore(std::move(state.value()), round.value().receipt, 1,
                           std::move(*sketch.value()))
                  .ok());
  auto next = resumed.aggregate({fx.committed(0, 2, 5)});
  ASSERT_TRUE(next.ok()) << next.error().to_string();
  EXPECT_EQ(next.value().journal.prev_sketch_digest,
            round.value().journal.sketch_digest);
}

TEST(SketchSnapshot, RestoreRejectsMissingOrStaleSketch) {
  Fixture fx;
  auto round1 = fx.service.aggregate({fx.committed(0, 1, 12)});
  ASSERT_TRUE(round1.ok());
  const RoundSketch after_round1 = fx.service.sketch();
  auto round2 = fx.service.aggregate({fx.committed(0, 2, 12)});
  ASSERT_TRUE(round2.ok());

  // Missing: the chain carries a sketch but none was recovered.
  {
    AggregationService resumed(fx.board,
                               AggregationOptions{.prove_options = {}, .sketch = small_params()});
    CLogState state = fx.service.state();
    EXPECT_FALSE(
        resumed.restore(std::move(state), round2.value().receipt, 2).ok());
  }
  // Stale: round 1's sketch against round 2's receipt (soundness negative —
  // a stale sketch digest cannot be adopted as the chain position).
  {
    AggregationService resumed(fx.board,
                               AggregationOptions{.prove_options = {}, .sketch = small_params()});
    CLogState state = fx.service.state();
    EXPECT_FALSE(resumed
                     .restore(std::move(state), round2.value().receipt, 2,
                              after_round1)
                     .ok());
  }
}

// ---------------------------------------------------------------------------
// Soundness negatives.

TEST(SketchSoundness, TamperedCounterFailsProving) {
  Fixture fx;
  auto round = fx.service.aggregate({fx.committed(0, 1, 29, 40)});
  ASSERT_TRUE(round.ok());
  RoundSketch doctored = fx.service.sketch();
  doctored.cm_mut().set_counter(0, 0, doctored.cm().counter(0, 0) + 1);
  // The guest hashes the sketch bytes and asserts they match the journal's
  // chained digest — a flipped counter cannot be proven.
  EXPECT_FALSE(prove_sketch_heavy(round.value().receipt, doctored, 10).ok());
  EXPECT_FALSE(
      prove_sketch_cardinality(round.value().receipt, doctored).ok());
}

TEST(SketchSoundness, WrongSeedSketchFailsProving) {
  Fixture fx;
  auto round = fx.service.aggregate({fx.committed(0, 1, 29, 40)});
  ASSERT_TRUE(round.ok());
  SketchParams wrong_seed = small_params();
  wrong_seed.cm.seed = 999;
  RoundSketch forged(wrong_seed);
  forged.update(sim::synth_flow_key(10'000, 31), 40);
  EXPECT_FALSE(prove_sketch_heavy(round.value().receipt, forged, 10).ok());
}

TEST(SketchSoundness, ForgedShardMergeRejectedByFold) {
  Fixture fx;
  ShardedAggregationService sharded(
      fx.board, ShardedOptions{.shard_count = 2, .sketch = small_params()});
  auto round = sharded.aggregate({fx.committed(0, 1, 16)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();

  std::vector<zvm::Receipt> leaves;
  for (const auto& shard : round.value().shard_rounds) {
    leaves.push_back(shard.receipt);
  }
  // Forge shard 0's contribution to the merge: the join guest authenticates
  // each child's sketch bytes against the digest that child's own journal
  // chained, so a substituted sketch cannot be folded in.
  std::vector<RoundSketch> forged = round.value().shard_sketches;
  forged[0].update(sim::synth_flow_key(500, 31), 100);
  FoldOptions options;
  options.leaf_sketches = forged;
  EXPECT_FALSE(fold_receipts(leaves, options).ok());

  // The honest sketches fold fine.
  FoldOptions honest;
  honest.leaf_sketches = round.value().shard_sketches;
  EXPECT_TRUE(fold_receipts(leaves, honest).ok());
}

TEST(SketchSoundness, ParamsSwapInJournalRejected) {
  Fixture fx;
  auto round = fx.service.aggregate({fx.committed(0, 1, 29, 40)});
  ASSERT_TRUE(round.ok());
  QueryService queries(fx.service);
  auto response = queries.heavy_hitters(10);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().used_sketch);

  auto forged = response.value().sketch->receipt;
  SketchHeavyJournal j = response.value().sketch->journal;
  j.params.cm.width = 4096;  // claim much tighter error bounds than proven
  Writer w;
  j.write(w);
  forged.journal = std::move(w).take();
  EXPECT_FALSE(verify_sketch_heavy(forged).ok());
}

TEST(SketchSoundness, EstimateBelowTrueCountRejected) {
  Fixture fx;
  auto round = fx.service.aggregate({fx.committed(0, 1, 29, 40)});
  ASSERT_TRUE(round.ok());
  QueryService queries(fx.service);
  auto response = queries.heavy_hitters(10);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().used_sketch);

  // Deflate the elephant's reported count below its true 40 packets: the
  // journal no longer matches the claim's journal digest.
  auto forged = response.value().sketch->receipt;
  SketchHeavyJournal j = response.value().sketch->journal;
  ASSERT_GE(j.hits[0].count, 40u);
  j.hits[0].count = 3;
  j.hits[0].cms_estimate = 3;
  Writer w;
  j.write(w);
  forged.journal = std::move(w).take();
  EXPECT_FALSE(verify_sketch_heavy(forged).ok());
}

TEST(SketchSoundness, QueryAgainstUnacceptedRoundRejected) {
  Fixture fx;
  auto round = fx.service.aggregate({fx.committed(0, 1, 29, 40)});
  ASSERT_TRUE(round.ok());
  QueryService queries(fx.service);
  auto response = queries.heavy_hitters(10);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().used_sketch);

  // An auditor that accepted nothing has no round for the query to bind.
  Auditor fresh(fx.board);
  auto verified = fresh.verify_heavy_hitters(response.value().sketch->receipt);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, Errc::chain_broken);
}

}  // namespace
}  // namespace zkt::core
