// Join-guest and fold tests: journal schema, tree shapes across fanouts,
// determinism across SHA-256 backends and pool widths, soundness negatives
// (forged/tampered/reordered children), and tree-seal auditing.
#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/fold.h"
#include "core/sharded.h"
#include "crypto/sha256_backend.h"

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
    pkt.key = {0x0A000000 + f * 11 + router, 0x09090909,
               static_cast<u16>(2000 + f), 443, 6};
    pkt.timestamp_ms = window * 5000 + f;
    pkt.bytes = 64 + f;
    pkt.hop_count = 4;
    record.observe(pkt);
    batch.records.push_back(std::move(record));
  }
  return batch;
}

struct Fixture {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("join-fix");

  RLogBatch committed(u32 router, u64 window, u32 flows) {
    auto batch = build_batch(router, window, flows);
    EXPECT_TRUE(
        board.publish(make_commitment(batch, key, window * 5000).value())
            .ok());
    return batch;
  }

  /// One sharded round: the fold tests re-fold its K shard receipts
  /// (shard_rounds) themselves.
  RoundResult unfolded_round(u32 shard_count, u32 flows = 24) {
    ShardedAggregationService service(
        board, ShardedOptions{.shard_count = shard_count});
    auto round = service.aggregate({committed(0, 1, flows)});
    EXPECT_TRUE(round.ok()) << round.error().to_string();
    return std::move(round.value());
  }

  static std::vector<zvm::Receipt> leaves_of(const RoundResult& round) {
    std::vector<zvm::Receipt> leaves;
    for (const auto& shard : round.shard_rounds) {
      leaves.push_back(shard.receipt);
    }
    return leaves;
  }
};

TEST(JoinJournalSchema, RoundTrip) {
  JoinJournal j;
  j.height = 2;
  j.leaf_count = 2;
  j.total_entries = 9;
  j.fold_digest = crypto::sha256(std::string_view("fold"));
  ShardLink a;
  a.claim_digest = crypto::sha256(std::string_view("a"));
  a.new_root = crypto::sha256(std::string_view("ra"));
  a.new_entry_count = 5;
  a.commitments.push_back({1, 2, crypto::sha256(std::string_view("c")), 4});
  ShardLink b;
  b.claim_digest = crypto::sha256(std::string_view("b"));
  b.has_prev = true;
  b.prev_claim_digest = crypto::sha256(std::string_view("p"));
  b.prev_root = crypto::sha256(std::string_view("rp"));
  b.new_root = crypto::sha256(std::string_view("rb"));
  b.prev_entry_count = 3;
  b.new_entry_count = 4;
  j.links = {a, b};

  Writer w;
  j.write(w);
  auto parsed = JoinJournal::parse(w.bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().height, j.height);
  EXPECT_EQ(parsed.value().leaf_count, j.leaf_count);
  EXPECT_EQ(parsed.value().total_entries, j.total_entries);
  EXPECT_EQ(parsed.value().fold_digest, j.fold_digest);
  EXPECT_EQ(parsed.value().links, j.links);

  // Trailing bytes and a link-count/leaf-count mismatch are rejected.
  Writer trailing;
  j.write(trailing);
  trailing.u8v(0);
  EXPECT_FALSE(JoinJournal::parse(trailing.bytes()).ok());
  JoinJournal bad = j;
  bad.leaf_count = 3;
  Writer bw;
  bad.write(bw);
  EXPECT_FALSE(JoinJournal::parse(bw.bytes()).ok());
}

TEST(Fold, TwoLeavesBindChainFields) {
  Fixture fx;
  const RoundResult round = fx.unfolded_round(2);
  FoldOptions options;
  options.leaf_sketches = round.shard_sketches;
  auto folded = fold_receipts(Fixture::leaves_of(round), options);
  ASSERT_TRUE(folded.ok()) << folded.error().to_string();
  EXPECT_EQ(folded.value().joins, 1u);

  zvm::Verifier verifier;
  ASSERT_TRUE(verify_join_receipt(verifier, folded.value().root).ok());
  const JoinJournal& j = folded.value().journal;
  EXPECT_EQ(j.height, 1u);
  EXPECT_EQ(j.leaf_count, 2u);
  ASSERT_EQ(j.links.size(), 2u);
  u64 entries = 0;
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(j.links[s].claim_digest,
              round.shard_rounds[s].receipt.claim.digest());
    EXPECT_EQ(j.links[s].new_root, round.shard_rounds[s].journal.new_root);
    entries += j.links[s].new_entry_count;
  }
  EXPECT_EQ(j.total_entries, entries);
}

TEST(Fold, FanoutShapesTree) {
  Fixture fx;
  const RoundResult round = fx.unfolded_round(5);
  const auto leaves = Fixture::leaves_of(round);

  FoldOptions binary;
  binary.fanout = 2;
  binary.leaf_sketches = round.shard_sketches;
  auto b = fold_receipts(leaves, binary);
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  // 5 -> (2,2,1-passthrough) -> (2,1-passthrough) -> 2: heights 1,2,3.
  EXPECT_EQ(b.value().journal.height, 3u);
  EXPECT_EQ(b.value().joins, 4u);

  FoldOptions wide;
  wide.fanout = 4;
  wide.leaf_sketches = round.shard_sketches;
  auto w = fold_receipts(leaves, wide);
  ASSERT_TRUE(w.ok()) << w.error().to_string();
  // 5 -> (4,1-passthrough) -> 2.
  EXPECT_EQ(w.value().journal.height, 2u);
  EXPECT_EQ(w.value().joins, 2u);

  // Both shapes agree on the leaves, whatever the grouping.
  for (auto* result : {&b, &w}) {
    EXPECT_EQ(result->value().journal.leaf_count, 5u);
    ASSERT_EQ(result->value().journal.links.size(), 5u);
    for (size_t s = 0; s < 5; ++s) {
      EXPECT_EQ(result->value().journal.links[s].claim_digest,
                leaves[s].claim.digest());
    }
  }
  // ...but the fold digest binds the shape.
  EXPECT_NE(b.value().journal.fold_digest, w.value().journal.fold_digest);
}

TEST(Fold, RootTakesCallerSealKindInteriorComposite) {
  Fixture fx;
  const RoundResult round = fx.unfolded_round(4);
  const auto leaves = Fixture::leaves_of(round);

  FoldOptions succinct;
  succinct.prove_options.seal_kind = zvm::SealKind::succinct;
  succinct.leaf_sketches = round.shard_sketches;
  auto s = fold_receipts(leaves, succinct);
  ASSERT_TRUE(s.ok()) << s.error().to_string();
  EXPECT_EQ(s.value().root.seal_kind, zvm::SealKind::succinct);

  FoldOptions composite;
  composite.prove_options.seal_kind = zvm::SealKind::composite;
  composite.leaf_sketches = round.shard_sketches;
  auto c = fold_receipts(leaves, composite);
  ASSERT_TRUE(c.ok()) << c.error().to_string();
  EXPECT_EQ(c.value().root.seal_kind, zvm::SealKind::composite);
  // Same claim either way — the seal kind is presentation, not meaning.
  EXPECT_EQ(s.value().root.claim.digest(), c.value().root.claim.digest());

  zvm::Verifier verifier;
  EXPECT_TRUE(verify_join_receipt(verifier, s.value().root).ok());
  EXPECT_TRUE(verify_join_receipt(verifier, c.value().root).ok());
}

TEST(Fold, DeterministicAcrossBackendsAndPoolWidths) {
  Fixture fx;
  const RoundResult round = fx.unfolded_round(4);
  const auto leaves = Fixture::leaves_of(round);
  FoldOptions options;
  options.leaf_sketches = round.shard_sketches;

  auto reference = fold_receipts(leaves, options);
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();
  const Bytes reference_bytes = reference.value().root.to_bytes();

  // Scalar-pinned SHA-256 backend: byte-identical seal.
  ASSERT_TRUE(
      crypto::sha256_force_backend(crypto::Sha256Backend::scalar));
  auto scalar = fold_receipts(leaves, options);
  crypto::sha256_force_backend(std::nullopt);
  ASSERT_TRUE(scalar.ok()) << scalar.error().to_string();
  EXPECT_EQ(scalar.value().root.to_bytes(), reference_bytes);

  // Single-worker pool: byte-identical seal.
  common::ThreadPool narrow(common::ThreadPool::Options{.threads = 1});
  options.pool = &narrow;
  auto pooled = fold_receipts(leaves, options);
  ASSERT_TRUE(pooled.ok()) << pooled.error().to_string();
  EXPECT_EQ(pooled.value().root.to_bytes(), reference_bytes);
}

TEST(Fold, RequiresTwoLeaves) {
  Fixture fx;
  const auto leaves = Fixture::leaves_of(fx.unfolded_round(2));
  auto one = fold_receipts(std::span<const zvm::Receipt>(leaves.data(), 1));
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(one.error().code, Errc::invalid_argument);
}

// ---------------------------------------------------------------------------
// Soundness negatives.

TEST(JoinSoundness, ForgedChildWithoutReceiptFails) {
  Fixture fx;
  const auto leaves = Fixture::leaves_of(fx.unfolded_round(2));
  Writer input;
  input.u32v(2);
  for (const auto& leaf : leaves) write_join_child(input, leaf);
  // No assumption receipts supplied: the guest's verify_assumption for the
  // children cannot be discharged.
  zvm::Prover prover;
  auto receipt = prover.prove(join_image(), input.bytes(), {}, nullptr);
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.error().code, Errc::proof_invalid);
}

TEST(JoinSoundness, TamperedChildJournalFails) {
  Fixture fx;
  auto leaves = Fixture::leaves_of(fx.unfolded_round(2));
  // Tamper shard 1's claimed sub-root after proving: the join guest
  // re-hashes the journal against the (assumption-verified) claim.
  auto parsed = AggJournal::parse(leaves[1].journal);
  ASSERT_TRUE(parsed.ok());
  parsed.value().new_root.bytes[0] ^= 0xFF;
  Writer w;
  parsed.value().write(w);
  leaves[1].journal = std::move(w).take();
  auto folded = fold_receipts(leaves);
  ASSERT_FALSE(folded.ok());
  // Caught either by the host's assumption-receipt validation
  // (proof_invalid) or by the guest's journal-hash assert (guest_abort) —
  // both are terminal verification failures.
  EXPECT_TRUE(folded.error().code == Errc::proof_invalid ||
              folded.error().code == Errc::guest_abort)
      << folded.error().to_string();
}

TEST(JoinSoundness, WrongChildKindTagFails) {
  Fixture fx;
  const auto leaves = Fixture::leaves_of(fx.unfolded_round(2));
  // Claim an aggregation receipt is a join child: bind_receipt's image
  // check must fire.
  Writer input;
  input.u32v(2);
  write_join_child(input, leaves[0]);
  input.u8v(kJoinChildJoin);
  leaves[1].claim.serialize(input);
  input.blob(leaves[1].journal);
  zvm::ProveOptions options;
  options.assumptions = {leaves[0], leaves[1]};
  zvm::Prover prover;
  auto receipt = prover.prove(join_image(), input.bytes(), options, nullptr);
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.error().code, Errc::guest_abort);
}

TEST(JoinSoundness, TamperedSealRejected) {
  Fixture fx;
  const RoundResult round = fx.unfolded_round(2);
  const auto leaves = Fixture::leaves_of(round);
  FoldOptions options;
  options.leaf_sketches = round.shard_sketches;
  auto folded = fold_receipts(leaves, options);
  ASSERT_TRUE(folded.ok());
  zvm::Verifier verifier;

  // Journal tamper: claimed total_entries inflated.
  auto doctored = folded.value().root;
  auto journal = JoinJournal::parse(doctored.journal);
  ASSERT_TRUE(journal.ok());
  journal.value().total_entries += 100;
  Writer w;
  journal.value().write(w);
  doctored.journal = std::move(w).take();
  EXPECT_FALSE(verify_join_receipt(verifier, doctored).ok());

  // Image forgery: an aggregation receipt is not a join receipt.
  EXPECT_FALSE(verify_join_receipt(verifier, leaves[0]).ok());
}

TEST(JoinSoundness, SwappedChildrenChangeFoldDigestAndFailAudit) {
  Fixture fx;
  ShardedAggregationService service(fx.board, ShardedOptions{.shard_count = 2});
  auto round = service.aggregate({fx.committed(0, 1, 24)});
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  auto leaves = Fixture::leaves_of(round.value());
  std::vector<netflow::RoundSketch> sketches = round.value().shard_sketches;

  FoldOptions options;
  options.leaf_sketches = sketches;
  auto in_order = fold_receipts(leaves, options);
  ASSERT_TRUE(in_order.ok());
  // Swapping children must swap their sketches too — each child's sketch
  // bytes are authenticated against the digest its own journal chained.
  std::swap(leaves[0], leaves[1]);
  std::swap(sketches[0], sketches[1]);
  auto swapped = fold_receipts(leaves, options);
  ASSERT_TRUE(swapped.ok());
  // The fold digest (and thus the claim) binds child order.
  EXPECT_NE(in_order.value().journal.fold_digest,
            swapped.value().journal.fold_digest);
  EXPECT_NE(in_order.value().root.claim.digest(),
            swapped.value().root.claim.digest());

  // A swapped-order seal is a VALID join receipt — but its leaf positions
  // no longer match the shards, so the auditor rejects the round.
  zvm::Verifier verifier;
  ASSERT_TRUE(verify_join_receipt(verifier, swapped.value().root).ok());
  RoundResult forged = round.value();
  forged.shard_rounds.clear();  // seal-only round, nothing else to cross-check
  forged.tree_seal = swapped.value().root;
  ShardedAuditor reject(fx.board, 2);
  EXPECT_FALSE(reject.accept_round(forged).ok());

  // The in-order seal (same shard receipts) is accepted.
  RoundResult sealed = round.value();
  sealed.shard_rounds.clear();
  sealed.tree_seal = in_order.value().root;
  ShardedAuditor accept(fx.board, 2);
  auto accepted = accept.accept_round(sealed);
  EXPECT_TRUE(accepted.ok()) << accepted.to_string();
}

TEST(JoinSoundness, SealFromForeignReceiptsRejected) {
  // A seal folded from a DIFFERENT (also-valid) round must not audit in
  // place of this round's seal: its links don't chain from this auditor's
  // state / split outputs.
  Fixture fx;
  ShardedAggregationService service(
      fx.board, ShardedOptions{.shard_count = 2});
  auto round1 = service.aggregate({fx.committed(0, 1, 24)});
  ASSERT_TRUE(round1.ok());
  auto round2 = service.aggregate({fx.committed(0, 2, 24)});
  ASSERT_TRUE(round2.ok());

  ShardedAuditor auditor(fx.board, 2);
  ASSERT_TRUE(auditor.accept_round(round1.value()).ok());
  // Replay round 2's split receipts with round 1's seal: chain mismatch.
  RoundResult forged = round2.value();
  forged.shard_rounds.clear();
  forged.tree_seal = round1.value().tree_seal;
  EXPECT_FALSE(auditor.accept_round(forged).ok());
  // The genuine round 2 still audits.
  auto accepted = auditor.accept_round(round2.value());
  EXPECT_TRUE(accepted.ok()) << accepted.to_string();
  EXPECT_EQ(auditor.rounds_accepted(), 2u);
}

}  // namespace
}  // namespace zkt::core
