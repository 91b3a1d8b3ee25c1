// Chain-summary tests: one receipt standing for a whole chain, fast auditor
// sync, and rejection of every way to forge a summary.
#include <gtest/gtest.h>

#include "core/chain_summary.h"
#include "core/epoch.h"
#include "core/service.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

struct Fixture {
  CommitmentBoard board;
  AggregationService service{board};
  std::vector<zvm::Receipt> rounds;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("chain-sum");

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
  }
};

TEST(ChainSummary, SummarizesAndFastSyncs) {
  Fixture fx;
  fx.run_round(1, {1, 2});
  fx.run_round(2, {1, 3});
  fx.run_round(3, {4});

  auto summary = prove_epoch_span(fx.rounds);
  ASSERT_TRUE(summary.ok()) << summary.error().to_string();
  EXPECT_EQ(summary.value().journal.rounds, 3u);
  EXPECT_EQ(summary.value().journal.final_root, fx.service.state().root());
  EXPECT_EQ(summary.value().journal.final_entry_count, 4u);
  EXPECT_EQ(summary.value().journal.final_claim_digest,
            fx.service.last_claim_digest().value());
  EXPECT_EQ(summary.value().journal.commitment_count, 3u);
  EXPECT_EQ(summary.value().commitments.size(), 3u);
  EXPECT_TRUE(summary.value().journal.genesis);

  // One verification replaces replaying all three rounds. The out-of-band
  // ref list must reproduce the journal's commitment-chain digest.
  auto verified = verify_chain_summary(zvm::Verifier{}, summary.value().receipt,
                                       summary.value().commitments);
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();

  // A fresh auditor catches up through a one-seal genesis ladder, then
  // continues the live chain.
  EpochSeal seal;
  seal.rounds = summary.value().journal.rounds;
  seal.receipt = summary.value().receipt;
  seal.journal = summary.value().journal;
  seal.commitments = summary.value().commitments;
  Auditor auditor(fx.board);
  auto caught = auditor.catch_up(std::span<const EpochSeal>(&seal, 1), {});
  ASSERT_TRUE(caught.ok()) << caught.error().to_string();
  EXPECT_EQ(auditor.rounds_accepted(), 3u);
  EXPECT_EQ(auditor.current_root(), fx.service.state().root());

  fx.run_round(4, {5});
  ASSERT_TRUE(auditor.accept_round(fx.rounds.back()).ok());
  EXPECT_EQ(auditor.rounds_accepted(), 4u);

  // Queries against the caught-up chain verify too.
  QueryService queries(fx.service);
  auto resp = queries.run(Query::count());
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(auditor.verify_query(resp.value().receipt).ok());
}

TEST(ChainSummary, SingleRoundChain) {
  Fixture fx;
  fx.run_round(1, {1});
  auto summary = prove_epoch_span(fx.rounds);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(verify_chain_summary(zvm::Verifier{}, summary.value().receipt,
                                   summary.value().commitments)
                  .ok());
}

TEST(ChainSummary, RejectsGappedChain) {
  Fixture fx;
  fx.run_round(1, {1});
  fx.run_round(2, {2});
  fx.run_round(3, {3});
  // Drop the middle round: the in-guest chain-link check must abort.
  std::vector<zvm::Receipt> gapped = {fx.rounds[0], fx.rounds[2]};
  auto summary = prove_epoch_span(gapped);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.error().code, Errc::guest_abort);
}

TEST(ChainSummary, RejectsReorderedChain) {
  Fixture fx;
  fx.run_round(1, {1});
  fx.run_round(2, {2});
  std::vector<zvm::Receipt> reordered = {fx.rounds[1], fx.rounds[0]};
  EXPECT_FALSE(prove_epoch_span(reordered).ok());
}

TEST(ChainSummary, RejectsChainNotStartingAtGenesis) {
  Fixture fx;
  fx.run_round(1, {1});
  fx.run_round(2, {2});
  std::vector<zvm::Receipt> tail = {fx.rounds[1]};
  EXPECT_FALSE(prove_epoch_span(tail).ok());
}

TEST(ChainSummary, ForeignBoardRejectedAtVerification) {
  Fixture fx;
  fx.run_round(1, {1});
  auto summary = prove_epoch_span(fx.rounds);
  ASSERT_TRUE(summary.ok());
  EpochSeal seal;
  seal.rounds = summary.value().journal.rounds;
  seal.receipt = summary.value().receipt;
  seal.journal = summary.value().journal;
  seal.commitments = summary.value().commitments;
  CommitmentBoard other_board;
  Auditor auditor(other_board);
  auto caught = auditor.catch_up(std::span<const EpochSeal>(&seal, 1), {});
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.error().code, Errc::commitment_missing);
  EXPECT_EQ(auditor.rounds_accepted(), 0u);
}

TEST(ChainSummary, DoctoredJournalRejected) {
  Fixture fx;
  fx.run_round(1, {1});
  auto summary = prove_epoch_span(fx.rounds);
  ASSERT_TRUE(summary.ok());
  auto forged = summary.value().receipt;
  ChainSummaryJournal j = summary.value().journal;
  j.final_entry_count += 10;
  Writer w;
  j.write(w);
  forged.journal = std::move(w).take();
  EXPECT_FALSE(verify_chain_summary(zvm::Verifier{}, forged,
                                    summary.value().commitments)
                   .ok());
}

}  // namespace
}  // namespace zkt::core
