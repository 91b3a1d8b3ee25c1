// Property tests for the paper's central security claim (§5): ANY
// modification of committed data — a single bit flip anywhere in an RLog
// batch, any byte of a receipt, any entry of the aggregated state — must
// make proof generation or verification fail.
#include <gtest/gtest.h>

#include "core/auditor.h"
#include "core/service.h"

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
    pkt.key = {0x0A000000 + f, 0x09090909, static_cast<u16>(1000 + f), 443, 6};
    pkt.timestamp_ms = window * 5000 + f;
    pkt.bytes = 500 + f;
    pkt.hop_count = static_cast<u8>(f % 16);
    pkt.rtt_us = 10'000 + f * 100;
    record.observe(pkt);
    batch.records.push_back(std::move(record));
  }
  return batch;
}

// Flip one bit of the serialized batch, re-deserialize, and attempt an
// aggregation against the original commitment. Either deserialization
// rejects it or the guest's hash check aborts proving. (Parameterized over
// byte positions spread through the buffer.)
class BatchBitFlips : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchBitFlips, AnyFlipIsDetected) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("bitflip");
  RLogBatch batch = build_batch(0, 1, 10);
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 5000).value()).ok());

  Bytes wire = batch.canonical_bytes();
  const size_t pos = GetParam() % wire.size();
  wire[pos] ^= 0x01;

  Reader r(wire);
  auto tampered = RLogBatch::deserialize(r);
  if (!tampered.ok() || !r.done()) {
    SUCCEED() << "flip broke framing, rejected at parse";
    return;
  }
  AggregationService service(board);
  auto round = service.aggregate({std::move(tampered.value())});
  if (round.ok()) {
    // The only acceptable success: the flip did not survive canonical
    // re-serialization (e.g. a non-canonical varint), so the data equals the
    // committed original.
    EXPECT_EQ(tampered.value().canonical_bytes(), batch.canonical_bytes());
  } else {
    SUCCEED();
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, BatchBitFlips,
                         ::testing::Values(0, 1, 3, 7, 17, 43, 101, 211, 307,
                                           401, 503, 601, 701, 797, 887, 997));

// Flip one byte of the serialized aggregation receipt: parsing or
// verification must fail (or the byte is outside any checked field AND the
// re-serialized receipt is identical — impossible for a canonical format,
// but we assert it explicitly).
class ReceiptByteFlips : public ::testing::TestWithParam<size_t> {};

TEST_P(ReceiptByteFlips, AnyFlipIsDetected) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("receiptflip");
  RLogBatch batch = build_batch(0, 1, 6);
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 5000).value()).ok());
  AggregationService service(board);
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());

  Bytes wire = round.value().receipt.to_bytes();
  const size_t pos = GetParam() % wire.size();
  wire[pos] ^= 0x01;

  auto parsed = zvm::Receipt::from_bytes(wire);
  if (!parsed.ok()) {
    SUCCEED() << "rejected at parse";
    return;
  }
  Auditor auditor(board);
  auto accepted = auditor.accept_round(parsed.value());
  if (accepted.ok()) {
    // Only acceptable if the flip round-tripped to identical bytes (a
    // non-canonical encoding that reparses to the same receipt).
    EXPECT_EQ(parsed.value().to_bytes(), round.value().receipt.to_bytes());
  } else {
    SUCCEED();
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, ReceiptByteFlips,
                         ::testing::Values(0, 2, 5, 11, 23, 47, 97, 193, 389,
                                           761, 1021, 1531));

// Tampering with the prover's CLog state between rounds: the next round's
// guest recomputes the previous root from the supplied entries and aborts.
TEST(StateTamper, ModifiedHostStateBreaksNextRound) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("stateflip");
  AggregationService service(board);
  auto batch1 = build_batch(0, 1, 5);
  ASSERT_TRUE(board.publish(make_commitment(batch1, key, 5000).value()).ok());
  ASSERT_TRUE(service.aggregate({batch1}).ok());

  // The provider "loses" its state and substitutes doctored entries by
  // constructing a fresh service with a different history, then tries to
  // continue the old chain by replaying the old receipt as its assumption.
  auto batch2 = build_batch(0, 2, 5);
  ASSERT_TRUE(board.publish(make_commitment(batch2, key, 10000).value()).ok());

  AggregateInput input;
  input.has_prev = true;
  input.prev_claim_digest = service.last_claim_digest().value();
  input.prev_root = service.state().root();
  // Tamper: inflate a counter in entry 0 (root no longer matches entries).
  std::vector<CLogEntry> doctored = service.state().entries();
  doctored[0].packets += 1000;
  input.prev_entries = doctored;
  CommitmentRef ref;
  ref.router_id = 0;
  ref.window_id = 2;
  ref.rlog_hash = batch2.hash();
  ref.record_count = batch2.records.size();
  input.batches.emplace_back(ref, batch2.canonical_bytes());

  zvm::ProveOptions options;
  options.assumptions.push_back(service.last_receipt());
  zvm::Prover prover;
  auto receipt = prover.prove(guest_images().aggregate, input.to_bytes(),
                              options);
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.error().code, Errc::guest_abort);
}

// Feeding a different batch than committed (same size, different content).
TEST(StateTamper, SubstitutedBatchDetected) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("substitution");
  auto real = build_batch(0, 1, 8);
  ASSERT_TRUE(board.publish(make_commitment(real, key, 5000).value()).ok());

  auto fake = build_batch(0, 1, 8);
  fake.records[3].rtt_sum_us /= 2;  // the lie

  AggregationService service(board);
  auto round = service.aggregate({fake});
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.error().code, Errc::guest_abort);
}

// The selective query guest must reject non-matching opened entries and
// double-opened entries, which a dishonest prover could otherwise use to
// skew aggregates.
TEST(QueryTamper, SelectiveCannotIncludeNonMatchingEntry) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("sel-nonmatch");
  auto batch = build_batch(0, 1, 6);
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 5000).value()).ok());
  AggregationService service(board);
  ASSERT_TRUE(service.aggregate({batch}).ok());

  // Query matching ~half the entries.
  const Query q = Query::sum(QField::bytes)
                      .and_where(QField::src_port, CmpOp::lt, 1003);
  SelectiveQueryInput input;
  input.query = q;
  // Open ALL entries, including non-matching ones.
  std::vector<u64> indices;
  for (u64 i = 0; i < service.state().entry_count(); ++i) {
    SelectiveQueryInput::OpenedEntry opened;
    opened.index = i;
    opened.entry = service.state().entry(i).canonical_bytes();
    input.opened.push_back(std::move(opened));
    indices.push_back(i);
  }
  input.proof = service.state().prove_multi(indices).value();
  auto receipt = prove_on_round<QueryResponse>(
      guest_images().query_selective, service.last_receipt(),
      [&](Writer& w) { input.write(w); }, {});
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.error().code, Errc::guest_abort);
}

TEST(QueryTamper, SelectiveCannotDoubleCount) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("sel-double");
  auto batch = build_batch(0, 1, 4);
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 5000).value()).ok());
  AggregationService service(board);
  ASSERT_TRUE(service.aggregate({batch}).ok());

  const Query q = Query::sum(QField::bytes);
  SelectiveQueryInput input;
  input.query = q;
  for (int dup = 0; dup < 2; ++dup) {
    SelectiveQueryInput::OpenedEntry opened;
    opened.index = 0;
    opened.entry = service.state().entry(0).canonical_bytes();
    input.opened.push_back(std::move(opened));
  }
  // A multiproof cannot even express a duplicated index (it deduplicates);
  // the guest's alignment/ascension asserts must catch the mismatch.
  input.proof = service.state().prove_multi(std::vector<u64>{0}).value();
  auto receipt = prove_on_round<QueryResponse>(
      guest_images().query_selective, service.last_receipt(),
      [&](Writer& w) { input.write(w); }, {});
  ASSERT_FALSE(receipt.ok());
}

TEST(QueryTamper, SelectiveCannotUseForeignEntry) {
  // Opening an entry (with a valid-looking proof) from a DIFFERENT state
  // must fail the Merkle check against the queried root.
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("sel-foreign");
  auto batch = build_batch(0, 1, 4);
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 5000).value()).ok());
  AggregationService service(board);
  ASSERT_TRUE(service.aggregate({batch}).ok());

  // A second, unrelated state with different counters.
  CLogState foreign;
  auto other = build_batch(0, 9, 4);
  other.records[0].bytes *= 100;
  ASSERT_TRUE(foreign.commit(foreign.plan(other.records)).ok());

  const Query q = Query::sum(QField::bytes);
  SelectiveQueryInput input;
  input.query = q;
  SelectiveQueryInput::OpenedEntry opened;
  opened.index = 0;
  opened.entry = foreign.entry(0).canonical_bytes();
  input.opened.push_back(std::move(opened));
  input.proof = foreign.prove_multi(std::vector<u64>{0}).value();

  auto receipt = prove_on_round<QueryResponse>(
      guest_images().query_selective, service.last_receipt(),
      [&](Writer& w) { input.write(w); }, {});
  ASSERT_FALSE(receipt.ok());
}

}  // namespace
}  // namespace zkt::core
