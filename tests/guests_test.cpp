// Guest-level tests: journal schema round-trips, traced Merkle equivalence,
// guest-vs-host aggregation equivalence over randomized workloads, and
// complete-vs-selective query equivalence.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/auditor.h"
#include "core/guests.h"
#include "core/service.h"
#include "sim/workload.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

TEST(AggJournal, RoundTrip) {
  AggJournal j;
  j.has_prev = true;
  j.prev_claim_digest = crypto::sha256(std::string_view("claim"));
  j.prev_root = crypto::sha256(std::string_view("prev"));
  j.new_root = crypto::sha256(std::string_view("new"));
  j.prev_entry_count = 10;
  j.new_entry_count = 12;
  j.commitments = {{1, 2, crypto::sha256(std::string_view("c1")), 3},
                   {4, 5, crypto::sha256(std::string_view("c2")), 6}};
  j.update_count = 2;
  j.updates_digest = crypto::sha256(std::string_view("updates"));

  Writer w;
  j.write(w);
  auto parsed = AggJournal::parse(w.bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().has_prev, j.has_prev);
  EXPECT_EQ(parsed.value().prev_claim_digest, j.prev_claim_digest);
  EXPECT_EQ(parsed.value().prev_root, j.prev_root);
  EXPECT_EQ(parsed.value().new_root, j.new_root);
  EXPECT_EQ(parsed.value().prev_entry_count, 10u);
  EXPECT_EQ(parsed.value().new_entry_count, 12u);
  EXPECT_EQ(parsed.value().commitments, j.commitments);
  EXPECT_EQ(parsed.value().update_count, 2u);
  EXPECT_EQ(parsed.value().updates_digest, j.updates_digest);
}

TEST(CommitmentRefSchema, KindTagRoundTripAndRejection) {
  CommitmentRef ref{7, 42, crypto::sha256(std::string_view("batch")), 100};
  ASSERT_EQ(ref.kind, CommitmentKind::rlog);
  Writer w;
  write_commitment_ref(w, ref);
  {
    Reader r(w.bytes());
    auto parsed = parse_commitment_ref(r);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    EXPECT_EQ(parsed.value(), ref);
    EXPECT_TRUE(r.done());
  }
  // Every other kind byte — 1 was the retired router-sketch space — is a
  // parse error, not a silent reinterpretation.
  for (u8 tag : {u8{1}, u8{2}, u8{255}}) {
    Writer bad;
    bad.u8v(tag);
    bad.u32v(ref.router_id);
    bad.u64v(ref.window_id);
    bad.fixed(ref.rlog_hash.bytes);
    bad.u64v(ref.record_count);
    Reader r(bad.bytes());
    auto parsed = parse_commitment_ref(r);
    ASSERT_FALSE(parsed.ok()) << "tag " << int(tag);
    EXPECT_EQ(parsed.error().code, Errc::parse_error);
    EXPECT_NE(parsed.error().message.find("unknown commitment kind"),
              std::string::npos);
  }
}

TEST(AggJournal, RejectsTrailingBytes) {
  AggJournal j;
  Writer w;
  j.write(w);
  w.u8v(0);
  EXPECT_FALSE(AggJournal::parse(w.bytes()).ok());
}

TEST(QueryJournalSchema, RoundTripBothModes) {
  for (QueryMode mode : {QueryMode::complete, QueryMode::selective}) {
    QueryJournal j;
    j.mode = mode;
    j.agg_claim_digest = crypto::sha256(std::string_view("agg"));
    j.agg_root = crypto::sha256(std::string_view("root"));
    j.entry_count = 42;
    j.query = Query::sum(QField::bytes).and_where(QField::protocol,
                                                  CmpOp::eq, 6);
    j.result = {5, 42, 1000, 10, 500};

    Writer w;
    j.write(w);
    auto parsed = QueryJournal::parse(w.bytes());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().mode, mode);
    EXPECT_EQ(parsed.value().result, j.result);
    EXPECT_EQ(parsed.value().query.digest(), j.query.digest());
    EXPECT_EQ(parsed.value().entry_count, 42u);
  }
}

class TracedMerkle : public ::testing::TestWithParam<u64> {};

TEST_P(TracedMerkle, MatchesNativeTree) {
  const u64 n = GetParam();
  std::vector<crypto::Digest32> leaves;
  for (u64 i = 0; i < n; ++i) {
    leaves.push_back(crypto::MerkleTree::hash_leaf(as_bytes_view(i)));
  }
  zvm::Env env({}, {});
  const auto traced_root = merkle_root_traced(env, leaves);
  crypto::MerkleTree native(leaves);
  EXPECT_EQ(traced_root, native.root());
  if (n > 1) {
    EXPECT_GT(env.cycles(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TracedMerkle,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 33, 100));

// ---------------------------------------------------------------------------
// Randomized guest-vs-host equivalence

struct RandomWorkloadCase {
  u64 seed;
  u32 rounds;
  u32 records_per_round;
  u32 flow_universe;  // smaller -> more merges
};

class RandomizedAggregation
    : public ::testing::TestWithParam<RandomWorkloadCase> {};

TEST_P(RandomizedAggregation, GuestMatchesReferenceState) {
  const auto& param = GetParam();
  Xoshiro256 rng(param.seed);
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed(
      "rand-agg-" + std::to_string(param.seed));
  AggregationService service(board);
  Auditor auditor(board);

  // Independent reference state applying the same records without proofs.
  CLogState reference;

  for (u32 round = 0; round < param.rounds; ++round) {
    RLogBatch batch;
    batch.router_id = 0;
    batch.window_id = round + 1;
    for (u32 i = 0; i < param.records_per_round; ++i) {
      FlowRecord record;
      PacketObservation pkt;
      pkt.key = sim::synth_flow_key(rng.uniform(param.flow_universe),
                                    param.seed);
      pkt.timestamp_ms = round * 5000 + i;
      pkt.bytes = 100 + static_cast<u32>(rng.uniform(1000));
      pkt.hop_count = static_cast<u8>(1 + rng.uniform(20));
      pkt.rtt_us = static_cast<u32>(rng.uniform(100'000));
      pkt.jitter_us = static_cast<u32>(rng.uniform(5'000));
      record.observe(pkt);
      if (rng.uniform(4) == 0) {
        pkt.dropped = true;
        record.observe(pkt);
      }
      batch.records.push_back(std::move(record));
    }
    ASSERT_TRUE(
        board.publish(make_commitment(batch, key, round).value()).ok());

    auto round_result = service.aggregate({batch});
    ASSERT_TRUE(round_result.ok()) << round_result.error().to_string();
    ASSERT_TRUE(auditor.accept_round(round_result.value().receipt).ok());

    // Reference: sorted identically (single batch: original order).
    ASSERT_TRUE(reference.commit(reference.plan(batch.records)).ok());
    EXPECT_EQ(service.state().root(), reference.root());
    EXPECT_EQ(round_result.value().journal.new_root, reference.root());
    EXPECT_EQ(auditor.current_root(), reference.root());
  }
  EXPECT_EQ(auditor.rounds_accepted(), param.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RandomizedAggregation,
    ::testing::Values(RandomWorkloadCase{1, 3, 10, 8},
                      RandomWorkloadCase{2, 2, 30, 100},
                      RandomWorkloadCase{3, 4, 5, 2},
                      RandomWorkloadCase{4, 1, 50, 50}));

// ---------------------------------------------------------------------------
// Query-mode equivalence

struct QueryCase {
  u64 seed;
  Query query;
};

class QueryModes : public ::testing::TestWithParam<u64> {};

TEST_P(QueryModes, SelectiveMatchesCompleteAndReference) {
  const u64 seed = GetParam();
  Xoshiro256 rng(seed);
  CommitmentBoard board;
  const auto key =
      crypto::schnorr_keygen_from_seed("qmode-" + std::to_string(seed));

  RLogBatch batch;
  batch.router_id = 0;
  batch.window_id = 1;
  for (u32 i = 0; i < 40; ++i) {
    FlowRecord record;
    PacketObservation pkt;
    pkt.key = sim::synth_flow_key(i, seed);
    pkt.timestamp_ms = 1000 + i;
    pkt.bytes = 100 + static_cast<u32>(rng.uniform(2000));
    pkt.hop_count = static_cast<u8>(1 + rng.uniform(12));
    pkt.rtt_us = static_cast<u32>(1000 + rng.uniform(90'000));
    record.observe(pkt);
    batch.records.push_back(std::move(record));
  }
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 0).value()).ok());

  AggregationService service(board);
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());
  Auditor auditor(board);
  ASSERT_TRUE(auditor.accept_round(round.value().receipt).ok());

  QueryService queries(service);
  const Query cases[] = {
      Query::count(),
      Query::sum(QField::bytes),
      Query::count().and_where(QField::rtt_avg_us, CmpOp::lt, 50'000),
      Query::sum(QField::hop_sum).and_where(QField::protocol, CmpOp::eq, 6),
      Query::max(QField::rtt_max_us).and_where(QField::bytes, CmpOp::gt, 500),
      Query::min(QField::packets),
  };
  for (const auto& q : cases) {
    const QueryResult reference =
        evaluate_query(q, service.state().entries());
    auto complete = queries.run(q);
    ASSERT_TRUE(complete.ok()) << complete.error().to_string();
    auto selective = queries.run(q, {.mode = QueryMode::selective});
    ASSERT_TRUE(selective.ok()) << selective.error().to_string();

    // Complete mode reproduces the reference exactly.
    EXPECT_EQ(complete.value().journal.result, reference) << q.to_string();
    // Selective mode agrees on every aggregate over the matching set.
    EXPECT_EQ(selective.value().journal.result.matched, reference.matched);
    EXPECT_EQ(selective.value().journal.result.sum, reference.sum);
    if (reference.matched > 0) {
      EXPECT_EQ(selective.value().journal.result.min, reference.min);
      EXPECT_EQ(selective.value().journal.result.max, reference.max);
    }

    // Both verify, with the right modes.
    auto vc = auditor.verify_query(complete.value().receipt, {.expected_query = &q});
    ASSERT_TRUE(vc.ok()) << vc.error().to_string();
    EXPECT_EQ(vc.value().mode, QueryMode::complete);
    auto vs = auditor.verify_query(selective.value().receipt, {.expected_query = &q});
    ASSERT_TRUE(vs.ok()) << vs.error().to_string();
    EXPECT_EQ(vs.value().mode, QueryMode::selective);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryModes, ::testing::Values(11, 22, 33));

TEST(QueryModesSpecial, SelectiveWithNoMatches) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("qmode-empty");
  RLogBatch batch;
  batch.router_id = 0;
  batch.window_id = 1;
  FlowRecord record;
  PacketObservation pkt;
  pkt.key = {1, 2, 3, 4, 6};
  pkt.timestamp_ms = 1;
  pkt.bytes = 10;
  record.observe(pkt);
  batch.records.push_back(record);
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 0).value()).ok());

  AggregationService service(board);
  ASSERT_TRUE(service.aggregate({batch}).ok());
  QueryService queries(service);
  const Query q =
      Query::count().and_where(QField::protocol, CmpOp::eq, 250);
  auto resp = queries.run(q, {.mode = QueryMode::selective});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().journal.result.matched, 0u);
}

TEST(ImagesTest, FourDistinctGuests) {
  const auto& images = guest_images();
  EXPECT_NE(images.aggregate, images.query);
  EXPECT_NE(images.aggregate, images.query_selective);
  EXPECT_NE(images.query, images.query_selective);
  EXPECT_NE(images.aggregate_incremental, images.aggregate);
  EXPECT_NE(images.aggregate_incremental, images.query);
  EXPECT_NE(images.aggregate_incremental, images.query_selective);
  EXPECT_TRUE(is_aggregation_image(images.aggregate));
  EXPECT_TRUE(is_aggregation_image(images.aggregate_incremental));
  EXPECT_FALSE(is_aggregation_image(images.query));
  EXPECT_EQ(aggregation_image(RoundKind::full), images.aggregate);
  EXPECT_EQ(aggregation_image(RoundKind::incremental),
            images.aggregate_incremental);
}

TEST(AggJournal, IncrementalRoundTripCarriesDeltaStats) {
  AggJournal j;
  j.kind = RoundKind::incremental;
  j.has_prev = true;
  j.prev_claim_digest = crypto::sha256(std::string_view("claim"));
  j.prev_root = crypto::sha256(std::string_view("prev"));
  j.new_root = crypto::sha256(std::string_view("new"));
  j.prev_entry_count = 100;
  j.new_entry_count = 102;
  j.update_count = 2;
  j.updates_digest = crypto::sha256(std::string_view("updates"));
  j.touched_entries = 5;
  j.multiproof_siblings = 11;

  Writer w;
  j.write(w);
  auto parsed = AggJournal::parse(w.bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().kind, RoundKind::incremental);
  EXPECT_EQ(parsed.value().update_count, 2u);
  EXPECT_EQ(parsed.value().updates_digest, j.updates_digest);
  EXPECT_EQ(parsed.value().touched_entries, 5u);
  EXPECT_EQ(parsed.value().multiproof_siblings, 11u);

  // Full journals don't carry (or parse) the delta-stat tail.
  j.kind = RoundKind::full;
  Writer w2;
  j.write(w2);
  auto full = AggJournal::parse(w2.bytes());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().kind, RoundKind::full);
  EXPECT_EQ(full.value().touched_entries, 0u);
  EXPECT_EQ(full.value().multiproof_siblings, 0u);
}

}  // namespace
}  // namespace zkt::core
