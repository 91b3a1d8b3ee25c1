// Grouped verifiable query tests: guest vs reference equivalence, journal
// round-trips, verification, and tamper rejection.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/auditor.h"
#include "core/service.h"
#include "sim/workload.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

struct Fixture {
  CommitmentBoard board;
  AggregationService service{board};
  QueryService queries{service};
  Auditor auditor{board};

  explicit Fixture(u64 seed, u32 flows) {
    const auto key = crypto::schnorr_keygen_from_seed(
        "grouped-" + std::to_string(seed));
    Xoshiro256 rng(seed);
    RLogBatch batch;
    batch.router_id = 0;
    batch.window_id = 1;
    for (u32 f = 0; f < flows; ++f) {
      FlowRecord record;
      PacketObservation pkt;
      pkt.key = sim::synth_flow_key(f, seed);
      pkt.timestamp_ms = 1000 + f;
      pkt.bytes = 200 + static_cast<u32>(rng.uniform(1200));
      pkt.hop_count = static_cast<u8>(1 + rng.uniform(10));
      pkt.rtt_us = static_cast<u32>(5'000 + rng.uniform(60'000));
      record.observe(pkt);
      batch.records.push_back(std::move(record));
    }
    EXPECT_TRUE(
        board.publish(make_commitment(batch, key, 5000).value()).ok());
    auto round = service.aggregate({batch});
    EXPECT_TRUE(round.ok());
    EXPECT_TRUE(auditor.accept_round(round.value().receipt).ok());
  }
};

TEST(GroupedJournal, RoundTrip) {
  GroupedQueryJournal j;
  j.agg_claim_digest = crypto::sha256(std::string_view("claim"));
  j.agg_root = crypto::sha256(std::string_view("root"));
  j.entry_count = 7;
  j.query = Query::sum(QField::bytes);
  j.group_field = QField::protocol;
  j.groups = {{6, {5, 5, 1000, 10, 500}}, {17, {2, 2, 300, 100, 200}}};
  Writer w;
  j.write(w);
  auto parsed = GroupedQueryJournal::parse(w.bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().groups, j.groups);
  EXPECT_EQ(parsed.value().group_field, QField::protocol);
}

class GroupedQueries : public ::testing::TestWithParam<u64> {};

TEST_P(GroupedQueries, GuestMatchesReference) {
  Fixture fx(GetParam(), 40);
  struct Case {
    Query query;
    QField group;
  };
  const Case cases[] = {
      {Query::sum(QField::bytes), QField::protocol},
      {Query::count(), QField::dst_port},
      {Query::sum(QField::packets).and_where(QField::rtt_avg_us, CmpOp::lt,
                                             40'000),
       QField::protocol},
      {Query::max(QField::rtt_max_us), QField::hop_sum},
  };
  for (const auto& [query, group] : cases) {
    const auto reference =
        evaluate_grouped(query, group, fx.service.state().entries());
    auto response = fx.queries.grouped(query, group);
    ASSERT_TRUE(response.ok()) << response.error().to_string();
    EXPECT_EQ(response.value().journal.groups, reference);

    auto verified = fx.auditor.verify_grouped(
        response.value().receipt, {.expected_query = &query}, group);
    ASSERT_TRUE(verified.ok()) << verified.error().to_string();
    EXPECT_EQ(verified.value().groups, reference);

    // Group order is ascending and totals match an ungrouped run.
    u64 total_matched = 0;
    for (size_t i = 0; i < verified.value().groups.size(); ++i) {
      if (i > 0) {
        EXPECT_GT(verified.value().groups[i].group_value,
                  verified.value().groups[i - 1].group_value);
      }
      total_matched += verified.value().groups[i].stats.matched;
    }
    EXPECT_EQ(total_matched,
              evaluate_query(query, fx.service.state().entries()).matched);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedQueries, ::testing::Values(1, 2));

TEST(GroupedQuery, EmptyResultForNoMatches) {
  Fixture fx(3, 10);
  Query q = Query::count().and_where(QField::protocol, CmpOp::eq, 200);
  auto response = fx.queries.grouped(q, QField::protocol);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().journal.groups.empty());
  EXPECT_TRUE(fx.auditor.verify_grouped(response.value().receipt).ok());
}

TEST(GroupedQuery, DoctoredGroupRejected) {
  Fixture fx(4, 20);
  Query q = Query::sum(QField::bytes);
  auto response = fx.queries.grouped(q, QField::protocol);
  ASSERT_TRUE(response.ok());
  ASSERT_FALSE(response.value().journal.groups.empty());

  auto forged = response.value().receipt;
  GroupedQueryJournal j = response.value().journal;
  j.groups[0].stats.sum /= 2;
  Writer w;
  j.write(w);
  forged.journal = std::move(w).take();
  EXPECT_FALSE(fx.auditor.verify_grouped(forged, {.expected_query = &q}).ok());
}

TEST(GroupedQuery, WrongGroupFieldRejected) {
  Fixture fx(5, 20);
  Query q = Query::count();
  auto response = fx.queries.grouped(q, QField::protocol);
  ASSERT_TRUE(response.ok());
  auto verified = fx.auditor.verify_grouped(
      response.value().receipt, {.expected_query = &q}, QField::dst_port);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, Errc::proof_invalid);
}

TEST(GroupedQuery, SelectiveModeRejected) {
  Fixture fx(7, 10);
  QueryOptions selective;
  selective.mode = QueryMode::selective;
  auto response = fx.queries.grouped(Query::count(), QField::protocol,
                                     selective);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, Errc::invalid_argument);
}

TEST(GroupedQuery, UnacceptedRoundRejected) {
  Fixture fx(6, 15);
  Query q = Query::count();
  auto response = fx.queries.grouped(q, QField::protocol);
  ASSERT_TRUE(response.ok());
  Auditor fresh(fx.board);  // accepted nothing
  auto verified =
      fresh.verify_grouped(response.value().receipt, {.expected_query = &q});
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, Errc::chain_broken);
}

}  // namespace
}  // namespace zkt::core
