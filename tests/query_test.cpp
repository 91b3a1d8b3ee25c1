// Query model tests: field extraction, predicate semantics (CNF), the
// reference evaluator, serialization, and SQL-ish printing.
#include <gtest/gtest.h>

#include "core/query.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;

FlowRecord entry(u32 src, u32 dst, u8 proto, u64 packets, u64 hop_sum,
                 u64 rtt_avg_us) {
  FlowRecord rec;
  rec.key = {src, dst, 1000, 443, proto};
  rec.first_ms = 100;
  rec.last_ms = 1100;
  rec.packets = packets;
  rec.bytes = packets * 1000;
  rec.hop_count_sum = hop_sum;
  rec.rtt_sum_us = rtt_avg_us * 4;
  rec.rtt_count = 4;
  rec.rtt_max_us = rtt_avg_us * 2;
  rec.jitter_sum_us = 300;
  rec.jitter_count = 3;
  return rec;
}

TEST(ExtractField, AllFields) {
  const FlowRecord e = entry(0xAABBCCDD, 0x01020304, 6, 10, 55, 20'000);
  EXPECT_EQ(extract_field(e, QField::src_ip), 0xAABBCCDDu);
  EXPECT_EQ(extract_field(e, QField::dst_ip), 0x01020304u);
  EXPECT_EQ(extract_field(e, QField::src_port), 1000u);
  EXPECT_EQ(extract_field(e, QField::dst_port), 443u);
  EXPECT_EQ(extract_field(e, QField::protocol), 6u);
  EXPECT_EQ(extract_field(e, QField::packets), 10u);
  EXPECT_EQ(extract_field(e, QField::bytes), 10'000u);
  EXPECT_EQ(extract_field(e, QField::hop_sum), 55u);
  EXPECT_EQ(extract_field(e, QField::rtt_sum_us), 80'000u);
  EXPECT_EQ(extract_field(e, QField::rtt_count), 4u);
  EXPECT_EQ(extract_field(e, QField::rtt_max_us), 40'000u);
  EXPECT_EQ(extract_field(e, QField::jitter_sum_us), 300u);
  EXPECT_EQ(extract_field(e, QField::jitter_count), 3u);
  EXPECT_EQ(extract_field(e, QField::first_ms), 100u);
  EXPECT_EQ(extract_field(e, QField::last_ms), 1100u);
  EXPECT_EQ(extract_field(e, QField::duration_ms), 1000u);
  EXPECT_EQ(extract_field(e, QField::rtt_avg_us), 20'000u);
  EXPECT_EQ(extract_field(e, QField::jitter_avg_us), 100u);
}

TEST(ExtractField, AvgWithZeroCountIsZero) {
  FlowRecord e;
  EXPECT_EQ(extract_field(e, QField::rtt_avg_us), 0u);
  EXPECT_EQ(extract_field(e, QField::jitter_avg_us), 0u);
  EXPECT_EQ(extract_field(e, QField::duration_ms), 0u);
}

struct CmpCase {
  CmpOp op;
  u64 field_value;
  u64 cond_value;
  bool expect;
};

class CmpSemantics : public ::testing::TestWithParam<CmpCase> {};

TEST_P(CmpSemantics, Case) {
  const auto& c = GetParam();
  FlowRecord e;
  e.packets = c.field_value;
  Query q = Query::count().and_where(QField::packets, c.op, c.cond_value);
  EXPECT_EQ(matches(q, e), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CmpSemantics,
    ::testing::Values(CmpCase{CmpOp::eq, 5, 5, true},
                      CmpCase{CmpOp::eq, 5, 6, false},
                      CmpCase{CmpOp::ne, 5, 6, true},
                      CmpCase{CmpOp::ne, 5, 5, false},
                      CmpCase{CmpOp::lt, 4, 5, true},
                      CmpCase{CmpOp::lt, 5, 5, false},
                      CmpCase{CmpOp::le, 5, 5, true},
                      CmpCase{CmpOp::le, 6, 5, false},
                      CmpCase{CmpOp::gt, 6, 5, true},
                      CmpCase{CmpOp::gt, 5, 5, false},
                      CmpCase{CmpOp::ge, 5, 5, true},
                      CmpCase{CmpOp::ge, 4, 5, false}));

TEST(Predicate, EmptyWhereMatchesAll) {
  EXPECT_TRUE(matches(Query::count(), entry(1, 2, 6, 1, 1, 1)));
}

TEST(Predicate, AndSemantics) {
  Query q = Query::count()
                .and_where(QField::protocol, CmpOp::eq, 6)
                .and_where(QField::packets, CmpOp::gt, 5);
  EXPECT_TRUE(matches(q, entry(1, 2, 6, 10, 1, 1)));
  EXPECT_FALSE(matches(q, entry(1, 2, 17, 10, 1, 1)));
  EXPECT_FALSE(matches(q, entry(1, 2, 6, 5, 1, 1)));
}

TEST(Predicate, OrClauseSemantics) {
  // protocol == 6 OR protocol == 17
  Query q = Query::count().and_any({Condition{QField::protocol, CmpOp::eq, 6},
                                    Condition{QField::protocol, CmpOp::eq, 17}});
  EXPECT_TRUE(matches(q, entry(1, 2, 6, 1, 1, 1)));
  EXPECT_TRUE(matches(q, entry(1, 2, 17, 1, 1, 1)));
  EXPECT_FALSE(matches(q, entry(1, 2, 1, 1, 1, 1)));
}

TEST(Predicate, CnfCombination) {
  // (proto=6 OR proto=17) AND packets >= 10.
  Query q = Query::count()
                .and_any({Condition{QField::protocol, CmpOp::eq, 6},
                          Condition{QField::protocol, CmpOp::eq, 17}})
                .and_where(QField::packets, CmpOp::ge, 10);
  EXPECT_TRUE(matches(q, entry(1, 2, 17, 10, 1, 1)));
  EXPECT_FALSE(matches(q, entry(1, 2, 17, 9, 1, 1)));
  EXPECT_FALSE(matches(q, entry(1, 2, 1, 10, 1, 1)));
}

TEST(Evaluate, AggregatesAllKinds) {
  std::vector<FlowRecord> entries = {
      entry(1, 9, 6, 10, 50, 1000),   // match
      entry(2, 9, 6, 20, 30, 2000),   // match
      entry(3, 9, 17, 99, 99, 3000),  // no (protocol)
  };
  Query q = Query::sum(QField::packets)
                .and_where(QField::protocol, CmpOp::eq, 6);
  const QueryResult r = evaluate_query(q, entries);
  EXPECT_EQ(r.scanned, 3u);
  EXPECT_EQ(r.matched, 2u);
  EXPECT_EQ(r.sum, 30u);
  EXPECT_EQ(r.min, 10u);
  EXPECT_EQ(r.max, 20u);
  EXPECT_EQ(r.value(AggKind::count), 2u);
  EXPECT_EQ(r.value(AggKind::sum), 30u);
  EXPECT_EQ(r.value(AggKind::min), 10u);
  EXPECT_EQ(r.value(AggKind::max), 20u);
}

TEST(Evaluate, NoMatches) {
  std::vector<FlowRecord> entries = {entry(1, 9, 6, 10, 50, 1000)};
  Query q = Query::sum(QField::packets)
                .and_where(QField::protocol, CmpOp::eq, 99);
  const QueryResult r = evaluate_query(q, entries);
  EXPECT_EQ(r.matched, 0u);
  EXPECT_EQ(r.sum, 0u);
  EXPECT_EQ(r.value(AggKind::min), 0u);  // min of empty set reported as 0
  EXPECT_EQ(r.value(AggKind::max), 0u);
}

TEST(Evaluate, EmptyState) {
  const QueryResult r = evaluate_query(Query::count(), {});
  EXPECT_EQ(r.scanned, 0u);
  EXPECT_EQ(r.matched, 0u);
}

TEST(QuerySerial, RoundTrip) {
  Query q = Query::max(QField::rtt_avg_us)
                .and_where(QField::src_ip, CmpOp::eq, 0x01010101)
                .and_any({Condition{QField::protocol, CmpOp::eq, 6},
                          Condition{QField::protocol, CmpOp::eq, 17}});
  const Bytes wire = q.to_bytes();
  Reader r(wire);
  auto parsed = Query::deserialize(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(parsed.value().digest(), q.digest());
  EXPECT_EQ(parsed.value().agg, AggKind::max);
  EXPECT_EQ(parsed.value().agg_field, QField::rtt_avg_us);
  ASSERT_EQ(parsed.value().where.size(), 2u);
  EXPECT_EQ(parsed.value().where[1].size(), 2u);
}

TEST(QuerySerial, DigestDistinguishesQueries) {
  Query a = Query::sum(QField::packets);
  Query b = Query::sum(QField::bytes);
  Query c = Query::count();
  Query d = Query::sum(QField::packets).and_where(QField::protocol, CmpOp::eq, 6);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(a.digest(), d.digest());
}

TEST(QuerySerial, RejectsMalformed) {
  Reader empty({});
  EXPECT_FALSE(Query::deserialize(empty).ok());

  // Bad field id.
  Writer w;
  w.str("QRYAST1");
  w.varint(1);
  w.varint(1);
  w.u8v(200);  // field out of range
  w.u8v(1);
  w.u64v(0);
  w.u8v(1);
  w.u8v(1);
  Reader r(w.bytes());
  EXPECT_FALSE(Query::deserialize(r).ok());

  // Empty OR-clause (vacuously false) is rejected as malformed.
  Writer w2;
  w2.str("QRYAST1");
  w2.varint(1);
  w2.varint(0);
  w2.u8v(1);
  w2.u8v(1);
  Reader r2(w2.bytes());
  EXPECT_FALSE(Query::deserialize(r2).ok());
}

TEST(QuerySerial, FromBytesIsExactlyOneQuery) {
  const Query q = Query::sum(QField::bytes)
                      .and_where(QField::protocol, CmpOp::eq, 6);
  Bytes wire = q.to_bytes();
  auto parsed = Query::from_bytes(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().digest(), q.digest());
  // deserialize stops after the query; from_bytes rejects what follows.
  wire.push_back(0);
  auto trailing = Query::from_bytes(wire);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.error().code, Errc::parse_error);
}

TEST(QueryToString, SqlLikeRendering) {
  Query q = Query::sum(QField::hop_sum)
                .and_where(QField::src_ip, CmpOp::eq, 0x01010101)
                .and_where(QField::dst_ip, CmpOp::eq, 0x09090909);
  EXPECT_EQ(q.to_string(),
            "SELECT SUM(hop_sum) FROM clogs WHERE src_ip = 1.1.1.1 AND "
            "dst_ip = 9.9.9.9");
  EXPECT_EQ(Query::count().to_string(), "SELECT COUNT(*) FROM clogs");
}

}  // namespace
}  // namespace zkt::core
