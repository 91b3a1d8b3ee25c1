// NetFlow substrate tests: record model, IPv4 parsing, RLog batches, and
// the v9 wire format (templates, flowsets, collector behaviour).
#include <gtest/gtest.h>

#include "netflow/record.h"
#include "netflow/stats.h"
#include "netflow/v9.h"

namespace zkt::netflow {
namespace {

// ---------------------------------------------------------------------------
// IPv4

struct IpCase {
  std::string text;
  bool valid;
  u32 value;
};

class Ipv4Parse : public ::testing::TestWithParam<IpCase> {};

TEST_P(Ipv4Parse, Case) {
  const auto& c = GetParam();
  auto parsed = parse_ipv4(c.text);
  EXPECT_EQ(parsed.ok(), c.valid) << c.text;
  if (c.valid && parsed.ok()) {
    EXPECT_EQ(parsed.value(), c.value);
    EXPECT_EQ(format_ipv4(parsed.value()), c.text);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv4Parse,
    ::testing::Values(IpCase{"1.1.1.1", true, 0x01010101},
                      IpCase{"9.9.9.9", true, 0x09090909},
                      IpCase{"255.255.255.255", true, 0xFFFFFFFF},
                      IpCase{"0.0.0.0", true, 0},
                      IpCase{"10.1.2.3", true, 0x0A010203},
                      IpCase{"192.168.0.1", true, 0xC0A80001},
                      IpCase{"1.2.3", false, 0}, IpCase{"1.2.3.4.5", false, 0},
                      IpCase{"256.1.1.1", false, 0},
                      IpCase{"1..2.3", false, 0}, IpCase{"", false, 0},
                      IpCase{"a.b.c.d", false, 0},
                      IpCase{"1.2.3.04x", false, 0}));

// ---------------------------------------------------------------------------
// FlowKey / FlowRecord

TEST(FlowKey, CanonicalBytesAndOrdering) {
  const FlowKey a{1, 2, 3, 4, 6};
  const FlowKey b{1, 2, 3, 5, 6};
  EXPECT_EQ(a.canonical_bytes().size(), FlowKey::kCanonicalSize);
  EXPECT_EQ(FlowKey::kCanonicalSize, 13u);
  EXPECT_NE(a.canonical_bytes(), b.canonical_bytes());
  EXPECT_LT(a, b);
  EXPECT_EQ(a, (FlowKey{1, 2, 3, 4, 6}));
}

TEST(FlowKey, SerializationRoundTrip) {
  const FlowKey key{0xC0A80001, 0x08080808, 54321, 53, 17};
  Writer w;
  key.serialize(w);
  Reader r(w.bytes());
  auto parsed = FlowKey::deserialize(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), key);
}

TEST(FlowRecord, ObserveAccumulates) {
  FlowRecord rec;
  PacketObservation pkt;
  pkt.key = {1, 2, 3, 4, 6};
  pkt.timestamp_ms = 100;
  pkt.bytes = 500;
  pkt.hop_count = 7;
  pkt.rtt_us = 1000;
  pkt.jitter_us = 10;
  pkt.tcp_flags = 0x02;
  rec.observe(pkt);
  pkt.timestamp_ms = 300;
  pkt.rtt_us = 3000;
  pkt.tcp_flags = 0x10;
  rec.observe(pkt);

  EXPECT_EQ(rec.packets, 2u);
  EXPECT_EQ(rec.bytes, 1000u);
  EXPECT_EQ(rec.first_ms, 100u);
  EXPECT_EQ(rec.last_ms, 300u);
  EXPECT_EQ(rec.hop_count_sum, 14u);
  EXPECT_EQ(rec.rtt_sum_us, 4000u);
  EXPECT_EQ(rec.rtt_count, 2u);
  EXPECT_EQ(rec.rtt_max_us, 3000u);
  EXPECT_EQ(rec.tcp_flags_or, 0x12);
  EXPECT_DOUBLE_EQ(avg_rtt_us(rec), 2000.0);
}

TEST(FlowRecord, DroppedPacketsCountAsLoss) {
  FlowRecord rec;
  PacketObservation pkt;
  pkt.key = {1, 2, 3, 4, 6};
  pkt.timestamp_ms = 100;
  pkt.bytes = 500;
  rec.observe(pkt);
  pkt.dropped = true;
  rec.observe(pkt);
  EXPECT_EQ(rec.packets, 1u);
  EXPECT_EQ(rec.lost_packets, 1u);
  EXPECT_EQ(rec.bytes, 500u);  // dropped bytes not delivered
  EXPECT_DOUBLE_EQ(loss_rate(rec), 0.5);
}

TEST(FlowRecord, MergeMatchesInterleavedObserve) {
  // Observing packets in one record == observing across two and merging.
  std::vector<PacketObservation> packets;
  for (int i = 0; i < 10; ++i) {
    PacketObservation pkt;
    pkt.key = {1, 2, 3, 4, 6};
    pkt.timestamp_ms = 100 + i * 13;
    pkt.bytes = 100 + i;
    pkt.hop_count = static_cast<u8>(i % 5);
    pkt.rtt_us = 1000 * (i + 1);
    pkt.jitter_us = 7 * i;
    pkt.dropped = i % 4 == 3;
    packets.push_back(pkt);
  }
  FlowRecord all;
  for (const auto& pkt : packets) all.observe(pkt);
  FlowRecord a, b;
  for (size_t i = 0; i < packets.size(); ++i) {
    (i % 2 == 0 ? a : b).observe(packets[i]);
  }
  a.merge(b);
  EXPECT_EQ(a, all);
}

TEST(FlowRecord, MergeIntoEmptyCopies) {
  FlowRecord full;
  PacketObservation pkt;
  pkt.key = {9, 9, 9, 9, 6};
  pkt.timestamp_ms = 5;
  pkt.bytes = 10;
  full.observe(pkt);
  FlowRecord empty;
  empty.merge(full);
  EXPECT_EQ(empty, full);
}

TEST(FlowRecord, SerializationRoundTrip) {
  FlowRecord rec;
  PacketObservation pkt;
  pkt.key = {0x01020304, 0x05060708, 1111, 2222, 17};
  pkt.timestamp_ms = 123456789;
  pkt.bytes = 1400;
  pkt.hop_count = 30;
  pkt.rtt_us = 250'000;
  pkt.jitter_us = 12'000;
  rec.observe(pkt);

  Writer w;
  rec.serialize(w);
  Reader r(w.bytes());
  auto parsed = FlowRecord::deserialize(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(parsed.value(), rec);

  // canonical_bytes() is the same encoding, of the fixed canonical size.
  EXPECT_EQ(rec.canonical_bytes(), w.bytes());
  EXPECT_EQ(rec.canonical_bytes().size(), FlowRecord::kCanonicalSize);
  EXPECT_EQ(FlowRecord::kCanonicalSize, 102u);
}

TEST(FlowRecord, ThroughputUsesDuration) {
  FlowRecord rec;
  PacketObservation pkt;
  pkt.key = {1, 1, 1, 1, 6};
  pkt.timestamp_ms = 0;
  pkt.bytes = 1000;
  rec.observe(pkt);
  pkt.timestamp_ms = 1000;  // 1 second
  rec.observe(pkt);
  EXPECT_DOUBLE_EQ(throughput_bps(rec), 16'000.0);  // 2000B*8/1s
}

// ---------------------------------------------------------------------------
// RLogBatch

FlowRecord quick_record(u32 src, u64 packets) {
  FlowRecord rec;
  for (u64 i = 0; i < packets; ++i) {
    PacketObservation pkt;
    pkt.key = {src, 0x09090909, 1000, 443, 6};
    pkt.timestamp_ms = i;
    pkt.bytes = 100;
    rec.observe(pkt);
  }
  return rec;
}

TEST(RLogBatch, RoundTripAndHashStability) {
  RLogBatch batch;
  batch.router_id = 3;
  batch.window_id = 17;
  batch.records = {quick_record(1, 5), quick_record(2, 3)};

  const auto bytes = batch.canonical_bytes();
  Reader r(bytes);
  auto parsed = RLogBatch::deserialize(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().router_id, 3u);
  EXPECT_EQ(parsed.value().window_id, 17u);
  EXPECT_EQ(parsed.value().records, batch.records);
  EXPECT_EQ(parsed.value().hash(), batch.hash());

  // Any record mutation changes the hash.
  RLogBatch mutated = batch;
  mutated.records[0].packets += 1;
  EXPECT_NE(mutated.hash(), batch.hash());
}

TEST(RLogBatch, RejectsBadMagic) {
  Bytes bytes = RLogBatch{}.canonical_bytes();
  bytes[1] ^= 0xFF;  // corrupt magic
  Reader r(bytes);
  EXPECT_FALSE(RLogBatch::deserialize(r).ok());
}

// ---------------------------------------------------------------------------
// NetFlow v9

class V9RoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(V9RoundTrip, PreservesRecords) {
  const size_t n = GetParam();
  std::vector<FlowRecord> records;
  for (size_t i = 0; i < n; ++i) {
    records.push_back(quick_record(static_cast<u32>(i + 1), i % 7 + 1));
    records.back().rtt_sum_us = i * 1000;
    records.back().rtt_count = i % 3;
    records.back().jitter_sum_us = i * 10;
    records.back().lost_packets = i % 2;
  }

  V9Exporter exporter(V9Config{.source_id = 42});
  V9Collector collector;
  std::vector<FlowRecord> decoded;
  for (const auto& packet : exporter.export_records(records, 999)) {
    auto got = collector.ingest(packet);
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    for (auto& rec : got.value()) decoded.push_back(std::move(rec));
  }
  EXPECT_EQ(decoded, records);
  EXPECT_EQ(collector.stats().records, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, V9RoundTrip,
                         ::testing::Values(0, 1, 2, 23, 24, 25, 100, 250));

TEST(V9, WireHeaderLayout) {
  V9Exporter exporter(V9Config{.source_id = 0x11223344});
  auto packets = exporter.export_records({}, 0x55667788);
  ASSERT_EQ(packets.size(), 1u);
  const Bytes& p = packets[0];
  ASSERT_GE(p.size(), 20u);
  EXPECT_EQ((p[0] << 8) | p[1], 9);  // version
  // source id at offset 16, big-endian.
  EXPECT_EQ((u32(p[16]) << 24) | (u32(p[17]) << 16) | (u32(p[18]) << 8) |
                p[19],
            0x11223344u);
}

TEST(V9, DataBeforeTemplateIsSkippedThenLearned) {
  std::vector<FlowRecord> records = {quick_record(1, 2)};
  V9Exporter exporter(V9Config{.source_id = 7,
                               .template_refresh_interval = 2});
  // Packet 0 has the template, packet 1 does not.
  auto first = exporter.export_records(records, 100);
  auto second = exporter.export_records(records, 200);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);

  V9Collector collector;
  // Ingest the template-less packet first: records dropped, not an error.
  auto got = collector.ingest(second[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
  EXPECT_EQ(collector.stats().data_flowsets_without_template, 1u);

  // After the template arrives, decoding works.
  ASSERT_TRUE(collector.ingest(first[0]).ok());
  auto again = collector.ingest(second[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().size(), 1u);
}

TEST(V9, TemplatesAreScopedBySourceId) {
  std::vector<FlowRecord> records = {quick_record(1, 1)};
  V9Exporter src_a(V9Config{.source_id = 1, .template_refresh_interval = 100});
  V9Exporter src_b(V9Config{.source_id = 2, .template_refresh_interval = 100});
  auto a0 = src_a.export_records(records, 0);  // has template for source 1
  (void)src_b.export_records(records, 0);      // advance b's sequence
  auto b1 = src_b.export_records(records, 0);  // no template in this one

  V9Collector collector;
  ASSERT_TRUE(collector.ingest(a0[0]).ok());
  auto got = collector.ingest(b1[0]);
  ASSERT_TRUE(got.ok());
  // Source 2 never sent its template: data must be skipped.
  EXPECT_TRUE(got.value().empty());
}

TEST(V9, RejectsMalformedPackets) {
  V9Collector collector;
  EXPECT_FALSE(collector.ingest(Bytes{1, 2, 3}).ok());  // short header

  Bytes not_v9(20, 0);
  not_v9[1] = 5;  // version 5
  EXPECT_FALSE(collector.ingest(not_v9).ok());

  // Valid header, flowset length pointing past the end.
  Bytes bad(24, 0);
  bad[1] = 9;
  bad[20] = 0x01;  // flowset id 256
  bad[21] = 0x00;
  bad[22] = 0xFF;  // length 65280
  bad[23] = 0x00;
  EXPECT_FALSE(collector.ingest(bad).ok());
}

TEST(V9, LargeBatchSplitsIntoPackets) {
  std::vector<FlowRecord> records;
  for (int i = 0; i < 100; ++i) records.push_back(quick_record(i + 1, 1));
  V9Exporter exporter(V9Config{.source_id = 1, .max_records_per_packet = 10});
  auto packets = exporter.export_records(records, 0);
  EXPECT_EQ(packets.size(), 10u);
  for (const auto& p : packets) {
    EXPECT_LE(p.size(), 1500u);  // sane MTU-ish sizing
  }
}

TEST(V9, SequenceNumberAdvances) {
  V9Exporter exporter(V9Config{.source_id = 1});
  EXPECT_EQ(exporter.packets_emitted(), 0u);
  (void)exporter.export_records({}, 0);
  (void)exporter.export_records({}, 0);
  EXPECT_EQ(exporter.packets_emitted(), 2u);
}

// ---------------------------------------------------------------------------
// v9 options templates (sampling metadata)

TEST(V9Options, TemplateAndDataDecoded) {
  V9Exporter exporter(V9Config{.source_id = 11,
                               .include_options = true,
                               .sampling_interval = 64,
                               .sampling_algorithm = 2});
  FlowRecord record;
  record.key = {1, 0x08080808, 1234, 53, 17};
  record.first_ms = 1000;
  record.last_ms = 2000;
  record.packets = 2;
  record.bytes = 300;
  std::vector<FlowRecord> records = {record};
  auto packets = exporter.export_records(records, 500);
  ASSERT_EQ(packets.size(), 1u);

  V9Collector collector;
  auto decoded = collector.ingest(packets[0]);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().size(), 1u);  // flow records still decode
  EXPECT_EQ(collector.stats().options_templates_learned, 1u);
  ASSERT_EQ(collector.stats().options_records, 1u);
  const auto& options = collector.options()[0];
  EXPECT_EQ(options.source_id, 11u);
  EXPECT_EQ(options.values.at(kFieldSamplingInterval), 64u);
  EXPECT_EQ(options.values.at(kFieldSamplingAlgorithm), 2u);
  EXPECT_TRUE(options.values.count(kFieldTotalFlowsExported));
}

TEST(V9Options, DisabledEmitsNone) {
  V9Exporter exporter(V9Config{.source_id = 1, .include_options = false});
  auto packets = exporter.export_records({}, 0);
  V9Collector collector;
  ASSERT_TRUE(collector.ingest(packets[0]).ok());
  EXPECT_EQ(collector.stats().options_templates_learned, 0u);
  EXPECT_EQ(collector.stats().options_records, 0u);
}

}  // namespace
}  // namespace zkt::netflow
