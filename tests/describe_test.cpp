// Receipt introspection tests: describe/summarize must decode every guest's
// journal and never crash on malformed input.
#include <gtest/gtest.h>

#include "core/describe.h"
#include "core/grouped_query.h"
#include "core/service.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

struct Fixture {
  CommitmentBoard board;
  AggregationService service{board};

  Fixture() {
    const auto key = crypto::schnorr_keygen_from_seed("describe");
    RLogBatch batch;
    batch.router_id = 0;
    batch.window_id = 1;
    FlowRecord record;
    PacketObservation pkt;
    pkt.key = {0x01010101, 0x09090909, 80, 443, 6};
    pkt.timestamp_ms = 100;
    pkt.bytes = 900;
    record.observe(pkt);
    batch.records.push_back(record);
    EXPECT_TRUE(
        board.publish(make_commitment(batch, key, 5000).value()).ok());
    EXPECT_TRUE(service.aggregate({batch}).ok());
  }
};

TEST(Describe, AggregationReceipt) {
  Fixture fx;
  const std::string text = describe_receipt(fx.service.last_receipt());
  EXPECT_NE(text.find("zkt.guest.aggregate"), std::string::npos);
  EXPECT_NE(text.find("genesis"), std::string::npos);
  EXPECT_NE(text.find("entries      0 -> 1"), std::string::npos);
  EXPECT_NE(text.find("router 0 window 1"), std::string::npos);
}

TEST(Describe, IncrementalAggregationReceipt) {
  Fixture fx;
  const auto key = crypto::schnorr_keygen_from_seed("describe");
  RLogBatch batch;
  batch.router_id = 0;
  batch.window_id = 2;
  FlowRecord record;
  PacketObservation pkt;
  pkt.key = {0x01010101, 0x09090909, 80, 443, 6};
  pkt.timestamp_ms = 10100;
  pkt.bytes = 400;
  record.observe(pkt);
  batch.records.push_back(record);
  ASSERT_TRUE(fx.board.publish(make_commitment(batch, key, 10000).value()).ok());

  AggregationService inc(fx.board,
                         {.prove_options = {}, .mode = AggMode::incremental});
  ASSERT_TRUE(inc.restore(fx.service.state(), fx.service.last_receipt(), 1,
                          fx.service.sketch())
                  .ok());
  ASSERT_TRUE(inc.aggregate({batch}).ok());
  ASSERT_EQ(inc.last_kind(), RoundKind::incremental);

  const std::string text = describe_receipt(inc.last_receipt());
  EXPECT_NE(text.find("zkt.guest.aggregate_incremental"), std::string::npos);
  EXPECT_NE(text.find("aggregation round (incremental)"), std::string::npos);
  EXPECT_NE(text.find("delta shape  1 opened entry"), std::string::npos);
}

TEST(Describe, QueryReceiptBothModes) {
  Fixture fx;
  QueryService queries(fx.service);
  Query q = Query::sum(QField::bytes);
  auto complete = queries.run(q);
  auto selective = queries.run(q, {.mode = QueryMode::selective,
                                   .prove_options_override = {}});
  ASSERT_TRUE(complete.ok());
  ASSERT_TRUE(selective.ok());
  EXPECT_NE(describe_receipt(complete.value().receipt).find("complete scan"),
            std::string::npos);
  EXPECT_NE(describe_receipt(selective.value().receipt).find("selective"),
            std::string::npos);
  EXPECT_NE(describe_receipt(complete.value().receipt)
                .find("SELECT SUM(bytes)"),
            std::string::npos);
}

TEST(Describe, GroupedReceipt) {
  Fixture fx;
  auto grouped =
      QueryService(fx.service).grouped(Query::count(), QField::protocol);
  ASSERT_TRUE(grouped.ok());
  const std::string text = describe_receipt(grouped.value().receipt);
  EXPECT_NE(text.find("GROUP BY protocol"), std::string::npos);
  EXPECT_NE(text.find("protocol=6"), std::string::npos);
}

TEST(Describe, UnknownImageAndMalformedJournal) {
  Fixture fx;
  auto receipt = fx.service.last_receipt();
  // Unknown image.
  auto unknown = receipt;
  unknown.claim.image_id = crypto::sha256(std::string_view("mystery"));
  EXPECT_NE(describe_receipt(unknown).find("unknown-image"),
            std::string::npos);
  // Malformed journal (described, not crashed — note the digest no longer
  // matches, which only *verification* would reject).
  auto malformed = receipt;
  malformed.journal = bytes_of("garbage");
  EXPECT_NE(describe_receipt(malformed).find("MALFORMED"),
            std::string::npos);
}

TEST(Describe, CompositeSegmentsListed) {
  Fixture fx;
  zvm::ProveOptions options;
  options.seal_kind = zvm::SealKind::composite;
  QueryService queries(fx.service, QueryServiceOptions{options});
  auto resp = queries.run(Query::count());
  ASSERT_TRUE(resp.ok());
  const std::string text = describe_receipt(resp.value().receipt);
  EXPECT_NE(text.find("segments: 1"), std::string::npos);
  EXPECT_NE(text.find("opened"), std::string::npos);
}

TEST(Describe, SummaryIsOneLine) {
  Fixture fx;
  const std::string line = summarize_receipt(fx.service.last_receipt());
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("cycles"), std::string::npos);
}

}  // namespace
}  // namespace zkt::core
