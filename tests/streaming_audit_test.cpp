// Batch/streaming verifier tests: BatchVerifier and Auditor::accept_rounds/
// audit must make byte-for-byte the same accept/reject decisions as the
// sequential accept_round walk — across mixed full+incremental chains,
// SHA-256 backends, pool shapes, and corrupted receipt files — while the
// streaming path holds only one window of receipts resident.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "core/auditor.h"
#include "core/batch_verifier.h"
#include "core/io.h"
#include "core/service.h"
#include "crypto/sha256_backend.h"
#include "store/fault.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

struct Pipeline {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("stream-t");
  AggregationService service;
  u64 next_window = 1;

  explicit Pipeline(AggregationOptions options = {})
      : service(board, std::move(options)) {}

  RLogBatch make_batch(std::vector<std::pair<u32, u64>> flows) {
    RLogBatch batch;
    batch.router_id = 0;
    batch.window_id = next_window++;
    for (auto [src, packets] : flows) {
      FlowRecord record;
      for (u64 i = 0; i < packets; ++i) {
        PacketObservation pkt;
        pkt.key = {src, 0x09090909, 1000, 443, 6};
        pkt.timestamp_ms = batch.window_id * 5000 + i;
        pkt.bytes = 100;
        pkt.hop_count = 4;
        record.observe(pkt);
      }
      batch.records.push_back(std::move(record));
    }
    EXPECT_TRUE(board
                    .publish(make_commitment(batch, key,
                                             batch.window_id * 5000)
                                 .value())
                    .ok());
    return batch;
  }

  zvm::Receipt round(std::vector<std::pair<u32, u64>> flows) {
    auto r = service.aggregate({make_batch(std::move(flows))});
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
    return std::move(r.value().receipt);
  }

  /// A chain mixing guest kinds when the service mode allows it: genesis is
  /// always a full rebuild, later rounds follow the configured AggMode.
  std::vector<zvm::Receipt> chain(size_t rounds) {
    std::vector<zvm::Receipt> receipts;
    for (size_t i = 0; i < rounds; ++i) {
      receipts.push_back(
          round({{static_cast<u32>(i % 3 + 1), i + 2}, {7, 1}}));
    }
    return receipts;
  }
};

AggregationOptions incremental_mode() {
  AggregationOptions options;
  options.mode = AggMode::incremental;
  return options;
}

class StreamingAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zkt_stream_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

/// Heads must match field by field.
void expect_same_head(const ChainHead& a, const ChainHead& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.claim_digest, b.claim_digest);
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.entry_count, b.entry_count);
}

// ---------------------------------------------------------------------------
// Batch vs sequential equivalence.

TEST_F(StreamingAuditTest, BatchMatchesSequentialOnMixedChain) {
  // Incremental mode makes round 0 a full rebuild and later rounds AGGI
  // deltas — the chain mixes both guest kinds. Composite seals so each
  // round embeds its predecessor receipt (succinct seals carry assumption
  // digests only, with nothing to dedup).
  AggregationOptions options = incremental_mode();
  options.prove_options.seal_kind = zvm::SealKind::composite;
  Pipeline p(std::move(options));
  const auto receipts = p.chain(5);
  ASSERT_NE(receipts[0].claim.image_id, receipts[2].claim.image_id);

  Auditor sequential(p.board);
  for (const auto& receipt : receipts) {
    ASSERT_TRUE(sequential.accept_round(receipt).ok());
  }

  Auditor batched(p.board);
  zvm::VerifyStats stats;
  auto accepted = batched.accept_rounds(receipts, &stats);
  ASSERT_TRUE(accepted.ok()) << accepted.error().to_string();
  EXPECT_EQ(accepted.value(), 5u);
  expect_same_head(sequential.head(), batched.head());
  // Every non-genesis round embeds its predecessor as an assumption
  // receipt; the batch resolves those from the predecessor lane instead of
  // re-verifying.
  EXPECT_EQ(stats.assumptions_skipped, 4u);
}

TEST_F(StreamingAuditTest, PooledBatchMatchesSerialBatch) {
  Pipeline p;
  const auto receipts = p.chain(6);

  common::ThreadPool pool(common::ThreadPool::Options{.threads = 4});
  AuditorOptions pooled_options;
  pooled_options.batch.pool = &pool;
  Auditor pooled(p.board, pooled_options);

  AuditorOptions serial_options;
  serial_options.batch.parallel = false;
  Auditor serial(p.board, serial_options);

  auto a = pooled.accept_rounds(receipts);
  auto b = serial.accept_rounds(receipts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  expect_same_head(pooled.head(), serial.head());
}

TEST_F(StreamingAuditTest, TamperedMiddleReceiptSameDecisionEverywhere) {
  Pipeline p;
  auto receipts = p.chain(5);
  // Rewrite round 2's journal: the claim's journal digest no longer
  // matches, so verification (not chaining) must reject it.
  receipts[2].journal.push_back(0x5a);

  Auditor sequential(p.board);
  Status seq_error;
  size_t seq_accepted = 0;
  for (const auto& receipt : receipts) {
    auto accepted = sequential.accept_round(receipt);
    if (!accepted.ok()) {
      seq_error = accepted.error();
      break;
    }
    ++seq_accepted;
  }
  ASSERT_FALSE(seq_error.ok());
  EXPECT_EQ(seq_accepted, 2u);

  Auditor batched(p.board);
  auto batch_result = batched.accept_rounds(receipts);
  ASSERT_FALSE(batch_result.ok());
  EXPECT_EQ(batch_result.error().code, seq_error.error().code);
  EXPECT_EQ(batch_result.error().message, seq_error.error().message);
  EXPECT_EQ(batched.rounds_accepted(), 2u);
  expect_same_head(sequential.head(), batched.head());
}

TEST_F(StreamingAuditTest, BatchEquivalentAcrossBackends) {
  Pipeline p(incremental_mode());
  const auto receipts = p.chain(4);
  ChainHead reference{};
  bool have_reference = false;
  for (u8 b = 0; b < crypto::kSha256BackendCount; ++b) {
    const auto backend = static_cast<crypto::Sha256Backend>(b);
    if (!crypto::sha256_force_backend(backend)) continue;
    Auditor auditor(p.board);
    auto accepted = auditor.accept_rounds(receipts);
    ASSERT_TRUE(accepted.ok())
        << crypto::sha256_backend_name(backend) << ": "
        << accepted.error().to_string();
    if (!have_reference) {
      reference = auditor.head();
      have_reference = true;
    } else {
      expect_same_head(reference, auditor.head());
    }
  }
  crypto::sha256_force_backend(std::nullopt);
  EXPECT_TRUE(have_reference);
}

TEST_F(StreamingAuditTest, CompositeChainDedupSharesWork) {
  AggregationOptions options;
  options.prove_options.seal_kind = zvm::SealKind::composite;
  Pipeline p(std::move(options));
  const auto receipts = p.chain(3);

  // Sequential baseline: every embedded predecessor re-verified.
  zvm::Verifier verifier;
  zvm::VerifyStats seq_stats;
  for (const auto& receipt : receipts) {
    zvm::VerifyContext context{nullptr, &seq_stats};
    ASSERT_TRUE(
        verify_aggregation_receipt(verifier, receipt, context).ok());
  }

  BatchVerifier batch;
  zvm::VerifyStats batch_stats;
  const auto outcomes = batch.verify_aggregation(receipts, &batch_stats);
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome.ok());
  // Chain dedup: both non-genesis rounds resolve their embedded
  // predecessor from the previous lane, and converging Merkle paths within
  // each segment share node hashes.
  EXPECT_EQ(batch_stats.assumptions_skipped, 2u);
  EXPECT_LT(batch_stats.receipts, seq_stats.receipts);
  EXPECT_GT(batch_stats.node_hashes_shared, 0u);
}

TEST_F(StreamingAuditTest, BatchRepairsOptimisticSkipAfterPredecessorFails) {
  // receipts[1] is corrupted, and receipts[2] embeds a byte-identical copy
  // of it. The parallel pass may have skipped re-verifying that embedded
  // copy (optimistic predecessor seed); the repair pass must reject it the
  // way a sequential walk would.
  Pipeline p;
  auto receipts = p.chain(3);
  receipts[1].journal.push_back(0x00);

  BatchVerifier batch;
  const auto outcomes = batch.verify_aggregation(receipts);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  // receipts[2] is still internally valid — its embedded assumption is the
  // ORIGINAL (uncorrupted) round-1 receipt, which no longer matches the
  // corrupted lane, so it must have been verified in full, not skipped.
  zvm::Verifier verifier;
  EXPECT_EQ(outcomes[2].ok(),
            verify_aggregation_receipt(verifier, receipts[2]).ok());
}

// ---------------------------------------------------------------------------
// Streaming audit.

TEST_F(StreamingAuditTest, StreamingAuditMatchesMaterialized) {
  Pipeline p(incremental_mode());
  const auto receipts = p.chain(5);
  ASSERT_TRUE(save_receipts(receipts, path("chain.bin")).ok());

  Auditor materialized(p.board);
  ASSERT_TRUE(materialized.accept_rounds(receipts).ok());

  for (u64 batch_size : {u64{1}, u64{2}, u64{64}}) {
    auto source = ReceiptFileSource::open(path("chain.bin"));
    ASSERT_TRUE(source.ok());
    EXPECT_EQ(source.value().declared_count(), 5u);
    Auditor streaming(p.board);
    auto report =
        streaming.audit(source.value(), AuditOptions{batch_size, nullptr});
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_EQ(report.value().rounds, 5u);
    EXPECT_EQ(source.value().read_count(), 5u);
    expect_same_head(materialized.head(), report.value().head);
  }

  // The in-memory adapter audits identically.
  ReceiptSpanSource span_source{std::span<const zvm::Receipt>(receipts)};
  Auditor from_span(p.board);
  auto report = from_span.audit(span_source);
  ASSERT_TRUE(report.ok());
  expect_same_head(materialized.head(), report.value().head);
}

TEST_F(StreamingAuditTest, AuditContinuesAfterManualPrefix) {
  Pipeline p;
  const auto receipts = p.chain(4);
  // Accept round 0 by hand, then stream the remainder from a file.
  Auditor auditor(p.board);
  ASSERT_TRUE(auditor.accept_round(receipts[0]).ok());
  ASSERT_TRUE(save_receipts({receipts.begin() + 1, receipts.end()},
                            path("rest.bin"))
                  .ok());
  auto source = ReceiptFileSource::open(path("rest.bin"));
  ASSERT_TRUE(source.ok());
  auto report = auditor.audit(source.value());
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().rounds, 3u);
  EXPECT_EQ(auditor.rounds_accepted(), 4u);
}

TEST_F(StreamingAuditTest, EmptyFileAuditsToZeroRounds) {
  Pipeline p;
  ASSERT_TRUE(save_receipts({}, path("empty.bin")).ok());
  auto source = ReceiptFileSource::open(path("empty.bin"));
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value().declared_count(), 0u);
  Auditor auditor(p.board);
  auto report = auditor.audit(source.value());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rounds, 0u);
}

TEST_F(StreamingAuditTest, TruncatedFileFailsCleanly) {
  Pipeline p;
  const auto receipts = p.chain(3);
  ASSERT_TRUE(save_receipts(receipts, path("chain.bin")).ok());
  const auto size = std::filesystem::file_size(path("chain.bin"));
  std::filesystem::resize_file(path("chain.bin"), size - 7);

  auto source = ReceiptFileSource::open(path("chain.bin"));
  ASSERT_TRUE(source.ok());
  Auditor auditor(p.board);
  auto report = auditor.audit(source.value(), AuditOptions{1, nullptr});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, Errc::parse_error);
  // Everything before the damage was accepted; the error is sticky.
  EXPECT_EQ(auditor.rounds_accepted(), 2u);
  auto again = source.value().next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, Errc::parse_error);
}

TEST_F(StreamingAuditTest, TrailingBytesRejected) {
  Pipeline p;
  const auto receipts = p.chain(2);
  ASSERT_TRUE(save_receipts(receipts, path("chain.bin")).ok());
  {
    std::ofstream out(path("chain.bin"), std::ios::app | std::ios::binary);
    out << "junk";
  }
  auto source = ReceiptFileSource::open(path("chain.bin"));
  ASSERT_TRUE(source.ok());
  Auditor auditor(p.board);
  auto report = auditor.audit(source.value());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, Errc::parse_error);
}

TEST_F(StreamingAuditTest, CorruptedItemFailsCrc) {
  Pipeline p;
  const auto receipts = p.chain(2);
  ASSERT_TRUE(save_receipts(receipts, path("chain.bin")).ok());
  // Flip one byte near the end of the first item's payload.
  {
    std::fstream f(path("chain.bin"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    f.put(static_cast<char>(0xff));
  }
  auto source = ReceiptFileSource::open(path("chain.bin"));
  ASSERT_TRUE(source.ok());
  auto first = source.value().next();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code, Errc::parse_error);
}

TEST_F(StreamingAuditTest, ReorderedAndDuplicatedReceiptsRejected) {
  Pipeline p;
  const auto receipts = p.chain(4);

  auto reordered = receipts;
  std::swap(reordered[1], reordered[2]);
  auto duplicated = receipts;
  duplicated.insert(duplicated.begin() + 2, receipts[1]);

  for (const auto& bad : {reordered, duplicated}) {
    // Sequential reference decision.
    Auditor sequential(p.board);
    Status seq_error;
    for (const auto& receipt : bad) {
      auto accepted = sequential.accept_round(receipt);
      if (!accepted.ok()) {
        seq_error = accepted.error();
        break;
      }
    }
    ASSERT_FALSE(seq_error.ok());
    EXPECT_EQ(seq_error.error().code, Errc::chain_broken);

    // Batched and streamed walks agree exactly.
    Auditor batched(p.board);
    auto batch_result = batched.accept_rounds(bad);
    ASSERT_FALSE(batch_result.ok());
    EXPECT_EQ(batch_result.error().code, seq_error.error().code);
    EXPECT_EQ(batch_result.error().message, seq_error.error().message);
    EXPECT_EQ(batched.rounds_accepted(), sequential.rounds_accepted());

    ASSERT_TRUE(save_receipts(bad, path("bad.bin")).ok());
    auto source = ReceiptFileSource::open(path("bad.bin"));
    ASSERT_TRUE(source.ok());
    Auditor streamed(p.board);
    auto report = streamed.audit(source.value(), AuditOptions{2, nullptr});
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error().code, seq_error.error().code);
    EXPECT_EQ(streamed.rounds_accepted(), sequential.rounds_accepted());
  }
}

TEST_F(StreamingAuditTest, InjectedReadFaultSurfacesAsIoError) {
  Pipeline p;
  const auto receipts = p.chain(4);
  ASSERT_TRUE(save_receipts(receipts, path("chain.bin")).ok());

  store::FaultInjector faults;
  faults.arm(store::FaultPoint::scan, 2);  // receipts 0 and 1 pass
  ReceiptFileSource::Options options;
  options.fault = &faults;
  auto source = ReceiptFileSource::open(path("chain.bin"), options);
  ASSERT_TRUE(source.ok());

  Auditor auditor(p.board);
  auto report = auditor.audit(source.value(), AuditOptions{1, nullptr});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, Errc::io_error);
  EXPECT_EQ(auditor.rounds_accepted(), 2u);
}

// ---------------------------------------------------------------------------
// Accepted-claim window.

TEST(AcceptedClaimWindow, EvictsOldestBeyondCapacity) {
  AcceptedClaimWindow window(2);
  Digest32 a, b, c;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  c.bytes[0] = 3;
  window.insert(a);
  window.insert(a);  // duplicate: no double entry
  window.insert(b);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_TRUE(window.contains(a));
  window.insert(c);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_FALSE(window.contains(a));
  EXPECT_TRUE(window.contains(b));
  EXPECT_TRUE(window.contains(c));
}

TEST(AcceptedClaimWindow, ZeroCapacityIsUnbounded) {
  AcceptedClaimWindow window(0);
  for (u8 i = 0; i < 50; ++i) {
    Digest32 d;
    d.bytes[0] = i;
    window.insert(d);
  }
  EXPECT_EQ(window.size(), 50u);
  Digest32 first;
  first.bytes[0] = 0;
  EXPECT_TRUE(window.contains(first));
}

TEST_F(StreamingAuditTest, QueryBeyondClaimWindowRejected) {
  Pipeline p;
  const auto receipts = p.chain(2);
  QueryService queries(p.service);
  auto resp = queries.run(Query::count());  // targets round 1
  ASSERT_TRUE(resp.ok());
  const auto later = p.chain(2);  // rounds 2 and 3

  // Window of 2: rounds 2 and 3 evict rounds 0 and 1.
  AuditorOptions small_window;
  small_window.accepted_claim_window = 2;
  Auditor bounded(p.board, small_window);
  ASSERT_TRUE(bounded.accept_rounds(receipts).ok());
  ASSERT_TRUE(bounded.accept_rounds(later).ok());
  auto rejected = bounded.verify_query(resp.value().receipt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::chain_broken);

  // Unbounded auditor still accepts the same (older) query target.
  AuditorOptions unbounded;
  unbounded.accepted_claim_window = 0;
  Auditor keeper(p.board, unbounded);
  ASSERT_TRUE(keeper.accept_rounds(receipts).ok());
  ASSERT_TRUE(keeper.accept_rounds(later).ok());
  EXPECT_TRUE(keeper.verify_query(resp.value().receipt).ok());
}

// ---------------------------------------------------------------------------
// Modern surface equivalences (the deprecated positional shims these once
// compared against are gone; the struct-based calls are the only spelling).

TEST_F(StreamingAuditTest, VerifyQueryOptionsAgree) {
  Pipeline p;
  const auto receipts = p.chain(2);
  Auditor modern(p.board);
  ASSERT_TRUE(modern.accept_rounds(receipts).ok());

  QueryService queries(p.service);
  const Query q = Query::count();
  auto resp = queries.run(q);
  ASSERT_TRUE(resp.ok());
  auto via_options =
      modern.verify_query(resp.value().receipt, {.expected_query = &q});
  ASSERT_TRUE(via_options.ok());
  auto via_default = modern.verify_query(resp.value().receipt, {});
  ASSERT_TRUE(via_default.ok());
  EXPECT_EQ(via_options.value().result.matched,
            via_default.value().result.matched);
}

}  // namespace
}  // namespace zkt::core
