// Golden proof bytes: SHA-256 digests over the serialized proof objects of
// pinned ProviderPipeline chains —
//   (a) a plain chain: a full genesis round, then rounds that take the
//       incremental guest, with an epoch ladder (every receipt plus the
//       settled epoch seals);
//   (b) the same plain chain proven in 256-row trace segments, so every
//       proof commits several segments while its guest is still executing;
//   (c) a 2-shard chain folded with fanout 2 at pipeline depth 2 (every
//       split receipt, shard receipt and tree seal);
//   (d) one receipt of every query guest proven against the head of (a):
//       a complete scan, a selective point query, a grouped query, sketch
//       heavy hitters and cardinality, a histogram bound, and a composite
//       complete scan (so the seal openings are pinned too).
// A refactor of the round pipeline, the query path or the prover must leave
// every digest unchanged. A second digest covers only the claim and journal
// of every receipt in the four sets (embedded assumption receipts included),
// so a change to the seal encoding alone re-pins the four proof digests and
// leaves that one as it is. Each digest is checked on the default SHA-256
// backend and pinned to the scalar backend; a second ctest registration
// reruns the binary with a one-worker pool (ZKT_POOL_THREADS=1).
#include <gtest/gtest.h>

#include "core/histogram_query.h"
#include "core/pipeline.h"
#include "core/service.h"
#include "crypto/sha256_backend.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

constexpr const char* kPlainChainDigest =
    "b7a6d7c4a680bc362ad6383b2e553a1d0b9163e0eac8f82147b0df4e2269608c";
constexpr const char* kPlainChainSegmentedDigest =
    "e1c518829b38dd02bb53f740e48f42c142d76ffab32a7a4da629abf704caaf53";
constexpr const char* kShardedChainDigest =
    "fd89acf2e0d66bcb8efd13ee75e7a7aebf4bea31d9eb112c94470782d40711f1";
constexpr const char* kQueryReceiptsDigest =
    "35f2f549e22e29c10e18f2ecaf654b52b1949e6818dcb2f74cd98afdf6eb62b3";
constexpr const char* kClaimsAndJournalsDigest =
    "207e80334796a435be276e9c51c1cc1a0aa627eb2beb6e790208346351b9ff92";

struct Deployment {
  store::LogStore store;
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("golden");

  /// Commit and store one router's batch of flows src in [first, last).
  void commit(u64 window, u32 router, u32 first, u32 last) {
    RLogBatch batch;
    batch.router_id = router;
    batch.window_id = window;
    for (u32 src = first; src < last; ++src) {
      FlowRecord record;
      PacketObservation pkt;
      pkt.key = {0x0A000000 + src, 0x0B0B0B0B, static_cast<u16>(2000 + src),
                 443, 6};
      pkt.timestamp_ms = window * 5000 + src;
      pkt.bytes = 100 + (src * 7 + window) % 61;
      pkt.hop_count = 2;
      record.observe(pkt);
      batch.records.push_back(std::move(record));
    }
    ASSERT_TRUE(
        board.publish(make_commitment(batch, key, window).value()).ok());
    ASSERT_TRUE(
        store.append(store::kTableRlogs, window, router, batch.canonical_bytes())
            .ok());
  }
};

void append(Bytes& out, const Bytes& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

/// What one set pins: the bytes of its proof objects, and the claim and
/// journal of every receipt among them.
struct Pinned {
  Bytes proofs;
  Writer claims;

  /// Pin a receipt's bytes and its claims.
  void add(const zvm::Receipt& receipt) {
    append(proofs, receipt.to_bytes());
    add_claims(receipt);
  }
  /// Pin the claim and journal of `receipt` and of every receipt it embeds.
  void add_claims(const zvm::Receipt& receipt) {
    receipt.claim.serialize(claims);
    claims.blob(receipt.journal);
    for (const zvm::Receipt& inner : receipt.assumption_receipts) {
      add_claims(inner);
    }
  }
  std::string proofs_digest() const {
    return to_hex(crypto::sha256(proofs).bytes);
  }
};

/// Commit the plain chain's windows: 64 genesis flows over two routers,
/// then three windows that each merge a few resident flows and add one new
/// one — delta rounds. The head holds 67 entries.
void commit_plain_chain(Deployment& d) {
  d.commit(0, 0, 0, 32);
  d.commit(0, 1, 32, 64);
  for (u64 w = 1; w <= 3; ++w) {
    const u32 base = static_cast<u32>(w) * 5;
    d.commit(w, 0, base, base + 3);
    d.commit(w, 1, 64 + static_cast<u32>(w), 65 + static_cast<u32>(w));
  }
}

PipelineOptions plain_chain_options(u64 max_segment_rows) {
  PipelineOptions options;
  options.epoch_every = 2;
  options.sharded.prove_options.max_segment_rows = max_segment_rows;
  return options;
}

Pinned plain_chain(u64 max_segment_rows = zvm::kDefaultSegmentRows) {
  Deployment d;
  commit_plain_chain(d);
  ProviderPipeline pipeline(d.store, d.board,
                            plain_chain_options(max_segment_rows));
  auto rounds = pipeline.aggregate_pending();
  EXPECT_TRUE(rounds.ok()) << rounds.error().to_string();
  if (!rounds.ok()) return {};
  EXPECT_EQ(rounds.value().size(), 4u);
  for (size_t i = 0; i < rounds.value().size(); ++i) {
    const AggregationRound& round = rounds.value()[i].primary();
    EXPECT_EQ(round.journal.kind,
              i == 0 ? RoundKind::full : RoundKind::incremental)
        << "round " << i;
    if (max_segment_rows < zvm::kDefaultSegmentRows) {
      EXPECT_GT(round.prove_info.segments, 1u) << "round " << i;
    }
  }
  auto seals = pipeline.epoch_seals();
  EXPECT_TRUE(seals.ok()) << seals.error().to_string();
  if (!seals.ok()) return {};
  EXPECT_EQ(seals.value().size(), 1u);

  Pinned pinned;
  EXPECT_EQ(pipeline.receipts().size(), 4u);
  for (const zvm::Receipt& receipt : pipeline.receipts()) pinned.add(receipt);
  for (const EpochSeal& seal : seals.value()) {
    append(pinned.proofs, seal.to_bytes());
    pinned.add_claims(seal.receipt);
  }
  return pinned;
}

Pinned sharded_chain() {
  Deployment d;
  for (u64 w = 1; w <= 4; ++w) {
    d.commit(w, 0, static_cast<u32>(w) * 4, static_cast<u32>(w) * 4 + 12);
    d.commit(w, 1, 100 + static_cast<u32>(w), 108 + static_cast<u32>(w));
  }

  PipelineOptions options;
  options.sharded.shard_count = 2;
  options.sharded.join_fanout = 2;
  options.sharded.pipeline_depth = 2;
  ProviderPipeline pipeline(d.store, d.board, options);
  auto rounds = pipeline.aggregate_pending();
  EXPECT_TRUE(rounds.ok()) << rounds.error().to_string();
  if (!rounds.ok()) return {};
  EXPECT_EQ(rounds.value().size(), 4u);

  Pinned pinned;
  for (const RoundResult& round : rounds.value()) {
    for (const zvm::Receipt& split : round.split_receipts) pinned.add(split);
    EXPECT_EQ(round.shard_rounds.size(), 2u);
    for (const AggregationRound& shard : round.shard_rounds) {
      pinned.add(shard.receipt);
    }
    EXPECT_TRUE(round.tree_seal.has_value());
    if (round.tree_seal.has_value()) pinned.add(*round.tree_seal);
  }
  EXPECT_EQ(pipeline.tree_seals().size(), 4u);
  return pinned;
}

/// Pin a proven receipt, or fail the test with the proving error.
template <class Response>
void append_receipt(Pinned& out, const Result<Response>& response) {
  EXPECT_TRUE(response.ok()) << response.error().to_string();
  if (response.ok()) out.add(response.value().receipt);
}

Pinned query_receipts() {
  Deployment d;
  commit_plain_chain(d);
  ProviderPipeline pipeline(d.store, d.board,
                            plain_chain_options(zvm::kDefaultSegmentRows));
  auto rounds = pipeline.aggregate_pending();
  EXPECT_TRUE(rounds.ok()) << rounds.error().to_string();
  if (!rounds.ok()) return {};
  const AggregationService& aggregation = pipeline.aggregation();
  EXPECT_EQ(aggregation.state().entry_count(), 67u);
  QueryService queries(aggregation);

  Pinned all;
  // Complete scan: two CNF clauses, one of them an OR.
  const Query scan =
      Query::max(QField::bytes)
          .and_any({Condition{QField::src_port, CmpOp::lt, 2040},
                    Condition{QField::bytes, CmpOp::ge, 150}})
          .and_where(QField::dst_port, CmpOp::eq, 443);
  append_receipt(all, queries.run(scan));
  // Selective point query on a flow merged in window 1.
  const Query point =
      Query::sum(QField::bytes).and_where(QField::src_ip, CmpOp::eq,
                                          0x0A000005);
  QueryOptions selective;
  selective.mode = QueryMode::selective;
  auto point_response = queries.run(point, selective);
  if (point_response.ok()) {
    EXPECT_EQ(point_response.value().journal.result.matched, 1u);
  }
  append_receipt(all, point_response);
  // Grouped: merged flows carry two packets, the rest one.
  auto grouped = queries.grouped(
      Query::sum(QField::bytes).and_where(QField::src_port, CmpOp::ge, 2010),
      QField::packets);
  if (grouped.ok()) {
    EXPECT_EQ(grouped.value().journal.groups.size(), 2u);
  }
  append_receipt(all, grouped);
  // Sketch guests, proven directly: at 67 entries the router picks the
  // exact scan.
  const netflow::RoundSketch& sketch = aggregation.sketch();
  const u64 threshold =
      sketch.heavy().total() / sketch.heavy().capacity() + 1;
  auto heavy =
      prove_sketch_heavy(aggregation.last_receipt(), sketch, threshold);
  if (heavy.ok()) {
    EXPECT_FALSE(heavy.value().journal.hits.empty());
  }
  append_receipt(all, heavy);
  append_receipt(all,
                 prove_sketch_cardinality(aggregation.last_receipt(), sketch));
  // Histogram bound against a pinned latency histogram.
  netflow::LatencyHistogram histogram;
  for (u64 i = 0; i < 400; ++i) histogram.add(1000 + (i * 37) % 9000);
  const CommitmentRef ref{7, 1, histogram.hash(), histogram.total()};
  append_receipt(all, prove_histogram_query(ref, histogram, 4095));
  // Composite complete scan: pins the Fiat–Shamir openings.
  zvm::ProveOptions composite;
  composite.seal_kind = zvm::SealKind::composite;
  append_receipt(all, QueryService(aggregation, QueryServiceOptions{composite})
                          .run(Query::count()));
  return all;
}

/// The claims and journals of all four sets, in one digest.
std::string claims_and_journals_digest() {
  Writer all;
  for (const Pinned& pinned : {plain_chain(), plain_chain(256),
                               sharded_chain(), query_receipts()}) {
    all.raw(pinned.claims.bytes());
  }
  return to_hex(crypto::sha256(all.bytes()).bytes);
}

/// Pins SHA-256 dispatch to the scalar backend for one scope.
class ScalarSha256 {
 public:
  ScalarSha256() {
    EXPECT_TRUE(crypto::sha256_force_backend(crypto::Sha256Backend::scalar));
  }
  ~ScalarSha256() { crypto::sha256_force_backend(std::nullopt); }
};

TEST(GoldenReceipts, PlainChainDefaultBackend) {
  EXPECT_EQ(plain_chain().proofs_digest(), kPlainChainDigest);
}

TEST(GoldenReceipts, PlainChainScalarBackend) {
  ScalarSha256 scalar;
  EXPECT_EQ(plain_chain().proofs_digest(), kPlainChainDigest);
}

TEST(GoldenReceipts, PlainChainSegmentedDefaultBackend) {
  EXPECT_EQ(plain_chain(256).proofs_digest(), kPlainChainSegmentedDigest);
}

TEST(GoldenReceipts, PlainChainSegmentedScalarBackend) {
  ScalarSha256 scalar;
  EXPECT_EQ(plain_chain(256).proofs_digest(), kPlainChainSegmentedDigest);
}

TEST(GoldenReceipts, ShardedChainDefaultBackend) {
  EXPECT_EQ(sharded_chain().proofs_digest(), kShardedChainDigest);
}

TEST(GoldenReceipts, ShardedChainScalarBackend) {
  ScalarSha256 scalar;
  EXPECT_EQ(sharded_chain().proofs_digest(), kShardedChainDigest);
}

TEST(GoldenReceipts, QueryReceiptsDefaultBackend) {
  EXPECT_EQ(query_receipts().proofs_digest(), kQueryReceiptsDigest);
}

TEST(GoldenReceipts, QueryReceiptsScalarBackend) {
  ScalarSha256 scalar;
  EXPECT_EQ(query_receipts().proofs_digest(), kQueryReceiptsDigest);
}

TEST(GoldenReceipts, ClaimsAndJournalsDefaultBackend) {
  EXPECT_EQ(claims_and_journals_digest(), kClaimsAndJournalsDigest);
}

TEST(GoldenReceipts, ClaimsAndJournalsScalarBackend) {
  ScalarSha256 scalar;
  EXPECT_EQ(claims_and_journals_digest(), kClaimsAndJournalsDigest);
}

}  // namespace
}  // namespace zkt::core
