// Golden proof bytes: SHA-256 digests over the serialized proof objects of
// pinned ProviderPipeline chains —
//   (a) a plain chain: a full genesis round, then rounds that take the
//       incremental guest, with an epoch ladder (every receipt plus the
//       settled epoch seals);
//   (b) the same plain chain proven in 256-row trace segments, so every
//       proof commits several segments while its guest is still executing;
//   (c) a 2-shard chain folded with fanout 2 at pipeline depth 2 (every
//       split receipt, shard receipt and tree seal).
// A refactor of the round pipeline or the prover must leave every digest
// unchanged. Each chain is checked on the default SHA-256 backend and pinned
// to the scalar backend; a second ctest registration reruns the binary with
// a one-worker pool (ZKT_POOL_THREADS=1).
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "crypto/sha256_backend.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

constexpr const char* kPlainChainDigest =
    "b03b1b0e82d36ea04f55003be53b3baa2651008a412d6c4b1d616e381ffd6978";
constexpr const char* kPlainChainSegmentedDigest =
    "3b28cd82e46edd929b1360f5428802c8f7d500313b9c37096d919dfecf4ddf07";
constexpr const char* kShardedChainDigest =
    "dc3a31c4b7ef1865985d3ce4f0b683b71a3b27b89053e7defb1d8f7dc7925866";

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

std::string plain_chain_digest(
    u64 max_segment_rows = zvm::kDefaultSegmentRows) {
  Deployment d;
  // Genesis: 64 flows over two routers. Then three windows that each merge
  // a few resident flows and add one new one — delta rounds.
  d.commit(0, 0, 0, 32);
  d.commit(0, 1, 32, 64);
  for (u64 w = 1; w <= 3; ++w) {
    const u32 base = static_cast<u32>(w) * 5;
    d.commit(w, 0, base, base + 3);
    d.commit(w, 1, 64 + static_cast<u32>(w), 65 + static_cast<u32>(w));
  }

  PipelineOptions options;
  options.epoch_every = 2;
  options.prove_options.max_segment_rows = max_segment_rows;
  ProviderPipeline pipeline(d.store, d.board, options);
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

  Bytes all;
  EXPECT_EQ(pipeline.receipts().size(), 4u);
  for (const zvm::Receipt& receipt : pipeline.receipts()) {
    append(all, receipt.to_bytes());
  }
  for (const EpochSeal& seal : seals.value()) append(all, seal.to_bytes());
  return to_hex(crypto::sha256(all).bytes);
}

std::string sharded_chain_digest() {
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

  Bytes all;
  for (const RoundResult& round : rounds.value()) {
    for (const zvm::Receipt& split : round.split_receipts) {
      append(all, split.to_bytes());
    }
    EXPECT_EQ(round.shard_rounds.size(), 2u);
    for (const AggregationRound& shard : round.shard_rounds) {
      append(all, shard.receipt.to_bytes());
    }
    EXPECT_TRUE(round.tree_seal.has_value());
    if (round.tree_seal.has_value()) append(all, round.tree_seal->to_bytes());
  }
  EXPECT_EQ(pipeline.tree_seals().size(), 4u);
  return to_hex(crypto::sha256(all).bytes);
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
  EXPECT_EQ(plain_chain_digest(), kPlainChainDigest);
}

TEST(GoldenReceipts, PlainChainScalarBackend) {
  ScalarSha256 scalar;
  EXPECT_EQ(plain_chain_digest(), kPlainChainDigest);
}

TEST(GoldenReceipts, PlainChainSegmentedDefaultBackend) {
  EXPECT_EQ(plain_chain_digest(256), kPlainChainSegmentedDigest);
}

TEST(GoldenReceipts, PlainChainSegmentedScalarBackend) {
  ScalarSha256 scalar;
  EXPECT_EQ(plain_chain_digest(256), kPlainChainSegmentedDigest);
}

TEST(GoldenReceipts, ShardedChainDefaultBackend) {
  EXPECT_EQ(sharded_chain_digest(), kShardedChainDigest);
}

TEST(GoldenReceipts, ShardedChainScalarBackend) {
  ScalarSha256 scalar;
  EXPECT_EQ(sharded_chain_digest(), kShardedChainDigest);
}

}  // namespace
}  // namespace zkt::core
