// Chain snapshot bundles (v3): full and delta bodies round-trip, peek()
// reads identifiers only, collapse() folds a full bundle and its deltas
// into the live state, and hostile bytes — truncation at every offset, CRC
// flips, unsorted or duplicate upserts, oversized upsert counts, unknown
// body kinds and versions, random mutations — yield a typed Errc, never a
// crash.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/chain_snapshot.h"
#include "crypto/sha256.h"
#include "store/logstore.h"

namespace zkt::core {
namespace {

using netflow::FlowKey;
using netflow::FlowRecord;

FlowRecord record(u32 flow, u64 bytes) {
  FlowRecord rec;
  netflow::PacketObservation pkt;
  pkt.key = {0x0A000000 + flow, 0x0B0B0B0B, 4000, 443, 6};
  pkt.timestamp_ms = 1000 + flow;
  pkt.bytes = bytes;
  rec.observe(pkt);
  return rec;
}

std::vector<FlowKey> sorted_keys(const std::vector<FlowRecord>& records) {
  std::vector<FlowKey> keys;
  for (const auto& r : records) keys.push_back(r.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

ShardedChainSnapshot bundle(u64 round, ChainSnapshot shard) {
  ShardedChainSnapshot snap;
  snap.round_id = round;
  snap.window_id = round;
  snap.shard_count = 1;
  snap.shards.push_back(std::move(shard));
  return snap;
}

/// A live chain: a 20-entry genesis (full bundle, round 1), then two rounds
/// of merges and inserts (delta bundles, rounds 2 and 3).
struct Chain {
  CLogState state;
  netflow::RoundSketch sketch{netflow::SketchParams{
      .cm = {.width = 16, .depth = 2, .seed = 7}, .heavy_capacity = 4}};
  std::vector<ShardedChainSnapshot> bundles;

  Chain() {
    std::vector<FlowRecord> genesis;
    for (u32 f = 0; f < 20; ++f) genesis.push_back(record(2 * f, 100));
    round(genesis, /*full=*/true);
    round({record(6, 5), record(14, 5), record(99, 1)}, false);
    round({record(14, 9), record(3, 2), record(3, 2)}, false);
  }

  void round(const std::vector<FlowRecord>& records, bool full) {
    ASSERT_TRUE(state.commit(state.plan(records)).ok());
    for (const auto& r : records) sketch.update(r.key, r.packets);
    const Digest32 claim = crypto::sha256(
        "round " + std::to_string(bundles.size() + 1));
    const std::vector<FlowKey> keys = sorted_keys(records);
    bundles.push_back(bundle(
        bundles.size() + 1,
        full ? ChainSnapshot::full(claim, state, &sketch)
             : ChainSnapshot::delta(bundles.size(), claim, state, keys,
                                    &sketch)));
  }
};

/// A one-shard bundle around a hand-made entry body (with a valid CRC):
/// bodies ChainSnapshot::write never produces.
Bytes bundle_with_body(u8 kind, BytesView body, u32 version = 3) {
  Writer w;
  w.u32v(0x5A4B5353);  // "ZKSS"
  w.u32v(version);
  w.u64v(2);  // round
  w.u64v(2);  // window
  w.u32v(1);
  w.varint(1);
  w.u8v(kind);
  if (kind == 1) w.u64v(1);  // base round
  w.fixed(Digest32{}.bytes);
  w.fixed(Digest32{}.bytes);
  w.u64v(10);
  w.blob(body);
  w.u32v(store::crc32(body));
  w.u8v(0);  // no sketch
  return std::move(w).take();
}

void expect_typed(const Result<ShardedChainSnapshot>& parsed,
                  const std::string& what) {
  ASSERT_FALSE(parsed.ok()) << what;
  EXPECT_TRUE(parsed.error().code == Errc::parse_error ||
              parsed.error().code == Errc::unsupported)
      << what << ": " << parsed.error().to_string();
}

TEST(ChainSnapshotTest, FullAndDeltaBundlesRoundTrip) {
  Chain chain;
  for (const auto& original : chain.bundles) {
    auto parsed = ShardedChainSnapshot::from_bytes(original.to_bytes());
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    const ChainSnapshot& a = original.shards[0];
    const ChainSnapshot& b = parsed.value().shards[0];
    EXPECT_EQ(parsed.value().round_id, original.round_id);
    EXPECT_EQ(parsed.value().is_full(), original.is_full());
    EXPECT_EQ(parsed.value().base_round_id(), original.base_round_id());
    EXPECT_EQ(b.claim_digest, a.claim_digest);
    EXPECT_EQ(b.root, a.root);
    EXPECT_EQ(b.entry_count, a.entry_count);
    EXPECT_EQ(b.entries, a.entries);
    EXPECT_EQ(b.sketch_bytes, a.sketch_bytes);
  }
  // A delta carries only the changed entries.
  EXPECT_EQ(chain.bundles[1].shards[0].entries.size(), 3u);
  EXPECT_EQ(chain.bundles[1].base_round_id(), 1u);
  EXPECT_EQ(chain.bundles[2].shards[0].entries.size(), 2u);
}

TEST(ChainSnapshotTest, PeekReadsIdentifiersOnly) {
  Chain chain;
  const ShardedChainSnapshot& delta = chain.bundles[2];
  auto head = ShardedChainSnapshot::peek(delta.to_bytes());
  ASSERT_TRUE(head.ok()) << head.error().to_string();
  EXPECT_EQ(head.value().round_id, 3u);
  EXPECT_FALSE(head.value().is_full());
  EXPECT_EQ(head.value().base_round_id(), 2u);
  EXPECT_EQ(head.value().shards[0].claim_digest,
            delta.shards[0].claim_digest);
  EXPECT_TRUE(head.value().shards[0].entries.empty());
  EXPECT_TRUE(head.value().shards[0].sketch_bytes.empty());
}

TEST(ChainSnapshotTest, CollapseFoldsDeltasOntoTheFullBundle) {
  Chain chain;
  std::vector<ShardedChainSnapshot> parsed;
  for (const auto& b : chain.bundles) {
    parsed.push_back(ShardedChainSnapshot::from_bytes(b.to_bytes()).value());
  }
  auto collapsed = ShardedChainSnapshot::collapse(parsed);
  ASSERT_TRUE(collapsed.ok()) << collapsed.error().to_string();
  EXPECT_TRUE(collapsed.value().is_full());
  EXPECT_EQ(collapsed.value().round_id, 3u);
  auto state = collapsed.value().shards[0].restore_state();
  ASSERT_TRUE(state.ok()) << state.error().to_string();
  EXPECT_EQ(state.value().root(), chain.state.root());
  EXPECT_EQ(state.value().entries(), chain.state.entries());
  auto sketch = collapsed.value().shards[0].restore_sketch();
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch.value()->hash(), chain.sketch.hash());

  // A full bundle later in the chain supersedes everything before it.
  std::vector<ShardedChainSnapshot> refreshed = parsed;
  refreshed.push_back(bundle(
      4, ChainSnapshot::full(Digest32{}, chain.state, &chain.sketch)));
  ASSERT_TRUE(ShardedChainSnapshot::collapse(refreshed).ok());

  // A chain must start full and every delta must extend its predecessor.
  EXPECT_EQ(ShardedChainSnapshot::collapse({parsed[1], parsed[2]})
                .error()
                .code,
            Errc::invalid_argument);
  EXPECT_EQ(ShardedChainSnapshot::collapse({parsed[0], parsed[2]})
                .error()
                .code,
            Errc::invalid_argument);
  // And a delta alone holds no whole state.
  EXPECT_EQ(parsed[1].shards[0].restore_state().error().code,
            Errc::invalid_argument);
}

TEST(ChainSnapshotTest, TruncationAtEveryOffsetIsTyped) {
  Chain chain;
  for (const auto& b : {chain.bundles[0], chain.bundles[1]}) {
    const Bytes bytes = b.to_bytes();
    for (size_t n = 0; n < bytes.size(); ++n) {
      const BytesView cut(bytes.data(), n);
      expect_typed(ShardedChainSnapshot::from_bytes(cut),
                   "from_bytes of " + std::to_string(n) + " bytes");
      expect_typed(ShardedChainSnapshot::peek(cut),
                   "peek of " + std::to_string(n) + " bytes");
    }
  }
}

TEST(ChainSnapshotTest, CrcFlipsAreTyped) {
  Chain chain;
  const ShardedChainSnapshot& delta = chain.bundles[1];
  const Bytes bytes = delta.to_bytes();
  // The byte just past the header (kind, base, two digests, count and the
  // blob's one-byte length) is the first byte of the entry body.
  const size_t header = 4 + 4 + 8 + 8 + 4 + 1;
  const size_t body = header + 1 + 8 + 32 + 32 + 8 + 1;
  Bytes flipped = bytes;
  flipped[body + 1] ^= 0x01;
  auto parsed = ShardedChainSnapshot::from_bytes(flipped);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, Errc::parse_error);
  EXPECT_NE(parsed.error().message.find("CRC"), std::string::npos)
      << parsed.error().message;
  // The last byte is the sketch CRC's.
  flipped = bytes;
  flipped.back() ^= 0x80;
  parsed = ShardedChainSnapshot::from_bytes(flipped);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, Errc::parse_error);
}

TEST(ChainSnapshotTest, UnsortedOrDuplicateUpsertsAreTyped) {
  Chain chain;
  const ChainSnapshot& good = chain.bundles[1].shards[0];
  ASSERT_GE(good.entries.size(), 2u);
  ChainSnapshot unsorted = good;
  std::swap(unsorted.entries[0], unsorted.entries[1]);
  ChainSnapshot duplicate = good;
  duplicate.entries[1] = duplicate.entries[0];
  for (const ChainSnapshot& shard : {unsorted, duplicate}) {
    auto parsed =
        ShardedChainSnapshot::from_bytes(bundle(2, shard).to_bytes());
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, Errc::parse_error);
  }
}

TEST(ChainSnapshotTest, UpsertCountBeyondTheBytesIsTyped) {
  for (u64 count : {u64{3}, u64{1} << 20, u64{1} << 62}) {
    Writer body;
    body.varint(count);
    body.raw(Bytes(40, 0x01));
    auto parsed =
        ShardedChainSnapshot::from_bytes(bundle_with_body(1, body.bytes()));
    ASSERT_FALSE(parsed.ok()) << count;
    EXPECT_EQ(parsed.error().code, Errc::parse_error) << count;
  }
}

TEST(ChainSnapshotTest, UnknownBodyKindOrVersionIsTyped) {
  Writer empty;
  empty.varint(0);
  auto kind = ShardedChainSnapshot::from_bytes(bundle_with_body(2, empty.bytes()));
  ASSERT_FALSE(kind.ok());
  EXPECT_EQ(kind.error().code, Errc::parse_error);
  EXPECT_EQ(ShardedChainSnapshot::peek(bundle_with_body(7, empty.bytes()))
                .error()
                .code,
            Errc::parse_error);
  for (u32 version : {2u, 4u}) {
    auto parsed = ShardedChainSnapshot::from_bytes(
        bundle_with_body(0, empty.bytes(), version));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, Errc::unsupported) << version;
  }
  // A delta must extend a strictly older row.
  Chain chain;
  ShardedChainSnapshot self_based = chain.bundles[1];
  self_based.shards[0].base_round_id = self_based.round_id;
  EXPECT_EQ(ShardedChainSnapshot::from_bytes(self_based.to_bytes())
                .error()
                .code,
            Errc::parse_error);
}

TEST(ChainSnapshotTest, RandomMutationsNeverCrash) {
  Chain chain;
  Xoshiro256 rng(13);
  for (const auto& b : chain.bundles) {
    const Bytes bytes = b.to_bytes();
    for (int trial = 0; trial < 400; ++trial) {
      Bytes mutated = bytes;
      const u64 flips = 1 + rng.uniform(4);
      for (u64 i = 0; i < flips; ++i) {
        mutated[rng.uniform(mutated.size())] ^=
            static_cast<u8>(1 + rng.uniform(255));
      }
      for (auto parsed : {ShardedChainSnapshot::from_bytes(mutated),
                          ShardedChainSnapshot::peek(mutated)}) {
        if (!parsed.ok()) {
          expect_typed(parsed, "mutation " + std::to_string(trial));
        }
      }
    }
  }
}

}  // namespace
}  // namespace zkt::core
