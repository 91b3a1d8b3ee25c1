// Cross-backend equivalence for the batched SHA-256 layer: every compiled
// backend must produce digests bit-identical to the portable scalar code on
// randomized inputs, across every batch API (compress_many, sha256_many,
// MerkleTree::hash_leaves / hash_pairs) and for full trees. Backends are
// pinned through the sha256_force_backend() test hook.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_backend.h"

using namespace zkt;
using namespace zkt::crypto;

namespace {

constexpr Sha256Backend kAllBackends[] = {
    Sha256Backend::scalar, Sha256Backend::shani, Sha256Backend::avx2};

/// Pins a backend for the scope of a test; restores auto-dispatch on exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(Sha256Backend backend) {
    forced_ = sha256_force_backend(backend);
  }
  ~ScopedBackend() { sha256_force_backend(std::nullopt); }
  bool forced() const { return forced_; }

 private:
  bool forced_ = false;
};

Bytes random_bytes(Xoshiro256& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>(rng.uniform(256));
  return out;
}

Sha256State random_state(Xoshiro256& rng) {
  Sha256State s;
  for (auto& w : s.h) w = static_cast<u32>(rng.next());
  return s;
}

std::vector<Sha256Backend> available_backends() {
  std::vector<Sha256Backend> out;
  for (Sha256Backend b : kAllBackends) {
    if (sha256_backend_available(b)) out.push_back(b);
  }
  return out;
}

}  // namespace

TEST(Sha256BackendTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(sha256_backend_compiled(Sha256Backend::scalar));
  EXPECT_TRUE(sha256_backend_available(Sha256Backend::scalar));
}

TEST(Sha256BackendTest, NamesRoundTrip) {
  for (Sha256Backend b : kAllBackends) {
    auto parsed = sha256_backend_from_name(sha256_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(sha256_backend_from_name("sha512").has_value());
}

TEST(Sha256BackendTest, ForceRejectsUnavailableBackend) {
  for (Sha256Backend b : kAllBackends) {
    if (sha256_backend_available(b)) continue;
    EXPECT_FALSE(sha256_force_backend(b))
        << "forcing unavailable backend " << sha256_backend_name(b);
    // Selection must be unchanged (still automatic).
    EXPECT_TRUE(sha256_backend_available(sha256_active_backend()));
  }
}

TEST(Sha256BackendTest, ForcePinsActiveBackend) {
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    EXPECT_EQ(sha256_active_backend(), b) << sha256_backend_name(b);
  }
  EXPECT_TRUE(sha256_backend_available(sha256_active_backend()));
}

TEST(Sha256BackendTest, CompressManyMatchesScalarPerLane) {
  Xoshiro256 rng(2024);
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    for (size_t lanes : {1u, 2u, 3u, 7u, 8u, 9u, 16u, 31u, 64u, 255u}) {
      std::vector<Sha256State> states;
      std::vector<std::array<u8, 64>> blocks(lanes);
      for (size_t i = 0; i < lanes; ++i) {
        states.push_back(random_state(rng));
        for (auto& byte : blocks[i]) byte = static_cast<u8>(rng.uniform(256));
      }
      std::vector<Sha256State> expected = states;
      for (size_t i = 0; i < lanes; ++i) {
        expected[i] = sha256_compress_portable(expected[i], blocks[i]);
      }
      sha256_compress_many(states, blocks);
      for (size_t i = 0; i < lanes; ++i) {
        EXPECT_EQ(states[i].h, expected[i].h)
            << sha256_backend_name(b) << " lane " << i << " of " << lanes;
      }
    }
  }
}

TEST(Sha256BackendTest, SingleBlockAndStreamingMatchPortableCompressor) {
  // The single-block sha256_compress — under the streaming Sha256, Merkle
  // node/leaf hashing and traced guest rows — runs on the active backend.
  // Under every forced backend it must equal the portable compressor at
  // every length through the padding boundaries (55/56/63/64/65), and it
  // must not count as a batched call.
  Xoshiro256 rng(300);
  const Bytes data = random_bytes(rng, 300);
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    const Sha256BackendStats stats_before = sha256_backend_stats(b);
    for (size_t len = 0; len <= data.size(); ++len) {
      const BytesView msg(data.data(), len);
      Sha256State expected = Sha256State::initial();
      sha256_padded_blocks(msg, [&](const std::array<u8, 64>& block) {
        EXPECT_EQ(sha256_compress(expected, block).h,
                  sha256_compress_portable(expected, block).h)
            << sha256_backend_name(b) << " len " << len;
        expected = sha256_compress_portable(expected, block);
      });
      // Two updates, so the buffered partial-block path runs too.
      Sha256 streaming;
      streaming.update(msg.subspan(0, len / 3));
      streaming.update(msg.subspan(len / 3));
      EXPECT_EQ(streaming.finalize(), expected.to_digest())
          << sha256_backend_name(b) << " len " << len;
    }
    const Sha256BackendStats stats_after = sha256_backend_stats(b);
    EXPECT_EQ(stats_after.blocks, stats_before.blocks) << sha256_backend_name(b);
    EXPECT_EQ(stats_after.batches, stats_before.batches)
        << sha256_backend_name(b);
  }
}

TEST(Sha256BackendTest, Sha256ManyMatchesStreamingHasher) {
  Xoshiro256 rng(7);
  std::vector<Bytes> msgs;
  for (size_t len : {0u, 1u, 31u, 54u, 55u, 56u, 63u, 64u, 65u, 119u, 120u,
                     127u, 128u, 300u, 1000u}) {
    msgs.push_back(random_bytes(rng, len));
  }
  for (u64 i = 0; i < 40; ++i) {
    msgs.push_back(random_bytes(rng, rng.uniform(512)));
  }
  std::vector<BytesView> views(msgs.begin(), msgs.end());

  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    const auto untagged = sha256_many(views, std::nullopt);
    const auto tagged = sha256_many(views, u8{0x00});
    ASSERT_EQ(untagged.size(), msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(untagged[i], sha256(views[i]))
          << sha256_backend_name(b) << " msg " << i;
      EXPECT_EQ(tagged[i], MerkleTree::hash_leaf(views[i]))
          << sha256_backend_name(b) << " msg " << i;
    }
  }
}

TEST(Sha256BackendTest, HashPairsMatchesHashNode) {
  Xoshiro256 rng(99);
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    for (size_t pairs : {1u, 2u, 5u, 8u, 9u, 100u}) {
      std::vector<Digest32> nodes(2 * pairs);
      for (auto& d : nodes) {
        for (auto& byte : d.bytes) byte = static_cast<u8>(rng.uniform(256));
      }
      std::vector<Digest32> out(pairs);
      MerkleTree::hash_pairs(nodes, out);
      for (size_t i = 0; i < pairs; ++i) {
        EXPECT_EQ(out[i], MerkleTree::hash_node(nodes[2 * i], nodes[2 * i + 1]))
            << sha256_backend_name(b) << " pair " << i;
      }
    }
  }
}

TEST(Sha256BackendTest, MerkleRootIdenticalAcrossBackends) {
  Xoshiro256 rng(41);
  std::vector<Bytes> rows;
  for (u64 i = 0; i < 5000; ++i) {
    rows.push_back(random_bytes(rng, 40 + rng.uniform(80)));
  }
  std::vector<BytesView> views(rows.begin(), rows.end());

  std::optional<Digest32> reference;
  for (Sha256Backend b : available_backends()) {
    ScopedBackend pin(b);
    ASSERT_TRUE(pin.forced());
    MerkleTree tree(MerkleTree::hash_leaves(views));
    if (!reference.has_value()) {
      reference = tree.root();
    } else {
      EXPECT_EQ(tree.root(), *reference) << sha256_backend_name(b);
    }
    // Proofs from the batched-build tree verify exactly as before.
    auto proof = tree.prove(1234);
    EXPECT_TRUE(
        MerkleTree::verify(tree.root(), tree.leaf(1234), proof).ok());
  }
}

TEST(Sha256BackendTest, StatsAccumulate) {
  const Sha256Backend active = sha256_active_backend();
  const u64 before = sha256_backend_stats(active).blocks;
  std::vector<Sha256State> states(32, Sha256State::initial());
  std::vector<std::array<u8, 64>> blocks(32);
  sha256_compress_many(states, blocks);
  const auto after = sha256_backend_stats(active);
  EXPECT_GE(after.blocks, before + 32);
  EXPECT_GE(after.batches, 1u);
}
