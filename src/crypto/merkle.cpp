#include "crypto/merkle.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <map>

#include "common/thread_pool.h"
#include "crypto/ct.h"
#include "crypto/sha256.h"
#include "crypto/sha256_backend.h"

namespace zkt::crypto {

namespace {

/// For sizes of trees held in memory; counts read off a proof go through
/// MerkleTree::depth_for.
u64 next_pow2(u64 n) {
  if (n <= 1) return 1;
  return std::bit_ceil(n);
}

// Below this many pairs a level is hashed on the calling thread; above it
// the shared pool splits the level. Chosen so the per-chunk batch still
// saturates the 8-wide AVX2 lanes.
constexpr size_t kParallelPairs = 2048;
constexpr size_t kPairGrain = 512;

}  // namespace

Digest32 MerkleTree::hash_leaf(BytesView data) {
  Sha256 h;
  const u8 tag = 0x00;
  h.update(BytesView(&tag, 1));
  h.update(data);
  return h.finalize();
}

Digest32 MerkleTree::hash_node(const Digest32& left, const Digest32& right) {
  Sha256 h;
  const u8 tag = 0x01;
  h.update(BytesView(&tag, 1));
  h.update(left.view());
  h.update(right.view());
  return h.finalize();
}

std::vector<Digest32> MerkleTree::hash_leaves(
    std::span<const BytesView> datas) {
  return sha256_many(datas, u8{0x00});
}

void MerkleTree::hash_pairs(std::span<const Digest32> nodes,
                            std::span<Digest32> out) {
  const size_t n = nodes.size() / 2;
  assert(out.size() == n && nodes.size() % 2 == 0);
  if (n == 0) return;
  // hash_node's message is exactly 65 bytes (0x01 || left || right), i.e.
  // two compression blocks per pair; batch each block position across all
  // pairs so the SIMD backends see full lanes.
  std::vector<Sha256State> states(n, Sha256State::initial());
  std::vector<std::array<u8, 64>> blocks(n);
  for (size_t i = 0; i < n; ++i) {
    std::array<u8, 64>& block = blocks[i];
    block[0] = 0x01;
    std::memcpy(block.data() + 1, nodes[2 * i].bytes.data(), 32);
    std::memcpy(block.data() + 33, nodes[2 * i + 1].bytes.data(), 31);
  }
  sha256_compress_many(states, blocks);
  for (size_t i = 0; i < n; ++i) {
    std::array<u8, 64>& block = blocks[i];
    block.fill(0);
    block[0] = nodes[2 * i + 1].bytes[31];
    block[1] = 0x80;
    // 65 bytes = 520 bits, big-endian in the trailing length field.
    block[62] = 0x02;
    block[63] = 0x08;
  }
  sha256_compress_many(states, blocks);
  for (size_t i = 0; i < n; ++i) out[i] = states[i].to_digest();
}

const Digest32& MerkleTree::empty_leaf() {
  static const Digest32 kEmpty = hash_leaf(bytes_of("zkt.merkle.empty"));
  return kEmpty;
}

const Digest32& MerkleTree::empty_subtree_root(u32 height) {
  // Heights 0..64 cover every tree a u64 leaf index can address.
  static const std::array<Digest32, 65> kRoots = [] {
    std::array<Digest32, 65> roots;
    roots[0] = empty_leaf();
    for (size_t h = 1; h < roots.size(); ++h) {
      roots[h] = hash_node(roots[h - 1], roots[h - 1]);
    }
    return roots;
  }();
  assert(height < kRoots.size());
  return kRoots[height];
}

Result<u32> MerkleTree::depth_for(u64 leaf_count) {
  if (leaf_count > (u64{1} << 63)) {
    return Error{Errc::merkle_mismatch, "leaf count above 2^63"};
  }
  return static_cast<u32>(std::countr_zero(next_pow2(leaf_count)));
}

MerkleTree::MerkleTree(std::vector<Digest32> leaves)
    : leaf_count_(leaves.size()) {
  levels_.clear();
  levels_.push_back(std::move(leaves));
  rebuild();
}

void MerkleTree::rebuild() {
  auto& leaves = levels_.empty() ? (levels_.emplace_back()) : levels_[0];
  const u64 padded = next_pow2(std::max<u64>(leaf_count_, 1));
  leaves.resize(padded, empty_leaf());
  build_above();
}

void MerkleTree::build_above() {
  levels_.resize(1);
  for (u32 height = 0; levels_.back().size() > 1; ++height) {
    const auto& below = levels_.back();
    // Trailing pairs whose two children both equal this height's empty
    // root are padding: their parent is the next empty root, taken from
    // the table instead of hashed. The test is on values, not on
    // leaf_count_, so a padding slot that was overwritten still hashes.
    const Digest32& empty = empty_subtree_root(height);
    size_t live = below.size() / 2;
    while (live > 0 && ct_equal(below[2 * live - 1], empty) &&
           ct_equal(below[2 * live - 2], empty)) {
      --live;
    }
    std::vector<Digest32> above(below.size() / 2,
                                empty_subtree_root(height + 1));
    const std::span<const Digest32> src =
        std::span<const Digest32>(below).first(2 * live);
    const std::span<Digest32> dst = std::span<Digest32>(above).first(live);
    if (live >= kParallelPairs &&
        common::ThreadPool::shared().thread_count() > 1) {
      // Level-parallel: disjoint pair ranges, so chunks never overlap and
      // the digests are identical to the sequential build.
      common::ThreadPool::shared().parallel_for(
          live, kPairGrain, [&](size_t begin, size_t end) {
            hash_pairs(src.subspan(2 * begin, 2 * (end - begin)),
                       dst.subspan(begin, end - begin));
          });
    } else {
      hash_pairs(src, dst);
    }
    levels_.push_back(std::move(above));
  }
}

Digest32 MerkleTree::root() const {
  // A tree with zero leaves pads to a single empty leaf, whose root is that
  // leaf itself; keep the default-constructed tree consistent with that.
  if (levels_.empty()) return empty_leaf();
  return levels_.back()[0];
}

u32 MerkleTree::depth() const {
  return levels_.empty() ? 0 : static_cast<u32>(levels_.size() - 1);
}

MerkleProof MerkleTree::prove(u64 index) const {
  // The index must address a slot in the padded leaf layer (the || form this
  // replaced was a tautology for padded trees: leaf_count_ <= levels_[0]
  // .size() always).
  assert(!levels_.empty() && index < levels_[0].size());
  MerkleProof proof;
  proof.leaf_index = index;
  proof.leaf_count = leaf_count_;
  u64 idx = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const u64 sibling = idx ^ 1;
    proof.siblings.push_back(levels_[level][sibling]);
    idx >>= 1;
  }
  return proof;
}

void MerkleTree::update_leaf(u64 index, const Digest32& new_leaf) {
  assert(!levels_.empty() && index < levels_[0].size());
  levels_[0][index] = new_leaf;
  u64 idx = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const u64 parent = idx >> 1;
    levels_[level + 1][parent] =
        hash_node(levels_[level][parent * 2], levels_[level][parent * 2 + 1]);
    idx = parent;
  }
}

MerklePatch MerkleTree::plan_patch(
    std::vector<std::pair<u64, Digest32>> leaves) const {
  MerklePatch patch;
  if (leaves.empty()) return patch;
  assert(!levels_.empty() && leaves.back().first < levels_[0].size());
  patch.levels.reserve(levels_.size());
  patch.levels.push_back(std::move(leaves));
  std::vector<Digest32> pairs;
  std::vector<Digest32> parents;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    // Pair every dirty node with its sibling (dirty too, or the current
    // one), then hash the level's parents in one batch.
    const auto& dirty = patch.levels[level];
    const std::vector<Digest32>& current = levels_[level];
    std::vector<std::pair<u64, Digest32>> above;
    above.reserve(dirty.size());
    pairs.clear();
    for (size_t i = 0; i < dirty.size(); ++i) {
      assert(i == 0 || dirty[i - 1].first < dirty[i].first);
      const u64 index = dirty[i].first;
      if (index & 1) {
        pairs.push_back(current[index - 1]);
        pairs.push_back(dirty[i].second);
      } else {
        pairs.push_back(dirty[i].second);
        const bool sibling_dirty =
            i + 1 < dirty.size() && dirty[i + 1].first == index + 1;
        pairs.push_back(sibling_dirty ? dirty[++i].second
                                      : current[index + 1]);
      }
      above.emplace_back(index >> 1, Digest32{});
    }
    parents.resize(above.size());
    hash_pairs(pairs, parents);
    for (size_t j = 0; j < above.size(); ++j) above[j].second = parents[j];
    patch.levels.push_back(std::move(above));
  }
  return patch;
}

void MerkleTree::apply_patch(const MerklePatch& patch) {
  if (patch.levels.empty()) return;
  assert(patch.levels.size() == levels_.size());
  for (size_t level = 0; level < patch.levels.size(); ++level) {
    for (const auto& [index, digest] : patch.levels[level]) {
      levels_[level][index] = digest;
    }
  }
}

void MerkleTree::grow_capacity(u64 min_slots) {
  const u64 padded = next_pow2(std::max<u64>(min_slots, 1));
  if (!levels_.empty() && levels_[0].size() >= padded) return;
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].resize(padded, empty_leaf());
  build_above();
}

Status MerkleTree::verify(const Digest32& root, const Digest32& leaf,
                          const MerkleProof& proof) {
  auto depth = depth_for(proof.leaf_count);
  if (!depth.ok()) return depth.error();
  const u32 expect_depth = depth.value();
  const u64 padded = u64{1} << expect_depth;
  if (proof.siblings.size() != expect_depth) {
    return Error{Errc::merkle_mismatch, "proof depth mismatch"};
  }
  if (proof.leaf_index >= padded) {
    return Error{Errc::merkle_mismatch, "leaf index out of range"};
  }
  Digest32 acc = leaf;
  u64 idx = proof.leaf_index;
  for (const auto& sibling : proof.siblings) {
    acc = (idx & 1) ? hash_node(sibling, acc) : hash_node(acc, sibling);
    idx >>= 1;
  }
  if (!ct_equal(acc, root)) {
    return Error{Errc::merkle_mismatch, "recomputed root does not match"};
  }
  return {};
}

Status MerkleTree::verify_batch(const Digest32& root,
                                std::span<const LeafProof> items,
                                PathBatchStats* stats) {
  // Shape checks for every item first (all cheap, no hashing); the walk
  // below may then assume per-item sibling vectors are exactly path-deep.
  struct Lane {
    u64 idx = 0;
    u32 depth = 0;
    Digest32 acc;
  };
  std::vector<Lane> lanes(items.size());
  u32 max_depth = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const MerkleProof& proof = *items[i].proof;
    auto depth = depth_for(proof.leaf_count);
    if (!depth.ok()) return depth.error();
    const u32 expect_depth = depth.value();
    const u64 padded = u64{1} << expect_depth;
    if (proof.siblings.size() != expect_depth) {
      return Error{Errc::merkle_mismatch, "proof depth mismatch"};
    }
    if (proof.leaf_index >= padded) {
      return Error{Errc::merkle_mismatch, "leaf index out of range"};
    }
    lanes[i] = {proof.leaf_index, expect_depth, *items[i].leaf};
    max_depth = std::max(max_depth, expect_depth);
  }

  // Level-synchronous walk. At each level, collect every active lane's
  // (left, right) input, deduplicate identical inputs (identical inputs
  // yield identical digests, so sharing cannot change any decision), batch
  // the unique ones through hash_pairs, and scatter the parents back.
  std::vector<Digest32> nodes;                  // unique pairs, interleaved
  std::vector<Digest32> parents;
  std::vector<size_t> slot_of_lane(lanes.size());
  std::map<std::array<u8, 64>, size_t> unique;  // pair bytes -> slot
  for (u32 level = 0; level < max_depth; ++level) {
    nodes.clear();
    unique.clear();
    for (size_t i = 0; i < lanes.size(); ++i) {
      Lane& lane = lanes[i];
      if (level >= lane.depth) continue;
      const Digest32& sibling = items[i].proof->siblings[level];
      const Digest32& left = (lane.idx & 1) ? sibling : lane.acc;
      const Digest32& right = (lane.idx & 1) ? lane.acc : sibling;
      std::array<u8, 64> pair_bytes;
      std::memcpy(pair_bytes.data(), left.bytes.data(), 32);
      std::memcpy(pair_bytes.data() + 32, right.bytes.data(), 32);
      const auto [it, inserted] =
          unique.try_emplace(pair_bytes, unique.size());
      if (inserted) {
        nodes.push_back(left);
        nodes.push_back(right);
      } else if (stats != nullptr) {
        ++stats->node_hashes_shared;
      }
      slot_of_lane[i] = it->second;
    }
    parents.assign(nodes.size() / 2, Digest32{});
    hash_pairs(nodes, parents);
    if (stats != nullptr) stats->node_hashes += parents.size();
    for (size_t i = 0; i < lanes.size(); ++i) {
      Lane& lane = lanes[i];
      if (level >= lane.depth) continue;
      lane.acc = parents[slot_of_lane[i]];
      lane.idx >>= 1;
    }
  }

  for (const Lane& lane : lanes) {
    if (!ct_equal(lane.acc, root)) {
      return Error{Errc::merkle_mismatch, "recomputed root does not match"};
    }
  }
  return {};
}

Result<MerkleMultiProof> MerkleTree::prove_multi(
    std::span<const u64> indices) const {
  MerkleMultiProof proof;
  proof.leaf_count = leaf_count_;
  proof.indices.assign(indices.begin(), indices.end());
  std::sort(proof.indices.begin(), proof.indices.end());
  proof.indices.erase(
      std::unique(proof.indices.begin(), proof.indices.end()),
      proof.indices.end());

  // Walk levels bottom-up: a sibling is emitted only when it cannot be
  // recomputed from nodes the verifier already knows.
  std::vector<u64> known = proof.indices;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    std::vector<u64> parents;
    for (size_t i = 0; i < known.size(); ++i) {
      const u64 idx = known[i];
      const u64 sibling = idx ^ 1;
      const bool sibling_known =
          (i + 1 < known.size() && known[i + 1] == sibling);
      if (sibling_known) {
        ++i;  // consume the pair
      } else {
        proof.siblings.push_back(levels_[level][sibling]);
      }
      parents.push_back(idx >> 1);
    }
    known = std::move(parents);
  }
  if (proof.indices.size() > kMaxMultiproofIndices ||
      proof.siblings.size() > kMaxMultiproofSiblings) {
    return Error{Errc::unsupported,
                 "multiproof of " + std::to_string(proof.indices.size()) +
                     " indices and " + std::to_string(proof.siblings.size()) +
                     " siblings exceeds its wire format"};
  }
  return proof;
}

Status MerkleTree::verify_multi(
    const Digest32& root, std::span<const std::pair<u64, Digest32>> leaves,
    const MerkleMultiProof& proof) {
  if (leaves.size() != proof.indices.size()) {
    return Error{Errc::merkle_mismatch, "leaf count vs proof indices"};
  }
  auto proof_depth = depth_for(proof.leaf_count);
  if (!proof_depth.ok()) return proof_depth.error();
  const u32 depth = proof_depth.value();
  const u64 padded = u64{1} << depth;

  std::vector<std::pair<u64, Digest32>> known(leaves.begin(), leaves.end());
  for (size_t i = 0; i < known.size(); ++i) {
    if (known[i].first != proof.indices[i]) {
      return Error{Errc::merkle_mismatch, "leaves not sorted to indices"};
    }
    if (i > 0 && known[i].first <= known[i - 1].first) {
      return Error{Errc::merkle_mismatch, "indices not strictly ascending"};
    }
    if (known[i].first >= padded) {
      return Error{Errc::merkle_mismatch, "index out of range"};
    }
  }
  if (known.empty()) {
    return Error{Errc::merkle_mismatch, "empty multiproof"};
  }

  size_t next_sibling = 0;
  for (u32 level = 0; level < depth; ++level) {
    std::vector<std::pair<u64, Digest32>> parents;
    for (size_t i = 0; i < known.size(); ++i) {
      const u64 idx = known[i].first;
      const u64 sibling_idx = idx ^ 1;
      Digest32 sibling;
      if (i + 1 < known.size() && known[i + 1].first == sibling_idx) {
        sibling = known[i + 1].second;
        parents.emplace_back(idx >> 1,
                             hash_node(known[i].second, sibling));
        ++i;
        continue;
      }
      if (next_sibling >= proof.siblings.size()) {
        return Error{Errc::merkle_mismatch, "multiproof ran out of siblings"};
      }
      sibling = proof.siblings[next_sibling++];
      parents.emplace_back(idx >> 1,
                           (idx & 1) ? hash_node(sibling, known[i].second)
                                     : hash_node(known[i].second, sibling));
    }
    known = std::move(parents);
  }
  if (next_sibling != proof.siblings.size()) {
    return Error{Errc::merkle_mismatch, "unused multiproof siblings"};
  }
  if (known.size() != 1 || !ct_equal(known[0].second, root)) {
    return Error{Errc::merkle_mismatch, "recomputed root does not match"};
  }
  return {};
}

u64 MerkleTree::build_hash_count(u64 leaf_count) {
  const u64 padded = next_pow2(std::max<u64>(leaf_count, 1));
  return padded - 1;  // internal nodes of a full binary tree
}

}  // namespace zkt::crypto
