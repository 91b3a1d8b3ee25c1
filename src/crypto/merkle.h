// Merkle tree over 32-byte digests with inclusion proofs, O(log n) leaf
// updates, and appends.
//
// Used in two places, exactly as in the paper:
//   * the aggregate-log (CLog) authentication structure maintained across
//     aggregation rounds (Figure 2), and
//   * the zkVM trace commitment that the prover opens at Fiat–Shamir-chosen
//     indices.
//
// Leaves are padded to a power of two with a distinguished empty digest.
// Leaf and internal node hashes are domain-separated (0x00 / 0x01 prefixes)
// so a leaf can never be confused with an interior node. Builds take every
// all-padding pair from a table of empty-subtree roots instead of hashing it.
#pragma once

#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/digest.h"

namespace zkt::crypto {

struct MerkleProof {
  u64 leaf_index = 0;
  u64 leaf_count = 0;              ///< number of real (unpadded) leaves
  std::vector<Digest32> siblings;  ///< bottom-up sibling digests

  void serialize(Writer& w) const;
  static Result<MerkleProof> deserialize(Reader& r);

  friend bool operator==(const MerkleProof&, const MerkleProof&) = default;

  /// Serialized size in bytes.
  size_t byte_size() const { return 16 + 2 + siblings.size() * 32; }
};

/// Accounting for batched path verification (verify_batch): how many
/// hash_node applications ran, and how many were avoided because converging
/// paths produced an identical (left, right) input that was computed once
/// and shared. Callers (the zvm verifier, the auditor) publish these into
/// obs themselves — crypto stays obs-free per the module DAG.
struct PathBatchStats {
  u64 node_hashes = 0;         ///< hash_node applications computed
  u64 node_hashes_shared = 0;  ///< applications deduplicated away
};

/// One (leaf digest, inclusion proof) item for MerkleTree::verify_batch.
/// Non-owning: both pointers must outlive the call.
struct LeafProof {
  const Digest32* leaf = nullptr;
  const MerkleProof* proof = nullptr;
};

/// Batch inclusion proof for several leaves at once: stores only the
/// sibling digests not derivable from the opened leaves themselves, so
/// proving k leaves costs far less than k single proofs (shared path
/// prefixes are deduplicated). Used to compress multi-entry openings.
struct MerkleMultiProof {
  u64 leaf_count = 0;
  std::vector<u64> indices;          ///< sorted, unique leaf indices
  std::vector<Digest32> siblings;    ///< bottom-up, left-to-right order

  void serialize(Writer& w) const;
  static Result<MerkleMultiProof> deserialize(Reader& r);
  size_t byte_size() const { return 16 + 4 + indices.size() * 8 + 2 + siblings.size() * 32; }
};

/// New digests for every node a multi-leaf update changes, level by level:
/// levels[h] holds (index, digest) for the changed nodes at height h,
/// ascending by index; levels[0] are the new leaves and levels.back() the
/// new root. Planned without touching the tree (MerkleTree::plan_patch),
/// applied later (MerkleTree::apply_patch); empty for an empty update.
struct MerklePatch {
  std::vector<std::vector<std::pair<u64, Digest32>>> levels;
};

class MerkleTree {
 public:
  MerkleTree() = default;
  /// Build from pre-hashed leaf digests.
  explicit MerkleTree(std::vector<Digest32> leaves);

  /// Domain-separated leaf hash of raw data.
  static Digest32 hash_leaf(BytesView data);
  /// Domain-separated internal node hash.
  static Digest32 hash_node(const Digest32& left, const Digest32& right);
  /// Batched hash_leaf over independent messages: out[i] = hash_leaf(datas[i]).
  /// Dispatches to the fastest available SHA-256 backend (crypto/
  /// sha256_backend.h); bit-identical to the per-leaf form.
  static std::vector<Digest32> hash_leaves(std::span<const BytesView> datas);
  /// Batched hash_node over consecutive pairs: out[i] = hash_node(
  /// nodes[2i], nodes[2i+1]). nodes.size() must be even and out.size() ==
  /// nodes.size() / 2. Bit-identical to the per-pair form.
  static void hash_pairs(std::span<const Digest32> nodes,
                         std::span<Digest32> out);
  /// The digest used to pad the leaf layer to a power of two.
  static const Digest32& empty_leaf();
  /// Root of the all-empty subtree of the given height (height 0 is the
  /// empty leaf itself, height <= 64), from a table computed once. Doubling
  /// a tree's capacity maps its root r to hash_node(r,
  /// empty_subtree_root(old_depth)).
  static const Digest32& empty_subtree_root(u32 height);
  /// Depth of the padded tree over `leaf_count` leaves: log2 of the next
  /// power of two (0 for at most one leaf). A count above 2^63 pads to no
  /// u64 and is merkle_mismatch. Every check of a leaf count read off a
  /// proof, here or traced in a guest, sizes its tree through this.
  static Result<u32> depth_for(u64 leaf_count);

  /// Root digest. For an empty tree, returns the hash of the empty leaf.
  Digest32 root() const;

  u64 leaf_count() const { return leaf_count_; }
  u32 depth() const;
  const Digest32& leaf(u64 index) const { return levels_[0][index]; }

  /// Inclusion proof for leaf `index` (must be < leaf_count()).
  MerkleProof prove(u64 index) const;

  /// Replace the leaf at `index` and recompute the path to the root.
  void update_leaf(u64 index, const Digest32& new_leaf);

  /// Plan replacing several leaves at once: `leaves` holds (slot, digest)
  /// pairs strictly ascending by slot, each slot < capacity(). Every dirty
  /// ancestor is hashed once, level by level through hash_pairs, so paths
  /// that share a prefix share its hashes. Does not modify the tree.
  MerklePatch plan_patch(std::vector<std::pair<u64, Digest32>> leaves) const;

  /// Write a patch planned against this exact tree (same leaves and
  /// capacity). Afterwards the tree equals one that applied the patch's
  /// leaves one by one with update_leaf.
  void apply_patch(const MerklePatch& patch);

  /// Grow the padded leaf layer to at least `min_slots` slots (rounded up
  /// to a power of two) without changing leaf_count(). Growing changes
  /// root(): each doubling maps r to hash_node(r, empty_subtree). Used on
  /// throwaway copies to build multiproofs that open the empty slots a
  /// delta round is about to fill.
  void grow_capacity(u64 min_slots);

  /// Number of padded leaf slots (power of two; >= leaf_count()).
  u64 capacity() const { return levels_.empty() ? 0 : levels_[0].size(); }

  /// Verify an inclusion proof against a root.
  static Status verify(const Digest32& root, const Digest32& leaf,
                       const MerkleProof& proof);

  /// Verify many inclusion proofs against ONE root, level-synchronously:
  /// every level's hash_node applications across all proofs go through one
  /// hash_pairs call (full SIMD lanes), and identical (left, right) inputs —
  /// paths converging toward the root, or sibling openings hashing the same
  /// pair from both sides — are computed once and shared. Accepts exactly
  /// when verify() accepts every item; on rejection the error is one of the
  /// failing items' (the reported item may differ from the sequential
  /// first-failure under multi-item tampering, the decision never does).
  static Status verify_batch(const Digest32& root,
                             std::span<const LeafProof> items,
                             PathBatchStats* stats = nullptr);

  /// Batch inclusion proof for `indices` (each < leaf_count(); duplicates
  /// ignored).
  MerkleMultiProof prove_multi(std::span<const u64> indices) const;

  /// Verify a batch proof. `leaves` must be the (index, digest) pairs for
  /// exactly the proof's indices, sorted ascending by index.
  static Status verify_multi(
      const Digest32& root,
      std::span<const std::pair<u64, Digest32>> leaves,
      const MerkleMultiProof& proof);

  /// Number of node hashes needed to build a tree of n leaves (the hash-cost
  /// model used by the specialized-proof-system ablation, §7 of the paper).
  static u64 build_hash_count(u64 leaf_count);

 private:
  void rebuild();
  void build_above();

  // levels_[0] = padded leaves, levels_.back() = {root}.
  std::vector<std::vector<Digest32>> levels_;
  u64 leaf_count_ = 0;
};

}  // namespace zkt::crypto
