// Proof-tree aggregation, guest side: the join guest folds child receipts —
// per-shard aggregation rounds at the leaves, lower join nodes above them —
// into one claim.
//
// A join guest verifies each child exactly the way a round verifier would
// (traced claim-digest recomputation + assumption + journal authentication)
// and commits a journal binding every leaf's chain-link fields in leaf
// order, plus an order-binding fold digest. Folding level by level gives a
// log_fanout(K)-depth tree whose interior joins prove composite (each
// embeds its children as assumption receipts) and whose root takes the
// caller's seal kind — succinct for the paper's constant-size seal.
// Verifying the one root receipt therefore transitively verifies all K
// shard chains: §7's parallel proving no longer costs the verifier O(K)
// receipts per round.
//
// This header (and join.cpp, a zkt-lint guest-determinism root) is
// guest-reachable: no clocks, threads, or floats. The host-side fold
// orchestration lives in core/fold.h.
#pragma once

#include "core/guests.h"
#include "zvm/receipt.h"

namespace zkt::core {

/// Chain-link fields of one leaf (per-shard aggregation receipt) under a
/// join node, extracted from the leaf's AggJournal inside the guest. Links
/// are published left to right, so a leaf's position in `JoinJournal::links`
/// IS its shard id — the auditor matches links[s] against shard s's split
/// outputs, which is what makes swapped shard receipts detectable.
struct ShardLink {
  Digest32 claim_digest;  ///< the leaf receipt's (verified) claim digest
  bool has_prev = false;
  Digest32 prev_claim_digest;
  Digest32 prev_root;
  Digest32 new_root;
  u64 prev_entry_count = 0;
  u64 new_entry_count = 0;
  /// Sub-batch commitments the leaf round consumed (AggJournal order).
  std::vector<CommitmentRef> commitments;
  /// Per-shard sketch chaining (DESIGN.md §10), lifted from the leaf's
  /// AggJournal so the sharded auditor can check each shard's sketch
  /// continuity from the seal alone.
  bool has_sketch = false;
  Digest32 prev_sketch_digest;
  Digest32 sketch_digest;

  friend bool operator==(const ShardLink&, const ShardLink&) = default;

  template <class V, class Self>
  static void fields(V& v, Self& link) {
    v.field("claim_digest", link.claim_digest.bytes);
    v.field("has_prev", link.has_prev);
    v.field("prev_claim_digest", link.prev_claim_digest.bytes);
    v.field("prev_root", link.prev_root.bytes);
    v.field("new_root", link.new_root.bytes);
    v.field("prev_entry_count", link.prev_entry_count);
    v.field("new_entry_count", link.new_entry_count);
    v.list("commitments", link.commitments, kMaxJournalCommitments);
    v.field("has_sketch", link.has_sketch);
    if (link.has_sketch) {
      v.field("prev_sketch_digest", link.prev_sketch_digest.bytes);
      v.field("sketch_digest", link.sketch_digest.bytes);
    }
  }
};

/// Public journal of a join proof ("JOIN1" magic).
struct JoinJournal {
  u32 height = 0;         ///< 1 for a join of leaves, 1 + max child above
  u64 leaf_count = 0;     ///< aggregation receipts under this node
  u64 total_entries = 0;  ///< sum of links[i].new_entry_count
  /// Order-binding digest of the fold: traced SHA-256 over
  /// "zkt.join.fold.v1" || child fold values, where a leaf child's fold
  /// value is its claim digest and a join child's is its fold_digest.
  /// Reordering children or regrouping the tree changes this digest.
  Digest32 fold_digest;
  /// Every leaf's chain links, left to right (= shard order).
  std::vector<ShardLink> links;
  /// Round-sketch summation: when the children carry sketches (all or
  /// none), the join merges them with traced saturating adds and publishes
  /// the merged digest — so the tree seal binds ONE round sketch covering
  /// every shard.
  bool has_sketch = false;
  netflow::SketchParams sketch_params;
  Digest32 sketch_digest;  ///< hash of the merged round sketch bytes
  u64 sketch_total = 0;

  /// The JOIN1 layout (common/codec.h).
  template <class V, class Self>
  static void fields(V& v, Self& j) {
    v.magic("JOIN1");
    v.field("height", j.height);
    v.field("leaf_count", j.leaf_count);
    v.field("total_entries", j.total_entries);
    v.field("fold_digest", j.fold_digest.bytes);
    v.list("links", j.links, u64{1} << 20);
    v.check(j.links.size() == j.leaf_count, "join link count mismatch");
    v.field("has_sketch", j.has_sketch);
    if (j.has_sketch) {
      v.field("sketch_params", j.sketch_params);
      v.field("sketch_digest", j.sketch_digest.bytes);
      v.field("sketch_total", j.sketch_total);
    }
  }
  void write(Writer& w) const { encode(w, *this); }
  static Result<JoinJournal> parse(BytesView journal) {
    return decode<JoinJournal>(journal);
  }
};

/// Child kind tags in a join guest's input stream.
inline constexpr u8 kJoinChildAggregation = 0;
inline constexpr u8 kJoinChildJoin = 1;

/// The join guest's image (registered on first use).
zvm::ImageID join_image();

/// True iff `image` is the join guest image.
bool is_join_image(const zvm::ImageID& image);

/// Append one child — kind tag (see kJoinChild*), canonical claim
/// serialization, journal blob, then the sketch section (u8 has_sketch
/// [+ blob sketch_bytes]) — to a join guest input. `sketch_bytes` must be
/// the child's round-sketch canonical bytes when its journal chains a
/// sketch digest, nullptr otherwise. fold_receipts uses this; exposed so
/// soundness tests can craft malformed inputs around it.
void write_join_child(Writer& input, const zvm::Receipt& child,
                      const Bytes* sketch_bytes = nullptr);

}  // namespace zkt::core
