// CLog: the aggregated, Merkle-authenticated global flow dataset (Figure 2).
//
// A CLog entry is one per-flow aggregate (a netflow::FlowRecord whose
// counters are merged across routers and windows). Entries are kept in
// **flow-key-sorted order**: the sorted vector *is* the persistent
// FlowKey→index map (lookup by binary search), and — the property the
// incremental aggregation guest depends on — non-membership of a key is
// provable by opening just the two adjacent entries that bracket its
// insertion point. The Merkle tree over entry leaf digests (leaves in the
// same sorted order) is the authentication structure every aggregation
// round and query proves against. Inserting a new flow shifts the indices
// of every entry with a larger key.
//
// CLogState is the host-side (prover's) copy of this structure; the zkVM
// guest independently recomputes the same roots from its verified inputs, so
// a host that tampers with its copy simply fails to produce a proof. A round
// changes it in two steps: plan() computes the transition without touching
// the state (so it can run beside the proof), commit() adopts it.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "netflow/record.h"

namespace zkt::core {

using crypto::Digest32;

using CLogEntry = netflow::FlowRecord;

/// Leaf digest of a CLog entry (domain-separated Merkle leaf hash of the
/// entry's canonical serialization).
Digest32 clog_leaf_digest(const CLogEntry& entry);

/// clog_leaf_digest of every entry, in order, through the batched SHA-256
/// lanes (MerkleTree::hash_leaves); large inputs fan out over the shared
/// pool. Bit-identical to the per-entry form.
std::vector<Digest32> clog_leaf_digests(std::span<const CLogEntry> entries);

/// One entry a transition changes.
struct CLogTouch {
  netflow::FlowKey key;
  u64 index = 0;         ///< the entry's position in the state it produces
  bool created = false;  ///< true if the round inserted the key
};

class CLogTransition;

class CLogState {
 public:
  CLogState() = default;

  u64 entry_count() const { return entries_.size(); }
  const std::vector<CLogEntry>& entries() const { return entries_; }
  const CLogEntry& entry(u64 index) const { return entries_[index]; }

  /// Root of the authentication tree. Empty state has the empty-tree root.
  Digest32 root() const { return tree_.root(); }

  /// The underlying authentication tree (e.g. to copy + grow_capacity for
  /// delta-round multiproofs over not-yet-occupied slots).
  const crypto::MerkleTree& tree() const { return tree_; }

  /// Inclusion proof for an entry.
  crypto::MerkleProof prove(u64 index) const { return tree_.prove(index); }

  /// Batch inclusion proof for several entries (`unsupported` beyond the
  /// multiproof's wire limits).
  Result<crypto::MerkleMultiProof> prove_multi(
      std::span<const u64> indices) const {
    return tree_.prove_multi(indices);
  }

  /// Index of the entry for a flow key, if present (binary search).
  std::optional<u64> find(const netflow::FlowKey& key) const;

  /// Sorted insertion position for a key: the index of the first entry with
  /// key >= `key` (== entry_count() if all keys are smaller).
  u64 lower_bound(const netflow::FlowKey& key) const;

  /// Plan one round: merge `batches`' records (already authenticated by
  /// the caller), batch by batch and record by record, into existing
  /// entries or insert new keys at their sorted position. Returns the
  /// transition without modifying this state, so a plan may run on another
  /// thread while nothing writes the state. A merge-only round (every key
  /// already resident) yields a patch: the touched entries plus every dirty
  /// tree node, each hashed once. A round with a new key yields the whole
  /// next state.
  CLogTransition plan(
      std::span<const std::span<const netflow::FlowRecord>> batches) const;
  /// plan() for a round of one batch.
  CLogTransition plan(std::span<const netflow::FlowRecord> records) const;

  /// Adopt a transition planned against this exact state (same root and
  /// entry count). Fails with invalid_argument, changing nothing, when the
  /// state moved since the plan.
  Status commit(CLogTransition&& transition);

  /// Adopt an entry list in index order (key-sorted: the persisted order
  /// *is* the key index) and build its tree. The tree is derived, so a
  /// persisted entry list stays small and cannot disagree with it. Rejects
  /// lists that are not strictly ascending by flow key.
  static Result<CLogState> from_entries(std::vector<CLogEntry> entries);

  /// Deep self-check: entries strictly ascending by key (the implicit key
  /// index is intact) and the cached tree levels match a from-scratch
  /// rebuild over the entry leaves. Used after snapshot adoption in
  /// recovery paths.
  Status check_consistency() const;

 private:
  std::vector<CLogEntry> entries_;  // strictly ascending by FlowKey
  crypto::MerkleTree tree_;
};

/// A planned CLog round (CLogState::plan): the state it produces, held as a
/// patch or as the whole next state, until CLogState::commit adopts it.
class CLogTransition {
 public:
  /// Root and entry count of the state this transition produces.
  Digest32 root() const;
  u64 entry_count() const;
  /// True when the round only merged into resident entries.
  bool merge_only() const { return !full_; }
  /// Every key the round's records name, ascending.
  const std::vector<CLogTouch>& touched() const { return touched_; }

 private:
  friend class CLogState;

  Digest32 base_root_;
  u64 base_count_ = 0;
  std::vector<CLogTouch> touched_;
  bool full_ = false;
  // Merge-only: the touched entries' new values (parallel to touched_) and
  // the tree patch over their leaves.
  std::vector<CLogEntry> merged_;
  crypto::MerklePatch patch_;
  // New key: the whole next state.
  std::vector<CLogEntry> next_entries_;
  crypto::MerkleTree next_tree_;
};

}  // namespace zkt::core
