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
// a host that tampers with its copy simply fails to produce a proof.
#pragma once

#include <optional>
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

/// One entry modified or created by an aggregation round. Indices refer to
/// the state *after* the update was applied (sorted positions).
struct CLogUpdate {
  u64 index = 0;
  bool created = false;  ///< true if the entry was newly inserted
  Digest32 new_leaf;
};

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

  /// Batch inclusion proof for several entries.
  crypto::MerkleMultiProof prove_multi(std::span<const u64> indices) const {
    return tree_.prove_multi(indices);
  }

  /// Index of the entry for a flow key, if present (binary search).
  std::optional<u64> find(const netflow::FlowKey& key) const;

  /// Sorted insertion position for a key: the index of the first entry with
  /// key >= `key` (== entry_count() if all keys are smaller).
  u64 lower_bound(const netflow::FlowKey& key) const;

  /// Apply one batch of raw records (already authenticated by the caller):
  /// merge into existing entries or insert new ones at their sorted
  /// position. Returns the updates performed, in application order, with
  /// indices as of the moment each update was applied.
  std::vector<CLogUpdate> apply_records(
      std::span<const netflow::FlowRecord> records);

  /// Canonical serialization of every entry, in index (= key-sorted) order
  /// (the guest input representing the previous aggregation state).
  std::vector<Bytes> entry_bytes() const;

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

}  // namespace zkt::core
