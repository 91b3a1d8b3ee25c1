#include "core/clog.h"

#include <algorithm>

#include "crypto/ct.h"

namespace zkt::core {

Digest32 clog_leaf_digest(const CLogEntry& entry) {
  return crypto::MerkleTree::hash_leaf(entry.canonical_bytes());
}

u64 CLogState::lower_bound(const netflow::FlowKey& key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const CLogEntry& e, const netflow::FlowKey& k) { return e.key < k; });
  return static_cast<u64>(it - entries_.begin());
}

std::optional<u64> CLogState::find(const netflow::FlowKey& key) const {
  const u64 pos = lower_bound(key);
  if (pos < entries_.size() && entries_[pos].key == key) return pos;
  return std::nullopt;
}

std::vector<CLogUpdate> CLogState::apply_records(
    std::span<const netflow::FlowRecord> records) {
  // Batched application. The naive per-record form (vector::insert plus
  // MerkleTree::insert_leaf) re-hashes the whole tree suffix for every
  // inserted key — O(n) per record, quadratic over an insert-heavy round,
  // which is exactly the genesis / full-rebuild shape. Instead: merge in
  // place, park created entries on the side, and splice + rebuild the tree
  // once at the end — O((n + k) + k log k) total. The returned updates are
  // bit-identical to sequential application: each index is the entry's
  // position at the moment its record was applied, which is its fixed
  // position among the original entries plus the number of earlier-created
  // batch keys that sort below it (a Fenwick tree over the batch's
  // key-compressed ranks).
  std::vector<CLogUpdate> updates;
  updates.reserve(records.size());
  if (records.empty()) return updates;

  std::vector<netflow::FlowKey> keys;
  keys.reserve(records.size());
  for (const auto& record : records) keys.push_back(record.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const size_t unique_count = keys.size();
  auto rank_of = [&](const netflow::FlowKey& key) {
    return static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
  };

  // Original positions never move during the batch: merges edit in place
  // and created entries are spliced in afterwards.
  std::vector<u64> orig_pos(unique_count);
  std::vector<bool> orig_match(unique_count);
  for (size_t r = 0; r < unique_count; ++r) {
    orig_pos[r] = lower_bound(keys[r]);
    orig_match[r] =
        orig_pos[r] < entries_.size() && entries_[orig_pos[r]].key == keys[r];
  }

  // Fenwick tree counting created keys by rank (1-based internally).
  std::vector<u64> fen(unique_count + 1, 0);
  auto fen_add = [&](size_t rank) {
    for (size_t i = rank + 1; i <= unique_count; i += i & (0 - i)) ++fen[i];
  };
  auto fen_count_below = [&](size_t rank) {
    u64 sum = 0;
    for (size_t i = rank; i > 0; i -= i & (0 - i)) sum += fen[i];
    return sum;
  };

  std::vector<std::optional<CLogEntry>> created(unique_count);
  u64 created_count = 0;
  for (const auto& record : records) {
    const size_t r = rank_of(record.key);
    CLogUpdate update;
    update.index = orig_pos[r] + fen_count_below(r);
    if (orig_match[r]) {
      update.created = false;
      entries_[orig_pos[r]].merge(record);
      update.new_leaf = clog_leaf_digest(entries_[orig_pos[r]]);
    } else if (created[r].has_value()) {
      update.created = false;
      created[r]->merge(record);
      update.new_leaf = clog_leaf_digest(*created[r]);
    } else {
      update.created = true;
      created[r] = record;
      fen_add(r);
      ++created_count;
      update.new_leaf = clog_leaf_digest(record);
    }
    updates.push_back(update);
  }

  if (created_count == 0) {
    // Merge-only round: per-leaf path refresh is O(k log n), far cheaper
    // than a rebuild when the round touches a sliver of a large state.
    for (const auto& update : updates) {
      tree_.update_leaf(update.index, update.new_leaf);
    }
    return updates;
  }

  std::vector<CLogEntry> merged;
  merged.reserve(entries_.size() + created_count);
  size_t next_original = 0;
  for (size_t r = 0; r < unique_count; ++r) {
    if (!created[r].has_value()) continue;
    while (next_original < entries_.size() &&
           entries_[next_original].key < keys[r]) {
      merged.push_back(std::move(entries_[next_original++]));
    }
    merged.push_back(std::move(*created[r]));
  }
  while (next_original < entries_.size()) {
    merged.push_back(std::move(entries_[next_original++]));
  }
  entries_ = std::move(merged);

  std::vector<Digest32> leaves;
  leaves.reserve(entries_.size());
  for (const auto& entry : entries_) leaves.push_back(clog_leaf_digest(entry));
  tree_ = crypto::MerkleTree(std::move(leaves));
  return updates;
}

Result<CLogState> CLogState::from_entries(std::vector<CLogEntry> entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (!(entries[i - 1].key < entries[i].key)) {
      // Strict ascending order doubles as the duplicate-key check and
      // guarantees the implicit key index is valid on adoption.
      return Error{Errc::parse_error, "CLog entries not strictly key-sorted"};
    }
  }
  CLogState state;
  state.entries_ = std::move(entries);
  std::vector<Digest32> leaves;
  leaves.reserve(state.entries_.size());
  for (const auto& entry : state.entries_) {
    leaves.push_back(clog_leaf_digest(entry));
  }
  state.tree_ = crypto::MerkleTree(std::move(leaves));
  return state;
}

Status CLogState::check_consistency() const {
  for (size_t i = 1; i < entries_.size(); ++i) {
    if (!(entries_[i - 1].key < entries_[i].key)) {
      return Error{Errc::parse_error, "CLog key index out of order"};
    }
  }
  if (tree_.leaf_count() != entries_.size()) {
    return Error{Errc::merkle_mismatch, "CLog tree leaf count vs entries"};
  }
  std::vector<Digest32> leaves;
  leaves.reserve(entries_.size());
  for (const auto& entry : entries_) leaves.push_back(clog_leaf_digest(entry));
  const crypto::MerkleTree fresh(std::move(leaves));
  if (!crypto::ct_equal(fresh.root(), tree_.root())) {
    return Error{Errc::merkle_mismatch, "CLog cached tree diverged"};
  }
  return {};
}

std::vector<Bytes> CLogState::entry_bytes() const {
  std::vector<Bytes> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.push_back(entry.canonical_bytes());
  }
  return out;
}

}  // namespace zkt::core
