#include "core/clog.h"

#include <algorithm>
#include <cassert>

#include "common/serial.h"
#include "common/thread_pool.h"
#include "crypto/ct.h"

namespace zkt::core {

namespace {

// Entries leaf-hashed per MerkleTree::hash_leaves batch (full SIMD lanes,
// one contiguous encoding buffer), and the batches one pool chunk takes:
// inputs of more than one chunk fan out over the shared pool.
constexpr size_t kLeafBatch = 512;
constexpr size_t kBatchesPerChunk = 4;

}  // namespace

Digest32 clog_leaf_digest(const CLogEntry& entry) {
  return crypto::MerkleTree::hash_leaf(entry.canonical_bytes());
}

std::vector<Digest32> clog_leaf_digests(std::span<const CLogEntry> entries) {
  constexpr size_t kSize = CLogEntry::kCanonicalSize;
  // zkt-lint: shared(each chunk writes only its own batches' slots; read after parallel_for joins)
  std::vector<Digest32> leaves(entries.size());
  const size_t batches = (entries.size() + kLeafBatch - 1) / kLeafBatch;
  common::ThreadPool::shared().parallel_for(
      batches, kBatchesPerChunk, [&](size_t first, size_t last) {
        std::vector<BytesView> views;
        for (size_t b = first; b < last; ++b) {
          const size_t begin = b * kLeafBatch;
          const size_t end = std::min(entries.size(), begin + kLeafBatch);
          Bytes buffer;
          buffer.reserve((end - begin) * kSize);
          Writer w(std::move(buffer));
          for (size_t i = begin; i < end; ++i) entries[i].serialize(w);
          const Bytes encoded = std::move(w).take();
          assert(encoded.size() == (end - begin) * kSize);
          views.clear();
          for (size_t i = 0; i < end - begin; ++i) {
            views.emplace_back(encoded.data() + i * kSize, kSize);
          }
          const std::vector<Digest32> digests =
              crypto::MerkleTree::hash_leaves(views);
          std::copy(digests.begin(), digests.end(),
                    leaves.begin() + static_cast<ptrdiff_t>(begin));
        }
      });
  return leaves;
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

CLogTransition CLogState::plan(
    std::span<const netflow::FlowRecord> records) const {
  return plan(
      std::span<const std::span<const netflow::FlowRecord>>(&records, 1));
}

CLogTransition CLogState::plan(
    std::span<const std::span<const netflow::FlowRecord>> batches) const {
  CLogTransition t;
  t.base_root_ = root();
  t.base_count_ = entries_.size();

  // Each record in application order, with the slot its key occupies (or
  // would be inserted at) in this state.
  struct Item {
    const netflow::FlowRecord* record;
    u64 slot;
    bool resident;
  };
  size_t record_count = 0;
  for (const auto& batch : batches) record_count += batch.size();
  std::vector<Item> items;
  items.reserve(record_count);
  bool merge_only = true;
  for (const auto& batch : batches) {
    for (const auto& record : batch) {
      const u64 slot = lower_bound(record.key);
      const bool resident =
          slot < entries_.size() && entries_[slot].key == record.key;
      merge_only = merge_only && resident;
      items.push_back(Item{&record, slot, resident});
    }
  }
  // Group by key. Stable, so each key's records keep their application
  // order: merging them in that order is what the guest proves.
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     return a.record->key < b.record->key;
                   });

  if (merge_only) {
    for (size_t i = 0; i < items.size();) {
      const u64 slot = items[i].slot;
      CLogEntry entry = entries_[slot];
      for (; i < items.size() && items[i].slot == slot; ++i) {
        entry.merge(*items[i].record);
      }
      t.touched_.push_back(CLogTouch{entries_[slot].key, slot, false});
      t.merged_.push_back(std::move(entry));
    }
    const std::vector<Digest32> digests = clog_leaf_digests(t.merged_);
    std::vector<std::pair<u64, Digest32>> leaves(digests.size());
    for (size_t j = 0; j < digests.size(); ++j) {
      leaves[j] = {t.touched_[j].index, digests[j]};
    }
    t.patch_ = tree_.plan_patch(std::move(leaves));
    return t;
  }

  // A new key shifts every larger entry: build the whole next state.
  t.full_ = true;
  t.next_entries_.reserve(entries_.size() + items.size());
  const auto resident_at = [this](u64 slot) {
    return entries_.begin() + static_cast<ptrdiff_t>(slot);
  };
  u64 next_resident = 0;
  for (size_t i = 0; i < items.size();) {
    const Item& first = items[i];
    // Copy the untouched entries that sort below this key.
    t.next_entries_.insert(t.next_entries_.end(), resident_at(next_resident),
                           resident_at(first.slot));
    next_resident = first.slot;
    CLogEntry entry;
    if (first.resident) {
      entry = entries_[next_resident++];
    } else {
      entry = *first.record;
      ++i;
    }
    for (; i < items.size() && items[i].record->key == first.record->key;
         ++i) {
      entry.merge(*items[i].record);
    }
    t.touched_.push_back(
        CLogTouch{first.record->key, t.next_entries_.size(), !first.resident});
    t.next_entries_.push_back(std::move(entry));
  }
  t.next_entries_.insert(t.next_entries_.end(), resident_at(next_resident),
                         entries_.end());
  t.next_tree_ = crypto::MerkleTree(clog_leaf_digests(t.next_entries_));
  return t;
}

Status CLogState::commit(CLogTransition&& transition) {
  if (transition.base_count_ != entries_.size() ||
      transition.base_root_ != root()) {
    return Error{Errc::invalid_argument,
                 "CLog transition was planned against another state"};
  }
  if (transition.full_) {
    entries_ = std::move(transition.next_entries_);
    tree_ = std::move(transition.next_tree_);
    return {};
  }
  for (size_t i = 0; i < transition.touched_.size(); ++i) {
    entries_[transition.touched_[i].index] = std::move(transition.merged_[i]);
  }
  tree_.apply_patch(transition.patch_);
  return {};
}

Digest32 CLogTransition::root() const {
  if (full_) return next_tree_.root();
  if (patch_.levels.empty()) return base_root_;
  return patch_.levels.back().front().second;
}

u64 CLogTransition::entry_count() const {
  return full_ ? next_entries_.size() : base_count_;
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
  state.tree_ = crypto::MerkleTree(clog_leaf_digests(state.entries_));
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
  const crypto::MerkleTree fresh(clog_leaf_digests(entries_));
  if (!crypto::ct_equal(fresh.root(), tree_.root())) {
    return Error{Errc::merkle_mismatch, "CLog cached tree diverged"};
  }
  return {};
}

}  // namespace zkt::core
