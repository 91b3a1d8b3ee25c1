#include "netflow/sketch.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace zkt::netflow {

CountMinSketch::CountMinSketch(CountMinParams params)
    : params_(params),
      counters_(static_cast<size_t>(std::max<u32>(params.width, 1)) *
                std::max<u32>(params.depth, 1)) {
  params_.width = std::max<u32>(params_.width, 1);
  params_.depth = std::max<u32>(params_.depth, 1);
}

u32 CountMinSketch::index_for(const CountMinParams& params, u32 row,
                              const FlowKey& key) {
  // SHA-256(seed || row || key) mod width: slower than the usual pairwise
  // hashes but recomputable inside the zkVM with the same traced primitive
  // used everywhere else.
  Writer w;
  w.u64v(params.seed);
  w.u32v(row);
  key.serialize(w);
  const crypto::Digest32 d = crypto::sha256(w.bytes());
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(d.bytes[i]) << (8 * i);
  return static_cast<u32>(v % params.width);
}

void CountMinSketch::update(const FlowKey& key, u64 count) {
  for (u32 row = 0; row < params_.depth; ++row) {
    u64& c = counters_[static_cast<size_t>(row) * params_.width +
                       index_for(params_, row, key)];
    c = sat_add(c, count);
  }
  total_updates_ = sat_add(total_updates_, count);
}

u64 CountMinSketch::estimate(const FlowKey& key) const {
  u64 best = ~0ULL;
  for (u32 row = 0; row < params_.depth; ++row) {
    best = std::min(best, counter(row, index_for(params_, row, key)));
  }
  return best;
}

Status CountMinSketch::merge(const CountMinSketch& other) {
  if (!(params_ == other.params_)) {
    return Error{Errc::invalid_argument, "sketch parameter mismatch"};
  }
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = sat_add(counters_[i], other.counters_[i]);
  }
  total_updates_ = sat_add(total_updates_, other.total_updates_);
  return {};
}

u64 CountMinSketch::nonzero_in_row(u32 row) const {
  u64 n = 0;
  for (u32 i = 0; i < params_.width; ++i) {
    if (counter(row, i) != 0) ++n;
  }
  return n;
}

void CountMinSketch::serialize(Writer& w) const {
  w.str("CMS1");
  w.u32v(params_.width);
  w.u32v(params_.depth);
  w.u64v(params_.seed);
  w.u64v(total_updates_);
  for (u64 c : counters_) w.u64v(c);
}

Result<CountMinSketch> CountMinSketch::deserialize(Reader& r) {
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "CMS1") {
    return Error{Errc::parse_error, "bad sketch magic"};
  }
  CountMinParams params;
  auto width = r.u32v();
  if (!width.ok()) return width.error();
  params.width = width.value();
  auto depth = r.u32v();
  if (!depth.ok()) return depth.error();
  params.depth = depth.value();
  if (params.width == 0 || params.depth == 0 ||
      static_cast<u64>(params.width) * params.depth > (1u << 26)) {
    return Error{Errc::parse_error, "sketch dimensions out of range"};
  }
  auto seed = r.u64v();
  if (!seed.ok()) return seed.error();
  params.seed = seed.value();
  // The counters must be there before they are allocated: a hostile
  // width * depth may not claim more memory than the input holds.
  if (r.remaining() / sizeof(u64) <
      1 + static_cast<u64>(params.width) * params.depth) {
    return Error{Errc::parse_error, "short sketch counters"};
  }

  CountMinSketch sketch(params);
  auto total = r.u64v();
  if (!total.ok()) return total.error();
  sketch.total_updates_ = total.value();
  for (auto& c : sketch.counters_) {
    auto v = r.u64v();
    if (!v.ok()) return v.error();
    c = v.value();
  }
  return sketch;
}

Bytes CountMinSketch::canonical_bytes() const {
  Writer w;
  serialize(w);
  return std::move(w).take();
}

crypto::Digest32 CountMinSketch::hash() const {
  return crypto::sha256(canonical_bytes());
}

SpaceSaving::SpaceSaving(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void SpaceSaving::update(const FlowKey& key, u64 count) {
  total_ = sat_add(total_, count);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& entry = entries_[it->second];
    entry.count = sat_add(entry.count, count);
    return;
  }
  if (entries_.size() < capacity_) {
    index_.emplace(key, entries_.size());
    entries_.push_back(Entry{key, count, 0});
    return;
  }
  // Replace the minimum entry (Space-Saving eviction).
  size_t min_index = 0;
  for (size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].count < entries_[min_index].count) min_index = i;
  }
  Entry& victim = entries_[min_index];
  index_.erase(victim.key);
  const u64 base = victim.count;
  victim = Entry{key, sat_add(base, count), base};
  index_.emplace(key, min_index);
}

u64 SpaceSaving::min_count() const {
  if (entries_.size() < capacity_) return 0;
  u64 floor = ~0ULL;
  for (const auto& entry : entries_) floor = std::min(floor, entry.count);
  return floor;
}

Status SpaceSaving::merge(const SpaceSaving& other) {
  if (capacity_ != other.capacity_) {
    return Error{Errc::invalid_argument, "space-saving capacity mismatch"};
  }
  const u64 floor_a = min_count();
  const u64 floor_b = other.min_count();

  // Merge-join the two entry sets by key. A key absent from one side may
  // still have occurred in that side's stream up to its eviction floor, so
  // it is charged the floor as both count and error.
  std::vector<Entry> a = entries_;
  std::vector<Entry> b = other.entries_;
  auto by_key = [](const Entry& x, const Entry& y) { return x.key < y.key; };
  std::sort(a.begin(), a.end(), by_key);
  std::sort(b.begin(), b.end(), by_key);

  std::vector<Entry> merged;
  merged.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].key < b[j].key)) {
      merged.push_back(Entry{a[i].key, sat_add(a[i].count, floor_b),
                             sat_add(a[i].error, floor_b)});
      ++i;
    } else if (i >= a.size() || b[j].key < a[i].key) {
      merged.push_back(Entry{b[j].key, sat_add(b[j].count, floor_a),
                             sat_add(b[j].error, floor_a)});
      ++j;
    } else {
      merged.push_back(Entry{a[i].key, sat_add(a[i].count, b[j].count),
                             sat_add(a[i].error, b[j].error)});
      ++i;
      ++j;
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Entry& x, const Entry& y) {
    if (x.count != y.count) return x.count > y.count;
    return x.key < y.key;
  });
  if (merged.size() > capacity_) merged.resize(capacity_);

  entries_ = std::move(merged);
  index_.clear();
  for (size_t k = 0; k < entries_.size(); ++k) {
    index_.emplace(entries_[k].key, k);
  }
  total_ = sat_add(total_, other.total_);
  return {};
}

std::vector<SpaceSaving::Entry> SpaceSaving::heavy_hitters(
    u64 threshold) const {
  std::vector<Entry> out;
  for (const auto& entry : entries_) {
    if (entry.count >= threshold) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

std::optional<SpaceSaving::Entry> SpaceSaving::find(const FlowKey& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return entries_[it->second];
}

void SpaceSaving::serialize(Writer& w) const {
  w.str("SSK1");
  w.u64v(capacity_);
  w.u64v(total_);
  w.varint(entries_.size());
  for (const auto& entry : entries_) {
    entry.key.serialize(w);
    w.u64v(entry.count);
    w.u64v(entry.error);
  }
}

Result<SpaceSaving> SpaceSaving::deserialize(Reader& r) {
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "SSK1") {
    return Error{Errc::parse_error, "bad space-saving magic"};
  }
  auto capacity = r.u64v();
  if (!capacity.ok()) return capacity.error();
  if (capacity.value() == 0 || capacity.value() > (1u << 20)) {
    return Error{Errc::parse_error, "space-saving capacity out of range"};
  }
  SpaceSaving tracker(static_cast<size_t>(capacity.value()));
  auto total = r.u64v();
  if (!total.ok()) return total.error();
  tracker.total_ = total.value();
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() > capacity.value()) {
    return Error{Errc::parse_error, "space-saving entry count over capacity"};
  }
  tracker.entries_.reserve(static_cast<size_t>(n.value()));
  for (u64 k = 0; k < n.value(); ++k) {
    Entry entry;
    auto key = FlowKey::deserialize(r);
    if (!key.ok()) return key.error();
    entry.key = key.value();
    auto count = r.u64v();
    if (!count.ok()) return count.error();
    entry.count = count.value();
    auto error = r.u64v();
    if (!error.ok()) return error.error();
    entry.error = error.value();
    if (!tracker.index_.emplace(entry.key, tracker.entries_.size()).second) {
      return Error{Errc::parse_error, "duplicate space-saving key"};
    }
    tracker.entries_.push_back(entry);
  }
  return tracker;
}

RoundSketch::RoundSketch(SketchParams params)
    : params_(params),
      cm_(params.cm),
      heavy_(std::max<u32>(params.heavy_capacity, 1)) {
  params_.cm = cm_.params();
  params_.heavy_capacity = static_cast<u32>(heavy_.capacity());
}

void RoundSketch::update(const FlowKey& key, u64 count) {
  cm_.update(key, count);
  heavy_.update(key, count);
}

Status RoundSketch::merge(const RoundSketch& other) {
  if (!(params_ == other.params_)) {
    return Error{Errc::invalid_argument, "round sketch parameter mismatch"};
  }
  ZKT_TRY(cm_.merge(other.cm_));
  return heavy_.merge(other.heavy_);
}

void RoundSketch::serialize(Writer& w) const {
  w.str("RSK1");
  cm_.serialize(w);
  heavy_.serialize(w);
}

Result<RoundSketch> RoundSketch::deserialize(Reader& r) {
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "RSK1") {
    return Error{Errc::parse_error, "bad round sketch magic"};
  }
  auto cm = CountMinSketch::deserialize(r);
  if (!cm.ok()) return cm.error();
  auto heavy = SpaceSaving::deserialize(r);
  if (!heavy.ok()) return heavy.error();
  RoundSketch sketch(SketchParams{
      cm.value().params(), static_cast<u32>(heavy.value().capacity())});
  sketch.cm_ = std::move(cm.value());
  sketch.heavy_ = std::move(heavy.value());
  return sketch;
}

Bytes RoundSketch::canonical_bytes() const {
  Writer w;
  serialize(w);
  return std::move(w).take();
}

crypto::Digest32 RoundSketch::hash() const {
  return crypto::sha256(canonical_bytes());
}

}  // namespace zkt::netflow
