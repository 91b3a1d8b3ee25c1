// Sketch-based telemetry: Count-Min sketch and a Space-Saving heavy-hitter
// tracker.
//
// The paper's design is logging-algorithm agnostic ("can use any logging or
// sketching algorithm", §1) and its lineage is the sketching literature
// (UnivMon, NitroSketch, TrustSketch). This module provides the sketch
// substrate. RoundSketch bundles a Count-Min sketch with a Space-Saving
// tracker into the proof-carrying round state the aggregation guests fold
// every touched flow into: its digest rides in the per-round claim next to
// the CLog root, and the sketch query guests prove heavy-hitter /
// cardinality answers against that digest alone (DESIGN.md §10).
//
// All structures have canonical serializations so their hashes are stable
// commitment targets, and all counter arithmetic saturates at 2^64-1 — the
// guests re-do the same additions with traced ALU ops and the two sides
// must agree bit for bit.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/digest.h"
#include "netflow/record.h"

namespace zkt::netflow {

/// Saturating add shared by every sketch counter (host twin of the guests'
/// traced select-based saturation in core/sketch_fold.h).
inline u64 sat_add(u64 a, u64 b) {
  const u64 s = a + b;
  return s < a ? ~0ULL : s;
}

struct CountMinParams {
  u32 width = 1024;  ///< counters per row (error ~ 2/width of total count)
  u32 depth = 4;     ///< rows (failure prob ~ (1/2)^depth)
  u64 seed = 0;      ///< keyed hashing seed (part of the commitment)

  friend bool operator==(const CountMinParams&, const CountMinParams&) =
      default;
};

/// Count-Min sketch over flow keys. Deterministic given (params, updates):
/// the row hashes are SHA-256 based so that the zkVM guest can recompute
/// them with traced compressions.
class CountMinSketch {
 public:
  explicit CountMinSketch(CountMinParams params);

  /// Row index for a key in row `row` (exposed so the proof guest and the
  /// host agree exactly).
  static u32 index_for(const CountMinParams& params, u32 row,
                       const FlowKey& key);

  void update(const FlowKey& key, u64 count);
  /// Point estimate: min over rows. Never underestimates.
  u64 estimate(const FlowKey& key) const;

  /// Merge a sketch with identical parameters (counter-wise saturating
  /// sum).
  Status merge(const CountMinSketch& other);

  const CountMinParams& params() const { return params_; }
  u64 total_updates() const { return total_updates_; }
  u64 counter(u32 row, u32 index) const {
    return counters_[static_cast<size_t>(row) * params_.width + index];
  }
  /// Raw counter write, for the guests' traced fold (which computes the
  /// saturated sum itself, as ALU trace rows, then stores it here).
  void set_counter(u32 row, u32 index, u64 value) {
    counters_[static_cast<size_t>(row) * params_.width + index] = value;
  }
  void set_total_updates(u64 value) { total_updates_ = value; }
  /// Number of nonzero counters in `row`; max over rows lower-bounds the
  /// distinct keys the sketch absorbed (each key hits one counter per row).
  u64 nonzero_in_row(u32 row) const;

  void serialize(Writer& w) const;
  static Result<CountMinSketch> deserialize(Reader& r);
  Bytes canonical_bytes() const;
  crypto::Digest32 hash() const;

 private:
  CountMinParams params_;
  std::vector<u64> counters_;
  u64 total_updates_ = 0;
};

/// Space-Saving heavy-hitter tracker: maintains at most `capacity`
/// (key, count, error) triples; any flow with true count > N/capacity is
/// guaranteed to be tracked.
class SpaceSaving {
 public:
  struct Entry {
    FlowKey key;
    u64 count = 0;
    u64 error = 0;  ///< overestimation bound for this entry

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  explicit SpaceSaving(size_t capacity);

  void update(const FlowKey& key, u64 count);

  /// Mergeable-summaries combine (Agarwal et al.): keys absent from one
  /// side are charged that side's eviction floor, then the union is
  /// truncated back to capacity by (count desc, key asc). Preserves both
  /// guarantees: count >= truth and count - error <= truth. Rejects
  /// capacity mismatches. Deterministic (never iterates the hash index),
  /// so host and guest replay it identically.
  Status merge(const SpaceSaving& other);

  /// Entries with count >= threshold, descending by count (key ascending
  /// as the tiebreak so the order is canonical).
  std::vector<Entry> heavy_hitters(u64 threshold) const;
  std::optional<Entry> find(const FlowKey& key) const;
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  u64 total() const { return total_; }
  /// The eviction floor: the minimum tracked count when full, else 0. Any
  /// untracked key's true count is <= this.
  u64 min_count() const;
  /// Entries in storage order (the canonical serialization order).
  const std::vector<Entry>& entries() const { return entries_; }

  void serialize(Writer& w) const;
  static Result<SpaceSaving> deserialize(Reader& r);

 private:
  size_t capacity_;
  std::vector<Entry> entries_;
  std::unordered_map<FlowKey, size_t, FlowKeyHasher> index_;
  u64 total_ = 0;
};

/// Parameters of the proof-carrying round sketch: the Count-Min dimensions
/// plus the Space-Saving capacity. Equal params are required for chaining
/// and merging.
struct SketchParams {
  CountMinParams cm;
  u32 heavy_capacity = 64;

  friend bool operator==(const SketchParams&, const SketchParams&) = default;

  /// The params block of the AGG1/AGGI, JOIN1, EPOCH1, SKHH and SKCD
  /// journals (common/codec.h); RoundSketch's own bytes keep their layout.
  template <class V, class Self>
  static void fields(V& v, Self& p) {
    v.field("width", p.cm.width);
    v.field("depth", p.cm.depth);
    v.field("seed", p.cm.seed);
    v.field("heavy_capacity", p.heavy_capacity);
    v.check(p.cm.width != 0 && p.cm.depth != 0 && p.heavy_capacity != 0,
            "degenerate sketch params");
  }
};

/// The per-round committed sketch state: one Count-Min sketch (point
/// estimates, cardinality lower bound) plus one Space-Saving tracker
/// (heavy-hitter enumeration), updated and hashed together. The
/// aggregation guests fold every record into this and publish
/// hash(canonical_bytes) in the round journal; the sketch query guests
/// answer against that digest alone.
class RoundSketch {
 public:
  explicit RoundSketch(SketchParams params = {});

  void update(const FlowKey& key, u64 count);
  /// Merge same-params round sketches (sharded fold path).
  Status merge(const RoundSketch& other);

  const SketchParams& params() const { return params_; }
  const CountMinSketch& cm() const { return cm_; }
  const SpaceSaving& heavy() const { return heavy_; }
  /// Mutable views for the guests' traced fold.
  CountMinSketch& cm_mut() { return cm_; }
  SpaceSaving& heavy_mut() { return heavy_; }
  u64 total() const { return cm_.total_updates(); }

  void serialize(Writer& w) const;
  static Result<RoundSketch> deserialize(Reader& r);
  Bytes canonical_bytes() const;
  crypto::Digest32 hash() const;

 private:
  SketchParams params_;
  CountMinSketch cm_;
  SpaceSaving heavy_;
};

}  // namespace zkt::netflow
