#include "core/chain_snapshot.h"

#include "store/logstore.h"

namespace zkt::core {

namespace {
constexpr u32 kSnapshotMagic = 0x5A4B4353;  // "ZKCS"
// Version 2 carries the round-sketch section (u8 has_sketch [+ blob + CRC]).
constexpr u32 kSnapshotVersion = 2;
constexpr u32 kShardedSnapshotMagic = 0x5A4B5353;  // "ZKSS"
// Version 2 writes the inner snapshots in place.
constexpr u32 kShardedSnapshotVersion = 2;
constexpr u32 kMaxSnapshotShards = 4096;
}  // namespace

ChainSnapshot ChainSnapshot::capture(u64 round_id, u64 window_id,
                                     const Digest32& claim_digest,
                                     const CLogState& state,
                                     const netflow::RoundSketch* sketch) {
  ChainSnapshot snap;
  snap.round_id = round_id;
  snap.window_id = window_id;
  snap.claim_digest = claim_digest;
  snap.root = state.root();
  snap.entry_count = state.entry_count();
  Writer w;
  state.serialize(w);
  snap.state_bytes = std::move(w).take();
  if (sketch != nullptr) {
    snap.has_sketch = true;
    snap.sketch_bytes = sketch->canonical_bytes();
  }
  return snap;
}

Result<CLogState> ChainSnapshot::restore_state() const {
  Reader r(state_bytes);
  auto state = CLogState::deserialize(r);
  if (!state.ok()) return state.error();
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing bytes in chain snapshot state"};
  }
  if (state.value().root() != root ||
      state.value().entry_count() != entry_count) {
    return Error{Errc::merkle_mismatch,
                 "chain snapshot state does not match its recorded root"};
  }
  return state;
}

Result<std::optional<netflow::RoundSketch>> ChainSnapshot::restore_sketch()
    const {
  if (!has_sketch) return std::optional<netflow::RoundSketch>{};
  Reader r(sketch_bytes);
  auto sketch = netflow::RoundSketch::deserialize(r);
  if (!sketch.ok()) return sketch.error();
  if (!r.done()) {
    return Error{Errc::parse_error,
                 "trailing bytes in chain snapshot sketch"};
  }
  return std::optional<netflow::RoundSketch>{std::move(sketch.value())};
}

void ChainSnapshot::write(Writer& w) const {
  w.u32v(kSnapshotMagic);
  w.u32v(kSnapshotVersion);
  w.u64v(round_id);
  w.u64v(window_id);
  w.fixed(claim_digest.bytes);
  w.fixed(root.bytes);
  w.u64v(entry_count);
  w.blob(state_bytes);
  w.u32v(store::crc32(state_bytes));
  w.u8v(has_sketch ? 1 : 0);
  if (has_sketch) {
    w.blob(sketch_bytes);
    w.u32v(store::crc32(sketch_bytes));
  }
}

Result<ChainSnapshot> ChainSnapshot::read(Reader& r) {
  auto magic = r.u32v();
  if (!magic.ok() || magic.value() != kSnapshotMagic) {
    return Error{Errc::parse_error, "bad chain snapshot magic"};
  }
  auto version = r.u32v();
  if (!version.ok()) return version.error();
  if (version.value() != kSnapshotVersion) {
    return Error{Errc::unsupported, "unknown chain snapshot version"};
  }
  ChainSnapshot snap;
  auto round = r.u64v();
  if (!round.ok()) return round.error();
  snap.round_id = round.value();
  auto window = r.u64v();
  if (!window.ok()) return window.error();
  snap.window_id = window.value();
  ZKT_TRY(r.fixed(snap.claim_digest.bytes));
  ZKT_TRY(r.fixed(snap.root.bytes));
  auto entries = r.u64v();
  if (!entries.ok()) return entries.error();
  snap.entry_count = entries.value();
  auto state = r.blob();
  if (!state.ok()) return state.error();
  snap.state_bytes = std::move(state.value());
  auto crc = r.u32v();
  if (!crc.ok()) return crc.error();
  if (store::crc32(snap.state_bytes) != crc.value()) {
    return Error{Errc::parse_error, "chain snapshot state failed CRC"};
  }
  auto has = r.u8v();
  if (!has.ok()) return has.error();
  if (has.value() > 1) {
    return Error{Errc::parse_error, "bad chain snapshot sketch flag"};
  }
  snap.has_sketch = has.value() == 1;
  if (snap.has_sketch) {
    auto sketch = r.blob();
    if (!sketch.ok()) return sketch.error();
    snap.sketch_bytes = std::move(sketch.value());
    auto scrc = r.u32v();
    if (!scrc.ok()) return scrc.error();
    if (store::crc32(snap.sketch_bytes) != scrc.value()) {
      return Error{Errc::parse_error, "chain snapshot sketch failed CRC"};
    }
  }
  return snap;
}

Bytes ShardedChainSnapshot::to_bytes() const {
  Writer w;
  w.u32v(kShardedSnapshotMagic);
  w.u32v(kShardedSnapshotVersion);
  w.u64v(round_id);
  w.u64v(window_id);
  w.u32v(shard_count);
  w.varint(shards.size());
  // Inner snapshots are written in place (no per-shard blob copy of the
  // CLog state), and each keeps its own CRC, so the bundle needs no second
  // integrity layer.
  for (const auto& shard : shards) shard.write(w);
  return std::move(w).take();
}

Result<ShardedChainSnapshot> ShardedChainSnapshot::from_bytes(BytesView data) {
  Reader r(data);
  auto magic = r.u32v();
  if (magic.ok() && magic.value() == kSnapshotMagic) {
    return Error{Errc::unsupported,
                 "bare chain snapshot where a snapshot bundle belongs (store "
                 "written by an older release; there is no migration path)"};
  }
  if (!magic.ok() || magic.value() != kShardedSnapshotMagic) {
    return Error{Errc::parse_error, "bad sharded chain snapshot magic"};
  }
  auto version = r.u32v();
  if (!version.ok()) return version.error();
  if (version.value() != kShardedSnapshotVersion) {
    return Error{Errc::unsupported, "unknown sharded chain snapshot version"};
  }
  ShardedChainSnapshot snap;
  auto round = r.u64v();
  if (!round.ok()) return round.error();
  snap.round_id = round.value();
  auto window = r.u64v();
  if (!window.ok()) return window.error();
  snap.window_id = window.value();
  auto count = r.u32v();
  if (!count.ok()) return count.error();
  snap.shard_count = count.value();
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() != snap.shard_count || n.value() == 0 ||
      n.value() > kMaxSnapshotShards) {
    return Error{Errc::parse_error, "sharded snapshot shard count mismatch"};
  }
  snap.shards.reserve(n.value());
  for (u64 i = 0; i < n.value(); ++i) {
    auto inner = ChainSnapshot::read(r);
    if (!inner.ok()) return inner.error();
    snap.shards.push_back(std::move(inner.value()));
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing bytes in sharded snapshot"};
  }
  return snap;
}

}  // namespace zkt::core
