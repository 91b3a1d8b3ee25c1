#include "core/chain_snapshot.h"

#include <array>
#include <map>

#include "common/serial.h"
#include "store/logstore.h"

namespace zkt::core {

namespace {
// The pre-bundle layout stored bare "ZKCS" snapshots; recognised only to
// reject them typed.
constexpr u32 kLegacySnapshotMagic = 0x5A4B4353;   // "ZKCS"
constexpr u32 kShardedSnapshotMagic = 0x5A4B5353;  // "ZKSS"
// Version 3: per-shard full or delta bodies (version 2 held full CLogs in
// inner ZKCS records).
constexpr u32 kShardedSnapshotVersion = 3;
constexpr u32 kMaxSnapshotShards = 4096;

/// Pointers to the counters of a (const) CLog entry, in encoding order.
constexpr auto entry_counters = [](auto& e) {
  return std::array{&e.first_ms,      &e.last_ms,     &e.packets,
                    &e.bytes,         &e.lost_packets, &e.hop_count_sum,
                    &e.rtt_sum_us,    &e.rtt_count,   &e.rtt_max_us,
                    &e.jitter_sum_us, &e.jitter_count};
};

/// Serialize `entries` as (varint count, entry...) — the CRC'd body. An
/// entry is its flow key, its counters as varints and its flag byte: about
/// a third of the 102-byte fixed-width canonical form on steady traffic.
Bytes entry_bytes(const std::vector<CLogEntry>& entries) {
  Writer w;
  w.varint(entries.size());
  for (const CLogEntry& entry : entries) {
    entry.key.serialize(w);
    for (const u64* counter : entry_counters(entry)) w.varint(*counter);
    w.u8v(entry.tcp_flags_or);
  }
  return std::move(w).take();
}

Result<CLogEntry> read_entry(Reader& r) {
  CLogEntry entry;
  auto key = netflow::FlowKey::deserialize(r);
  if (!key.ok()) return key.error();
  entry.key = key.value();
  for (u64* counter : entry_counters(entry)) {
    auto value = r.varint();
    if (!value.ok()) return value.error();
    *counter = value.value();
  }
  auto flags = r.u8v();
  if (!flags.ok()) return flags.error();
  entry.tcp_flags_or = flags.value();
  return entry;
}

/// Decode an entry body: strictly ascending keys (the persisted key index,
/// and the duplicate check), and a count the bytes can actually hold.
Result<std::vector<CLogEntry>> parse_entries(BytesView body) {
  Reader r(body);
  // An entry takes at least its 13-byte key, 11 one-byte counters and its
  // flag byte: a count the bytes cannot hold fails before any allocation.
  constexpr u64 kMinEntryBytes = 25;
  auto count = r.varint();
  if (!count.ok()) return count.error();
  if (count.value() > r.remaining() / kMinEntryBytes) {
    return Error{Errc::parse_error,
                 "chain snapshot entry count exceeds its bytes"};
  }
  std::vector<CLogEntry> entries;
  entries.reserve(count.value());
  for (u64 i = 0; i < count.value(); ++i) {
    auto entry = read_entry(r);
    if (!entry.ok()) return entry.error();
    if (!entries.empty() && !(entries.back().key < entry.value().key)) {
      return Error{Errc::parse_error,
                   "chain snapshot entries not strictly key-sorted"};
    }
    entries.push_back(std::move(entry.value()));
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing bytes in chain snapshot entries"};
  }
  return entries;
}

/// One shard body, in place (the bundle carries no per-shard framing).
void write_shard(Writer& w, const ChainSnapshot& snap) {
  w.u8v(static_cast<u8>(snap.body));
  if (snap.body == ChainSnapshot::Body::delta) w.u64v(snap.base_round_id);
  w.fixed(snap.claim_digest.bytes);
  w.fixed(snap.root.bytes);
  w.u64v(snap.entry_count);
  const Bytes body = entry_bytes(snap.entries);
  w.blob(body);
  w.u32v(store::crc32(body));
  w.u8v(snap.has_sketch ? 1 : 0);
  if (snap.has_sketch) {
    w.blob(snap.sketch_bytes);
    w.u32v(store::crc32(snap.sketch_bytes));
  }
}

/// Read one shard body. `decode` = false (peek) skips the entry and sketch
/// blobs unchecked, leaving them empty.
Result<ChainSnapshot> read_shard(Reader& r, bool decode) {
  ChainSnapshot snap;
  auto kind = r.u8v();
  if (!kind.ok()) return kind.error();
  if (kind.value() > static_cast<u8>(ChainSnapshot::Body::delta)) {
    return Error{Errc::parse_error, "unknown chain snapshot body kind"};
  }
  snap.body = static_cast<ChainSnapshot::Body>(kind.value());
  if (snap.body == ChainSnapshot::Body::delta) {
    auto base = r.u64v();
    if (!base.ok()) return base.error();
    snap.base_round_id = base.value();
  }
  ZKT_TRY(r.fixed(snap.claim_digest.bytes));
  ZKT_TRY(r.fixed(snap.root.bytes));
  auto count = r.u64v();
  if (!count.ok()) return count.error();
  snap.entry_count = count.value();
  auto body = r.blob_view();
  if (!body.ok()) return body.error();
  auto crc = r.u32v();
  if (!crc.ok()) return crc.error();
  if (decode) {
    if (store::crc32(body.value()) != crc.value()) {
      return Error{Errc::parse_error, "chain snapshot entries failed CRC"};
    }
    auto entries = parse_entries(body.value());
    if (!entries.ok()) return entries.error();
    snap.entries = std::move(entries.value());
    const bool full = snap.body == ChainSnapshot::Body::full;
    if (full ? snap.entries.size() != snap.entry_count
             : snap.entries.size() > snap.entry_count) {
      return Error{Errc::parse_error,
                   "chain snapshot entries disagree with its entry count"};
    }
  }
  auto has = r.u8v();
  if (!has.ok()) return has.error();
  if (has.value() > 1) {
    return Error{Errc::parse_error, "bad chain snapshot sketch flag"};
  }
  snap.has_sketch = has.value() == 1;
  if (snap.has_sketch) {
    auto sketch = r.blob_view();
    if (!sketch.ok()) return sketch.error();
    auto scrc = r.u32v();
    if (!scrc.ok()) return scrc.error();
    if (decode) {
      if (store::crc32(sketch.value()) != scrc.value()) {
        return Error{Errc::parse_error, "chain snapshot sketch failed CRC"};
      }
      snap.sketch_bytes.assign(sketch.value().begin(), sketch.value().end());
    }
  }
  return snap;
}

Result<ShardedChainSnapshot> read_bundle(BytesView data, bool decode) {
  Reader r(data);
  auto magic = r.u32v();
  if (magic.ok() && magic.value() == kLegacySnapshotMagic) {
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
    return Error{Errc::unsupported,
                 "unknown sharded chain snapshot version (store written by "
                 "another release; there is no migration path)"};
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
    auto inner = read_shard(r, decode);
    if (!inner.ok()) return inner.error();
    snap.shards.push_back(std::move(inner.value()));
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing bytes in sharded snapshot"};
  }
  // Every delta shard extends the same, strictly older row.
  for (const auto& shard : snap.shards) {
    if (shard.body != ChainSnapshot::Body::delta) continue;
    if (shard.base_round_id != snap.base_round_id() ||
        shard.base_round_id >= snap.round_id) {
      return Error{Errc::parse_error,
                   "sharded snapshot deltas name inconsistent base rounds"};
    }
  }
  return snap;
}

}  // namespace

ChainSnapshot ChainSnapshot::full(const Digest32& claim_digest,
                                  const CLogState& state,
                                  const netflow::RoundSketch* sketch) {
  ChainSnapshot snap;
  snap.claim_digest = claim_digest;
  snap.root = state.root();
  snap.entry_count = state.entry_count();
  snap.entries = state.entries();
  if (sketch != nullptr) {
    snap.has_sketch = true;
    snap.sketch_bytes = sketch->canonical_bytes();
  }
  return snap;
}

ChainSnapshot ChainSnapshot::delta(
    u64 base_round_id, const Digest32& claim_digest, const CLogState& state,
    std::span<const netflow::FlowKey> changed_keys,
    const netflow::RoundSketch* sketch) {
  ChainSnapshot snap;
  snap.body = Body::delta;
  snap.base_round_id = base_round_id;
  snap.claim_digest = claim_digest;
  snap.root = state.root();
  snap.entry_count = state.entry_count();
  snap.entries.reserve(changed_keys.size());
  for (const auto& key : changed_keys) {
    if (auto index = state.find(key); index.has_value()) {
      snap.entries.push_back(state.entry(*index));
    }
  }
  if (sketch != nullptr) {
    snap.has_sketch = true;
    snap.sketch_bytes = sketch->canonical_bytes();
  }
  return snap;
}

Result<CLogState> ChainSnapshot::restore_state() const {
  if (body != Body::full) {
    return Error{Errc::invalid_argument,
                 "a delta snapshot holds no whole state (collapse it onto "
                 "its base first)"};
  }
  auto state = CLogState::from_entries(entries);
  if (!state.ok()) return state.error();
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

bool ShardedChainSnapshot::is_full() const {
  for (const auto& shard : shards) {
    if (shard.body != ChainSnapshot::Body::full) return false;
  }
  return true;
}

u64 ShardedChainSnapshot::base_round_id() const {
  for (const auto& shard : shards) {
    if (shard.body == ChainSnapshot::Body::delta) return shard.base_round_id;
  }
  return 0;
}

Bytes ShardedChainSnapshot::to_bytes() const {
  Writer w;
  w.u32v(kShardedSnapshotMagic);
  w.u32v(kShardedSnapshotVersion);
  w.u64v(round_id);
  w.u64v(window_id);
  w.u32v(shard_count);
  w.varint(shards.size());
  // Inner snapshots are written in place and each keeps its own CRCs, so
  // the bundle needs no second integrity layer.
  for (const auto& shard : shards) write_shard(w, shard);
  return std::move(w).take();
}

Result<ShardedChainSnapshot> ShardedChainSnapshot::from_bytes(BytesView data) {
  return read_bundle(data, /*decode=*/true);
}

Result<ShardedChainSnapshot> ShardedChainSnapshot::peek(BytesView data) {
  return read_bundle(data, /*decode=*/false);
}

Result<ShardedChainSnapshot> ShardedChainSnapshot::collapse(
    std::vector<ShardedChainSnapshot> chain) {
  if (chain.empty() || !chain.front().is_full()) {
    return Error{Errc::invalid_argument,
                 "a snapshot chain starts at a full bundle"};
  }
  const size_t shard_count = chain.front().shards.size();
  for (size_t i = 1; i < chain.size(); ++i) {
    if (chain[i].shards.size() != shard_count ||
        chain[i].shard_count != chain.front().shard_count ||
        (!chain[i].is_full() &&
         chain[i].base_round_id() != chain[i - 1].round_id)) {
      return Error{Errc::invalid_argument,
                   "snapshot bundle does not extend its predecessor"};
    }
  }

  ShardedChainSnapshot out;
  out.round_id = chain.back().round_id;
  out.window_id = chain.back().window_id;
  out.shard_count = chain.back().shard_count;
  for (size_t s = 0; s < shard_count; ++s) {
    size_t start = chain.size() - 1;
    while (chain[start].shards[s].body != ChainSnapshot::Body::full) --start;
    std::map<netflow::FlowKey, const CLogEntry*> upserts;  // newest wins
    for (size_t i = start + 1; i < chain.size(); ++i) {
      for (const auto& entry : chain[i].shards[s].entries) {
        upserts[entry.key] = &entry;
      }
    }
    std::vector<CLogEntry>& base = chain[start].shards[s].entries;
    std::vector<CLogEntry> merged;
    merged.reserve(base.size() + upserts.size());
    auto next = upserts.begin();
    for (auto& entry : base) {
      for (; next != upserts.end() && next->first < entry.key; ++next) {
        merged.push_back(*next->second);
      }
      if (next != upserts.end() && next->first == entry.key) {
        merged.push_back(*next->second);
        ++next;
      } else {
        merged.push_back(std::move(entry));
      }
    }
    for (; next != upserts.end(); ++next) merged.push_back(*next->second);

    ChainSnapshot& newest = chain.back().shards[s];
    ChainSnapshot shard;
    shard.claim_digest = newest.claim_digest;
    shard.root = newest.root;
    shard.entry_count = newest.entry_count;
    shard.entries = std::move(merged);
    shard.has_sketch = newest.has_sketch;
    shard.sketch_bytes = std::move(newest.sketch_bytes);
    out.shards.push_back(std::move(shard));
  }
  return out;
}

}  // namespace zkt::core
