// NetFlow record model: the 5-tuple flow key, per-packet observations, and
// the accumulated flow record a router exports (the paper's RLog entries).
//
// Field choice follows NetFlow v9 (RFC 3954) plus the performance fields the
// paper's queries need (hop count, RTT, jitter, loss), which real deployments
// carry as enterprise-specific information elements.
#pragma once

#include <compare>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/digest.h"

namespace zkt::netflow {

/// IPv4 address in host byte order.
using Ipv4 = u32;

/// Parse dotted-quad "1.2.3.4"; returns error on malformed input.
Result<Ipv4> parse_ipv4(std::string_view s);
std::string format_ipv4(Ipv4 addr);

/// The classic 5-tuple flow key.
struct FlowKey {
  Ipv4 src_ip = 0;
  Ipv4 dst_ip = 0;
  u16 src_port = 0;
  u16 dst_port = 0;
  u8 protocol = 0;  // IPPROTO_TCP=6, UDP=17, ...

  auto operator<=>(const FlowKey&) const = default;

  void serialize(Writer& w) const;
  static Result<FlowKey> deserialize(Reader& r);

  /// Size of the canonical encoding.
  static constexpr size_t kCanonicalSize = 13;

  /// Canonical 13-byte encoding (used for hashing and as map keys).
  Bytes canonical_bytes() const;
  std::string to_string() const;
};

struct FlowKeyHasher {
  size_t operator()(const FlowKey& k) const {
    u64 h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](u64 v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix((static_cast<u64>(k.src_ip) << 32) | k.dst_ip);
    mix((static_cast<u64>(k.src_port) << 32) | (static_cast<u64>(k.dst_port) << 16) |
        k.protocol);
    return static_cast<size_t>(h);
  }
};

/// A single packet as seen by a router's metering process.
struct PacketObservation {
  FlowKey key;
  u64 timestamp_ms = 0;
  u32 bytes = 0;
  u8 tcp_flags = 0;
  u8 hop_count = 0;     ///< TTL-derived hop estimate
  u32 rtt_us = 0;       ///< measured round-trip time (0 if unknown)
  u32 jitter_us = 0;    ///< inter-packet delay variation
  bool dropped = false; ///< packet was dropped at this router
};

/// Accumulated flow record — one RLog entry. All counters are additive
/// except first/last timestamps and the RTT/jitter aggregates, which keep
/// (sum, count) so averages can be recomputed exactly after aggregation.
struct FlowRecord {
  FlowKey key;
  u64 first_ms = 0;
  u64 last_ms = 0;
  u64 packets = 0;
  u64 bytes = 0;
  u64 lost_packets = 0;
  u64 hop_count_sum = 0;  ///< sum over packets (per-flow SUM(hop_count))
  u64 rtt_sum_us = 0;
  u64 rtt_count = 0;
  u64 rtt_max_us = 0;
  u64 jitter_sum_us = 0;
  u64 jitter_count = 0;
  u8 tcp_flags_or = 0;    ///< OR of all TCP flags seen

  friend bool operator==(const FlowRecord&, const FlowRecord&) = default;

  /// Fold one packet observation into this record.
  void observe(const PacketObservation& pkt);
  /// Merge another record for the same flow (aggregation across routers or
  /// across export windows).
  void merge(const FlowRecord& other);

  // NOTE: floating-point views (average RTT/jitter, loss rate, throughput)
  // live in netflow/stats.h — this header is guest-reachable and must stay
  // float-free so guest traces remain replayable (rule guest-determinism).

  /// Size of canonical_bytes(): the key, eleven u64 fields, the flag byte.
  static constexpr size_t kCanonicalSize = FlowKey::kCanonicalSize + 11 * 8 + 1;

  void serialize(Writer& w) const;
  static Result<FlowRecord> deserialize(Reader& r);
  Bytes canonical_bytes() const;
};

/// A raw-log batch: every flow record a single router exported within one
/// commitment window. Its hash is what the router publishes (the paper's
/// per-router commitments, Figure 1).
struct RLogBatch {
  u32 router_id = 0;
  u64 window_id = 0;  ///< commitment window sequence number
  std::vector<FlowRecord> records;

  void serialize(Writer& w) const;
  static Result<RLogBatch> deserialize(Reader& r);
  Bytes canonical_bytes() const;

  /// The commitment hash H_i over this batch.
  crypto::Digest32 hash() const;
};

}  // namespace zkt::netflow
