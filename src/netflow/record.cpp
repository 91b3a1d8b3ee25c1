#include "netflow/record.h"

#include <charconv>

#include "crypto/sha256.h"

namespace zkt::netflow {

Result<Ipv4> parse_ipv4(std::string_view s) {
  u32 addr = 0;
  size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    size_t dot = s.find('.', pos);
    if (octet == 3) {
      if (dot != std::string_view::npos) {
        return Error{Errc::parse_error, "too many octets"};
      }
      dot = s.size();
    } else if (dot == std::string_view::npos) {
      return Error{Errc::parse_error, "expected 4 octets"};
    }
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(s.data() + pos, s.data() + dot, value);
    if (ec != std::errc() || ptr != s.data() + dot || value > 255 ||
        dot == pos) {
      return Error{Errc::parse_error, "bad IPv4 octet"};
    }
    addr = (addr << 8) | value;
    pos = dot + 1;
  }
  return addr;
}

std::string format_ipv4(Ipv4 addr) {
  std::string out;
  for (int i = 3; i >= 0; --i) {
    out += std::to_string((addr >> (8 * i)) & 0xff);
    if (i > 0) out += '.';
  }
  return out;
}

void FlowKey::serialize(Writer& w) const {
  w.u32v(src_ip);
  w.u32v(dst_ip);
  w.u16v(src_port);
  w.u16v(dst_port);
  w.u8v(protocol);
}

Result<FlowKey> FlowKey::deserialize(Reader& r) {
  FlowKey k;
  auto a = r.u32v();
  if (!a.ok()) return a.error();
  k.src_ip = a.value();
  auto b = r.u32v();
  if (!b.ok()) return b.error();
  k.dst_ip = b.value();
  auto c = r.u16v();
  if (!c.ok()) return c.error();
  k.src_port = c.value();
  auto d = r.u16v();
  if (!d.ok()) return d.error();
  k.dst_port = d.value();
  auto e = r.u8v();
  if (!e.ok()) return e.error();
  k.protocol = e.value();
  return k;
}

Bytes FlowKey::canonical_bytes() const {
  Bytes out;
  out.reserve(kCanonicalSize);
  Writer w(std::move(out));
  serialize(w);
  return std::move(w).take();
}

std::string FlowKey::to_string() const {
  return format_ipv4(src_ip) + ":" + std::to_string(src_port) + " -> " +
         format_ipv4(dst_ip) + ":" + std::to_string(dst_port) + " proto " +
         std::to_string(protocol);
}

void FlowRecord::observe(const PacketObservation& pkt) {
  if (packets == 0 && lost_packets == 0) {
    key = pkt.key;
    first_ms = pkt.timestamp_ms;
    last_ms = pkt.timestamp_ms;
  } else {
    first_ms = std::min(first_ms, pkt.timestamp_ms);
    last_ms = std::max(last_ms, pkt.timestamp_ms);
  }
  if (pkt.dropped) {
    ++lost_packets;
    return;
  }
  ++packets;
  bytes += pkt.bytes;
  hop_count_sum += pkt.hop_count;
  tcp_flags_or |= pkt.tcp_flags;
  if (pkt.rtt_us > 0) {
    rtt_sum_us += pkt.rtt_us;
    ++rtt_count;
    rtt_max_us = std::max<u64>(rtt_max_us, pkt.rtt_us);
  }
  if (pkt.jitter_us > 0) {
    jitter_sum_us += pkt.jitter_us;
    ++jitter_count;
  }
}

void FlowRecord::merge(const FlowRecord& other) {
  if (packets == 0 && lost_packets == 0) {
    *this = other;
    return;
  }
  first_ms = std::min(first_ms, other.first_ms);
  last_ms = std::max(last_ms, other.last_ms);
  packets += other.packets;
  bytes += other.bytes;
  lost_packets += other.lost_packets;
  hop_count_sum += other.hop_count_sum;
  rtt_sum_us += other.rtt_sum_us;
  rtt_count += other.rtt_count;
  rtt_max_us = std::max(rtt_max_us, other.rtt_max_us);
  jitter_sum_us += other.jitter_sum_us;
  jitter_count += other.jitter_count;
  tcp_flags_or |= other.tcp_flags_or;
}

void FlowRecord::serialize(Writer& w) const {
  key.serialize(w);
  w.u64v(first_ms);
  w.u64v(last_ms);
  w.u64v(packets);
  w.u64v(bytes);
  w.u64v(lost_packets);
  w.u64v(hop_count_sum);
  w.u64v(rtt_sum_us);
  w.u64v(rtt_count);
  w.u64v(rtt_max_us);
  w.u64v(jitter_sum_us);
  w.u64v(jitter_count);
  w.u8v(tcp_flags_or);
}

Result<FlowRecord> FlowRecord::deserialize(Reader& r) {
  FlowRecord rec;
  auto k = FlowKey::deserialize(r);
  if (!k.ok()) return k.error();
  rec.key = k.value();
  u64* fields[] = {&rec.first_ms,      &rec.last_ms,     &rec.packets,
                   &rec.bytes,         &rec.lost_packets, &rec.hop_count_sum,
                   &rec.rtt_sum_us,    &rec.rtt_count,   &rec.rtt_max_us,
                   &rec.jitter_sum_us, &rec.jitter_count};
  for (u64* f : fields) {
    auto v = r.u64v();
    if (!v.ok()) return v.error();
    *f = v.value();
  }
  auto flags = r.u8v();
  if (!flags.ok()) return flags.error();
  rec.tcp_flags_or = flags.value();
  return rec;
}

Bytes FlowRecord::canonical_bytes() const {
  Bytes out;
  out.reserve(kCanonicalSize);
  Writer w(std::move(out));
  serialize(w);
  return std::move(w).take();
}

void RLogBatch::serialize(Writer& w) const {
  w.str("RLOG1");
  w.u32v(router_id);
  w.u64v(window_id);
  w.varint(records.size());
  for (const auto& rec : records) rec.serialize(w);
}

Result<RLogBatch> RLogBatch::deserialize(Reader& r) {
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "RLOG1") {
    return Error{Errc::parse_error, "bad rlog magic"};
  }
  RLogBatch batch;
  auto rid = r.u32v();
  if (!rid.ok()) return rid.error();
  batch.router_id = rid.value();
  auto wid = r.u64v();
  if (!wid.ok()) return wid.error();
  batch.window_id = wid.value();
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() > (1u << 24)) {
    return Error{Errc::parse_error, "rlog too large"};
  }
  batch.records.reserve(n.value());
  for (u64 i = 0; i < n.value(); ++i) {
    auto rec = FlowRecord::deserialize(r);
    if (!rec.ok()) return rec.error();
    batch.records.push_back(std::move(rec.value()));
  }
  return batch;
}

Bytes RLogBatch::canonical_bytes() const {
  Writer w;
  serialize(w);
  return std::move(w).take();
}

crypto::Digest32 RLogBatch::hash() const {
  return crypto::sha256(canonical_bytes());
}

}  // namespace zkt::netflow
