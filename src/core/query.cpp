#include "core/query.h"

#include "crypto/sha256.h"

namespace zkt::core {

const char* qfield_name(QField f) {
  switch (f) {
    case QField::src_ip: return "src_ip";
    case QField::dst_ip: return "dst_ip";
    case QField::src_port: return "src_port";
    case QField::dst_port: return "dst_port";
    case QField::protocol: return "protocol";
    case QField::packets: return "packets";
    case QField::bytes: return "bytes";
    case QField::lost_packets: return "lost_packets";
    case QField::hop_sum: return "hop_sum";
    case QField::rtt_sum_us: return "rtt_sum_us";
    case QField::rtt_count: return "rtt_count";
    case QField::rtt_max_us: return "rtt_max_us";
    case QField::jitter_sum_us: return "jitter_sum_us";
    case QField::jitter_count: return "jitter_count";
    case QField::first_ms: return "first_ms";
    case QField::last_ms: return "last_ms";
    case QField::duration_ms: return "duration_ms";
    case QField::rtt_avg_us: return "rtt_avg_us";
    case QField::jitter_avg_us: return "jitter_avg_us";
  }
  return "?";
}

u64 extract_field(const netflow::FlowRecord& e, QField field) {
  switch (field) {
    case QField::src_ip: return e.key.src_ip;
    case QField::dst_ip: return e.key.dst_ip;
    case QField::src_port: return e.key.src_port;
    case QField::dst_port: return e.key.dst_port;
    case QField::protocol: return e.key.protocol;
    case QField::packets: return e.packets;
    case QField::bytes: return e.bytes;
    case QField::lost_packets: return e.lost_packets;
    case QField::hop_sum: return e.hop_count_sum;
    case QField::rtt_sum_us: return e.rtt_sum_us;
    case QField::rtt_count: return e.rtt_count;
    case QField::rtt_max_us: return e.rtt_max_us;
    case QField::jitter_sum_us: return e.jitter_sum_us;
    case QField::jitter_count: return e.jitter_count;
    case QField::first_ms: return e.first_ms;
    case QField::last_ms: return e.last_ms;
    case QField::duration_ms:
      return e.last_ms >= e.first_ms ? e.last_ms - e.first_ms : 0;
    case QField::rtt_avg_us:
      return e.rtt_count == 0 ? 0 : e.rtt_sum_us / e.rtt_count;
    case QField::jitter_avg_us:
      return e.jitter_count == 0 ? 0 : e.jitter_sum_us / e.jitter_count;
  }
  return 0;
}

void Query::serialize(Writer& w) const {
  w.str("QRYAST1");
  w.varint(where.size());
  for (const auto& clause : where) {
    w.varint(clause.size());
    for (const auto& cond : clause) {
      w.u8v(static_cast<u8>(cond.field));
      w.u8v(static_cast<u8>(cond.op));
      w.u64v(cond.value);
    }
  }
  w.u8v(static_cast<u8>(agg));
  w.u8v(static_cast<u8>(agg_field));
}

Result<Query> Query::deserialize(Reader& r) {
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "QRYAST1") {
    return Error{Errc::parse_error, "bad query magic"};
  }
  Query q;
  auto n_clauses = r.varint();
  if (!n_clauses.ok()) return n_clauses.error();
  if (n_clauses.value() > 256) {
    return Error{Errc::parse_error, "too many clauses"};
  }
  q.where.resize(n_clauses.value());
  for (auto& clause : q.where) {
    auto n_conds = r.varint();
    if (!n_conds.ok()) return n_conds.error();
    if (n_conds.value() == 0 || n_conds.value() > 256) {
      return Error{Errc::parse_error, "bad clause size"};
    }
    clause.resize(n_conds.value());
    for (auto& cond : clause) {
      auto f = r.u8v();
      auto op = r.u8v();
      auto v = r.u64v();
      if (!f.ok()) return f.error();
      if (!op.ok()) return op.error();
      if (!v.ok()) return v.error();
      if (f.value() < 1 || f.value() > static_cast<u8>(QField::jitter_avg_us)) {
        return Error{Errc::parse_error, "bad field"};
      }
      if (op.value() < 1 || op.value() > static_cast<u8>(CmpOp::ge)) {
        return Error{Errc::parse_error, "bad comparison op"};
      }
      cond.field = static_cast<QField>(f.value());
      cond.op = static_cast<CmpOp>(op.value());
      cond.value = v.value();
    }
  }
  auto agg = r.u8v();
  if (!agg.ok()) return agg.error();
  if (agg.value() < 1 || agg.value() > static_cast<u8>(AggKind::max)) {
    return Error{Errc::parse_error, "bad aggregate kind"};
  }
  q.agg = static_cast<AggKind>(agg.value());
  auto af = r.u8v();
  if (!af.ok()) return af.error();
  if (af.value() < 1 || af.value() > static_cast<u8>(QField::jitter_avg_us)) {
    return Error{Errc::parse_error, "bad aggregate field"};
  }
  q.agg_field = static_cast<QField>(af.value());
  return q;
}

Bytes Query::to_bytes() const {
  Writer w;
  serialize(w);
  return std::move(w).take();
}

Result<Query> Query::from_bytes(BytesView bytes) {
  Reader r(bytes);
  auto q = deserialize(r);
  if (!q.ok()) return q.error();
  if (!r.done()) return Error{Errc::parse_error, "trailing query bytes"};
  return q;
}

crypto::Digest32 Query::digest() const { return crypto::sha256(to_bytes()); }

std::string Query::to_string() const {
  std::string s = "SELECT ";
  switch (agg) {
    case AggKind::count: s += "COUNT(*)"; break;
    case AggKind::sum: s += std::string("SUM(") + qfield_name(agg_field) + ")"; break;
    case AggKind::min: s += std::string("MIN(") + qfield_name(agg_field) + ")"; break;
    case AggKind::max: s += std::string("MAX(") + qfield_name(agg_field) + ")"; break;
  }
  s += " FROM clogs";
  if (!where.empty()) {
    s += " WHERE ";
    const char* op_names[] = {"", "=", "!=", "<", "<=", ">", ">="};
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) s += " AND ";
      if (where[i].size() > 1) s += "(";
      for (size_t j = 0; j < where[i].size(); ++j) {
        if (j > 0) s += " OR ";
        const auto& c = where[i][j];
        s += qfield_name(c.field);
        s += " ";
        s += op_names[static_cast<u8>(c.op)];
        s += " ";
        if (c.field == QField::src_ip || c.field == QField::dst_ip) {
          s += netflow::format_ipv4(static_cast<u32>(c.value));
        } else {
          s += std::to_string(c.value);
        }
      }
      if (where[i].size() > 1) s += ")";
    }
  }
  return s;
}

u64 QueryResult::value(AggKind kind) const {
  switch (kind) {
    case AggKind::count: return matched;
    case AggKind::sum: return sum;
    case AggKind::min: return matched == 0 ? 0 : min;
    case AggKind::max: return max;
  }
  return 0;
}

namespace {

bool eval_condition(const Condition& c, const netflow::FlowRecord& entry) {
  const u64 v = extract_field(entry, c.field);
  switch (c.op) {
    case CmpOp::eq: return v == c.value;
    case CmpOp::ne: return v != c.value;
    case CmpOp::lt: return v < c.value;
    case CmpOp::le: return v <= c.value;
    case CmpOp::gt: return v > c.value;
    case CmpOp::ge: return v >= c.value;
  }
  return false;
}

}  // namespace

bool matches(const Query& q, const netflow::FlowRecord& entry) {
  for (const auto& clause : q.where) {
    bool any = false;
    for (const auto& cond : clause) {
      if (eval_condition(cond, entry)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

QueryResult evaluate_query(const Query& q,
                           std::span<const netflow::FlowRecord> entries) {
  QueryResult result;
  for (const auto& entry : entries) {
    ++result.scanned;
    if (!matches(q, entry)) continue;
    ++result.matched;
    const u64 v = extract_field(entry, q.agg_field);
    result.sum += v;
    result.min = std::min(result.min, v);
    result.max = std::max(result.max, v);
  }
  return result;
}

}  // namespace zkt::core
