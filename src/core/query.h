// Query model: filtered aggregates over the CLog, the verifiable analogue of
//
//   SELECT SUM(hop_count) FROM clogs
//   WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9";
//
// A query is a predicate in conjunctive normal form (AND of OR-clauses over
// field comparisons) plus an aggregate (COUNT / SUM / MIN / MAX over a
// numeric field). AVG is computed client-side from SUM and COUNT of the same
// run. The query guest evaluates the predicate over *every* CLog entry —
// completeness is part of what the proof shows — and the query itself is
// committed to the journal, so the verifier knows exactly what was asked.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/digest.h"
#include "netflow/record.h"

namespace zkt::core {

/// Queryable fields of a CLog entry. Values are u64-encoded.
enum class QField : u8 {
  src_ip = 1,
  dst_ip,
  src_port,
  dst_port,
  protocol,
  packets,
  bytes,
  lost_packets,
  hop_sum,
  rtt_sum_us,
  rtt_count,
  rtt_max_us,
  jitter_sum_us,
  jitter_count,
  first_ms,
  last_ms,
  duration_ms,   ///< last_ms - first_ms
  rtt_avg_us,    ///< rtt_sum / rtt_count (integer division, 0 if no samples)
  jitter_avg_us,
};

const char* qfield_name(QField f);

/// Extract a field value from an entry (shared by guest and reference
/// evaluator so both agree exactly).
u64 extract_field(const netflow::FlowRecord& entry, QField field);

enum class CmpOp : u8 { eq = 1, ne, lt, le, gt, ge };

struct Condition {
  QField field = QField::packets;
  CmpOp op = CmpOp::eq;
  u64 value = 0;
};

enum class AggKind : u8 { count = 1, sum, min, max };

struct Query {
  /// CNF: outer vector is ANDed; each inner vector is an ORed clause.
  std::vector<std::vector<Condition>> where;
  AggKind agg = AggKind::count;
  QField agg_field = QField::packets;  ///< ignored for count

  void serialize(Writer& w) const;
  static Result<Query> deserialize(Reader& r);
  Bytes to_bytes() const;
  /// Inverse of to_bytes: exactly one query, trailing bytes a parse_error
  /// (journals embed the query as a blob, which must have one encoding).
  static Result<Query> from_bytes(BytesView bytes);
  crypto::Digest32 digest() const;
  std::string to_string() const;

  // -- Fluent builders -----------------------------------------------------
  static Query count() {
    Query q;
    q.agg = AggKind::count;
    return q;
  }
  static Query sum(QField field) {
    Query q;
    q.agg = AggKind::sum;
    q.agg_field = field;
    return q;
  }
  static Query min(QField field) {
    Query q;
    q.agg = AggKind::min;
    q.agg_field = field;
    return q;
  }
  static Query max(QField field) {
    Query q;
    q.agg = AggKind::max;
    q.agg_field = field;
    return q;
  }
  /// AND a single condition.
  Query& and_where(QField field, CmpOp op, u64 value) {
    where.push_back({Condition{field, op, value}});
    return *this;
  }
  /// AND a clause of ORed conditions.
  Query& and_any(std::vector<Condition> clause) {
    where.push_back(std::move(clause));
    return *this;
  }
};

/// Aggregate accumulator shared by the guest and the reference evaluator.
struct QueryResult {
  u64 matched = 0;   ///< entries matching the predicate
  u64 scanned = 0;   ///< total entries scanned (completeness witness)
  u64 sum = 0;
  u64 min = ~0ULL;   ///< meaningful only if matched > 0
  u64 max = 0;

  /// The headline value for the query's aggregate kind.
  u64 value(AggKind kind) const;

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

/// Plain (non-proving) reference evaluator; the proof-generating guest must
/// produce exactly this result. Used by tests and by operators previewing
/// queries before paying for proof generation.
QueryResult evaluate_query(const Query& q,
                           std::span<const netflow::FlowRecord> entries);

/// Predicate-only evaluation of one entry.
bool matches(const Query& q, const netflow::FlowRecord& entry);

}  // namespace zkt::core
