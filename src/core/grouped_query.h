// Grouped verifiable queries: the proof equivalent of
//
//   SELECT group_field, COUNT(*), SUM(agg_field), MIN(...), MAX(...)
//   FROM clogs WHERE <predicate> GROUP BY group_field;
//
// One receipt proves the aggregates of every group at once — e.g. loss and
// RTT per content provider for the neutrality audit (§2.1), instead of one
// proof per provider. Always complete-scan: the guest walks the whole
// authenticated state, so group membership and totals are exhaustive.
// QueryService::grouped proves it; Auditor::verify_grouped checks it.
#pragma once

#include "core/guests.h"

namespace zkt::core {

struct GroupEntry {
  u64 group_value = 0;  ///< the grouped field's value
  QueryResult stats;    ///< aggregates over entries in this group

  friend bool operator==(const GroupEntry&, const GroupEntry&) = default;

  template <class V, class Self>
  static void fields(V& v, Self& g) {
    v.field("group_value", g.group_value);
    v.field("stats", g.stats);
  }
};

struct GroupedQueryJournal {
  Digest32 agg_claim_digest;
  Digest32 agg_root;
  u64 entry_count = 0;
  Query query;          ///< predicate + per-group aggregate
  QField group_field = QField::protocol;
  /// Groups with at least one matching entry, ascending by group value.
  std::vector<GroupEntry> groups;

  /// The GQRY1 layout (common/codec.h).
  template <class V, class Self>
  static void fields(V& v, Self& j) {
    v.magic("GQRY1");
    v.field("agg_claim_digest", j.agg_claim_digest.bytes);
    v.field("agg_root", j.agg_root.bytes);
    v.field("entry_count", j.entry_count);
    v.blob("query", j.query);
    v.field("group_field", j.group_field);
    v.check(j.group_field >= QField::src_ip &&
                j.group_field <= QField::jitter_avg_us,
            "bad group field");
    v.list("groups", j.groups, u64{1} << 24);
  }
  void write(Writer& w) const { encode(w, *this); }
  static Result<GroupedQueryJournal> parse(BytesView journal) {
    return decode<GroupedQueryJournal>(journal);
  }
};

zvm::ImageID grouped_query_image();

struct GroupedQueryResponse {
  zvm::Receipt receipt;
  GroupedQueryJournal journal;
  zvm::ProveInfo prove_info;
};

/// Reference (non-proving) evaluator; the guest must match it exactly.
std::vector<GroupEntry> evaluate_grouped(
    const Query& query, QField group_field,
    std::span<const netflow::FlowRecord> entries);

}  // namespace zkt::core
