#include "core/grouped_query.h"

#include <map>

namespace zkt::core {

namespace {

using zvm::AluOp;
using zvm::Env;

Status grouped_query_guest(Env& env) {
  auto binding = detail::bind_aggregation(env);
  if (!binding.ok()) return binding.error();

  GroupedQueryJournal out;
  out.agg_claim_digest = binding.value().claim_digest;
  out.agg_root = binding.value().journal.new_root;
  out.entry_count = binding.value().journal.new_entry_count;

  auto query = detail::read_query(env);
  if (!query.ok()) return query.error();
  out.query = std::move(query.value());

  auto group_field = env.read_u8();
  if (!group_field.ok()) return group_field.error();
  if (group_field.value() < 1 ||
      group_field.value() > static_cast<u8>(QField::jitter_avg_us)) {
    return Error{Errc::guest_abort, "bad group field"};
  }
  out.group_field = static_cast<QField>(group_field.value());

  // Load and authenticate the full state (completeness is the point of a
  // grouped report: no group can be omitted).
  auto entries = detail::load_full_state(
      env, out.entry_count, out.agg_root,
      "grouped query must scan the complete state");
  if (!entries.ok()) return entries.error();
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in grouped query input"};
  }

  // Evaluate: predicate per entry, then accumulate into the entry's group.
  std::map<u64, QueryResult> groups;  // ordered -> deterministic journal
  for (const auto& entry : entries.value()) {
    if (detail::eval_predicate_traced(env, out.query, entry) == 0) {
      continue;  // trace already witnessed the evaluation
    }
    const u64 group_value =
        detail::extract_field_traced(env, entry, out.group_field);
    auto [it, inserted] = groups.emplace(group_value, QueryResult{});
    QueryResult& acc = it->second;
    if (inserted) acc.min = ~0ULL;
    acc.matched = env.alu(AluOp::add, acc.matched, 1);
    acc.scanned = acc.matched;
    const u64 v =
        detail::extract_field_traced(env, entry, out.query.agg_field);
    acc.sum = env.alu(AluOp::add, acc.sum, v);
    detail::select_min_max_traced(env, acc, v, std::nullopt);
  }
  out.groups.reserve(groups.size());
  for (const auto& [value, stats] : groups) {
    out.groups.push_back(GroupEntry{value, stats});
  }

  Writer jw;
  out.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

}  // namespace

void GroupedQueryJournal::write(Writer& w) const {
  w.str("GQRY1");
  w.fixed(agg_claim_digest.bytes);
  w.fixed(agg_root.bytes);
  w.u64v(entry_count);
  w.blob(query.to_bytes());
  w.u8v(static_cast<u8>(group_field));
  w.varint(groups.size());
  for (const auto& g : groups) {
    w.u64v(g.group_value);
    w.u64v(g.stats.matched);
    w.u64v(g.stats.scanned);
    w.u64v(g.stats.sum);
    w.u64v(g.stats.min);
    w.u64v(g.stats.max);
  }
}

Result<GroupedQueryJournal> GroupedQueryJournal::parse(BytesView journal) {
  Reader r(journal);
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "GQRY1") {
    return Error{Errc::parse_error, "bad grouped query journal magic"};
  }
  GroupedQueryJournal j;
  ZKT_TRY(r.fixed(j.agg_claim_digest.bytes));
  ZKT_TRY(r.fixed(j.agg_root.bytes));
  auto ec = r.u64v();
  if (!ec.ok()) return ec.error();
  j.entry_count = ec.value();
  auto qb = r.blob();
  if (!qb.ok()) return qb.error();
  auto q = Query::from_bytes(qb.value());
  if (!q.ok()) return q.error();
  j.query = std::move(q.value());
  auto gf = r.u8v();
  if (!gf.ok()) return gf.error();
  if (gf.value() < 1 || gf.value() > static_cast<u8>(QField::jitter_avg_us)) {
    return Error{Errc::parse_error, "bad group field"};
  }
  j.group_field = static_cast<QField>(gf.value());
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() > (1u << 24)) {
    return Error{Errc::parse_error, "too many groups"};
  }
  j.groups.resize(n.value());
  for (auto& g : j.groups) {
    u64* fields[] = {&g.group_value,  &g.stats.matched, &g.stats.scanned,
                     &g.stats.sum,    &g.stats.min,     &g.stats.max};
    for (u64* f : fields) {
      auto v = r.u64v();
      if (!v.ok()) return v.error();
      *f = v.value();
    }
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing grouped query journal"};
  }
  return j;
}

zvm::ImageID grouped_query_image() {
  static const zvm::ImageID id = zvm::ImageRegistry::instance().add(
      "zkt.guest.query_grouped", 1, grouped_query_guest);
  return id;
}

std::vector<GroupEntry> evaluate_grouped(
    const Query& query, QField group_field,
    std::span<const netflow::FlowRecord> entries) {
  std::map<u64, QueryResult> groups;
  for (const auto& entry : entries) {
    if (!matches(query, entry)) continue;
    const u64 group_value = extract_field(entry, group_field);
    auto [it, inserted] = groups.emplace(group_value, QueryResult{});
    if (inserted) it->second.min = ~0ULL;
    QueryResult& acc = it->second;
    ++acc.matched;
    acc.scanned = acc.matched;
    const u64 v = extract_field(entry, query.agg_field);
    acc.sum += v;
    acc.min = std::min(acc.min, v);
    acc.max = std::max(acc.max, v);
  }
  std::vector<GroupEntry> out;
  out.reserve(groups.size());
  for (const auto& [value, stats] : groups) {
    out.push_back(GroupEntry{value, stats});
  }
  return out;
}

}  // namespace zkt::core
