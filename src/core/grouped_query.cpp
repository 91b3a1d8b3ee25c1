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
