#include "core/describe.h"

#include <sstream>

#include "core/chain_summary.h"
#include "core/grouped_query.h"
#include "core/histogram_query.h"
#include "core/guests.h"
#include "core/sharded.h"
#include "core/sketch_query.h"

namespace zkt::core {

double fraction_below(const HistogramQueryJournal& j) {
  return j.total == 0 ? 0.0
                      : static_cast<double>(j.count_below) /
                            static_cast<double>(j.total);
}

namespace {

const char* image_name(const zvm::ImageID& id) {
  const auto& images = guest_images();
  if (id == images.aggregate) return "zkt.guest.aggregate";
  if (id == images.aggregate_incremental) {
    return "zkt.guest.aggregate_incremental";
  }
  if (id == images.query) return "zkt.guest.query";
  if (id == images.query_selective) return "zkt.guest.query_selective";
  if (id == grouped_query_image()) return "zkt.guest.query_grouped";
  if (id == shard_split_image()) return "zkt.guest.shard_split";
  if (id == join_image()) return "zkt.guest.join";
  if (id == sketch_heavy_image()) return "zkt.guest.sketch_heavy";
  if (id == sketch_card_image()) return "zkt.guest.sketch_card";
  if (id == chain_summary_image()) return "zkt.guest.chain_summary";
  if (id == histogram_query_image()) return "zkt.guest.histogram_query";
  return nullptr;
}

std::string short_hex(const crypto::Digest32& d) {
  return d.hex().substr(0, 16) + "…";
}

void describe_journal(std::ostringstream& os, const zvm::Receipt& receipt) {
  const char* name = image_name(receipt.claim.image_id);
  if (name == nullptr) {
    os << "  journal: " << receipt.journal.size()
       << " bytes (unknown image; not decoded)\n";
    return;
  }
  const std::string kind = name;
  if (kind == "zkt.guest.aggregate" ||
      kind == "zkt.guest.aggregate_incremental") {
    auto j = AggJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  aggregation round ("
       << (j.value().kind == RoundKind::incremental ? "incremental"
                                                    : "full rebuild")
       << "):\n"
       << "    prev root    " << short_hex(j.value().prev_root)
       << (j.value().has_prev ? "" : " (genesis)") << "\n"
       << "    new root     " << short_hex(j.value().new_root) << "\n"
       << "    entries      " << j.value().prev_entry_count << " -> "
       << j.value().new_entry_count << "\n"
       << "    commitments  " << j.value().commitments.size() << " batch(es)";
    for (const auto& c : j.value().commitments) {
      os << "\n      router " << c.router_id << " window " << c.window_id
         << ": " << c.record_count << " records, H=" << short_hex(c.rlog_hash);
    }
    os << "\n    updates      " << j.value().update_count << " entr"
       << (j.value().update_count == 1 ? "y" : "ies") << " (digest "
       << short_hex(j.value().updates_digest) << ")\n";
    if (j.value().kind == RoundKind::incremental) {
      os << "    delta shape  " << j.value().touched_entries
         << " opened entr"
         << (j.value().touched_entries == 1 ? "y" : "ies") << ", "
         << j.value().multiproof_siblings << " multiproof sibling(s)\n";
    }
    if (j.value().has_sketch) {
      os << "    sketch       " << short_hex(j.value().prev_sketch_digest)
         << " -> " << short_hex(j.value().sketch_digest) << " ("
         << j.value().sketch_params.cm.width << "x"
         << j.value().sketch_params.cm.depth << ", heavy cap "
         << j.value().sketch_params.heavy_capacity << ", "
         << j.value().sketch_total << " updates)\n";
    }
  } else if (kind == "zkt.guest.query" ||
             kind == "zkt.guest.query_selective") {
    auto j = QueryJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  query ("
       << (j.value().mode == QueryMode::complete ? "complete scan"
                                                 : "selective")
       << "):\n"
       << "    " << j.value().query.to_string() << "\n"
       << "    against root " << short_hex(j.value().agg_root) << " ("
       << j.value().entry_count << " entries)\n"
       << "    result: " << j.value().result.value(j.value().query.agg)
       << "  [matched " << j.value().result.matched << ", scanned "
       << j.value().result.scanned << "]\n";
  } else if (kind == "zkt.guest.query_grouped") {
    auto j = GroupedQueryJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  grouped query:\n    " << j.value().query.to_string()
       << " GROUP BY " << qfield_name(j.value().group_field) << "\n"
       << "    " << j.value().groups.size() << " group(s):\n";
    for (const auto& g : j.value().groups) {
      os << "      " << qfield_name(j.value().group_field) << "="
         << g.group_value << " -> "
         << g.stats.value(j.value().query.agg) << " (" << g.stats.matched
         << " flows)\n";
    }
  } else if (kind == "zkt.guest.shard_split") {
    auto j = SplitJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  shard split: router " << j.value().source.router_id
       << " window " << j.value().source.window_id << " ("
       << j.value().source.record_count << " records) -> "
       << j.value().shard_count << " shards\n";
  } else if (kind == "zkt.guest.chain_summary") {
    auto j = ChainSummaryJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  epoch seal: " << j.value().rounds << " round(s)"
       << (j.value().genesis ? " from genesis" : " mid-chain") << ", "
       << j.value().commitment_count << " commitment(s)\n"
       << "    span  " << short_hex(j.value().first_claim_digest) << " -> "
       << short_hex(j.value().final_claim_digest) << "\n"
       << "    final root " << short_hex(j.value().final_root) << " ("
       << j.value().final_entry_count << " entries)\n"
       << "    commitment chain "
       << short_hex(j.value().first_commitments_digest) << " -> "
       << short_hex(j.value().final_commitments_digest) << "\n";
    if (j.value().has_sketch) {
      os << "    sketch chain " << short_hex(j.value().first_sketch_digest)
         << " -> " << short_hex(j.value().final_sketch_digest) << " ("
         << j.value().final_sketch_total << " updates)\n";
    }
  } else if (kind == "zkt.guest.join") {
    auto j = JoinJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  join tree: height " << j.value().height << ", "
       << j.value().leaf_count << " leaf (shard) chain(s), "
       << j.value().total_entries << " entries\n"
       << "    fold digest  " << short_hex(j.value().fold_digest) << "\n";
    if (j.value().has_sketch) {
      os << "    round sketch " << short_hex(j.value().sketch_digest) << " ("
         << j.value().sketch_params.cm.width << "x"
         << j.value().sketch_params.cm.depth << ", heavy cap "
         << j.value().sketch_params.heavy_capacity << ", "
         << j.value().sketch_total << " updates)\n";
    }
  } else if (kind == "zkt.guest.sketch_heavy") {
    auto j = SketchHeavyJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  sketch heavy hitters: threshold " << j.value().threshold
       << " over " << j.value().total << " updates (sketch "
       << short_hex(j.value().sketch_digest) << ", round claim "
       << short_hex(j.value().agg_claim_digest) << ")\n"
       << "    " << j.value().hits.size() << " hit(s):\n";
    for (const auto& hit : j.value().hits) {
      os << "      " << hit.key.to_string() << " count " << hit.count
         << " (err<=" << hit.error << ", cms " << hit.cms_estimate << ")\n";
    }
  } else if (kind == "zkt.guest.sketch_card") {
    auto j = SketchCardinalityJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  sketch cardinality: " << j.value().distinct_flows
       << " distinct flow(s), CMS lower bound "
       << j.value().cms_lower_bound << " (sketch "
       << short_hex(j.value().sketch_digest) << ", round claim "
       << short_hex(j.value().agg_claim_digest) << ")\n";
  } else if (kind == "zkt.guest.histogram_query") {
    auto j = HistogramQueryJournal::parse(receipt.journal);
    if (!j.ok()) {
      os << "  journal: MALFORMED (" << j.error().to_string() << ")\n";
      return;
    }
    os << "  histogram quantile bound: " << j.value().count_below << " of "
       << j.value().total << " samples < " << j.value().bound_us << " us ("
       << 100.0 * fraction_below(j.value()) << "%)\n";
  }
}

}  // namespace

std::string summarize_receipt(const zvm::Receipt& receipt) {
  std::ostringstream os;
  const char* name = image_name(receipt.claim.image_id);
  os << (name != nullptr ? name : "unknown-image") << ", "
     << receipt.claim.cycle_count << " cycles, journal "
     << receipt.journal.size() << " B, "
     << (receipt.seal_kind == zvm::SealKind::succinct ? "succinct"
                                                      : "composite")
     << " seal " << receipt.seal_size_bytes() << " B, receipt "
     << receipt.receipt_size_bytes() << " B";
  return os.str();
}

std::string describe_receipt(const zvm::Receipt& receipt) {
  std::ostringstream os;
  os << summarize_receipt(receipt) << "\n";
  os << "  claim " << short_hex(receipt.claim.digest()) << ", input "
     << short_hex(receipt.claim.input_digest) << ", journal "
     << short_hex(receipt.claim.journal_digest) << "\n";
  if (!receipt.claim.assumptions.empty()) {
    os << "  assumptions: " << receipt.claim.assumptions.size()
       << " inner claim(s)\n";
  }
  if (receipt.seal_kind == zvm::SealKind::composite) {
    os << "  segments: " << receipt.composite.segments.size() << " (";
    for (size_t i = 0; i < receipt.composite.segments.size(); ++i) {
      const zvm::SegmentSeal& segment = receipt.composite.segments[i];
      if (i > 0) os << "; ";
      os << segment.row_count << " rows, "
         << zvm::leaves_for_rows(segment.row_count) << " leaves, "
         << segment.openings.size() << " opened";
    }
    os << ")\n";
  }
  describe_journal(os, receipt);
  return os.str();
}

}  // namespace zkt::core
