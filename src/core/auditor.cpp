#include "core/auditor.h"

#include "core/io.h"
#include "obs/metrics.h"

namespace zkt::core {

namespace {

Status check_expected_query(const Query& proved,
                            const VerifyOptions& options) {
  if (options.expected_query != nullptr &&
      proved.digest() != options.expected_query->digest()) {
    return Error{Errc::proof_invalid,
                 "receipt proves a different query than requested"};
  }
  return {};
}

}  // namespace

Status verify_aggregation_receipt(const zvm::Verifier& verifier,
                                  const zvm::Receipt& receipt,
                                  const zvm::VerifyContext& context) {
  if (!is_aggregation_image(receipt.claim.image_id)) {
    return Error{Errc::proof_invalid,
                 "receipt was not produced by an aggregation guest"};
  }
  return verifier.verify(receipt, receipt.claim.image_id, context);
}

ChainPosition ChainSpan::start(u64 before) const {
  ChainPosition at;
  at.rounds = before;
  at.claim_digest = prev_claim_digest;
  at.root = prev_root;
  at.entry_count = prev_entry_count;
  at.has_sketch = has_sketch;
  if (has_sketch) {
    at.sketch_params = sketch_params;
    at.sketch_digest = prev_sketch_digest;
  }
  return at;
}

ChainPosition ChainSpan::end(u64 before) const {
  ChainPosition at;
  at.rounds = before + rounds;
  at.claim_digest = claim_digest;
  at.root = new_root;
  at.entry_count = new_entry_count;
  at.has_sketch = has_sketch;
  if (has_sketch) {
    at.sketch_params = sketch_params;
    at.sketch_digest = sketch_digest;
  }
  return at;
}

ChainSpan span_of(const AggJournal& journal, const Digest32& claim_digest) {
  ChainSpan span;
  span.has_prev = journal.has_prev;
  span.prev_claim_digest = journal.prev_claim_digest;
  span.prev_root = journal.prev_root;
  span.prev_entry_count = journal.prev_entry_count;
  span.claim_digest = claim_digest;
  span.new_root = journal.new_root;
  span.new_entry_count = journal.new_entry_count;
  span.has_sketch = journal.has_sketch;
  span.sketch_params = journal.sketch_params;
  span.prev_sketch_digest = journal.prev_sketch_digest;
  span.sketch_digest = journal.sketch_digest;
  return span;
}

Status ChainPosition::extend(const ChainSpan& span) {
  const ChainPosition from = span.start(rounds);
  if (rounds == 0) {
    // Genesis anchor: the chain starts from the empty state, and a sketched
    // chain from the EMPTY sketch's hash — never from seeded counters.
    if (span.has_prev) {
      return Error{Errc::chain_broken,
                   "first span claims a predecessor (no genesis anchor)"};
    }
    if (from.root != crypto::MerkleTree::empty_leaf() ||
        from.entry_count != 0) {
      return Error{Errc::chain_broken, "genesis span does not start empty"};
    }
    if (from.has_sketch &&
        from.sketch_digest != netflow::RoundSketch{from.sketch_params}.hash()) {
      return Error{Errc::chain_broken,
                   "genesis span does not start from the empty sketch"};
    }
  } else {
    // Link: the span starts exactly where the verified chain ends, and a
    // sketched chain keeps carrying the same sketch.
    if (!span.has_prev) {
      return Error{Errc::chain_broken,
                   "genesis span cannot extend a started chain"};
    }
    if (from.claim_digest != claim_digest) {
      return Error{Errc::chain_broken,
                   "span does not chain onto the accepted claim"};
    }
    if (from.root != root || from.entry_count != entry_count) {
      return Error{Errc::chain_broken,
                   "span does not extend the accepted state"};
    }
    if (from.has_sketch != has_sketch) {
      return Error{Errc::chain_broken,
                   "span disagrees with the chain about sketch carriage"};
    }
    if (!(from.sketch_params == sketch_params)) {
      return Error{Errc::chain_broken, "sketch params changed mid-chain"};
    }
    if (from.sketch_digest != sketch_digest) {
      return Error{Errc::chain_broken,
                   "span does not chain onto the accepted sketch"};
    }
  }
  *this = span.end(rounds);
  return {};
}

void AcceptedClaimWindow::insert(const Digest32& claim_digest) {
  if (!lookup_.insert(claim_digest.bytes).second) return;  // already present
  order_.push_back(claim_digest.bytes);
  if (capacity_ == 0) return;  // unbounded
  while (order_.size() > capacity_) {
    lookup_.erase(order_.front());
    order_.pop_front();
  }
}

Auditor::Auditor(const CommitmentBoard& board, AuditorOptions options)
    : board_(&board),
      options_(options),
      verifier_(options.min_queries),
      claims_(options.accepted_claim_window) {}

void Auditor::record_pass(const zvm::VerifyStats& pass,
                          zvm::VerifyStats* stats) {
  // docs/OBSERVABILITY.md catalog.
  obs::Registry& metrics = obs::Registry::instance();
  metrics.counter("core.auditor.receipts_verified").add(pass.receipts);
  metrics.counter("core.auditor.openings_checked").add(pass.openings);
  metrics.counter("core.auditor.traced_hashes_shared")
      .add(pass.node_hashes_shared);
  metrics.counter("core.auditor.assumptions_skipped")
      .add(pass.assumptions_skipped);
  if (stats != nullptr) stats->merge(pass);
}

Status Auditor::verify_receipt(const zvm::Receipt& receipt,
                               const zvm::ImageID& image,
                               zvm::VerifyStats* stats) {
  zvm::VerifyStats pass;
  const Status verified =
      verifier_.verify(receipt, image, zvm::VerifyContext{nullptr, &pass});
  record_pass(pass, stats);
  return verified;
}

Status Auditor::check_accepted(const Digest32& agg_claim_digest) const {
  if (!claims_.contains(agg_claim_digest)) {
    return Error{Errc::chain_broken,
                 "query targets an aggregation round we never accepted"};
  }
  return {};
}

bool Auditor::on_board(const CommitmentRef& ref) const {
  auto published = board_->get(ref.router_id, ref.window_id);
  return published.has_value() && published->rlog_hash == ref.rlog_hash &&
         published->record_count == ref.record_count;
}

Result<AggJournal> Auditor::accept_next(const zvm::Receipt& receipt,
                                        const zvm::Receipt* predecessor,
                                        zvm::VerifyStats* stats) {
  zvm::VerifyStats pass;
  const Status verified = verify_aggregation_receipt(
      verifier_, receipt, zvm::VerifyContext{predecessor, &pass});
  record_pass(pass, stats);
  ZKT_TRY(verified);
  return adopt_verified(receipt);
}

Result<AggJournal> Auditor::accept_round(const zvm::Receipt& receipt,
                                         zvm::VerifyStats* stats) {
  auto journal = accept_next(receipt, last_ ? &*last_ : nullptr, stats);
  if (journal.ok()) last_ = receipt;
  return journal;
}

Result<AggJournal> Auditor::adopt_verified(const zvm::Receipt& receipt) {
  auto journal = AggJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();
  const AggJournal& j = journal.value();

  ChainPosition next = position_;
  ZKT_TRY(next.extend(span_of(j, receipt.claim.digest())));

  // Every commitment consumed must have been published (and thus signed).
  for (const auto& ref : j.commitments) {
    auto published = board_->get(ref.router_id, ref.window_id);
    if (!published.has_value()) {
      return Error{Errc::commitment_missing,
                   "round consumes an unpublished commitment (router " +
                       std::to_string(ref.router_id) + ", window " +
                       std::to_string(ref.window_id) + ")"};
    }
    if (published->rlog_hash != ref.rlog_hash ||
        published->record_count != ref.record_count) {
      return Error{Errc::hash_mismatch,
                   "round consumes a commitment that differs from the board"};
    }
  }

  position_ = next;
  claims_.insert(position_.claim_digest);
  obs::Registry::instance().counter("core.auditor.rounds_accepted").add(1);
  return journal;
}

Result<u64> Auditor::accept_rounds(std::span<const zvm::Receipt> receipts,
                                   zvm::VerifyStats* stats) {
  // Receipt i's predecessor is receipt i-1 of the span; only the last
  // accepted receipt is copied into last_, once.
  const zvm::Receipt* predecessor = last_ ? &*last_ : nullptr;
  u64 accepted = 0;
  Status failed;
  for (const zvm::Receipt& receipt : receipts) {
    auto journal = accept_next(receipt, predecessor, stats);
    if (!journal.ok()) {
      failed = journal.error();
      break;
    }
    predecessor = &receipt;
    ++accepted;
  }
  if (accepted > 0) last_ = receipts[accepted - 1];
  if (!failed.ok()) return failed.error();
  return accepted;
}

Result<AuditReport> Auditor::audit(ReceiptSource& source,
                                   zvm::VerifyStats* stats) {
  const u64 before = position_.rounds;
  for (;;) {
    auto next = source.next();
    if (!next.ok()) return next.error();
    if (!next.value().has_value()) break;
    zvm::Receipt& receipt = *next.value();
    ZKT_TRY(accept_next(receipt, last_ ? &*last_ : nullptr, stats));
    last_ = std::move(receipt);
  }
  return AuditReport{position_.rounds - before, head()};
}

Result<QueryJournal> Auditor::verify_query(const zvm::Receipt& receipt,
                                           const VerifyOptions& options) {
  auto journal = QueryJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();
  const QueryJournal& j = journal.value();

  // The journal's claimed mode must match the image that actually ran.
  const auto& images = guest_images();
  ZKT_TRY(verify_receipt(receipt,
                         j.mode == QueryMode::complete ? images.query
                                                       : images.query_selective,
                         options.stats));
  ZKT_TRY(check_accepted(j.agg_claim_digest));
  ZKT_TRY(check_expected_query(j.query, options));
  if (j.mode == QueryMode::complete && j.result.scanned != j.entry_count) {
    return Error{Errc::proof_invalid,
                 "complete query did not scan the full state"};
  }
  obs::Registry::instance().counter("core.auditor.queries_verified").add(1);
  return journal;
}

Status Auditor::check_sketch_query_binding(
    const Digest32& agg_claim_digest, const Digest32& queried_sketch_digest,
    const netflow::SketchParams& params) {
  ZKT_TRY(check_accepted(agg_claim_digest));
  // When the query targets the current head, pin the sketch there: a
  // receipt answering against a stale or forged sketch digest is rejected
  // even though its seal verifies. (Older in-window rounds keep only their
  // claim digests; the in-guest chaining still binds the sketch to that
  // round's journal.)
  if (agg_claim_digest == position_.claim_digest) {
    if (!position_.has_sketch) {
      return Error{Errc::chain_broken,
                   "sketch query against a chain that carries no sketch"};
    }
    if (!(params == position_.sketch_params)) {
      return Error{Errc::proof_invalid,
                   "sketch query used different parameters than the chain"};
    }
    if (queried_sketch_digest != position_.sketch_digest) {
      return Error{Errc::proof_invalid,
                   "sketch query answered against a stale sketch digest"};
    }
  }
  return {};
}

Result<SketchHeavyJournal> Auditor::verify_heavy_hitters(
    const zvm::Receipt& receipt, const VerifyOptions& options) {
  ZKT_TRY(verify_receipt(receipt, sketch_heavy_image(), options.stats));

  auto journal = SketchHeavyJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();
  const SketchHeavyJournal& j = journal.value();
  ZKT_TRY(check_sketch_query_binding(j.agg_claim_digest, j.sketch_digest,
                                     j.params));
  // Re-check the completeness floor the guest proved — belt and braces
  // against a parse/journal bug, and the error clients should understand.
  if (!sketch_heavy_bound_ok(j.threshold, j.params.heavy_capacity, j.total)) {
    return Error{Errc::proof_invalid,
                 "heavy-hitter threshold below the sketch's provable floor"};
  }
  obs::Registry::instance().counter("core.sketch.queries_verified").add(1);
  return journal;
}

Result<SketchCardinalityJournal> Auditor::verify_cardinality(
    const zvm::Receipt& receipt, const VerifyOptions& options) {
  ZKT_TRY(verify_receipt(receipt, sketch_card_image(), options.stats));

  auto journal = SketchCardinalityJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();
  const SketchCardinalityJournal& j = journal.value();
  ZKT_TRY(check_sketch_query_binding(j.agg_claim_digest, j.sketch_digest,
                                     j.params));
  if (j.cms_lower_bound > j.distinct_flows) {
    return Error{Errc::proof_invalid,
                 "cardinality journal's lower bound exceeds its exact count"};
  }
  obs::Registry::instance().counter("core.sketch.queries_verified").add(1);
  return journal;
}

Result<GroupedQueryJournal> Auditor::verify_grouped(
    const zvm::Receipt& receipt, const VerifyOptions& options,
    std::optional<QField> expected_group) {
  ZKT_TRY(verify_receipt(receipt, grouped_query_image(), options.stats));
  auto journal = GroupedQueryJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();
  const GroupedQueryJournal& j = journal.value();
  ZKT_TRY(check_accepted(j.agg_claim_digest));
  ZKT_TRY(check_expected_query(j.query, options));
  if (expected_group.has_value() && j.group_field != *expected_group) {
    return Error{Errc::proof_invalid,
                 "receipt groups by a different field than requested"};
  }
  obs::Registry::instance().counter("core.auditor.queries_verified").add(1);
  return journal;
}

Result<HistogramQueryJournal> Auditor::verify_histogram(
    const zvm::Receipt& receipt, const VerifyOptions& options,
    std::optional<u64> expected_bound_us) {
  ZKT_TRY(verify_receipt(receipt, histogram_query_image(), options.stats));
  auto journal = HistogramQueryJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();
  const HistogramQueryJournal& j = journal.value();
  if (!on_board(j.commitment)) {
    return Error{Errc::commitment_missing,
                 "histogram query does not match the bulletin board"};
  }
  if (expected_bound_us.has_value() && j.bound_us != *expected_bound_us) {
    return Error{Errc::proof_invalid,
                 "receipt proves a different bound than requested"};
  }
  return journal;
}

}  // namespace zkt::core
