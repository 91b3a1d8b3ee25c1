#include "core/auditor.h"

#include <vector>

#include "core/io.h"
#include "obs/metrics.h"

namespace zkt::core {

namespace {

/// Overrides batch.min_queries: the auditor's floor is the single source of
/// truth for every verification it performs.
BatchVerifierOptions batch_options(const AuditorOptions& options) {
  BatchVerifierOptions batch = options.batch;
  batch.min_queries = options.min_queries;
  return batch;
}

/// Publish a verification pass to obs (docs/OBSERVABILITY.md catalog).
void publish_verify_metrics(const zvm::VerifyStats& stats) {
  obs::Registry& metrics = obs::Registry::instance();
  metrics.counter("core.auditor.receipts_verified").add(stats.receipts);
  metrics.counter("core.auditor.openings_checked").add(stats.openings);
  metrics.counter("core.auditor.traced_hashes_shared")
      .add(stats.node_hashes_shared);
  metrics.counter("core.auditor.assumptions_skipped")
      .add(stats.assumptions_skipped);
}

}  // namespace

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
      batch_(batch_options(options)),
      claims_(options.accepted_claim_window) {
  if (options_.backend.has_value()) {
    // Best-effort process-global pin; an unavailable backend leaves runtime
    // dispatch in place (see AuditorOptions::backend).
    crypto::sha256_force_backend(*options_.backend);
  }
}

Result<AggJournal> Auditor::accept_round(const zvm::Receipt& receipt) {
  zvm::VerifyStats stats;
  const Status verified = verify_aggregation_receipt(
      verifier_, receipt, zvm::VerifyContext{nullptr, &stats});
  publish_verify_metrics(stats);
  ZKT_TRY(verified);
  return adopt_verified(receipt);
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
  if (receipts.empty()) return u64{0};
  obs::Registry::instance()
      .histogram("core.auditor.batch_size")
      .record(static_cast<double>(receipts.size()));

  zvm::VerifyStats batch_stats;
  const std::vector<Status> outcomes =
      batch_.verify_aggregation(receipts, &batch_stats);
  publish_verify_metrics(batch_stats);
  if (stats != nullptr) stats->merge(batch_stats);

  // Chain on in order; the first failure (verification above, continuity or
  // board mismatch here) stops the walk with the accepted prefix retained —
  // byte-for-byte the state and error a loop over accept_round produces.
  u64 accepted = 0;
  for (size_t i = 0; i < receipts.size(); ++i) {
    if (!outcomes[i].ok()) return outcomes[i].error();
    auto journal = adopt_verified(receipts[i]);
    if (!journal.ok()) return journal.error();
    ++accepted;
  }
  return accepted;
}

Result<AuditReport> Auditor::audit(ReceiptSource& source,
                                   const AuditOptions& options) {
  const u64 window_size = options.batch_size == 0 ? 1 : options.batch_size;
  const u64 before = position_.rounds;
  std::vector<zvm::Receipt> window;
  window.reserve(window_size);

  bool done = false;
  while (!done) {
    window.clear();
    while (window.size() < window_size) {
      auto next = source.next();
      if (!next.ok()) return next.error();
      if (!next.value().has_value()) {
        done = true;
        break;
      }
      window.push_back(std::move(*next.value()));
    }
    if (window.empty()) break;
    ZKT_TRY(accept_rounds(window, options.stats));
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
  const zvm::ImageID& expected_image = j.mode == QueryMode::complete
                                           ? images.query
                                           : images.query_selective;
  zvm::VerifyStats stats;
  const Status verified = verifier_.verify(
      receipt, expected_image, zvm::VerifyContext{nullptr, &stats});
  publish_verify_metrics(stats);
  if (options.stats != nullptr) options.stats->merge(stats);
  ZKT_TRY(verified);

  if (!claims_.contains(j.agg_claim_digest)) {
    return Error{Errc::chain_broken,
                 "query targets an aggregation round we never accepted"};
  }
  if (options.expected_query != nullptr &&
      j.query.digest() != options.expected_query->digest()) {
    return Error{Errc::proof_invalid,
                 "receipt proves a different query than requested"};
  }
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
  if (!claims_.contains(agg_claim_digest)) {
    return Error{Errc::chain_broken,
                 "sketch query targets a round we never accepted"};
  }
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
  zvm::VerifyStats stats;
  const Status verified = verifier_.verify(
      receipt, sketch_heavy_image(), zvm::VerifyContext{nullptr, &stats});
  publish_verify_metrics(stats);
  if (options.stats != nullptr) options.stats->merge(stats);
  ZKT_TRY(verified);

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
  zvm::VerifyStats stats;
  const Status verified = verifier_.verify(
      receipt, sketch_card_image(), zvm::VerifyContext{nullptr, &stats});
  publish_verify_metrics(stats);
  if (options.stats != nullptr) options.stats->merge(stats);
  ZKT_TRY(verified);

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

}  // namespace zkt::core
