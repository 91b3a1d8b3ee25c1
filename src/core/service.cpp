#include "core/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <numeric>

#include "common/log.h"
#include "common/thread_pool.h"
#include "core/auditor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "zvm/verifier.h"

namespace zkt::core {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Deterministic (window, router) processing order, via a local index — the
/// caller's batches are borrowed, not copied or reordered.
std::vector<size_t> batch_order(std::span<const netflow::RLogBatch> batches) {
  std::vector<size_t> order(batches.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::tie(batches[a].window_id, batches[a].router_id) <
           std::tie(batches[b].window_id, batches[b].router_id);
  });
  return order;
}

/// Look up the *published* commitment for each batch and pair it with the
/// raw bytes. The commitment is the reference the guest checks the bytes
/// against; a batch modified after commitment therefore fails in the guest,
/// not here. Without a board (a shard chain) each batch is committed under
/// the hash of its own bytes.
Result<std::vector<std::pair<CommitmentRef, Bytes>>> committed_batches(
    const CommitmentBoard* board, std::span<const netflow::RLogBatch> batches,
    std::span<const size_t> order) {
  std::vector<std::pair<CommitmentRef, Bytes>> out;
  out.reserve(order.size());
  for (size_t idx : order) {
    const netflow::RLogBatch& batch = batches[idx];
    CommitmentRef ref;
    ref.router_id = batch.router_id;
    ref.window_id = batch.window_id;
    Bytes bytes = batch.canonical_bytes();
    if (board == nullptr) {
      ref.rlog_hash = crypto::sha256(bytes);
      ref.record_count = batch.records.size();
    } else {
      auto commitment = board->get(batch.router_id, batch.window_id);
      if (!commitment.has_value()) {
        return Error{Errc::commitment_missing,
                     "no published commitment for router " +
                         std::to_string(batch.router_id) + " window " +
                         std::to_string(batch.window_id)};
      }
      ref.rlog_hash = commitment->rlog_hash;
      ref.record_count = commitment->record_count;
    }
    out.emplace_back(ref, std::move(bytes));
  }
  return out;
}

/// auto_select proves incrementally only while the delta's estimated
/// traced-hash count stays below this fraction of the full rebuild's.
constexpr double kIncrementalThreshold = 0.75;

/// heavy_hitters()/cardinality() answer from the round sketch only while
/// its estimated traced-hash count stays below this fraction of the exact
/// complete scan's — kIncrementalThreshold's twin on the query side.
constexpr double kSketchThreshold = 0.75;

u64 tree_depth(u64 leaf_count) {
  return static_cast<u64>(
      std::countr_zero(std::bit_ceil(std::max<u64>(leaf_count, 1))));
}

}  // namespace

Result<AggregationRound> AggregationService::aggregate(
    std::span<const netflow::RLogBatch> batches) {
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan span("agg_round");

  auto round = aggregate_impl(batches);

  metrics.histogram("core.agg.round_ms").record(ms_since(start));
  metrics.histogram("core.agg.batches_per_round")
      .record(static_cast<double>(batches.size()));
  if (round.ok()) {
    metrics.counter("core.agg.rounds").add(1);
    metrics.counter("core.agg.batches").add(batches.size());
    if (round.value().journal.has_sketch) {
      u64 records = 0;
      for (const auto& b : batches) records += b.records.size();
      metrics.counter("core.sketch.rounds").add(1);
      metrics.counter("core.sketch.fold_records").add(records);
      metrics.gauge("core.sketch.total")
          .set(static_cast<double>(round.value().journal.sketch_total));
    }
    metrics.gauge("core.agg.entries")
        .set(static_cast<double>(state_.entry_count()));
    // Delta-shape telemetry: how much of the state a round actually touched
    // and which guest proved it (0 = full rebuild, 1 = incremental).
    const AggJournal& j = round.value().journal;
    const bool inc = j.kind == RoundKind::incremental;
    metrics.gauge("core.agg.mode").set(inc ? 1.0 : 0.0);
    metrics.counter(inc ? "core.agg.rounds_incremental"
                        : "core.agg.rounds_full")
        .add(1);
    metrics.gauge("core.agg.total_entries")
        .set(static_cast<double>(j.new_entry_count));
    metrics.histogram("core.agg.touched_entries")
        .record(static_cast<double>(inc ? j.touched_entries
                                        : j.update_count));
    metrics.histogram("core.agg.multiproof_siblings")
        .record(static_cast<double>(j.multiproof_siblings));
  } else {
    metrics.counter("core.agg.failed_rounds").add(1);
  }
  return round;
}

AggregationService::DeltaShape AggregationService::delta_shape(
    std::span<const netflow::RLogBatch> batches,
    std::span<const size_t> order) const {
  DeltaShape shape;
  std::vector<u64> touched;
  std::vector<netflow::FlowKey> fresh;
  for (size_t idx : order) {
    for (const auto& rec : batches[idx].records) {
      ++shape.records;
      if (auto pos = state_.find(rec.key); pos.has_value()) {
        touched.push_back(*pos);
      } else {
        fresh.push_back(rec.key);
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

  const u64 n = state_.entry_count();
  std::vector<u64> opened = std::move(touched);
  if (!fresh.empty() && n > 0) {
    const u64 min_pos = state_.lower_bound(fresh.front());
    if (min_pos < n) {
      // Insertion cascade: every entry from just before the first insertion
      // point through the end either shifts or brackets a new key, so the
      // guest must see all of them.
      for (u64 i = min_pos > 0 ? min_pos - 1 : 0; i < n; ++i) {
        opened.push_back(i);
      }
      std::sort(opened.begin(), opened.end());
      opened.erase(std::unique(opened.begin(), opened.end()), opened.end());
    } else if (opened.empty() || opened.back() != n - 1) {
      // Frontier-only inserts: the current maximum key proves every new key
      // lies beyond the old state.
      opened.push_back(n - 1);
    }
  }
  shape.opened = std::move(opened);
  shape.fresh = std::move(fresh);
  return shape;
}

bool AggregationService::pick_incremental(const DeltaShape& shape) const {
  if (shape.opened.empty()) return false;  // nothing to anchor a delta on
  if (mode_ == AggMode::incremental) return true;
  const u64 n = state_.entry_count();
  const u64 k = shape.opened.size() + shape.fresh.size();
  const u64 depth_new = tree_depth(n + shape.fresh.size());
  // Traced-hash estimates; record hashing and merge ALU cost are identical
  // in both guests and cancel out. Full: leaf-hash all N entries, build the
  // prev tree, one path check per record, rebuild the changed subtrees.
  // Incremental: leaf-hash only opened + new entries, then one dual-lane
  // multiproof walk.
  const u64 est_full = n + std::bit_ceil(std::max<u64>(n, 1)) +
                       shape.records * tree_depth(n) + k * (depth_new + 1);
  const u64 est_inc =
      k + shape.fresh.size() + 2 * k * (depth_new + 1) + depth_new;
  return static_cast<double>(est_inc) <
         kIncrementalThreshold * static_cast<double>(est_full);
}

Result<DeltaAggregateInput> AggregationService::build_delta_input(
    std::span<const netflow::RLogBatch> batches) const {
  const std::vector<size_t> order = batch_order(batches);
  return build_delta_input_ordered(batches, order,
                                   delta_shape(batches, order));
}

Result<DeltaAggregateInput> AggregationService::build_delta_input_ordered(
    std::span<const netflow::RLogBatch> batches,
    std::span<const size_t> order, const DeltaShape& shape) const {
  if (!last_receipt_.has_value() || state_.entry_count() == 0) {
    return Error{Errc::invalid_argument,
                 "delta rounds need a previous round over non-empty state"};
  }
  if (shape.opened.empty()) {
    return Error{Errc::invalid_argument,
                 "round touches no entry; nothing to prove incrementally"};
  }
  const u64 n = state_.entry_count();

  DeltaAggregateInput input;
  input.prev_claim_digest = last_receipt_->claim.digest();
  input.prev_image_kind = last_kind_;
  input.prev_root = state_.root();
  if (sketch_params_.has_value()) {
    input.has_sketch = true;
    input.prev_sketch = sketch_.canonical_bytes();
  }
  input.prev_entry_count = n;
  input.opened.reserve(shape.opened.size());
  for (u64 i : shape.opened) {
    DeltaAggregateInput::OpenedEntry opened;
    opened.index = i;
    opened.entry = state_.entry(i).canonical_bytes();
    input.opened.push_back(std::move(opened));
  }

  // One multiproof over the opened indices plus the empty slots the new
  // flows will occupy. If those slots lie beyond current tree capacity,
  // prove against a grown scratch copy — leaf_count (and thus the root the
  // guest checks) is unaffected by capacity padding.
  std::vector<u64> proof_indices = shape.opened;
  for (u64 r = 0; r < shape.fresh.size(); ++r) {
    proof_indices.push_back(n + r);
  }
  const u64 slots = n + shape.fresh.size();
  auto proof = [&] {
    if (std::bit_ceil(std::max<u64>(slots, 1)) <= state_.tree().capacity()) {
      return state_.prove_multi(proof_indices);
    }
    crypto::MerkleTree grown = state_.tree();
    grown.grow_capacity(slots);
    return grown.prove_multi(proof_indices);
  }();
  if (!proof.ok()) return proof.error();
  input.proof = std::move(proof.value());

  auto committed = committed_batches(board_, batches, order);
  if (!committed.ok()) return committed.error();
  input.batches = std::move(committed.value());
  return input;
}

/// The host mirror of one round, computed from the pre-round state alone.
struct AggregationService::RoundMirror {
  CLogTransition clog;
  /// The folded sketch and the digests before and after the fold (sketch
  /// chains only).
  std::optional<netflow::RoundSketch> sketch;
  Digest32 prev_sketch_digest;
  Digest32 sketch_digest;
};

/// A round's mirror running on the shared pool (or already done, when the
/// pool's queue was full). The mirror borrows the caller's batches and
/// order and the service's state, so destruction help-waits for it on
/// every exit path (guest abort, error return, exception) before those can
/// go away or change.
class AggregationService::PendingMirror {
 public:
  explicit PendingMirror(std::future<RoundMirror> running)
      : running_(std::move(running)) {}
  PendingMirror(const PendingMirror&) = delete;
  PendingMirror& operator=(const PendingMirror&) = delete;
  ~PendingMirror() {
    if (running_.valid()) common::ThreadPool::shared().help_wait(running_);
  }

  /// Wait for the mirror, running queued pool tasks meanwhile (never a
  /// blocking get() inside a pool task), and take it; rethrows the
  /// mirror's exception.
  RoundMirror take() {
    common::ThreadPool::shared().help_wait(running_);
    return running_.get();
  }

 private:
  std::future<RoundMirror> running_;
};

AggregationService::RoundMirror AggregationService::mirror_round(
    const CLogState& state,
    const std::optional<netflow::SketchParams>& sketch_params,
    const netflow::RoundSketch& sketch,
    std::span<const netflow::RLogBatch> batches,
    std::span<const size_t> order) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::span<const netflow::FlowRecord>> records;
  records.reserve(order.size());
  for (size_t idx : order) records.emplace_back(batches[idx].records);

  RoundMirror mirror;
  mirror.clog = state.plan(records);
  if (sketch_params.has_value()) {
    mirror.prev_sketch_digest = sketch.hash();
    netflow::RoundSketch next = sketch;
    for (const auto& batch : records) {
      for (const auto& record : batch) next.update(record.key, record.packets);
    }
    mirror.sketch_digest = next.hash();
    mirror.sketch = std::move(next);
  }
  // Recorded here, not by the caller, so a mirror that only ran inside the
  // guard's drain (an aborted round) still leaves its sample.
  obs::Registry::instance()
      .histogram("core.agg.mirror_ms")
      .record(ms_since(start));
  return mirror;
}

AggregationService::PendingMirror AggregationService::start_mirror(
    std::span<const netflow::RLogBatch> batches,
    std::span<const size_t> order) const {
  auto running = common::ThreadPool::shared().try_submit(
      [this, batches, order] {
        return mirror_round(state_, sketch_params_, sketch_, batches, order);
      });
  if (running.has_value()) return PendingMirror(std::move(*running));
  std::promise<RoundMirror> done;
  done.set_value(mirror_round(state_, sketch_params_, sketch_, batches, order));
  return PendingMirror(done.get_future());
}

Status AggregationService::settle(PendingMirror& pending,
                                  const AggJournal& journal) {
  const auto wait_start = std::chrono::steady_clock::now();
  RoundMirror mirror = pending.take();
  obs::Registry::instance()
      .histogram("core.agg.mirror_wait_ms")
      .record(ms_since(wait_start));

  if (mirror.clog.root() != journal.new_root ||
      mirror.clog.entry_count() != journal.new_entry_count) {
    return Error{Errc::merkle_mismatch,
                 "host state diverged from the proven aggregation"};
  }
  // Host and guest must agree bit for bit on the folded sketch bytes.
  if (journal.has_sketch != sketch_params_.has_value()) {
    return Error{Errc::proof_invalid,
                 "journal sketch flag disagrees with service options"};
  }
  if (sketch_params_.has_value()) {
    if (journal.prev_sketch_digest != mirror.prev_sketch_digest) {
      return Error{Errc::hash_mismatch,
                   "proven round chained onto a different sketch"};
    }
    if (journal.sketch_digest != mirror.sketch_digest) {
      return Error{Errc::hash_mismatch,
                   "host sketch diverged from the proven fold"};
    }
  }

  const std::vector<CLogTouch> touched = mirror.clog.touched();
  ZKT_TRY(state_.commit(std::move(mirror.clog)));
  for (const CLogTouch& touch : touched) touched_.insert(touch.key);
  if (mirror.sketch.has_value()) sketch_ = std::move(*mirror.sketch);
  return {};
}

Result<AggregationRound> AggregationService::aggregate_impl(
    std::span<const netflow::RLogBatch> batches) {
  const std::vector<size_t> order = batch_order(batches);
  // The host mirror runs beside the proof; it only reads, and is awaited
  // (by settle, or by its destructor on every early return) before
  // anything it reads can change.
  PendingMirror mirror = start_mirror(batches, order);

  // Pick the guest for this round. Genesis and empty-state rounds always go
  // through the full rebuild; otherwise mode_ decides (with auto_select
  // comparing estimated traced-hash costs).
  std::optional<DeltaAggregateInput> delta;
  if (mode_ != AggMode::full && last_receipt_.has_value() &&
      state_.entry_count() > 0) {
    const DeltaShape shape = delta_shape(batches, order);
    if (pick_incremental(shape)) {
      auto built = build_delta_input_ordered(batches, order, shape);
      // A multiproof too large for its wire format (`unsupported`) sends an
      // auto-selected round to the full rebuild.
      if (built.ok()) {
        delta = std::move(built.value());
      } else if (mode_ == AggMode::incremental ||
                 built.error().code != Errc::unsupported) {
        return built.error();
      }
    }
  }
  const bool incremental = delta.has_value();

  Bytes input_bytes;
  zvm::ImageID image;
  if (incremental) {
    input_bytes = delta->to_bytes();
    image = guest_images().aggregate_incremental;
  } else {
    AggregateInput input;
    input.has_prev = last_receipt_.has_value();
    input.prev_claim_digest =
        last_receipt_.has_value() ? last_receipt_->claim.digest() : Digest32{};
    input.prev_image_kind = last_kind_;
    input.prev_root = state_.root();
    if (sketch_params_.has_value()) {
      input.has_sketch = true;
      input.prev_sketch = sketch_.canonical_bytes();
    }
    input.prev_entries = state_.entries();
    auto committed = committed_batches(board_, batches, order);
    if (!committed.ok()) return committed.error();
    input.batches = std::move(committed.value());
    input_bytes = input.to_bytes();
    image = guest_images().aggregate;
  }

  zvm::ProveOptions options = prove_options_;
  if (last_receipt_.has_value()) {
    options.assumptions.push_back(*last_receipt_);
  }

  zvm::Prover prover;
  zvm::ProveInfo info;
  auto receipt = prover.prove(image, input_bytes, options, &info);
  if (!receipt.ok()) return receipt.error();

  auto journal = AggJournal::parse(receipt.value().journal);
  if (!journal.ok()) return journal.error();
  ZKT_TRY(settle(mirror, journal.value()));

  last_receipt_ = receipt.value();
  last_kind_ = journal.value().kind;
  AggregationRound round;
  round.round_id = rounds_++;
  round.receipt = std::move(receipt.value());
  round.journal = std::move(journal.value());
  round.prove_info = info;
  ZKT_LOG(info) << "aggregation round " << round.round_id << " ("
                << (incremental ? "incremental" : "full") << "): "
                << round.journal.commitments.size() << " batches, "
                << round.journal.new_entry_count << " entries, "
                << info.cycles << " cycles, " << info.total_ms << " ms";
  return round;
}

Status AggregationService::restore(CLogState state, zvm::Receipt last_receipt,
                                   u64 rounds_completed,
                                   std::optional<netflow::RoundSketch> sketch) {
  if (rounds_ != 0 || last_receipt_.has_value()) {
    return Error{Errc::invalid_argument,
                 "restore() requires a fresh aggregation service"};
  }
  if (rounds_completed == 0) {
    return Error{Errc::invalid_argument,
                 "restore() needs at least one completed round"};
  }
  // The recovered receipt must be a genuine aggregation receipt (of either
  // kind — recovered chains may mix full and incremental rounds)…
  zvm::Verifier verifier;
  ZKT_TRY(verify_aggregation_receipt(verifier, last_receipt));
  // …the recovered state must be internally consistent (key-sorted entries,
  // cached tree matching a fresh rebuild — the implicit flow-key index delta
  // rounds depend on)…
  ZKT_TRY(state.check_consistency());
  // …and it must be exactly the state the receipt proved.
  auto journal = AggJournal::parse(last_receipt.journal);
  if (!journal.ok()) return journal.error();
  if (journal.value().new_root != state.root() ||
      journal.value().new_entry_count != state.entry_count()) {
    return Error{Errc::merkle_mismatch,
                 "recovered CLog state does not match the receipt's journal"};
  }
  // The sketch enablement follows the recovered chain: a sketch-carrying
  // receipt needs the matching recovered sketch bytes; a sketch-free chain
  // resets the mirror.
  if (journal.value().has_sketch) {
    if (!sketch.has_value()) {
      return Error{Errc::invalid_argument,
                   "receipt chains a sketch but none was recovered"};
    }
    if (!(sketch->params() == journal.value().sketch_params)) {
      return Error{Errc::invalid_argument,
                   "recovered sketch params mismatch the receipt's journal"};
    }
    if (sketch->hash() != journal.value().sketch_digest) {
      return Error{Errc::hash_mismatch,
                   "recovered sketch does not match the receipt's digest"};
    }
    sketch_params_ = journal.value().sketch_params;
    sketch_ = std::move(*sketch);
  } else {
    if (sketch.has_value()) {
      return Error{Errc::invalid_argument,
                   "recovered sketch for a chain that carries none"};
    }
    sketch_params_.reset();
    sketch_ = netflow::RoundSketch{};
  }
  state_ = std::move(state);
  touched_.clear();
  last_receipt_ = std::move(last_receipt);
  last_kind_ = journal.value().kind;
  rounds_ = rounds_completed;
  return {};
}

ChainSnapshot AggregationService::capture(std::optional<u64> delta_base) {
  const netflow::RoundSketch* sketch =
      sketch_params_.has_value() ? &sketch_ : nullptr;
  const Digest32 claim = last_receipt_->claim.digest();
  ChainSnapshot snap;
  if (delta_base.has_value()) {
    std::vector<netflow::FlowKey> changed(touched_.begin(), touched_.end());
    std::sort(changed.begin(), changed.end());
    snap = ChainSnapshot::delta(*delta_base, claim, state_, changed, sketch);
  } else {
    snap = ChainSnapshot::full(claim, state_, sketch);
  }
  touched_.clear();
  return snap;
}

Status AggregationService::replay_round(
    std::span<const netflow::RLogBatch> batches,
    const zvm::Receipt& receipt) {
  const std::vector<size_t> order = batch_order(batches);
  // Mirror the batches while the seal is checked; nothing is adopted unless
  // every check below and the mirror's own agree.
  PendingMirror mirror = start_mirror(batches, order);

  zvm::Verifier verifier;
  ZKT_TRY(verify_aggregation_receipt(verifier, receipt));
  auto parsed = AggJournal::parse(receipt.journal);
  if (!parsed.ok()) return parsed.error();
  const AggJournal& journal = parsed.value();

  // The receipt must extend THIS chain head.
  if (journal.has_prev != last_receipt_.has_value()) {
    return Error{Errc::chain_broken,
                 "replayed receipt disagrees about the chain genesis"};
  }
  if (last_receipt_.has_value() &&
      journal.prev_claim_digest != last_receipt_->claim.digest()) {
    return Error{Errc::chain_broken,
                 "replayed receipt does not chain onto the recovered head"};
  }
  if (journal.prev_root != state_.root() ||
      journal.prev_entry_count != state_.entry_count()) {
    return Error{Errc::merkle_mismatch,
                 "replayed receipt's previous root mismatches host state"};
  }
  if (journal.has_sketch != sketch_params_.has_value()) {
    return Error{Errc::chain_broken,
                 "replayed receipt disagrees about sketch carriage"};
  }

  // The stored batches must be byte-identical to what the round proved:
  // same (window, router) sequence, same committed hashes. Tampering with
  // raw logs after the fact still halts the chain here, just without the
  // cost of re-proving.
  if (order.size() != journal.commitments.size()) {
    return Error{Errc::chain_broken,
                 "replayed round has a different batch count than proven"};
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const netflow::RLogBatch& batch = batches[order[i]];
    const CommitmentRef& ref = journal.commitments[i];
    if (batch.router_id != ref.router_id ||
        batch.window_id != ref.window_id ||
        batch.records.size() != ref.record_count ||
        batch.hash() != ref.rlog_hash) {
      return Error{Errc::hash_mismatch,
                   "stored batch diverged from the proven commitment (router " +
                       std::to_string(batch.router_id) + ", window " +
                       std::to_string(batch.window_id) + ")"};
    }
  }

  // The stored batches must reproduce the proven root and sketch digest.
  ZKT_TRY(settle(mirror, journal));
  last_receipt_ = receipt;
  last_kind_ = journal.kind;
  ++rounds_;
  return {};
}

Result<SelectiveQueryInput> QueryService::selective_input(
    const Query& query) const {
  const CLogState& state = aggregation_->state();
  SelectiveQueryInput input;
  input.query = query;
  std::vector<u64> indices;
  for (u64 i = 0; i < state.entry_count(); ++i) {
    if (!matches(query, state.entry(i))) continue;
    SelectiveQueryInput::OpenedEntry opened;
    opened.index = i;
    opened.entry = state.entry(i).canonical_bytes();
    input.opened.push_back(std::move(opened));
    indices.push_back(i);
  }
  if (!indices.empty()) {
    auto proof = state.prove_multi(indices);
    if (!proof.ok()) return proof.error();
    input.proof = std::move(proof.value());
  }
  return input;
}

Result<QueryResponse> QueryService::run(const Query& query,
                                        const QueryOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  const bool selective = options.mode == QueryMode::selective;
  obs::ScopedSpan span(selective ? "query_selective" : "query_complete");

  Result<QueryResponse> response =
      Error{Errc::chain_broken, "no aggregation round to query against"};
  // A selective query's openings are built before the proof, so one whose
  // multiproof cannot be encoded fails without running the guest.
  Result<SelectiveQueryInput> opened = SelectiveQueryInput{};
  if (selective && aggregation_->has_rounds()) opened = selective_input(query);
  if (!opened.ok()) {
    response = opened.error();
  } else if (aggregation_->has_rounds()) {
    response = prove_on_round<QueryResponse>(
        selective ? guest_images().query_selective : guest_images().query,
        aggregation_->last_receipt(),
        [&](Writer& w) {
          if (selective) {
            opened.value().write(w);
            return;
          }
          QueryInput input;
          input.entries = aggregation_->state().entries();
          input.query = query;
          input.write(w);
        },
        prove_options_);
  }

  metrics
      .histogram(selective ? "core.query.selective_ms"
                           : "core.query.complete_ms")
      .record(ms_since(start));
  metrics
      .counter(selective ? "core.query.selective_runs"
                         : "core.query.complete_runs")
      .add(1);
  if (response.ok()) {
    QueryResponse& r = response.value();
    r.value = r.journal.result.value(r.journal.query.agg);
    // Matched/scanned tell the selectivity story: how much of the state a
    // query touched vs. how much it had to prove over.
    metrics.counter("core.query.matched_entries").add(r.journal.result.matched);
    metrics.counter("core.query.scanned_entries").add(r.journal.result.scanned);
  } else {
    metrics.counter("core.query.failures").add(1);
  }
  return response;
}

Result<GroupedQueryResponse> QueryService::grouped(
    const Query& query, QField group_field,
    const QueryOptions& options) const {
  if (options.mode != QueryMode::complete) {
    return Error{Errc::invalid_argument,
                 "grouped queries are complete scans"};
  }
  if (!aggregation_->has_rounds()) {
    return Error{Errc::chain_broken, "no aggregation round to query against"};
  }
  auto write_body = [&](Writer& w) {
    w.blob(query.to_bytes());
    w.u8v(static_cast<u8>(group_field));
    write_full_state(w, aggregation_->state().entries());
  };
  return prove_on_round<GroupedQueryResponse>(
      grouped_query_image(), aggregation_->last_receipt(), write_body,
      prove_options_);
}

bool QueryService::pick_sketch() const {
  if (!aggregation_->sketch_enabled() || !aggregation_->has_rounds()) {
    return false;
  }
  const netflow::SketchParams& p = aggregation_->sketch().params();
  // Traced-hash estimates, pick_incremental's twin on the query side.
  // Sketch guest: one hash over the sketch bytes (width*depth counters at
  // 8 bytes each, 64 bytes per compression) plus up to capacity reported
  // hits at depth index hashes each. Exact complete scan: leaf-hash every
  // entry, then evaluate it. The sketch cost is FLAT in N — past a few
  // thousand entries it always wins.
  const u64 est_sketch =
      (static_cast<u64>(p.cm.width) * p.cm.depth * 8) / 64 +
      static_cast<u64>(p.heavy_capacity) * p.cm.depth;
  const u64 est_exact = 2 * aggregation_->state().entry_count();
  return static_cast<double>(est_sketch) <
         kSketchThreshold * static_cast<double>(est_exact);
}

Result<HeavyHittersResponse> QueryService::heavy_hitters(
    u64 threshold, const QueryOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan span("query_heavy_hitters");
  if (!aggregation_->has_rounds()) {
    return Error{Errc::chain_broken, "no aggregation round to query against"};
  }

  // Route to the sketch only when its error bound can satisfy the query:
  // the Space-Saving floor must prove completeness at this threshold.
  const bool bound_ok =
      aggregation_->sketch_enabled() &&
      sketch_heavy_bound_ok(threshold,
                            aggregation_->sketch().heavy().capacity(),
                            aggregation_->sketch().heavy().total());
  HeavyHittersResponse out;
  if (bound_ok && pick_sketch()) {
    auto response = prove_sketch_heavy(aggregation_->last_receipt(),
                                       aggregation_->sketch(), threshold,
                                       prove_options_);
    if (!response.ok()) {
      metrics.counter("core.sketch.query_failures").add(1);
      return response.error();
    }
    out.used_sketch = true;
    out.sketch = std::move(response.value());
    metrics.counter("core.sketch.query_heavy_runs").add(1);
  } else {
    auto response =
        run(Query::count().and_where(QField::packets, CmpOp::ge, threshold),
            options);
    if (!response.ok()) return response.error();
    out.exact = std::move(response.value());
    metrics.counter("core.sketch.exact_fallbacks").add(1);
  }
  metrics.histogram("core.sketch.query_ms").record(ms_since(start));
  return out;
}

Result<CardinalityResponse> QueryService::cardinality(
    const QueryOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan span("query_cardinality");
  if (!aggregation_->has_rounds()) {
    return Error{Errc::chain_broken, "no aggregation round to query against"};
  }

  // The exact distinct count rides in the bound journal, so no error-bound
  // gate here — only the cost estimator.
  CardinalityResponse out;
  if (pick_sketch()) {
    auto response = prove_sketch_cardinality(aggregation_->last_receipt(),
                                             aggregation_->sketch(),
                                             prove_options_);
    if (!response.ok()) {
      metrics.counter("core.sketch.query_failures").add(1);
      return response.error();
    }
    out.used_sketch = true;
    out.sketch = std::move(response.value());
    metrics.counter("core.sketch.query_card_runs").add(1);
  } else {
    auto response = run(Query::count(), options);
    if (!response.ok()) return response.error();
    out.exact = std::move(response.value());
    metrics.counter("core.sketch.exact_fallbacks").add(1);
  }
  metrics.histogram("core.sketch.query_ms").record(ms_since(start));
  return out;
}

}  // namespace zkt::core
