#include "core/pipeline.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "common/log.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zkt::core {

namespace {

/// Transient errors are worth retrying (a flaky disk or a briefly
/// unavailable backend); everything else — parse errors, integrity
/// violations, proof failures — is terminal and must halt the chain.
bool is_transient(Errc code) { return code == Errc::io_error; }

double ms(std::chrono::milliseconds d) {
  return static_cast<double>(d.count());
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

ProviderPipeline::ProviderPipeline(store::LogStore& store,
                                   const CommitmentBoard& board,
                                   PipelineOptions options)
    : store_(&store), options_(std::move(options)) {
  service_ =
      std::make_unique<ShardedAggregationService>(board, options_.sharded);
  if (options_.epoch_every > 0 && !sharded()) {
    EpochLadderOptions ladder;
    ladder.epoch_every = options_.epoch_every;
    ladder.prove_options = options_.sharded.prove_options;
    epoch_ = std::make_unique<EpochLadder>(std::move(ladder));
  }
}

Status ProviderPipeline::check_options() const {
  if (options_.epoch_every > 0 && sharded()) {
    return Error{Errc::invalid_argument,
                 "epoch seals require the plain (K = 1) chain (shard chains "
                 "have no single round chain to seal)"};
  }
  return {};
}

Status ProviderPipeline::with_retry(
    const char* what, const std::function<Status()>& op) const {
  obs::Registry& metrics = obs::Registry::instance();
  const RetryPolicy& policy = options_.retry;
  const u32 attempts = std::max<u32>(policy.max_attempts, 1);
  std::chrono::milliseconds backoff = policy.base_backoff;
  for (u32 attempt = 1;; ++attempt) {
    Status status = op();
    if (status.ok() || !is_transient(status.code()) || attempt >= attempts) {
      return status;
    }
    ZKT_LOG(warn) << what << " failed transiently (attempt " << attempt << "/"
                  << attempts << "): " << status.to_string()
                  << "; backing off " << backoff.count() << " ms";
    metrics.counter("core.pipeline.retries").add(1);
    metrics.histogram("core.pipeline.retry_backoff_ms").record(ms(backoff));
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
}

Result<std::vector<u64>> ProviderPipeline::pending_windows() const {
  std::vector<u64> windows;
  const u64 from = last_window_.has_value() ? *last_window_ + 1 : 0;
  Status scanned = with_retry("pending-window scan", [&]() -> Status {
    windows.clear();
    return store_->for_each(store::kTableRlogs, from, ~0ULL,
                            [&](const store::StoredRow& row) {
                              windows.push_back(row.k1);
                            });
  });
  if (!scanned.ok()) return scanned.error();
  std::sort(windows.begin(), windows.end());
  windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
  return windows;
}

Status ProviderPipeline::load_batches(
    u64 window, std::vector<netflow::RLogBatch>& batches) const {
  return with_retry("window batch load", [&]() -> Status {
    batches.clear();
    Status parse_status;
    Status scanned = store_->for_each(
        store::kTableRlogs, window, window,
        [&](const store::StoredRow& row) {
          if (!parse_status.ok()) return;
          Reader r(row.payload);
          auto batch = netflow::RLogBatch::deserialize(r);
          if (!batch.ok()) {
            parse_status = batch.error();
            return;
          }
          if (!r.done()) {
            parse_status =
                Error{Errc::parse_error, "trailing bytes in stored batch"};
            return;
          }
          batches.push_back(std::move(batch.value()));
        });
    if (!scanned.ok()) return scanned;
    return parse_status;
  });
}

Status ProviderPipeline::append_row(const char* what, std::string_view table,
                                    u64 k1, u64 k2, BytesView payload) {
  return with_retry(what, [&]() -> Status {
    auto id = store_->append(table, k1, k2, payload);
    return id.ok() ? Status{} : Status(id.error());
  });
}

Status ProviderPipeline::persist_chain(u64 window, const RoundResult& round) {
  obs::Registry& metrics = obs::Registry::instance();
  const u32 shard_count = service_->shard_count();
  // Snapshot BEFORE receipts: a crash between the appends leaves an orphan
  // snapshot (skipped at recover()) rather than receipts the next process
  // would have to re-prove. The tree seal is appended later by
  // persist_seal (its fold may still be running); a crash before it is
  // repaired at recover() by re-folding. See docs/RECOVERY.md.
  const bool snapshot_due =
      options_.checkpoint_every_n_rounds > 0 &&
      rounds_since_snapshot_ + 1 >= options_.checkpoint_every_n_rounds;
  // Until every row of this round lands, the next bundle has no base.
  const std::optional<u64> base = std::exchange(snapshot_base_, std::nullopt);
  u64 snapshot_bytes = 0;
  bool full = false;
  if (snapshot_due) {
    // A delta, unless this process has no full bundle to extend yet or the
    // deltas since the last full bundle would outweigh it: writes stay
    // amortised O(touched entries) per round, and recovery reads at most
    // about two full bundles.
    Bytes payload;
    full = !base.has_value();
    if (!full) {
      payload = service_->capture(window, base).to_bytes();
      full = delta_bytes_since_full_ + payload.size() > full_snapshot_bytes_;
    }
    if (full) payload = service_->capture(window, std::nullopt).to_bytes();
    snapshot_bytes = payload.size();
    ZKT_TRY(append_row("chain snapshot append", store::kTableChainState,
                       window, round.round_id, payload));
    metrics.counter("core.pipeline.snapshots").add(1);
    if (full) metrics.counter("core.pipeline.snapshots_full").add(1);
    metrics.histogram("core.pipeline.snapshot_bytes")
        .record(static_cast<double>(snapshot_bytes));
  }
  for (u32 s = 0; s < shard_count; ++s) {
    ZKT_TRY(append_row("receipt append", store::kTableReceipts, window, s,
                       round.shard_rounds[s].receipt.to_bytes()));
  }
  if (!snapshot_due) {
    snapshot_base_ = base;
    ++rounds_since_snapshot_;
    return {};
  }
  snapshot_base_ = round.round_id;
  rounds_since_snapshot_ = 0;
  if (full) {
    full_snapshot_bytes_ = snapshot_bytes;
    delta_bytes_since_full_ = 0;
  } else {
    delta_bytes_since_full_ += snapshot_bytes;
  }
  return {};
}

Status ProviderPipeline::persist_seal(u64 window, u64 round_id,
                                      const zvm::Receipt& seal) {
  ZKT_TRY(append_row("tree seal append", store::kTableTreeSeals, window,
                     round_id, seal.to_bytes()));
  obs::Registry::instance().counter("core.pipeline.seals").add(1);
  return {};
}

Status ProviderPipeline::persist_epoch_seal(const EpochSeal& seal) {
  ZKT_TRY(append_row("epoch seal append", store::kTableEpochSeals, seal.level,
                     seal.start_round, seal.to_bytes()));
  obs::Registry::instance().counter("core.pipeline.epoch_seals").add(1);
  return {};
}

Status ProviderPipeline::persist_epoch_seals() {
  if (!epoch_) return {};
  for (const EpochSeal& seal : epoch_->take_completed()) {
    ZKT_TRY(persist_epoch_seal(seal));
  }
  return {};
}

Result<std::vector<EpochSeal>> ProviderPipeline::epoch_seals() {
  if (!epoch_) return std::vector<EpochSeal>{};
  ZKT_TRY(epoch_->settle());
  ZKT_TRY(persist_epoch_seals());
  return epoch_->ladder();
}

Status ProviderPipeline::recover_epoch_ladder(
    const std::vector<u64>& round_windows, RecoveryInfo& info) {
  // Latest stored seal per (level, start_round).
  std::map<std::pair<u64, u64>, Bytes> stored;
  ZKT_TRY(with_retry("epoch seal scan", [&]() -> Status {
    stored.clear();
    return store_->for_each(store::kTableEpochSeals, 0, ~0ULL,
                            [&](const store::StoredRow& row) {
                              stored[{row.k1, row.k2}] = row.payload;
                            });
  }));

  // The expected ladder is a pure function of the recovered chain length;
  // walk it in chain order, adopting stored seals that validate against the
  // restored receipts and re-folding anything missing or damaged.
  const u64 epoch_every = epoch_->epoch_every();
  Digest32 commitments_digest = epoch_commitments_init();
  for (const EpochSpanSpec& spec :
       epoch_ladder_plan(receipts_.size(), epoch_every)) {
    bool adopted = false;
    auto it = stored.find({spec.level, spec.start_round});
    if (it != stored.end()) {
      auto seal = EpochSeal::from_bytes(it->second);
      if (!seal.ok()) {
        ZKT_LOG(warn) << "unreadable epoch seal (level " << spec.level
                      << ", start " << spec.start_round
                      << "): " << seal.error().to_string() << "; re-folding";
      } else if (Status valid = validate_recovered_seal(
                     seal.value(), receipts_, epoch_every);
                 !valid.ok()) {
        ZKT_LOG(warn) << "stored epoch seal (level " << spec.level
                      << ", start " << spec.start_round
                      << ") failed validation: " << valid.to_string()
                      << "; re-folding";
      } else {
        commitments_digest = seal.value().journal.final_commitments_digest;
        ZKT_TRY(epoch_->adopt(std::move(seal.value())));
        ++info.epoch_seals_adopted;
        adopted = true;
      }
    }
    if (adopted) continue;

    // Crash before this level was persisted (or it failed validation):
    // re-fold the span from the restored receipts. O(span) prover work, but
    // only on the damaged level — the healthy ladder re-adopts for free.
    EpochSpanOptions span_options;
    span_options.prove_options = epoch_->options().prove_options;
    span_options.first_commitments_digest = commitments_digest;
    auto response = prove_epoch_span(
        std::span<const zvm::Receipt>(receipts_.data() + spec.start_round,
                                      spec.rounds),
        span_options);
    if (!response.ok()) return response.error();
    EpochSeal seal;
    seal.level = spec.level;
    seal.start_round = spec.start_round;
    seal.rounds = spec.rounds;
    seal.first_window = round_windows[spec.start_round];
    seal.last_window = round_windows[spec.start_round + spec.rounds - 1];
    seal.receipt = std::move(response.value().receipt);
    seal.journal = response.value().journal;
    seal.commitments = std::move(response.value().commitments);
    commitments_digest = seal.journal.final_commitments_digest;
    ZKT_TRY(persist_epoch_seal(seal));
    ZKT_TRY(epoch_->adopt(std::move(seal)));
    ++info.epoch_levels_refolded;
  }

  // Re-feed the unsealed tail so the next full epoch builds on schedule.
  const u64 sealed = (receipts_.size() / epoch_every) * epoch_every;
  for (u64 round = sealed; round < receipts_.size(); ++round) {
    ZKT_TRY(epoch_->feed(receipts_[round], round_windows[round]));
  }
  return {};
}

u64 ProviderPipeline::prune_aggregated() {
  if (!last_window_.has_value()) return 0;
  const u64 dropped = store_->drop_rows(store::kTableRlogs, *last_window_);
  obs::Registry::instance().counter("core.pipeline.pruned_rows").add(dropped);
  return dropped;
}

Result<std::vector<RoundResult>> ProviderPipeline::aggregate_pending() {
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan span("pipeline_aggregate_pending");
  ZKT_TRY(halted_);
  ZKT_TRY(check_options());

  auto pending = pending_windows();
  if (!pending.ok()) return pending.error();
  const std::vector<u64>& windows = pending.value();
  // Pending-window lag before this run: how far the provider's proof chain
  // trails the routers' committed windows.
  metrics.gauge("core.pipeline.pending_windows")
      .set(static_cast<double>(windows.size()));

  common::ThreadPool& pool = common::ThreadPool::shared();
  const u32 depth = std::max<u32>(options_.sharded.pipeline_depth, 1);

  // Window i+1 loads + stages (split-proves, at K >= 2) on a pool worker
  // while window i's shards prove on this thread, and window i's tree folds
  // on a worker while window i+1 proves. Chain LINKING stays here, in
  // window order (prove_shards / persist), so every depth produces
  // byte-identical receipts. Window i's seal is persisted before window
  // i+1's first row, so at most one fold is in flight and a crash can only
  // lose the chain tip's seal. At K = 1 staging and folding are no-ops and
  // this is the plain chain's loop.
  struct StagedEntry {
    u64 window = 0;
    std::shared_ptr<std::vector<netflow::RLogBatch>> batches;
    std::future<Result<ShardedAggregationService::StagedRound>> staged;
  };
  struct SealEntry {
    u64 window = 0;
    std::shared_ptr<RoundResult> round;
    std::future<Status> folded;
  };
  std::deque<StagedEntry> staging;
  std::optional<SealEntry> sealing;
  std::vector<RoundResult> rounds;
  size_t next_window = 0;

  // Steps with nothing to do — staging and folding at K = 1 — run inline
  // at the future's get() instead of queueing behind pool work such as
  // epoch-seal proving.
  auto schedule = [&pool](bool offload, auto task) {
    return offload ? pool.submit(std::move(task))
                   : std::async(std::launch::deferred, std::move(task));
  };

  auto set_inflight = [&] {
    metrics.gauge("core.pipeline.inflight")
        .set(static_cast<double>(staging.size() + (sealing ? 1 : 0)));
  };

  auto top_up_staging = [&]() -> Status {
    while (next_window < windows.size() && staging.size() < depth) {
      StagedEntry entry;
      entry.window = windows[next_window];
      entry.batches = std::make_shared<std::vector<netflow::RLogBatch>>();
      ZKT_TRY(load_batches(entry.window, *entry.batches));
      entry.staged = schedule(
          sharded(), [service = service_.get(), batches = entry.batches] {
            return service->stage(*batches);
          });
      staging.push_back(std::move(entry));
      ++next_window;
    }
    set_inflight();
    return {};
  };

  // Wait for the fold in flight, if any, and persist its seal.
  auto drain_seal = [&]() -> Status {
    if (!sealing.has_value()) return {};
    SealEntry entry = std::move(*sealing);
    sealing.reset();
    const auto wait_start = std::chrono::steady_clock::now();
    Status folded = entry.folded.get();
    metrics.histogram("core.pipeline.fold_wait_ms")
        .record(elapsed_ms(wait_start));
    ZKT_TRY(folded);
    if (entry.round->tree_seal.has_value()) {
      ZKT_TRY(persist_seal(entry.window, entry.round->round_id,
                           *entry.round->tree_seal));
      tree_seals_.push_back(*entry.round->tree_seal);
    }
    rounds.push_back(std::move(*entry.round));
    set_inflight();
    return {};
  };

  // On a failure every staged future finishes before the queue (and the
  // service) can be torn down, and the fold in flight persists its seal.
  // A failure before any shard chain moved then leaves the services where
  // the store is, so a later call retries cleanly (a late commitment, a
  // failed scan). Otherwise the store lacks a round or a seal the services
  // are past, and the pipeline halts until a restarted one recover()s.
  auto fail = [&](Error error, bool moved) -> Error {
    for (auto& entry : staging) {
      if (entry.staged.valid()) entry.staged.wait();
    }
    if (Status drained = drain_seal(); !drained.ok() || moved) {
      halted_ = Error{Errc::invalid_argument,
                      "pipeline halted after a failed round (" +
                          error.to_string() +
                          "); restart it and recover() from the store"};
    }
    return error;
  };

  for (;;) {
    if (Status topped = top_up_staging(); !topped.ok()) {
      return fail(topped.error(), false);
    }
    if (staging.empty()) break;

    const auto round_start = std::chrono::steady_clock::now();
    StagedEntry entry = std::move(staging.front());
    staging.pop_front();
    auto staged = entry.staged.get();
    if (!staged.ok()) return fail(staged.error(), false);
    metrics.histogram("core.pipeline.stage_ms")
        .record(staged.value().split_ms);

    const auto prove_start = std::chrono::steady_clock::now();
    auto round = service_->prove_shards(std::move(staged.value()));
    if (!round.ok()) {
      // A shard that proved before another one failed has moved its chain.
      bool moved = false;
      for (u32 s = 0; s < service_->shard_count(); ++s) {
        moved = moved || service_->shard_service(s).rounds_completed() !=
                             service_->rounds_completed();
      }
      return fail(round.error(), moved);
    }
    // The serial segment: shard proving runs on this thread, in window
    // order, because chains link round i+1 onto round i. Pipelining can
    // only hide stage_ms and fold_wait_ms around it.
    metrics.histogram("core.pipeline.prove_ms").record(elapsed_ms(prove_start));
    // The previous window's seal lands before this window's first row.
    Status persisted = drain_seal();
    if (persisted.ok()) persisted = persist_chain(entry.window, round.value());
    if (!persisted.ok()) return fail(persisted.error(), true);
    last_window_ = entry.window;
    if (!sharded()) receipts_.push_back(round.value().primary().receipt);
    if (epoch_) {
      // The ladder proves asynchronously — feed() only buffers/dispatches.
      // Finished seals are drained and persisted here, between rounds.
      Status fed = epoch_->feed(receipts_.back(), entry.window);
      if (fed.ok()) fed = persist_epoch_seals();
      if (!fed.ok()) return fail(fed.error(), true);
    }

    SealEntry seal;
    seal.window = entry.window;
    seal.round = std::make_shared<RoundResult>(std::move(round.value()));
    seal.folded = schedule(sharded(),
                           [service = service_.get(), r = seal.round] {
                             return service->fold_round(*r);
                           });
    sealing = std::move(seal);
    set_inflight();

    metrics.histogram("core.pipeline.round_ms").record(elapsed_ms(round_start));
    metrics.histogram("core.pipeline.batches_per_round")
        .record(static_cast<double>(entry.batches->size()));
    metrics.counter("core.pipeline.windows_aggregated").add(1);
    metrics.gauge("core.pipeline.pending_windows")
        .set(static_cast<double>(windows.size() - next_window +
                                 staging.size()));

    // Depth 1 seals each window before staging the next: the sequential
    // loop.
    if (depth == 1) {
      if (Status drained = drain_seal(); !drained.ok()) {
        return fail(drained.error(), true);
      }
    }
  }
  if (Status drained = drain_seal(); !drained.ok()) {
    return fail(drained.error(), true);
  }
  if (epoch_) {
    // Quiesce the ladder so this call's seals are durable before returning
    // (a caller that exits right after aggregate_pending loses nothing).
    Status settled = epoch_->settle();
    if (settled.ok()) settled = persist_epoch_seals();
    if (!settled.ok()) return fail(settled.error(), true);
  }
  if (options_.prune_aggregated && !rounds.empty()) {
    prune_aggregated();
  }
  return rounds;
}

Result<std::optional<std::vector<zvm::Receipt>>>
ProviderPipeline::load_receipts(u64 window) const {
  std::vector<zvm::Receipt> receipts;
  for (u32 s = 0; s < service_->shard_count(); ++s) {
    const std::vector<store::StoredRow> rows =
        store_->scan_exact(store::kTableReceipts, window, s);
    if (rows.empty()) return std::optional<std::vector<zvm::Receipt>>{};
    auto receipt = zvm::Receipt::from_bytes(rows.back().payload);
    if (!receipt.ok()) return receipt.error();
    receipts.push_back(std::move(receipt.value()));
  }
  return std::optional<std::vector<zvm::Receipt>>{std::move(receipts)};
}

Result<ProviderPipeline::RecoveryInfo> ProviderPipeline::recover() {
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan span("pipeline_recover");
  if (has_rounds() || last_window_.has_value() || !halted_.ok()) {
    return Error{Errc::invalid_argument,
                 "recover() must run before any aggregation"};
  }
  ZKT_TRY(check_options());
  // The pre-bundle layout kept sharded chains in tables of their own; such
  // a store must fail typed rather than look empty.
  for (const char* legacy : {"shard_state", "shard_receipts"}) {
    if (store_->row_count(legacy) > 0) {
      return Error{Errc::unsupported,
                   std::string("store holds a legacy '") + legacy +
                       "' table (written by an older release; there is no "
                       "migration path)"};
    }
  }

  RecoveryInfo info;
  const u32 shard_count = service_->shard_count();

  // Index every chain_state row by its identifiers alone: peek() decodes
  // no entries and checks no CRC, and nothing is copied. Unreadable rows
  // are skipped; an unsupported layout or a bundle written for another
  // shard count is terminal — recovering a 4-shard store with --shards 8
  // must not silently fork the chains.
  struct SnapshotRow {
    u64 id = 0;
    u64 k1 = 0;
    u64 k2 = 0;
    ShardedChainSnapshot head;  ///< peek()ed: no entries, no sketch
  };
  std::vector<SnapshotRow> rows;
  u64 unreadable = 0;
  Status terminal;
  ZKT_TRY(with_retry("chain-state scan", [&]() -> Status {
    rows.clear();
    unreadable = 0;
    terminal = {};
    return store_->for_each(
        store::kTableChainState, 0, ~0ULL, [&](const store::StoredRow& row) {
          if (!terminal.ok()) return;
          auto head = ShardedChainSnapshot::peek(row.payload);
          if (!head.ok()) {
            if (head.error().code == Errc::unsupported) {
              terminal = head.error();
              return;
            }
            ZKT_LOG(warn) << "skipping unreadable chain snapshot (row "
                          << row.id << "): " << head.error().to_string();
            ++unreadable;
            return;
          }
          if (head.value().shard_count != shard_count) {
            terminal = Error{
                Errc::invalid_argument,
                "store was written with " +
                    std::to_string(head.value().shard_count) +
                    " shards but the pipeline is configured with " +
                    std::to_string(shard_count) +
                    " (the shard count cannot change across restarts)"};
            return;
          }
          rows.push_back({row.id, row.k1, row.k2, std::move(head.value())});
        });
  }));
  ZKT_TRY(terminal);

  // A bundle is usable when its window's K receipts all exist and carry its
  // claim digests. Orphans (bundle appended, crash before its receipts)
  // fail this and are skipped.
  auto checks_out = [&](const ShardedChainSnapshot& head) -> Result<bool> {
    auto receipts = load_receipts(head.window_id);
    if (!receipts.ok()) return receipts.error();
    if (!receipts.value().has_value()) return false;
    for (u32 s = 0; s < shard_count; ++s) {
      if (head.shards[s].claim_digest !=
          (*receipts.value())[s].claim.digest()) {
        ZKT_LOG(warn) << "skipping chain snapshot for window "
                      << head.window_id
                      << ": stored receipts have different claim digests";
        return false;
      }
    }
    return true;
  };
  // Decode one indexed row — the only payload copies recovery makes.
  auto decode = [&](const SnapshotRow& row)
      -> std::optional<ShardedChainSnapshot> {
    for (const auto& stored :
         store_->scan_exact(store::kTableChainState, row.k1, row.k2)) {
      if (stored.id != row.id) continue;
      auto snap = ShardedChainSnapshot::from_bytes(stored.payload);
      if (snap.ok()) return std::move(snap.value());
      ZKT_LOG(warn) << "skipping unreadable chain snapshot (row " << row.id
                    << "): " << snap.error().to_string();
    }
    return std::nullopt;
  };

  // Take the newest usable full bundle and extend it with the deltas after
  // it that chain onto it (base = the previous link's round) and check
  // out; anything else after it is skipped. Deltas whose base was dropped
  // never link, so they fall back to an older full bundle or to raw-log
  // replay below — never an error.
  std::vector<ShardedChainSnapshot> chain;
  size_t base_row = rows.size();
  for (size_t f = rows.size(); f-- > 0 && chain.empty();) {
    if (!rows[f].head.is_full()) continue;
    auto usable = checks_out(rows[f].head);
    if (!usable.ok()) return usable.error();
    if (!usable.value()) continue;
    auto full = decode(rows[f]);
    if (!full.has_value()) continue;
    chain.push_back(std::move(*full));
    base_row = f;
    for (size_t d = f + 1; d < rows.size(); ++d) {
      const ShardedChainSnapshot& head = rows[d].head;
      if (head.is_full() || head.base_round_id() != chain.back().round_id) {
        continue;
      }
      auto linked = checks_out(head);
      if (!linked.ok()) return linked.error();
      if (!linked.value()) continue;
      auto delta = decode(rows[d]);
      if (delta.has_value()) chain.push_back(std::move(*delta));
    }
  }
  // Skipped: unreadable rows, and readable ones newer than the adopted base
  // that did not link (every readable row when none was adopted).
  info.snapshots_skipped =
      unreadable + (chain.empty() ? rows.size()
                                  : rows.size() - base_row - chain.size());

  // Fold the chain into one full position (the tree is rebuilt once) and
  // hand it to restore(), whose cross-checks against the newest link's
  // receipts are terminal: a bundle that *contradicts* its receipts halts.
  std::optional<u64> adopted_window;
  if (!chain.empty()) {
    auto receipts = load_receipts(chain.back().window_id);
    if (!receipts.ok()) return receipts.error();
    auto collapsed = ShardedChainSnapshot::collapse(std::move(chain));
    if (!collapsed.ok()) return collapsed.error();
    ZKT_TRY(service_->restore(collapsed.value(),
                              std::move(*receipts.value())));
    info.resumed = true;
    info.rounds_restored = collapsed.value().round_id;
    adopted_window = collapsed.value().window_id;
    last_window_ = adopted_window;
  }

  // Windows with stored receipts, ascending. A receipt row for a shard id
  // past the configured count is the no-snapshot face of the shard-count
  // mismatch above — also terminal.
  std::vector<u64> receipt_windows;
  u64 max_shard_seen = 0;
  ZKT_TRY(with_retry("receipt window scan", [&]() -> Status {
    receipt_windows.clear();
    max_shard_seen = 0;
    return store_->for_each(store::kTableReceipts, 0, ~0ULL,
                            [&](const store::StoredRow& row) {
                              receipt_windows.push_back(row.k1);
                              max_shard_seen =
                                  std::max(max_shard_seen, row.k2);
                            });
  }));
  if (!receipt_windows.empty() && max_shard_seen >= shard_count) {
    return Error{Errc::invalid_argument,
                 "store holds receipts for shard " +
                     std::to_string(max_shard_seen) +
                     " but the pipeline is configured with " +
                     std::to_string(shard_count) +
                     " shards (the shard count cannot change across "
                     "restarts)"};
  }
  std::sort(receipt_windows.begin(), receipt_windows.end());
  receipt_windows.erase(
      std::unique(receipt_windows.begin(), receipt_windows.end()),
      receipt_windows.end());

  std::vector<u64> round_windows;  // K = 1: round index -> window id
  for (size_t i = 0; i < receipt_windows.size(); ++i) {
    const u64 window = receipt_windows[i];
    auto receipts = load_receipts(window);
    if (!receipts.ok()) return receipts.error();
    if (!receipts.value().has_value()) {
      // Incomplete persist. Only tolerable at the chain tip, where the
      // window simply counts as unproven (aggregate_pending re-proves it);
      // a gap in the middle means the chain cannot be rebuilt.
      if (i + 1 == receipt_windows.size() &&
          (!last_window_.has_value() || window > *last_window_)) {
        break;
      }
      return Error{Errc::chain_broken,
                   "window " + std::to_string(window) +
                       " is missing shard receipts mid-chain"};
    }

    const bool covered =
        adopted_window.has_value() && window <= *adopted_window;
    if (!covered) {
      // Roll forward: replay the window's raw batches against the stored
      // receipts — verified against each shard's journal, never re-proven.
      std::vector<netflow::RLogBatch> batches;
      ZKT_TRY(load_batches(window, batches));
      if (batches.empty()) {
        return Error{Errc::chain_broken,
                     "receipts for window " + std::to_string(window) +
                         " have no raw logs to replay (pruned before a "
                         "snapshot covered them?)"};
      }
      ZKT_TRY(service_->replay_round(batches, *receipts.value()));
      last_window_ = window;
      ++info.rounds_replayed;
      info.resumed = true;
    }

    if (!sharded()) {
      receipts_.push_back(std::move(receipts.value()->front()));
      round_windows.push_back(window);
    } else {
      ZKT_TRY(recover_tree_seal(window, *receipts.value(), info));
    }
  }

  if (epoch_) {
    ZKT_TRY(recover_epoch_ladder(round_windows, info));
  }

  info.last_window = last_window_;
  if (info.resumed) {
    metrics.counter("core.pipeline.recoveries").add(1);
    metrics.gauge("core.pipeline.recovered_rounds")
        .set(static_cast<double>(info.rounds_restored + info.rounds_replayed));
    ZKT_LOG(info) << "pipeline recovered: " << info.rounds_restored
                  << " rounds from snapshot, " << info.rounds_replayed
                  << " replayed, " << info.seals_refolded
                  << " seals re-folded, resuming after window "
                  << (last_window_.has_value() ? std::to_string(*last_window_)
                                               : std::string("none"));
  }
  return info;
}

Status ProviderPipeline::recover_tree_seal(
    u64 window, const std::vector<zvm::Receipt>& receipts,
    RecoveryInfo& info) {
  auto seal_row = store_->latest(store::kTableTreeSeals, window);
  if (seal_row.has_value()) {
    auto seal = zvm::Receipt::from_bytes(seal_row->payload);
    if (!seal.ok()) return seal.error();
    tree_seals_.push_back(std::move(seal.value()));
    return {};
  }

  // A window's seal is persisted before the next window's first row, so
  // only the chain tip can lack one: a crash after its shard receipts,
  // before its seal. The shard services then sit at this window (the
  // adopted snapshot's, or the one just replayed) and hold the round
  // sketches the join guests need.
  if (last_window_ != window) {
    return Error{Errc::chain_broken,
                 "window " + std::to_string(window) +
                     " is missing its tree seal mid-chain"};
  }
  // Re-fold from the verified receipts (proof work is O(K) joins, not a
  // re-prove of the round) and persist what the crashed process could not.
  const u32 shard_count = service_->shard_count();
  FoldOptions fold_options;
  fold_options.fanout = service_->options().join_fanout;
  fold_options.prove_options = service_->options().prove_options;
  fold_options.prove_options.assumptions.clear();
  auto leaf_journal = AggJournal::parse(receipts[0].journal);
  if (!leaf_journal.ok()) return leaf_journal.error();
  std::vector<netflow::RoundSketch> leaf_sketches;  // fold_options views it
  if (leaf_journal.value().has_sketch) {
    for (u32 s = 0; s < shard_count; ++s) {
      leaf_sketches.push_back(service_->shard_service(s).sketch());
    }
    fold_options.leaf_sketches = leaf_sketches;
  }
  auto folded = fold_receipts(receipts, fold_options);
  if (!folded.ok()) return folded.error();
  ZKT_TRY(persist_seal(window, info.rounds_restored + info.rounds_replayed,
                       folded.value().root));
  tree_seals_.push_back(std::move(folded.value().root));
  ++info.seals_refolded;
  return {};
}

}  // namespace zkt::core
