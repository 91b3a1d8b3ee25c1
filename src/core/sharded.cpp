#include "core/sharded.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "common/thread_pool.h"
#include "core/auditor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zkt::core {

namespace {

using netflow::FlowKeyHasher;
using netflow::RLogBatch;
using zvm::Env;

Status shard_split_guest(Env& env) {
  auto shard_count = env.read_u32();
  if (!shard_count.ok()) return shard_count.error();
  ZKT_TRY(env.assert_true(shard_count.value() >= 1 &&
                              shard_count.value() <= 1024,
                          "shard count range"));

  SplitJournal journal;
  journal.shard_count = shard_count.value();
  auto rid = env.read_u32();
  if (!rid.ok()) return rid.error();
  journal.source.router_id = rid.value();
  auto wid = env.read_u64();
  if (!wid.ok()) return wid.error();
  journal.source.window_id = wid.value();
  auto chash = env.read_digest();
  if (!chash.ok()) return chash.error();
  journal.source.rlog_hash = chash.value();
  auto rcount = env.read_u64();
  if (!rcount.ok()) return rcount.error();
  journal.source.record_count = rcount.value();

  auto rlog_bytes = env.read_blob();
  if (!rlog_bytes.ok()) return rlog_bytes.error();
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in split input"};
  }

  // Verify the batch against its published commitment (traced).
  const Digest32 h = env.sha256(rlog_bytes.value());
  ZKT_TRY(env.assert_eq(h, journal.source.rlog_hash,
                        "RLog hash vs published commitment"));

  Reader br(rlog_bytes.value());
  auto batch = RLogBatch::deserialize(br);
  if (!batch.ok()) return batch.error();
  ZKT_TRY(env.assert_true(batch.value().records.size() ==
                              journal.source.record_count,
                          "record count vs commitment"));

  // Partition deterministically and re-commit each sub-batch (traced).
  u64 total = 0;
  for (u32 s = 0; s < journal.shard_count; ++s) {
    const RLogBatch sub = sub_batch_for(batch.value(), s, journal.shard_count);
    ShardRef ref;
    ref.shard_id = s;
    ref.sub_batch_hash = env.sha256(sub.canonical_bytes());
    ref.record_count = sub.records.size();
    total = env.alu(zvm::AluOp::add, total, ref.record_count);
    journal.shards.push_back(ref);
  }
  ZKT_TRY(env.assert_true(total == journal.source.record_count,
                          "partition must be complete"));

  Writer jw;
  journal.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

}  // namespace

zvm::ImageID shard_split_image() {
  static const zvm::ImageID id = zvm::ImageRegistry::instance().add(
      "zkt.guest.shard_split", 1, shard_split_guest);
  return id;
}

u32 shard_of(const netflow::FlowKey& key, u32 shard_count) {
  return static_cast<u32>(FlowKeyHasher{}(key) % std::max<u32>(shard_count, 1));
}

netflow::RLogBatch sub_batch_for(const netflow::RLogBatch& batch,
                                 u32 shard_id, u32 shard_count) {
  netflow::RLogBatch sub;
  sub.router_id = batch.router_id;
  sub.window_id = batch.window_id;
  for (const auto& record : batch.records) {
    if (shard_of(record.key, shard_count) == shard_id) {
      sub.records.push_back(record);
    }
  }
  return sub;
}

ShardedAggregationService::ShardedAggregationService(
    const CommitmentBoard& board, ShardedOptions options)
    : board_(&board),
      options_(std::move(options)),
      shard_count_(std::max<u32>(options_.shard_count, 1)) {
  options_.join_fanout = std::clamp<u32>(options_.join_fanout, 2, 64);
  const AggregationOptions shard_options{.prove_options =
                                             options_.prove_options,
                                         .mode = options_.agg_mode,
                                         .sketch = options_.sketch};
  if (shard_count_ == 1) {
    // The degenerate round: one chain straight over the main board.
    shards_.push_back(std::make_unique<AggregationService>(board, shard_options));
    return;
  }
  for (u32 s = 0; s < shard_count_; ++s) {
    // Board-less (a private constructor, out of make_unique's reach).
    shards_.push_back(std::unique_ptr<AggregationService>(
        new AggregationService(shard_options)));
  }
}

Result<ShardedAggregationService::StagedRound> ShardedAggregationService::
    stage(std::span<const netflow::RLogBatch> batches) const {
  if (shard_count_ == 1) {
    // Nothing to split: the single chain consumes the batches as committed.
    StagedRound staged;
    staged.batches = batches;
    return staged;
  }
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan span("sharded_stage");
  obs::Histogram& split_ms = metrics.histogram("core.sharded.split_ms");

  StagedRound staged;
  staged.shard_batches.resize(shard_count_);
  zvm::Prover prover;
  for (const auto& batch : batches) {
    const auto split_start = std::chrono::steady_clock::now();
    auto commitment = board_->get(batch.router_id, batch.window_id);
    if (!commitment.has_value()) {
      return Error{Errc::commitment_missing,
                   "no published commitment for router " +
                       std::to_string(batch.router_id)};
    }
    Writer input;
    input.u32v(shard_count_);
    input.u32v(batch.router_id);
    input.u64v(batch.window_id);
    input.fixed(commitment->rlog_hash.bytes);
    input.u64v(commitment->record_count);
    input.blob(batch.canonical_bytes());

    zvm::ProveInfo info;
    auto receipt = prover.prove(shard_split_image(), input.bytes(),
                                options_.prove_options, &info);
    if (!receipt.ok()) return receipt.error();
    staged.split_cycles += info.cycles;

    auto journal = SplitJournal::parse(receipt.value().journal);
    if (!journal.ok()) return journal.error();

    // The binding of each shard chain to its split proof: shard s commits
    // this sub-batch under its own hash, which must be the one attested.
    for (u32 s = 0; s < shard_count_; ++s) {
      netflow::RLogBatch sub = sub_batch_for(batch, s, shard_count_);
      if (sub.hash() != journal.value().shards[s].sub_batch_hash) {
        return Error{Errc::hash_mismatch, "host/guest shard split diverged"};
      }
      staged.shard_batches[s].push_back(std::move(sub));
    }
    staged.split_receipts.push_back(std::move(receipt.value()));
    split_ms.record(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - split_start)
                        .count());
  }
  staged.split_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return staged;
}

Result<RoundResult> ShardedAggregationService::prove_shards(
    // zkt-lint: shared(workers only read their own shard's sub-batches; not mutated during the parallel_for)
    StagedRound staged) {
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan span("sharded_prove");

  RoundResult round;
  round.round_id = rounds_ + 1;
  round.shard_count = shard_count_;
  round.split_receipts = std::move(staged.split_receipts);
  round.total_cycles = staged.split_cycles;

  // Aggregate shards in parallel on the shared bounded pool (§7's parallel
  // proof generation). The pool caps concurrency at its worker count
  // instead of spawning one kernel thread per shard.
  // zkt-lint: shared(one slot per shard; workers write disjoint indices, read after join)
  std::vector<Result<AggregationRound>> results(
      shard_count_, Result<AggregationRound>(Errc::unsupported));
  // zkt-lint: shared(one slot per shard; disjoint writes, reduced after join)
  std::vector<double> shard_wall_ms(shard_count_, 0);
  // zkt-lint: shared(Histogram::record is atomic; concurrent records are safe)
  obs::Histogram& shard_wall_hist =
      metrics.histogram("core.sharded.shard_wall_ms");
  common::ThreadPool& pool = common::ThreadPool::shared();
  pool.parallel_for(shard_count_, 1, [&](size_t first, size_t last) {
    for (size_t s = first; s < last; ++s) {
      const auto shard_start = std::chrono::steady_clock::now();
      results[s] = shards_[s]->aggregate(
          shard_count_ == 1 ? staged.batches
                            : std::span<const netflow::RLogBatch>(
                                  staged.shard_batches[s]));
      shard_wall_ms[s] = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - shard_start)
                             .count();
      shard_wall_hist.record(shard_wall_ms[s]);
    }
  });
  metrics.gauge("common.pool.threads")
      .set(static_cast<double>(pool.thread_count()));
  metrics.gauge("common.pool.queue_depth")
      .set(static_cast<double>(pool.queue_depth()));

  for (u32 s = 0; s < shard_count_; ++s) {
    if (!results[s].ok()) return results[s].error();
    round.total_cycles += results[s].value().prove_info.cycles;
    round.shard_rounds.push_back(std::move(results[s].value()));
    // Snapshot the shard's post-round sketch now: a pipelined fold_round of
    // this window must not read shard state window i+1 already advanced.
    // A K = 1 round has nothing to fold and skips the copy.
    if (shard_count_ >= 2 && options_.sketch.has_value()) {
      round.shard_sketches.push_back(shards_[s]->sketch());
    }
  }
  round.wall_ms = staged.split_ms +
                  std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  rounds_ = round.round_id;

  // Shard imbalance: slowest shard over the mean — 1.0 means a perfectly
  // balanced round, larger means stragglers dominate the §7 speedup.
  const double max_wall =
      *std::max_element(shard_wall_ms.begin(), shard_wall_ms.end());
  double sum_wall = 0;
  for (double w : shard_wall_ms) sum_wall += w;
  const double mean_wall = sum_wall / static_cast<double>(shard_count_);
  if (mean_wall > 0) {
    metrics.gauge("core.sharded.imbalance").set(max_wall / mean_wall);
  }
  metrics.histogram("core.sharded.round_wall_ms").record(round.wall_ms);
  metrics.counter("core.sharded.rounds").add(1);
  return round;
}

Status ShardedAggregationService::fold_round(RoundResult& round) const {
  if (round.shard_rounds.size() < 2) return {};
  std::vector<zvm::Receipt> leaves;
  leaves.reserve(round.shard_rounds.size());
  for (const auto& shard_round : round.shard_rounds) {
    leaves.push_back(shard_round.receipt);
  }
  FoldOptions fold_options;
  fold_options.fanout = options_.join_fanout;
  fold_options.prove_options = options_.prove_options;
  fold_options.prove_options.assumptions.clear();
  fold_options.leaf_sketches = round.shard_sketches;
  auto folded = fold_receipts(leaves, fold_options);
  if (!folded.ok()) return folded.error();
  round.total_cycles += folded.value().total_cycles;
  round.wall_ms += folded.value().wall_ms;
  round.tree_seal = std::move(folded.value().root);
  round.round_sketch = std::move(folded.value().sketch);
  return {};
}

Result<RoundResult> ShardedAggregationService::aggregate(
    std::span<const netflow::RLogBatch> batches) {
  obs::ScopedSpan span("sharded_round");
  auto staged = stage(batches);
  if (!staged.ok()) return staged.error();
  auto round = prove_shards(std::move(staged.value()));
  if (!round.ok()) return round.error();
  ZKT_TRY(fold_round(round.value()));
  return round;
}

ShardedChainSnapshot ShardedAggregationService::capture(
    u64 window_id, std::optional<u64> delta_base) {
  ShardedChainSnapshot snap;
  snap.round_id = rounds_;
  snap.window_id = window_id;
  snap.shard_count = shard_count_;
  for (auto& shard : shards_) snap.shards.push_back(shard->capture(delta_base));
  return snap;
}

Status ShardedAggregationService::restore(
    const ShardedChainSnapshot& snap,
    std::vector<zvm::Receipt> shard_receipts) {
  if (rounds_ != 0) {
    return Error{Errc::invalid_argument,
                 "restore() requires a fresh sharded service"};
  }
  if (!snap.is_full()) {
    return Error{Errc::invalid_argument,
                 "restore() takes a full snapshot bundle"};
  }
  if (snap.shard_count != shard_count_ ||
      snap.shards.size() != shard_count_) {
    return Error{Errc::invalid_argument,
                 "sharded snapshot shard count does not match the service "
                 "(recovering with a different --shards value?)"};
  }
  if (shard_receipts.size() != shard_count_) {
    return Error{Errc::invalid_argument,
                 "restore() needs one receipt per shard"};
  }
  for (u32 s = 0; s < shard_count_; ++s) {
    if (snap.shards[s].claim_digest != shard_receipts[s].claim.digest()) {
      return Error{Errc::chain_broken,
                   "sharded snapshot does not match shard " +
                       std::to_string(s) + "'s stored receipt"};
    }
    auto state = snap.shards[s].restore_state();
    if (!state.ok()) return state.error();
    auto sketch = snap.shards[s].restore_sketch();
    if (!sketch.ok()) return sketch.error();
    ZKT_TRY(shards_[s]->restore(std::move(state.value()),
                                std::move(shard_receipts[s]),
                                snap.round_id,
                                std::move(sketch.value())));
  }
  rounds_ = snap.round_id;
  return {};
}

Status ShardedAggregationService::replay_round(
    std::span<const netflow::RLogBatch> batches,
    std::span<const zvm::Receipt> shard_receipts) {
  if (shard_receipts.size() != shard_count_) {
    return Error{Errc::invalid_argument,
                 "replay_round() needs one receipt per shard"};
  }
  if (shard_count_ == 1) {
    ZKT_TRY(shards_[0]->replay_round(batches, shard_receipts[0]));
    ++rounds_;
    return {};
  }
  for (u32 s = 0; s < shard_count_; ++s) {
    std::vector<netflow::RLogBatch> subs;
    subs.reserve(batches.size());
    for (const auto& batch : batches) {
      subs.push_back(sub_batch_for(batch, s, shard_count_));
    }
    ZKT_TRY(shards_[s]->replay_round(subs, shard_receipts[s]));
  }
  ++rounds_;
  return {};
}

u64 ShardedAggregationService::total_entries() const {
  u64 total = 0;
  for (u32 s = 0; s < shard_count_; ++s) total += shards_[s]->state().entry_count();
  return total;
}

ShardedAuditor::ShardedAuditor(const CommitmentBoard& board, u32 shard_count)
    : board_(&board),
      shard_count_(std::max<u32>(shard_count, 1)),
      shards_(shard_count_) {}

namespace {

/// The span of one shard's round, as the tree seal's leaf link carries it
/// (sketch params come from the carrying join journal).
ChainSpan span_of(const ShardLink& link, const netflow::SketchParams& params) {
  ChainSpan span;
  span.has_prev = link.has_prev;
  span.prev_claim_digest = link.prev_claim_digest;
  span.prev_root = link.prev_root;
  span.prev_entry_count = link.prev_entry_count;
  span.claim_digest = link.claim_digest;
  span.new_root = link.new_root;
  span.new_entry_count = link.new_entry_count;
  span.has_sketch = link.has_sketch;
  span.sketch_params = params;
  span.prev_sketch_digest = link.prev_sketch_digest;
  span.sketch_digest = link.sketch_digest;
  return span;
}

}  // namespace

Status ShardedAuditor::verify_splits(
    const RoundResult& round,
    std::map<std::tuple<u32, u64, u32>, ShardRef>& expected) {
  // Verify every split, anchor it to the real board and index the
  // per-shard sub-commitments it attests to.
  for (const auto& receipt : round.split_receipts) {
    ZKT_TRY(verifier_.verify(receipt, shard_split_image()));
    auto journal = SplitJournal::parse(receipt.journal);
    if (!journal.ok()) return journal.error();
    const SplitJournal& j = journal.value();
    if (j.shard_count != shard_count_) {
      return Error{Errc::proof_invalid, "split proof has wrong shard count"};
    }
    auto published = board_->get(j.source.router_id, j.source.window_id);
    if (!published.has_value() ||
        published->rlog_hash != j.source.rlog_hash ||
        published->record_count != j.source.record_count) {
      return Error{Errc::commitment_missing,
                   "split proof does not match the bulletin board"};
    }
    for (const auto& shard : j.shards) {
      expected[{j.source.router_id, j.source.window_id, shard.shard_id}] =
          shard;
    }
  }
  return {};
}

Status ShardedAuditor::accept_round(const RoundResult& round) {
  if (shard_count_ < 2 || round.shard_count < 2) {
    return Error{Errc::invalid_argument,
                 "single-chain rounds carry no split proofs; audit their "
                 "receipts with Auditor"};
  }
  // ONE join receipt transitively verifies every shard chain round
  // (composite seals recurse down to the shard receipts; succinct seals are
  // the constant-cost client check).
  if (!round.tree_seal.has_value()) {
    return Error{Errc::proof_invalid, "sharded round carries no tree seal"};
  }
  ZKT_TRY(verify_join_receipt(verifier_, *round.tree_seal));
  auto journal = JoinJournal::parse(round.tree_seal->journal);
  if (!journal.ok()) return journal.error();
  const JoinJournal& j = journal.value();
  if (j.leaf_count != shard_count_ || j.links.size() != shard_count_) {
    return Error{Errc::proof_invalid, "tree seal has wrong shard count"};
  }
  // When the round also carries the shard receipts, they must be the ones
  // the seal folded — a mismatched assembly is rejected rather than
  // silently trusting either side.
  if (!round.shard_rounds.empty()) {
    if (round.shard_rounds.size() != shard_count_) {
      return Error{Errc::proof_invalid, "wrong number of shard rounds"};
    }
    for (u32 s = 0; s < shard_count_; ++s) {
      if (round.shard_rounds[s].receipt.claim.digest() !=
          j.links[s].claim_digest) {
        return Error{Errc::proof_invalid,
                     "shard receipt does not match the tree seal's leaf"};
      }
    }
  }
  std::map<std::tuple<u32, u64, u32>, ShardRef> expected;
  ZKT_TRY(verify_splits(round, expected));

  // Every shard's link and split attestation passes before any shard
  // advances, so a rejected round changes nothing.
  std::vector<ChainPosition> next = shards_;
  for (u32 s = 0; s < shard_count_; ++s) {
    const ShardLink& link = j.links[s];
    ZKT_TRY(next[s].extend(span_of(link, j.sketch_params)));
    if (link.commitments.size() != round.split_receipts.size()) {
      return Error{Errc::proof_invalid,
                   "shard must consume one sub-batch per source batch"};
    }
    // Every consumed commitment must be the split output for THIS shard —
    // the position check is what catches swapped shard receipts/links.
    for (const auto& ref : link.commitments) {
      auto it = expected.find({ref.router_id, ref.window_id, s});
      if (it == expected.end() ||
          it->second.sub_batch_hash != ref.rlog_hash ||
          it->second.record_count != ref.record_count) {
        return Error{Errc::hash_mismatch,
                     "shard consumed data not attested by a split proof"};
      }
    }
  }
  shards_ = std::move(next);
  // The seal binds the merged round sketch (the join guest summed the shard
  // sketches in trace); remember its digest for query verification.
  round_sketch_digest_ = j.sketch_digest;
  ++rounds_;
  return {};
}

u64 ShardedAuditor::total_entries() const {
  u64 total = 0;
  for (const ChainPosition& shard : shards_) total += shard.entry_count;
  return total;
}

}  // namespace zkt::core
