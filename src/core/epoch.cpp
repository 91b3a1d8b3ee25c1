#include "core/epoch.h"

#include <chrono>

#include "core/io.h"
#include "obs/metrics.h"
#include "store/logstore.h"  // crc32
#include "zvm/verifier.h"

namespace zkt::core {

namespace {

constexpr std::string_view kEpochSealMagic = "EPSEAL1";
constexpr std::string_view kEpochFileMagic = "ZKTEPCH1";

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The span an epoch seal covers: its journal's first_* and final_* links.
ChainSpan span_of(const ChainSummaryJournal& journal) {
  ChainSpan span;
  span.rounds = journal.rounds;
  span.has_prev = !journal.genesis;
  span.prev_claim_digest = journal.first_claim_digest;
  span.prev_root = journal.first_root;
  span.prev_entry_count = journal.first_entry_count;
  span.claim_digest = journal.final_claim_digest;
  span.new_root = journal.final_root;
  span.new_entry_count = journal.final_entry_count;
  span.has_sketch = journal.has_sketch;
  span.sketch_params = journal.sketch_params;
  span.prev_sketch_digest = journal.first_sketch_digest;
  span.sketch_digest = journal.final_sketch_digest;
  return span;
}

}  // namespace

// ---------------------------------------------------------------------------
// EpochSeal serialization

Bytes EpochSeal::to_bytes() const {
  Writer w;
  w.str(kEpochSealMagic);
  w.u32v(level);
  w.u64v(start_round);
  w.u64v(rounds);
  w.u64v(first_window);
  w.u64v(last_window);
  w.blob(receipt.to_bytes());
  w.varint(commitments.size());
  for (const auto& ref : commitments) write_commitment_ref(w, ref);
  return std::move(w).take();
}

Result<EpochSeal> EpochSeal::from_bytes(BytesView data) {
  Reader r(data);
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != kEpochSealMagic) {
    return Error{Errc::parse_error, "bad epoch seal magic"};
  }
  EpochSeal seal;
  auto level = r.u32v();
  if (!level.ok()) return level.error();
  seal.level = level.value();
  auto start = r.u64v();
  if (!start.ok()) return start.error();
  seal.start_round = start.value();
  auto rounds = r.u64v();
  if (!rounds.ok()) return rounds.error();
  seal.rounds = rounds.value();
  auto first_window = r.u64v();
  if (!first_window.ok()) return first_window.error();
  seal.first_window = first_window.value();
  auto last_window = r.u64v();
  if (!last_window.ok()) return last_window.error();
  seal.last_window = last_window.value();
  auto receipt_bytes = r.blob();
  if (!receipt_bytes.ok()) return receipt_bytes.error();
  auto receipt = zvm::Receipt::from_bytes(receipt_bytes.value());
  if (!receipt.ok()) return receipt.error();
  seal.receipt = std::move(receipt.value());
  auto journal = ChainSummaryJournal::parse(seal.receipt.journal);
  if (!journal.ok()) return journal.error();
  seal.journal = journal.value();
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() != seal.journal.commitment_count) {
    return Error{Errc::parse_error,
                 "epoch seal ref count disagrees with its journal"};
  }
  seal.commitments.reserve(n.value());
  for (u64 i = 0; i < n.value(); ++i) {
    auto ref = parse_commitment_ref(r);
    if (!ref.ok()) return ref.error();
    seal.commitments.push_back(ref.value());
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing epoch seal bytes"};
  }
  return seal;
}

// ---------------------------------------------------------------------------
// Ladder plan + recovery validation

std::vector<EpochSpanSpec> epoch_ladder_plan(u64 rounds, u64 epoch_every) {
  std::vector<EpochSpanSpec> plan;
  if (epoch_every == 0) return plan;
  const u64 units = rounds / epoch_every;
  u64 start = 0;
  for (int bit = 63; bit >= 0; --bit) {
    const u64 span_units = u64{1} << bit;
    if ((units & span_units) == 0) continue;
    EpochSpanSpec spec;
    spec.level = static_cast<u32>(bit);
    spec.start_round = start;
    spec.rounds = span_units * epoch_every;
    plan.push_back(spec);
    start += spec.rounds;
  }
  return plan;
}

Status validate_recovered_seal(const EpochSeal& seal,
                               std::span<const zvm::Receipt> chain,
                               u64 epoch_every) {
  if (epoch_every == 0 || seal.level >= 48) {
    return Error{Errc::proof_invalid, "degenerate epoch seal geometry"};
  }
  const u64 expected_rounds = epoch_every << seal.level;
  if (seal.rounds != expected_rounds ||
      seal.start_round % expected_rounds != 0) {
    return Error{Errc::proof_invalid, "epoch seal span is not ladder-aligned"};
  }
  if (seal.start_round + seal.rounds > chain.size()) {
    return Error{Errc::proof_invalid,
                 "epoch seal extends past the recovered chain"};
  }

  // The provider's own check, so its own Verifier.
  auto parsed =
      verify_chain_summary(zvm::Verifier{}, seal.receipt, seal.commitments);
  if (!parsed.ok()) return parsed.error();
  const ChainSummaryJournal& j = parsed.value();
  {
    // The stored journal copy must be the receipt's journal, byte for byte.
    Writer stored, live;
    seal.journal.write(stored);
    j.write(live);
    if (!std::equal(stored.bytes().begin(), stored.bytes().end(),
                    live.bytes().begin(), live.bytes().end()) ||
        stored.bytes().size() != live.bytes().size()) {
      return Error{Errc::proof_invalid,
                   "stored epoch seal journal differs from its receipt"};
    }
  }
  if (j.rounds != seal.rounds || j.genesis != (seal.start_round == 0)) {
    return Error{Errc::proof_invalid,
                 "epoch seal journal disagrees with its span"};
  }

  // Anchor both ends of the span to the live receipt chain: the seal must
  // start at the position its first round extends and end at the position
  // its last round establishes.
  const u64 last_round = seal.start_round + seal.rounds - 1;
  auto first_j = AggJournal::parse(chain[seal.start_round].journal);
  if (!first_j.ok()) return first_j.error();
  auto last_j = AggJournal::parse(chain[last_round].journal);
  if (!last_j.ok()) return last_j.error();
  const ChainSpan sealed = span_of(j);
  const ChainSpan first =
      span_of(first_j.value(), chain[seal.start_round].claim.digest());
  const ChainSpan last =
      span_of(last_j.value(), chain[last_round].claim.digest());
  if (sealed.start(seal.start_round) != first.start(seal.start_round) ||
      sealed.end(seal.start_round) != last.end(last_round)) {
    return Error{Errc::proof_invalid,
                 "epoch seal does not match the recovered chain"};
  }

  // The stored ref list (which verify_chain_summary folded onto the proven
  // commitment-chain digest) must be exactly what the span's rounds
  // consumed.
  u64 ref_index = 0;
  for (u64 round = seal.start_round;
       round < seal.start_round + seal.rounds; ++round) {
    auto round_j = AggJournal::parse(chain[round].journal);
    if (!round_j.ok()) return round_j.error();
    for (const auto& ref : round_j.value().commitments) {
      if (ref_index >= seal.commitments.size() ||
          !(seal.commitments[ref_index] == ref)) {
        return Error{Errc::hash_mismatch,
                     "epoch seal ref list diverges from the chain"};
      }
      ++ref_index;
    }
  }
  if (ref_index != seal.commitments.size()) {
    return Error{Errc::hash_mismatch,
                 "epoch seal ref list does not cover the chain's rounds"};
  }
  return {};
}

// ---------------------------------------------------------------------------
// EpochLadder

EpochLadder::EpochLadder(EpochLadderOptions options)
    : options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool
                                     : &common::ThreadPool::shared()),
      actor_commitments_digest_(epoch_commitments_init()) {
  if (options_.epoch_every == 0) options_.epoch_every = 1;
  // Succinct seals are load-bearing: constant size, O(1) verify, and the
  // merge guest still binds them as assumptions (see header).
  options_.prove_options.seal_kind = zvm::SealKind::succinct;
  options_.prove_options.assumptions.clear();
}

EpochLadder::~EpochLadder() { (void)settle(); }

Status EpochLadder::feed(const zvm::Receipt& receipt, u64 window) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!error_.ok()) return error_;
    ++rounds_fed_;
  }
  // Fail fast on a receipt the seal guest could never fold.
  auto journal = AggJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();

  if (buffer_.rounds.empty()) buffer_.start_round = next_start_round_;
  buffer_.rounds.push_back(receipt);
  buffer_.windows.push_back(window);
  ++next_start_round_;
  if (buffer_.rounds.size() < options_.epoch_every) return {};

  PendingUnit unit = std::move(buffer_);
  buffer_ = PendingUnit{};
  bool dispatch = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(unit));
    if (!active_) {
      active_ = true;
      dispatch = true;
    }
  }
  if (dispatch) pool_->submit([this] { drain_units(); });
  return {};
}

void EpochLadder::drain_units() {
  for (;;) {
    PendingUnit unit;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (queue_.empty() || !error_.ok()) {
        queue_.clear();
        active_ = false;
        idle_.notify_all();
        return;
      }
      unit = std::move(queue_.front());
      queue_.pop_front();
    }
    Status built = build_unit(std::move(unit));
    if (!built.ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      if (error_.ok()) error_ = built;
    }
  }
}

Status EpochLadder::build_unit(PendingUnit unit) {
  auto& metrics = obs::Registry::instance();
  EpochSpanOptions span_options;
  span_options.prove_options = options_.prove_options;
  span_options.first_commitments_digest = actor_commitments_digest_;

  auto started = std::chrono::steady_clock::now();
  auto response = prove_epoch_span(unit.rounds, span_options);
  if (!response.ok()) return response.error();
  metrics.histogram("core.epoch.prove_ms").record(ms_since(started));
  metrics.counter("core.epoch.seals_built").add(1);

  EpochSeal seal;
  seal.level = 0;
  seal.start_round = unit.start_round;
  seal.rounds = response.value().journal.rounds;
  seal.first_window = unit.windows.front();
  seal.last_window = unit.windows.back();
  seal.receipt = std::move(response.value().receipt);
  seal.journal = response.value().journal;
  seal.commitments = std::move(response.value().commitments);
  actor_commitments_digest_ = seal.journal.final_commitments_digest;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ladder_.push_back(seal);
    completed_.push_back(std::move(seal));
  }

  // Binary-counter carry: merge while the two tail seals share a level.
  for (;;) {
    EpochSeal left, right;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (ladder_.size() < 2 ||
          ladder_[ladder_.size() - 2].level != ladder_.back().level) {
        break;
      }
      left = ladder_[ladder_.size() - 2];
      right = ladder_.back();
    }
    const zvm::Receipt children[2] = {left.receipt, right.receipt};
    EpochSpanOptions merge_options;
    merge_options.prove_options = options_.prove_options;
    started = std::chrono::steady_clock::now();
    auto merged = prove_epoch_span(children, merge_options);
    if (!merged.ok()) return merged.error();
    metrics.histogram("core.epoch.prove_ms").record(ms_since(started));
    metrics.counter("core.epoch.seals_built").add(1);
    metrics.counter("core.epoch.merges").add(1);

    EpochSeal parent;
    parent.level = left.level + 1;
    parent.start_round = left.start_round;
    parent.rounds = left.rounds + right.rounds;
    parent.first_window = left.first_window;
    parent.last_window = right.last_window;
    parent.receipt = std::move(merged.value().receipt);
    parent.journal = merged.value().journal;
    parent.commitments = std::move(left.commitments);
    parent.commitments.insert(parent.commitments.end(),
                              right.commitments.begin(),
                              right.commitments.end());
    {
      std::lock_guard<std::mutex> lk(mu_);
      ladder_.pop_back();
      ladder_.pop_back();
      ladder_.push_back(parent);
      completed_.push_back(std::move(parent));
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  metrics.gauge("core.epoch.ladder_size")
      .set(static_cast<double>(ladder_.size()));
  u64 sealed = 0;
  for (const auto& s : ladder_) sealed += s.rounds;
  metrics.gauge("core.epoch.rounds_sealed").set(static_cast<double>(sealed));
  return {};
}

std::vector<EpochSeal> EpochLadder::take_completed() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<EpochSeal> out = std::move(completed_);
  completed_.clear();
  return out;
}

Status EpochLadder::settle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_.wait(lk, [this] { return !active_; });
  return error_;
}

std::vector<EpochSeal> EpochLadder::ladder() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ladder_;
}

Status EpochLadder::adopt(EpochSeal seal) {
  std::lock_guard<std::mutex> lk(mu_);
  if (active_ || !queue_.empty() || !buffer_.rounds.empty()) {
    return Error{Errc::invalid_argument,
                 "epoch ladder adoption only before feeding"};
  }
  if (seal.start_round != next_start_round_) {
    return Error{Errc::invalid_argument,
                 "adopted epoch seal is out of chain order"};
  }
  if (!ladder_.empty() && ladder_.back().level <= seal.level) {
    return Error{Errc::invalid_argument,
                 "adopted epoch seal breaks the ladder level order"};
  }
  rounds_fed_ += seal.rounds;
  next_start_round_ += seal.rounds;
  actor_commitments_digest_ = seal.journal.final_commitments_digest;
  ladder_.push_back(std::move(seal));
  return {};
}

u64 EpochLadder::rounds_fed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rounds_fed_;
}

// ---------------------------------------------------------------------------
// Seal bundle files

Status save_epoch_seals(const std::vector<EpochSeal>& seals,
                        const std::string& path) {
  Writer w;
  w.str(kEpochFileMagic);
  w.varint(seals.size());
  for (const auto& seal : seals) {
    const Bytes item = seal.to_bytes();
    w.blob(item);
    w.u32v(store::crc32(item));
  }
  return write_file(path, w.bytes());
}

Result<std::vector<EpochSeal>> load_epoch_seals(const std::string& path) {
  auto data = read_file(path);
  if (!data.ok()) return data.error();
  Reader r(data.value());
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != kEpochFileMagic) {
    return Error{Errc::parse_error, "bad epoch seal file magic"};
  }
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() > (1u << 16)) {
    return Error{Errc::parse_error, "unreasonable epoch seal count"};
  }
  std::vector<EpochSeal> seals;
  seals.reserve(n.value());
  for (u64 i = 0; i < n.value(); ++i) {
    auto item = r.blob();
    if (!item.ok()) return item.error();
    auto crc = r.u32v();
    if (!crc.ok()) return crc.error();
    if (store::crc32(item.value()) != crc.value()) {
      return Error{Errc::parse_error,
                   "epoch seal " + std::to_string(i) + " failed CRC"};
    }
    auto seal = EpochSeal::from_bytes(item.value());
    if (!seal.ok()) return seal.error();
    seals.push_back(std::move(seal.value()));
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing epoch seal file bytes"};
  }
  return seals;
}

// ---------------------------------------------------------------------------
// Auditor::catch_up (lives here so it can see EpochSeal whole; declared in
// core/auditor.h)

Result<CatchUpReport> Auditor::catch_up(std::span<const EpochSeal> seals,
                                        std::span<const zvm::Receipt> suffix,
                                        zvm::VerifyStats* stats) {
  if (position_.rounds != 0) {
    return Error{Errc::chain_broken,
                 "catch-up requires a fresh auditor (no rounds accepted)"};
  }
  CatchUpReport report;

  // Advance a local position seal by seal; it is adopted only once every
  // seal passed. The commitment chain is the one link a seal carries beyond
  // the position: each seal's ref list must pick up where the last ended.
  ChainPosition position;
  Digest32 commitments = epoch_commitments_init();
  for (const EpochSeal& seal : seals) {
    zvm::VerifyStats pass;
    auto journal = verify_chain_summary(verifier_, seal.receipt,
                                        seal.commitments,
                                        VerifyOptions{nullptr, &pass});
    record_pass(pass, stats);
    if (!journal.ok()) return journal.error();
    for (const auto& ref : seal.commitments) {
      if (!on_board(ref)) {
        return Error{Errc::commitment_missing,
                     "summary consumes a commitment not on the board (router " +
                         std::to_string(ref.router_id) + ", window " +
                         std::to_string(ref.window_id) + ")"};
      }
    }
    const ChainSummaryJournal& j = journal.value();
    if (seal.start_round != position.rounds || seal.rounds != j.rounds) {
      return Error{Errc::chain_broken,
                   "epoch seal span disagrees with its position"};
    }
    ZKT_TRY(position.extend(span_of(j)));
    if (j.first_commitments_digest != commitments) {
      return Error{Errc::chain_broken,
                   "epoch seals do not splice the commitment chain"};
    }
    commitments = j.final_commitments_digest;
    ++report.seals_adopted;
  }
  report.seal_rounds = position.rounds;

  if (report.seals_adopted > 0) {
    position_ = position;
    claims_.insert(position_.claim_digest);
    obs::Registry::instance()
        .counter("core.epoch.seals_verified")
        .add(report.seals_adopted);
  }

  auto accepted = accept_rounds(suffix, stats);
  if (!accepted.ok()) return accepted.error();
  report.rounds_replayed = accepted.value();
  report.head = head();
  return report;
}

}  // namespace zkt::core
