// Epoch seals: a binary-counter ladder of chain-summary receipts kept
// alongside the live aggregation chain, so a cold verifier catches up on a
// T-round chain by verifying O(log T) seals plus an O(epoch) suffix —
// instead of replaying T receipts or asking the prover for an O(T)
// from-genesis summary.
//
// Ladder invariant (DESIGN.md §11): after U completed epoch units (one unit
// = epoch_every consecutive rounds), the live seals are exactly the binary
// decomposition of U — one seal of 2^k units per set bit k, in chain order
// with strictly decreasing levels. Each new unit is proven as a level-0
// seal and then merged with its left neighbour while the two tails have
// equal levels (the binary-counter carry), so the amortized cost is O(1)
// summary proofs per round and no seal is ever proven from more than two
// children. All ladder proving runs asynchronously on the shared
// common::ThreadPool so window proving never waits on a seal.
//
// Seals are proven with SUCCINCT receipts: constant 256-byte seal, O(1)
// verification, and the merge guest still binds them as assumptions — which
// is what keeps both the seal size and the catch-up verification cost flat
// in the rounds covered.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>

#include "core/chain_summary.h"

namespace zkt::core {

/// One ladder seal: the summary receipt for a power-of-two span of epoch
/// units, plus the out-of-band data a catch-up verifier needs (the ordered
/// CommitmentRef list the constant-size journal only commits to by digest).
struct EpochSeal {
  u32 level = 0;        ///< spans epoch_every * 2^level rounds
  u64 start_round = 0;  ///< 0-based index of the span's first round
  u64 rounds = 0;       ///< rounds covered (epoch_every << level)
  u64 first_window = 0;  ///< window id of the span's first round
  u64 last_window = 0;   ///< window id of the span's last round
  zvm::Receipt receipt;
  ChainSummaryJournal journal;  ///< parsed from receipt.journal
  /// Every commitment the span consumed, in consumption order — hash-chains
  /// from journal.first_commitments_digest to final_commitments_digest.
  std::vector<CommitmentRef> commitments;

  /// The EPSEAL1 layout (common/codec.h): the journal is parsed from the
  /// receipt and must count exactly the refs that follow.
  template <class V, class Self>
  static void fields(V& v, Self& seal) {
    v.magic("EPSEAL1");
    v.field("level", seal.level);
    v.field("start_round", seal.start_round);
    v.field("rounds", seal.rounds);
    v.field("first_window", seal.first_window);
    v.field("last_window", seal.last_window);
    v.blob("receipt", seal.receipt);
    v.derived("journal", seal.journal, seal.receipt.journal);
    v.list("commitments", seal.commitments, seal.journal.commitment_count);
    v.check(seal.commitments.size() == seal.journal.commitment_count,
            "epoch seal ref count disagrees with its journal");
  }
  Bytes to_bytes() const {
    Writer w;
    encode(w, *this);
    return std::move(w).take();
  }
  static Result<EpochSeal> from_bytes(BytesView data) {
    return decode<EpochSeal>(data);
  }
};

/// One span of the expected live ladder (epoch_ladder_plan output).
struct EpochSpanSpec {
  u32 level = 0;
  u64 start_round = 0;
  u64 rounds = 0;

  friend bool operator==(const EpochSpanSpec&, const EpochSpanSpec&) = default;
};

/// The live ladder a chain of `rounds` rounds must hold at `epoch_every`:
/// the binary decomposition of rounds / epoch_every, tallest first. Empty
/// when epoch_every == 0. Deterministic — recovery recomputes it from the
/// restored chain length and re-folds whatever the store is missing.
std::vector<EpochSpanSpec> epoch_ladder_plan(u64 rounds, u64 epoch_every);

/// Validate a seal recovered from storage against the live receipt chain:
/// its receipt must verify, its span must lie inside the chain, its journal
/// must match the chain's receipts at both ends (claim digests, genesis
/// flag), and its ref list must reproduce both the chain's per-round
/// journals and the proven commitment-chain digest. Anything short of that
/// is a reason to re-fold, not to adopt.
Status validate_recovered_seal(const EpochSeal& seal,
                               std::span<const zvm::Receipt> chain,
                               u64 epoch_every);

/// Construction-time knobs for EpochLadder.
struct EpochLadderOptions {
  /// Rounds per level-0 seal (the epoch length). Must be >= 1.
  u64 epoch_every = 16;
  /// Proving options for seal proofs. seal_kind is forced to succinct and
  /// assumptions are managed internally — see the header comment.
  zvm::ProveOptions prove_options;
};

/// The provider-side ladder builder. feed() is called once per completed
/// round from the proving thread and never blocks on seal proving: full
/// epochs are handed to a single serialized actor task on the pool (one
/// in-flight dispatch at a time, so ladder state needs no fine-grained
/// locking and pool help-draining cannot deadlock on ladder work).
class EpochLadder {
 public:
  explicit EpochLadder(EpochLadderOptions options);
  ~EpochLadder();  // settles in-flight work (errors already surfaced stick)

  EpochLadder(const EpochLadder&) = delete;
  EpochLadder& operator=(const EpochLadder&) = delete;

  /// Append one completed round (in chain order). Parses the receipt's
  /// AggJournal for the round's commitment refs; proving of any completed
  /// epoch happens asynchronously. A prior asynchronous proving failure is
  /// surfaced here (and from settle()) as a terminal error.
  Status feed(const zvm::Receipt& receipt, u64 window);

  /// Drain seals finished since the last call, in completion order (level-0
  /// seals and every merge — supersets included, so callers can persist
  /// append-only). Non-blocking.
  std::vector<EpochSeal> take_completed();

  /// Wait for all dispatched ladder work and surface the first error.
  Status settle();

  /// The live ladder in chain order (tallest first). Call settle() first
  /// for a quiescent view.
  std::vector<EpochSeal> ladder() const;

  /// Recovery: install an already-validated seal as the next live ladder
  /// entry (chain order, before any feed()). Advances the internal unit
  /// and commitment-chain positions without proving.
  Status adopt(EpochSeal seal);

  u64 rounds_fed() const;
  u64 epoch_every() const { return options_.epoch_every; }
  const EpochLadderOptions& options() const { return options_; }

 private:
  struct PendingUnit {
    u64 start_round = 0;
    std::vector<zvm::Receipt> rounds;
    std::vector<u64> windows;
  };

  /// Actor loop body (runs on the pool; exactly one in flight).
  void drain_units();
  /// Prove one level-0 seal and cascade binary-counter merges. Runs inside
  /// drain_units(); returns the first proving error.
  Status build_unit(PendingUnit unit);

  EpochLadderOptions options_;

  mutable std::mutex mu_;
  std::condition_variable idle_;
  // zkt-lint: guarded_by(mu_) fed by the proving thread, drained by the actor task
  std::deque<PendingUnit> queue_;
  // zkt-lint: guarded_by(mu_) single-flight actor dispatch flag
  bool active_ = false;
  // zkt-lint: guarded_by(mu_) first asynchronous proving error, sticky
  Status error_;
  // zkt-lint: guarded_by(mu_) live seals, chain order
  std::vector<EpochSeal> ladder_;
  // zkt-lint: guarded_by(mu_) finished seals awaiting pickup for persistence
  std::vector<EpochSeal> completed_;
  // zkt-lint: guarded_by(mu_) rounds accepted via feed or adopt
  u64 rounds_fed_ = 0;

  // Feed-side state (proving thread only): the unit being filled.
  PendingUnit buffer_;
  u64 next_start_round_ = 0;

  // Actor-side state (serialized by the single-flight dispatch): the
  // commitment-chain digest after every sealed unit so far.
  Digest32 actor_commitments_digest_;
};

/// Write/read a seal bundle (the ladder) to a file, ZKTEPCH1 framing with
/// per-item CRC — the zkt-prove → zkt-verify hand-off for --catch-up.
Status save_epoch_seals(const std::vector<EpochSeal>& seals,
                        const std::string& path);
Result<std::vector<EpochSeal>> load_epoch_seals(const std::string& path);

}  // namespace zkt::core
