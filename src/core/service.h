// Prover-side services: the service provider's aggregation pipeline and
// query responder (the "Prover" box of Figure 1).
//
// AggregationService owns the CLog state and runs Algorithm-1 rounds inside
// the zkVM; QueryService answers client queries with proofs against the
// latest aggregated state. Both deliberately avoid pre-checking the
// integrity conditions the guest enforces: if the stored logs were tampered
// with after commitment, proof *generation* fails — which is the detection
// mechanism the paper evaluates (§6).
//
// Both services record into the process-wide obs::Registry (core.agg.* and
// core.query.* — see docs/OBSERVABILITY.md for the catalog).
#pragma once

#include <initializer_list>
#include <optional>
#include <span>
#include <unordered_set>

#include "core/chain_snapshot.h"
#include "core/clog.h"
#include "core/commitment.h"
#include "core/grouped_query.h"
#include "core/guests.h"
#include "core/sketch_query.h"
#include "netflow/sketch.h"
#include "zvm/prover.h"

namespace zkt::core {

struct AggregationRound {
  u64 round_id = 0;
  zvm::Receipt receipt;
  AggJournal journal;
  zvm::ProveInfo prove_info;
};

/// The result of one proving round — one shape for every shard count K
/// (each round fills the parts it produced):
///
///   K = 1 (plain chain): shard_rounds = {the round}; no splits, no seal.
///   K >= 2:              one shard_round per shard + the round's split
///                        receipts.
///   K >= 2 + fold:       additionally tree_seal — ONE receipt that
///                        transitively verifies every shard round (see
///                        core/join.h).
struct RoundResult {
  u64 round_id = 0;
  /// Shard fan-out this window was proven with (1 for the plain chain).
  /// Split journals bind the same value in-trace.
  u32 shard_count = 1;
  /// Split receipts, one per source batch (K >= 2 only).
  std::vector<zvm::Receipt> split_receipts;
  /// Per-shard aggregation rounds in shard order; exactly one element at
  /// K = 1.
  std::vector<AggregationRound> shard_rounds;
  /// The round's join-tree seal: every K >= 2 round has one once
  /// fold_round() ran; a K = 1 round has none.
  std::optional<zvm::Receipt> tree_seal;
  /// Per-shard round sketches in shard order, captured on K >= 2 rounds
  /// whose chains carry the proof-carrying sketch (empty otherwise — a
  /// single chain's sketch lives in its AggregationService). Snapshotted
  /// at prove time so a pipelined fold of window i is immune to window i+1
  /// advancing the shard services underneath it.
  std::vector<netflow::RoundSketch> shard_sketches;
  /// The whole-round sketch the tree seal binds (K >= 2 only): the
  /// host-merged sum of shard_sketches, matching the root JoinJournal's
  /// sketch_digest.
  std::optional<netflow::RoundSketch> round_sketch;
  double wall_ms = 0;
  u64 total_cycles = 0;

  /// The plain chain's round. Only meaningful at K = 1 (shard_rounds has
  /// exactly one element).
  const AggregationRound& primary() const { return shard_rounds.front(); }
  AggregationRound& primary() { return shard_rounds.front(); }
};

/// How aggregation rounds pick between the full-rebuild guest (O(N) traced
/// hashing) and the incremental delta guest (O(k log N)).
enum class AggMode : u8 {
  /// Estimate both costs per round and prove incrementally while the
  /// delta's estimated traced-hash count stays below 0.75 of the full
  /// rebuild's — past it (e.g. an insertion cascade opening most of the
  /// state) the full guest is the better deal. Genesis and empty-state
  /// rounds always use the full guest.
  auto_select = 0,
  /// Always prove with the full-rebuild guest.
  full = 1,
  /// Prove incrementally whenever a delta round is possible (there is a
  /// previous round and the round touches at least one entry); otherwise
  /// fall back to the full guest.
  incremental = 2,
};

/// Construction-time knobs for AggregationService (and the sharded
/// variant). A struct rather than positional parameters so new knobs don't
/// silently shift argument meanings at call sites.
struct AggregationOptions {
  zvm::ProveOptions prove_options;
  AggMode mode = AggMode::auto_select;
  /// Proof-carrying round sketch (DESIGN.md §10): when set, every round
  /// folds its records into a committed RoundSketch whose digest chains
  /// through the journals, and QueryService can answer heavy-hitter /
  /// cardinality queries against it in time flat in the CLog size. nullopt
  /// disables sketches (journals then omit the sketch section entirely).
  std::optional<netflow::SketchParams> sketch = netflow::SketchParams{};
};

class AggregationService {
 public:
  explicit AggregationService(const CommitmentBoard& board,
                              AggregationOptions options = {})
      : AggregationService(std::move(options)) {
    board_ = &board;
  }

  /// Run one aggregation round over the given batches. Batches are processed
  /// in (window, router) order — via a locally sorted index, so the caller's
  /// data is neither copied nor reordered. Fails — without modifying state —
  /// if any batch lacks a published commitment or fails the in-guest
  /// integrity checks.
  Result<AggregationRound> aggregate(
      std::span<const netflow::RLogBatch> batches);

  /// Convenience for literal batch lists: aggregate({a, b}).
  Result<AggregationRound> aggregate(
      std::initializer_list<netflow::RLogBatch> batches) {
    return aggregate(
        std::span<const netflow::RLogBatch>(batches.begin(), batches.size()));
  }

  const CLogState& state() const { return state_; }
  u64 rounds_completed() const { return rounds_; }
  bool has_rounds() const { return last_receipt_.has_value(); }
  const zvm::Receipt& last_receipt() const { return *last_receipt_; }

  /// Claim digest of the last proven round. An error when no round has run,
  /// so a forged all-zero chain head can never be mistaken for genesis.
  Result<Digest32> last_claim_digest() const {
    if (!last_receipt_.has_value()) {
      return Error{Errc::chain_broken, "no aggregation round has run"};
    }
    return last_receipt_->claim.digest();
  }

  /// Adopt a recovered chain position: the CLog state as of `last_receipt`'s
  /// round and the number of rounds completed. Only valid on a fresh service
  /// (no rounds run). Fails with merkle_mismatch unless the state's root and
  /// entry count match the receipt's journal — a snapshot that disagrees
  /// with its receipt cannot be resumed from. When the receipt's journal
  /// chains a sketch, `sketch` must hold the round's recovered RoundSketch
  /// (hash-checked against the journal's sketch digest); the service's
  /// sketch enablement follows the recovered chain either way.
  Status restore(CLogState state, zvm::Receipt last_receipt,
                 u64 rounds_completed,
                 std::optional<netflow::RoundSketch> sketch = std::nullopt);

  /// Snapshot the chain position after the last round (requires one): the
  /// whole CLog when `delta_base` is nullopt, otherwise a delta body
  /// extending the chain_state row of round `*delta_base` — the entries
  /// whose keys any round touched since the previous capture. Either way
  /// the touched-key tracking restarts here.
  ChainSnapshot capture(std::optional<u64> delta_base);

  /// Roll the chain forward over an ALREADY-PROVEN round whose receipt was
  /// recovered from storage: check the receipt chains onto the current head
  /// (previous claim digest, root, entry count), mirror the batches the way
  /// aggregate() does, check the mirror against the receipt's journal, and
  /// only then adopt both — no re-proving. Rejects (chain_broken /
  /// merkle_mismatch / hash_mismatch) any receipt that does not extend this
  /// exact chain, leaving the service untouched.
  Status replay_round(std::span<const netflow::RLogBatch> batches,
                      const zvm::Receipt& receipt);

  /// Which guest proved the last completed round (full until a delta round
  /// runs). Feeds the next round's prev_image_kind.
  RoundKind last_kind() const { return last_kind_; }

  /// Whether rounds carry the proof-carrying sketch.
  bool sketch_enabled() const { return sketch_params_.has_value(); }
  /// The service's host mirror of the round sketch (hash-checked against
  /// every journal's sketch digest). Meaningful only when sketch_enabled().
  const netflow::RoundSketch& sketch() const { return sketch_; }

  /// Build the incremental-guest input for running `batches` against the
  /// CURRENT state: the opened-entry set (merge targets, adjacency
  /// neighbors of new keys, any insertion cascade) and one multiproof over
  /// opened indices ∪ the new-flow slots. Does not modify state. Fails with
  /// invalid_argument when no delta round is possible (no previous round,
  /// empty state, or a round that touches nothing). Exposed for tests and
  /// benchmarks; aggregate() calls it internally per its AggMode.
  Result<DeltaAggregateInput> build_delta_input(
      std::span<const netflow::RLogBatch> batches) const;

 private:
  /// A K >= 2 shard chain: its sub-batches have no board entry, so each is
  /// committed under its own hash. What binds them to the routers' boards
  /// is the split receipt whose sub-batch hash stage() checked.
  friend class ShardedAggregationService;
  explicit AggregationService(AggregationOptions options)
      : prove_options_(std::move(options.prove_options)),
        mode_(options.mode),
        sketch_params_(options.sketch),
        sketch_(options.sketch.value_or(netflow::SketchParams{})) {}

  /// The delta shape of a round: which prev entries must be opened and
  /// which keys are new, in the guest's required orders.
  struct DeltaShape {
    std::vector<u64> opened;               ///< sorted prev-state indices
    std::vector<netflow::FlowKey> fresh;   ///< sorted new flow keys
    u64 records = 0;                       ///< total records in the round
  };
  DeltaShape delta_shape(std::span<const netflow::RLogBatch> batches,
                         std::span<const size_t> order) const;
  Result<DeltaAggregateInput> build_delta_input_ordered(
      std::span<const netflow::RLogBatch> batches,
      std::span<const size_t> order, const DeltaShape& shape) const;
  bool pick_incremental(const DeltaShape& shape) const;
  Result<AggregationRound> aggregate_impl(
      std::span<const netflow::RLogBatch> batches);

  /// The host mirror of one round: the planned CLog transition, the folded
  /// sketch and both sketch digests (defined in service.cpp).
  struct RoundMirror;
  /// A mirror running on the shared pool; destruction waits for it.
  class PendingMirror;
  /// Mirror a round: plan the CLog transition and fold the sketch in the
  /// guest's exact record order (Space-Saving is order-sensitive). Reads
  /// its arguments only.
  static RoundMirror mirror_round(
      const CLogState& state,
      const std::optional<netflow::SketchParams>& sketch_params,
      const netflow::RoundSketch& sketch,
      std::span<const netflow::RLogBatch> batches,
      std::span<const size_t> order);
  /// Start mirroring `batches` in `order` on the shared pool (inline when
  /// its queue is full). The mirror borrows both spans and reads state_,
  /// sketch_params_ and sketch_, none of which may change until it is
  /// awaited.
  PendingMirror start_mirror(std::span<const netflow::RLogBatch> batches,
                             std::span<const size_t> order) const;
  /// Await the mirror, check it against the proven journal, and only when
  /// root, entry count and sketch digests all agree advance state_,
  /// sketch_ and touched_ together. On any error nothing changes.
  Status settle(PendingMirror& pending, const AggJournal& journal);

  /// Null for a shard chain (see the private constructor).
  const CommitmentBoard* board_ = nullptr;
  zvm::ProveOptions prove_options_;
  AggMode mode_ = AggMode::auto_select;
  // zkt-lint: shared(read-only while a round's mirror runs; only the caller writes it, after awaiting the mirror)
  CLogState state_;
  std::optional<zvm::Receipt> last_receipt_;
  RoundKind last_kind_ = RoundKind::full;
  u64 rounds_ = 0;
  /// nullopt = sketches disabled; may be adopted from a recovered chain.
  // zkt-lint: shared(read-only while a round's mirror runs; only the caller writes it, after awaiting the mirror)
  std::optional<netflow::SketchParams> sketch_params_;
  // zkt-lint: shared(read-only while a round's mirror runs; only the caller writes it, after awaiting the mirror)
  netflow::RoundSketch sketch_;  ///< host mirror of the chained sketch
  /// Keys whose entries changed since the last capture() — a delta
  /// snapshot's upserts. Bounded by the CLog's entry count.
  std::unordered_set<netflow::FlowKey, netflow::FlowKeyHasher> touched_;
};

struct QueryResponse {
  zvm::Receipt receipt;
  QueryJournal journal;
  /// Convenience: journal.result.value(journal.query.agg).
  u64 value = 0;
  zvm::ProveInfo prove_info;
};

/// Per-call knobs for QueryService::run — the completeness/cost tradeoff the
/// caller picks, instead of picking between two methods.
struct QueryOptions {
  /// complete: every entry is scanned inside the guest, so the result
  ///   provably covers every committed entry (O(state)).
  /// selective: only the matching entries are opened with Merkle inclusion
  ///   proofs — the paper's §4.2 query mechanism. Cheaper
  ///   (O(matches · log n)), but the receipt's QueryMode::selective tells
  ///   the verifier that completeness is not proven.
  QueryMode mode = QueryMode::complete;
  /// When set, replaces the service's construction-time ProveOptions for
  /// this call (e.g. a composite seal for one audit query).
  std::optional<zvm::ProveOptions> prove_options_override;
};

/// Construction-time knobs for QueryService, mirroring AggregationOptions.
struct QueryServiceOptions {
  /// Default ProveOptions for every query; QueryOptions::
  /// prove_options_override still wins per call.
  zvm::ProveOptions prove_options;
};

/// Answer to a heavy-hitters query: exactly one of the two proof shapes,
/// depending on how QueryService routed it.
///
///   used_sketch: a SketchHeavyResponse against the round sketch — flat in
///       the CLog size, complete above the proven Space-Saving floor, each
///       hit bracketed by [count - error, cms_estimate].
///   otherwise: an exact complete-scan QueryResponse counting the flows
///       with packets >= threshold — O(state), no error bound.
struct HeavyHittersResponse {
  bool used_sketch = false;
  std::optional<SketchHeavyResponse> sketch;
  std::optional<QueryResponse> exact;
};

/// Answer to a distinct-flow cardinality query, same routing shape.
struct CardinalityResponse {
  bool used_sketch = false;
  std::optional<SketchCardinalityResponse> sketch;
  std::optional<QueryResponse> exact;  ///< complete-scan match-all count
};

class QueryService {
 public:
  explicit QueryService(const AggregationService& aggregation,
                        QueryServiceOptions options = {})
      : aggregation_(&aggregation),
        prove_options_(std::move(options.prove_options)) {}

  /// Prove a query against the latest aggregated state. options.mode picks
  /// complete-scan vs. selective proving; see QueryOptions.
  Result<QueryResponse> run(const Query& query,
                            const QueryOptions& options = {}) const;

  /// Prove `query` per value of `group_field` in one receipt (GROUP BY).
  /// Always a complete scan, so no group can be omitted: a selective
  /// options.mode is invalid_argument.
  Result<GroupedQueryResponse> grouped(const Query& query, QField group_field,
                                       const QueryOptions& options = {}) const;

  /// Prove the flows with total packets >= threshold. Routes to the round
  /// sketch when the chain carries one, the Space-Saving error bound
  /// satisfies the query (threshold above the provable floor), and the
  /// cost estimator favours it — the sketch path's estimated traced-hash
  /// count below 0.75 of the exact scan's (tiny states hash the sketch for
  /// more than scanning the CLog costs); otherwise falls back to an exact
  /// complete-scan proof.
  Result<HeavyHittersResponse> heavy_hitters(
      u64 threshold, const QueryOptions& options = {}) const;

  /// Prove the number of distinct flows, with the same routing.
  Result<CardinalityResponse> cardinality(
      const QueryOptions& options = {}) const;

 private:
  /// Append the guest input after the round binding for a complete or
  /// selective query against the current state.
  void write_query_body(Writer& w, const Query& query, QueryMode mode) const;
  /// The call's prove options: its override, else the service default.
  const zvm::ProveOptions& prove_options(const QueryOptions& options) const {
    return options.prove_options_override.has_value()
               ? *options.prove_options_override
               : prove_options_;
  }
  /// Traced-hash cost estimate: route to the sketch guest? Shared by both
  /// sketch-backed queries (pick_incremental's twin on the query side).
  bool pick_sketch() const;

  const AggregationService* aggregation_;
  zvm::ProveOptions prove_options_;
};

}  // namespace zkt::core
