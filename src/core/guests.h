// The zkVM guest programs of the paper's system, plus the host-side
// input builders and journal schemas they share with verifiers.
//
//   aggregate guest — Algorithm 1: verify the previous round's proof
//       (assumption), verify every RLog hash against its published
//       commitment, verify the previous CLog state against the previous
//       Merkle root, merge the new records, rebuild the Merkle tree, and
//       publish (prev_root -> new_root, commitments used, entry updates) in
//       the journal. Cost: O(N) traced hashes per round.
//
//   aggregate_incremental guest — the delta variant: its input is only the
//       k CLog entries a round touches plus one deduplicated Merkle
//       multiproof authenticating them against prev_root. It verifies the
//       multiproof, merges records, and recomputes only the touched
//       root-paths (reusing the proof's untouched sibling digests) to
//       derive new_root — O(k log N) traced hashes. New flows insert at
//       their key-sorted position, proven fresh by an adjacency
//       (non-membership) check against the opened neighbors. Chains
//       interchangeably with the full guest (see RoundKind).
//
//   query guest — bind to an aggregation receipt's claim, re-authenticate
//       the full CLog state against that round's root, evaluate the query
//       predicate over EVERY entry (completeness), aggregate with traced
//       arithmetic, and publish (claim, root, query, result) in the journal.
//
// Journal layouts are canonical Writer/Reader structs so host, guest and
// clients cannot disagree about framing.
#pragma once

#include <optional>

#include "core/clog.h"
#include "core/query.h"
#include "netflow/sketch.h"
#include "zvm/env.h"
#include "zvm/image.h"
#include "zvm/prover.h"

namespace zkt::core {

struct GuestImages {
  zvm::ImageID aggregate;              ///< full-rebuild round (Algorithm 1)
  zvm::ImageID aggregate_incremental;  ///< delta round (multiproof-based)
  zvm::ImageID query;            ///< complete-scan query (proves completeness)
  zvm::ImageID query_selective;  ///< paper-style selective query (§4.2)
};

/// Registers all guests (idempotent) and returns their image IDs.
const GuestImages& guest_images();

/// Which aggregation guest produced a round.
enum class RoundKind : u8 {
  full = 0,         ///< full-state rebuild (zkt.guest.aggregate)
  incremental = 1,  ///< delta round (zkt.guest.aggregate_incremental)
};

/// True iff `image` is one of the two aggregation guest images. Rounds of
/// either kind chain interchangeably; verifiers accept both.
bool is_aggregation_image(const zvm::ImageID& image);

/// The image that corresponds to an RoundKind.
const zvm::ImageID& aggregation_image(RoundKind kind);

// ---------------------------------------------------------------------------
// Aggregation

/// What a serialized CommitmentRef commits to. Only router RLog batches
/// exist today; the serialized form still carries the tag byte (every
/// AGG1/AGGI, JOIN1 and EPSEAL1 journal includes it), so another commitment
/// space could be added without two kinds ever parsing as each other.
enum class CommitmentKind : u8 {
  rlog = 0,  ///< hash of a router's canonical RLogBatch bytes
};

/// Reference to one committed batch consumed by a round. The `kind` field
/// defaults to rlog and sits last so positional initializers predating the
/// tag keep working.
struct CommitmentRef {
  u32 router_id = 0;
  u64 window_id = 0;
  Digest32 rlog_hash;  ///< hash of the batch's canonical bytes
  u64 record_count = 0;
  CommitmentKind kind = CommitmentKind::rlog;

  friend bool operator==(const CommitmentRef&, const CommitmentRef&) = default;
};

/// Canonical serialized form of a CommitmentRef, kind tag included. Every
/// journal that embeds commitment references uses these (AGG1/AGGI, JOIN1,
/// EPSEAL1; EPOCH1 hashes them into its commitments digest); parse rejects
/// any tag other than rlog with parse_error "unknown commitment kind".
void write_commitment_ref(Writer& w, const CommitmentRef& ref);
Result<CommitmentRef> parse_commitment_ref(Reader& r);

/// One CLog entry touched by a round (public part: index + new leaf digest).
struct UpdateRef {
  u64 index = 0;
  bool created = false;
  Digest32 new_leaf;

  friend bool operator==(const UpdateRef&, const UpdateRef&) = default;
};

/// Public journal of an aggregation round. Both aggregation guests commit
/// this schema ("AGG1" magic for full rounds, "AGGI" for incremental ones —
/// the incremental form carries two extra delta-shape stats); parse()
/// accepts either, so auditors and query guests handle mixed chains
/// uniformly.
struct AggJournal {
  RoundKind kind = RoundKind::full;
  bool has_prev = false;
  Digest32 prev_claim_digest;  ///< zero when has_prev is false
  Digest32 prev_root;
  Digest32 new_root;
  u64 prev_entry_count = 0;
  u64 new_entry_count = 0;
  std::vector<CommitmentRef> commitments;
  // The touched-entry list is committed by digest, not carried inline: a
  // round touches O(N) entries, and every downstream guest that binds to
  // this journal re-hashes its bytes in-trace. Inlining the list made that
  // binding — and therefore every sketch/exact query proof — grow with N.
  // The digest keeps the journal constant-size while still committing to
  // the full ordered list (hash_update_refs), so an auditor holding the
  // list out-of-band can check it against the claim.
  u64 update_count = 0;     ///< entries touched this round
  Digest32 updates_digest;  ///< hash_update_refs over the ordered list
  // Delta-shape stats, only serialized for incremental rounds.
  u64 touched_entries = 0;      ///< opened prev entries (k)
  u64 multiproof_siblings = 0;  ///< deduplicated sibling digests shipped
  // Proof-carrying sketch state (DESIGN.md §10): when the round folds its
  // records into a committed RoundSketch, the journal chains its digest
  // exactly like the Merkle root (prev digest -> new digest) and publishes
  // the parameters so verifiers can check continuity without the bytes.
  bool has_sketch = false;
  netflow::SketchParams sketch_params;
  Digest32 prev_sketch_digest;  ///< hash of the empty sketch at genesis
  Digest32 sketch_digest;       ///< hash of the round's folded sketch bytes
  u64 sketch_total = 0;         ///< folded sketch total after this round

  void write(Writer& w) const;
  static Result<AggJournal> parse(BytesView journal);
};

/// Host-side input to the full-rebuild aggregation guest.
struct AggregateInput {
  bool has_prev = false;
  Digest32 prev_claim_digest;
  /// Which guest produced the previous round (selects the assumption image;
  /// ignored when has_prev is false).
  RoundKind prev_image_kind = RoundKind::full;
  Digest32 prev_root;  ///< empty-tree root when has_prev is false
  /// The previous CLog state's entries, in key-sorted index order (written
  /// by write_full_state; they must outlive to_bytes()).
  std::span<const CLogEntry> prev_entries;
  /// Proof-carrying sketch state: when set, `prev_sketch` holds the
  /// previous round's canonical RoundSketch bytes (the empty sketch at
  /// genesis); the guest hashes them, folds every record in, and publishes
  /// prev/new sketch digests in the journal.
  bool has_sketch = false;
  Bytes prev_sketch;
  /// (commitment metadata, serialized RLogBatch bytes), in aggregation order.
  std::vector<std::pair<CommitmentRef, Bytes>> batches;

  Bytes to_bytes() const;
};

/// Host-side input to the incremental (delta) aggregation guest: only the
/// entries the round touches — merge targets plus the adjacency neighbors
/// that prove new keys absent plus the shifted suffix of any insertion
/// cascade — authenticated together by ONE deduplicated Merkle multiproof
/// against prev_root. The proof additionally opens the empty slots
/// [prev_entry_count, prev_entry_count + new_flows) that inserts will
/// occupy, so the guest can derive new_root from the same shared siblings.
struct DeltaAggregateInput {
  Digest32 prev_claim_digest;
  RoundKind prev_image_kind = RoundKind::full;
  Digest32 prev_root;
  u64 prev_entry_count = 0;
  struct OpenedEntry {
    u64 index = 0;  ///< index in the previous (key-sorted) state
    Bytes entry;    ///< canonical CLog entry bytes
  };
  /// Strictly ascending by index (hence also by flow key).
  std::vector<OpenedEntry> opened;
  /// Batch proof for opened indices ∪ the new-flow slots. When the round
  /// grows tree capacity, the proof is generated against a grown copy
  /// (MerkleTree::grow_capacity) but leaf_count stays prev_entry_count.
  crypto::MerkleMultiProof proof;
  /// Previous round's sketch bytes (same contract as AggregateInput).
  bool has_sketch = false;
  Bytes prev_sketch;
  /// (commitment metadata, serialized RLogBatch bytes), in aggregation order.
  std::vector<std::pair<CommitmentRef, Bytes>> batches;

  Bytes to_bytes() const;
};

// ---------------------------------------------------------------------------
// Query

/// How a query proof covered the CLog state.
enum class QueryMode : u8 {
  /// Every entry was scanned inside the guest; the result is complete (no
  /// matching entry can have been omitted). Costs O(state size).
  complete = 0,
  /// Only prover-selected entries were opened with Merkle inclusion proofs,
  /// as §4.2 of the paper describes. Sound for what it proves ("these
  /// committed entries aggregate to X") but does NOT prove that no other
  /// entry matches — cheaper, O(matches · log n).
  selective = 1,
};

/// Public journal of a query proof.
struct QueryJournal {
  QueryMode mode = QueryMode::complete;
  Digest32 agg_claim_digest;  ///< aggregation receipt this query ran against
  Digest32 agg_root;
  u64 entry_count = 0;
  Query query;
  QueryResult result;

  void write(Writer& w) const;
  static Result<QueryJournal> parse(BytesView journal);
};

/// The entries section of the complete-scan, grouped and full-rebuild
/// guests' input, written straight from the entries: their count, then
/// each entry's canonical bytes as a blob (what load_full_state reads).
void write_full_state(Writer& w, std::span<const CLogEntry> entries);

/// Host-side input to the complete-scan query guest: the bytes that follow
/// the bound round's claim and journal (see prove_on_round).
struct QueryInput {
  std::span<const CLogEntry> entries;  ///< full CLog state, in index order
  Query query;

  void write(Writer& w) const;
};

/// Host-side input to the selective query guest: only the matching entries,
/// authenticated together by ONE Merkle multiproof against the aggregation
/// root (shared path prefixes deduplicated — far cheaper than per-entry
/// proofs when matches cluster or are numerous). Like QueryInput, the bytes
/// that follow the bound round's claim and journal.
struct SelectiveQueryInput {
  struct OpenedEntry {
    u64 index = 0;
    Bytes entry;  ///< canonical CLog entry bytes
  };
  /// Must be strictly ascending by index.
  std::vector<OpenedEntry> opened;
  /// Batch inclusion proof for exactly the opened indices (ignored when
  /// `opened` is empty).
  crypto::MerkleMultiProof proof;
  Query query;

  void write(Writer& w) const;
};

/// The one proving step of every query guest bound to an aggregation round
/// (complete, selective, grouped, sketch heavy-hitters and cardinality): the
/// guest input is `round`'s claim and journal — what
/// detail::bind_aggregation reads back — followed by what
/// `write_body(Writer&)` appends, in the same buffer; `round` rides as the
/// assumption that binding resolves; the journal is parsed into
/// Response::journal. Response is one of the {receipt, journal, prove_info}
/// response structs.
template <class Response, class WriteBody>
Result<Response> prove_on_round(const zvm::ImageID& image,
                                const zvm::Receipt& round,
                                const WriteBody& write_body,
                                const zvm::ProveOptions& options) {
  Writer input;
  round.claim.serialize(input);
  input.blob(round.journal);
  write_body(input);
  zvm::ProveOptions prove = options;
  prove.assumptions.push_back(round);

  Response response;
  auto receipt = zvm::Prover{}.prove(image, input.bytes(), prove,
                                     &response.prove_info);
  if (!receipt.ok()) return receipt.error();
  auto journal =
      decltype(response.journal)::parse(receipt.value().journal);
  if (!journal.ok()) return journal.error();
  response.receipt = std::move(receipt.value());
  response.journal = std::move(journal.value());
  return response;
}

/// Traced Merkle-root computation over leaf digests (pads to a power of two
/// with the empty leaf, like crypto::MerkleTree). Exposed for tests.
Digest32 merkle_root_traced(zvm::Env& env, std::vector<Digest32> leaves);

namespace detail {
/// One child receipt bound inside a recursive guest: its claim (read from
/// the input stream in Claim::serialize framing), the traced claim digest,
/// and the authenticated journal bytes.
struct ReceiptBinding {
  zvm::Claim claim;
  Digest32 claim_digest;
  Bytes journal;
};

/// Shared head of every receipt-consuming guest (queries, chain summaries,
/// join folds): read one (claim, journal) pair from the input stream,
/// assert `image_ok(claim.image_id)` (aborting with `context`), recompute
/// the claim digest with traced hashing, require a verified receipt for it
/// (assumption), and authenticate the journal bytes against the claim —
/// i.e. everything a round verifier does, inside the trace.
Result<ReceiptBinding> bind_receipt(zvm::Env& env,
                                    bool (*image_ok)(const zvm::ImageID&),
                                    std::string_view context);

/// bind_receipt specialized to aggregation receipts (either kind), with the
/// journal parsed. Shared head of every query-flavoured guest.
struct AggBinding {
  Digest32 claim_digest;
  AggJournal journal;
};
Result<AggBinding> bind_aggregation(zvm::Env& env);

/// The incremental aggregation guest body (defined in
/// guests_incremental.cpp, registered by guest_images()).
Status aggregate_incremental_guest(zvm::Env& env);

/// Traced u64 equality assertion shared by the aggregation guests.
Status assert_eq_u64(zvm::Env& env, u64 a, u64 b, std::string_view context);

/// Traced merge of a raw record into a CLog entry: one ALU row per counter,
/// so aggregation cost scales with record count like the paper's in-zkVM
/// aggregation does.
void merge_traced(zvm::Env& env, netflow::FlowRecord& into,
                  const netflow::FlowRecord& rec);

/// Read one committed RLog batch from the input stream and verify it
/// against its published commitment with traced hashing (the integrity
/// check of Figure 3) — shared by both aggregation guests.
Result<std::pair<CommitmentRef, netflow::RLogBatch>> read_verified_batch(
    zvm::Env& env);

/// The proof-carrying sketch state both aggregation guests thread through
/// a round: the previous sketch (authenticated by its traced digest) and
/// the fold target the per-record updates mutate.
struct SketchFold {
  bool enabled = false;
  Digest32 prev_digest;
  netflow::RoundSketch sketch;
};

/// Read the round's sketch section from the input stream (u8 has_sketch
/// [+ blob prev_sketch_bytes]): traced-hash the previous bytes into
/// prev_digest and deserialize the fold target. At genesis the previous
/// sketch must be empty (zero total, zero counters, no tracked keys) —
/// asserted in-trace so a chain cannot start from seeded counts.
Result<SketchFold> read_sketch_state(zvm::Env& env, bool genesis);

/// Publish the folded sketch into the journal: traced digest over the new
/// canonical bytes plus params/total/prev-digest fields.
void publish_sketch(zvm::Env& env, const SketchFold& fold,
                    AggJournal& journal);

/// Traced commitment to a round's ordered touched-entry list (domain
/// "zkt.agg.updates.v1" || count || per-entry index/created/leaf). Both
/// aggregation guests call this once per round; the journal carries only
/// the digest so downstream journal bindings stay O(1) in N.
Digest32 hash_update_refs(zvm::Env& env, const std::vector<UpdateRef>& updates);

/// Traced field extraction used by the query guests.
u64 extract_field_traced(zvm::Env& env, const netflow::FlowRecord& e,
                         QField field);

// The blocks the three CLog query guests (complete, selective, grouped)
// share. Each guest keeps its own input order and assert contexts, which
// the trace hashes, so the helpers take them as arguments.

/// Read the query blob.
Result<Query> read_query(zvm::Env& env);

/// Read and authenticate the full CLog state of the bound round: an entry
/// count (asserted equal to `entry_count` under `count_context`), then that
/// many entry blobs, leaf-hashed and checked against `root` as one traced
/// Merkle tree. Returns the entries in index order.
Result<std::vector<netflow::FlowRecord>> load_full_state(
    zvm::Env& env, u64 entry_count, const Digest32& root,
    std::string_view count_context);

/// Traced CNF evaluation of the query's predicate over one entry (0/1).
u64 eval_predicate_traced(zvm::Env& env, const Query& query,
                          const netflow::FlowRecord& entry);

/// Fold `v` into acc.min/acc.max by arithmetic select. With `mask` (0/1) a
/// non-matching entry leaves both unchanged; the complete scan, which
/// walks every entry, passes its match bit here.
void select_min_max_traced(zvm::Env& env, QueryResult& acc, u64 v,
                           std::optional<u64> mask);
}  // namespace detail

}  // namespace zkt::core
