#include "core/guests.h"

#include <algorithm>
#include <bit>
#include <map>

#include "core/sketch_fold.h"
#include "crypto/merkle.h"

namespace zkt::core {

namespace {

using netflow::FlowKey;
using netflow::FlowRecord;
using netflow::RLogBatch;
using zvm::AluOp;
using zvm::Env;

}  // namespace

// ---------------------------------------------------------------------------
// Traced helpers shared by the aggregation guests (full + incremental)

namespace detail {

Status assert_eq_u64(Env& env, u64 a, u64 b, std::string_view context) {
  const u64 eq = env.alu(AluOp::eq, a, b);
  return env.assert_true(eq == 1, context);
}

void merge_traced(Env& env, FlowRecord& into, const FlowRecord& rec) {
  // min(first), max(last) via arithmetic select.
  {
    const u64 lt = env.alu(AluOp::ltu, rec.first_ms, into.first_ms);
    const u64 diff = env.alu(AluOp::sub, rec.first_ms, into.first_ms);
    into.first_ms = env.alu(AluOp::add, into.first_ms,
                            env.alu(AluOp::mul, lt, diff));
    const u64 gt = env.alu(AluOp::ltu, into.last_ms, rec.last_ms);
    const u64 diff2 = env.alu(AluOp::sub, rec.last_ms, into.last_ms);
    into.last_ms = env.alu(AluOp::add, into.last_ms,
                           env.alu(AluOp::mul, gt, diff2));
  }
  into.packets = env.alu(AluOp::add, into.packets, rec.packets);
  into.bytes = env.alu(AluOp::add, into.bytes, rec.bytes);
  into.lost_packets = env.alu(AluOp::add, into.lost_packets, rec.lost_packets);
  into.hop_count_sum = env.alu(AluOp::add, into.hop_count_sum, rec.hop_count_sum);
  into.rtt_sum_us = env.alu(AluOp::add, into.rtt_sum_us, rec.rtt_sum_us);
  into.rtt_count = env.alu(AluOp::add, into.rtt_count, rec.rtt_count);
  {
    const u64 gt = env.alu(AluOp::ltu, into.rtt_max_us, rec.rtt_max_us);
    const u64 diff = env.alu(AluOp::sub, rec.rtt_max_us, into.rtt_max_us);
    into.rtt_max_us = env.alu(AluOp::add, into.rtt_max_us,
                              env.alu(AluOp::mul, gt, diff));
  }
  into.jitter_sum_us = env.alu(AluOp::add, into.jitter_sum_us, rec.jitter_sum_us);
  into.jitter_count = env.alu(AluOp::add, into.jitter_count, rec.jitter_count);
  into.tcp_flags_or = static_cast<u8>(
      env.alu(AluOp::or_, into.tcp_flags_or, rec.tcp_flags_or));
}

Result<std::pair<CommitmentRef, RLogBatch>> read_verified_batch(Env& env) {
  CommitmentRef ref;
  auto rid = env.read_u32();
  if (!rid.ok()) return rid.error();
  ref.router_id = rid.value();
  auto wid = env.read_u64();
  if (!wid.ok()) return wid.error();
  ref.window_id = wid.value();
  auto chash = env.read_digest();
  if (!chash.ok()) return chash.error();
  ref.rlog_hash = chash.value();
  auto rcount = env.read_u64();
  if (!rcount.ok()) return rcount.error();
  ref.record_count = rcount.value();
  auto rlog_bytes = env.read_blob();
  if (!rlog_bytes.ok()) return rlog_bytes.error();

  // The integrity check of Figure 3: recompute H'_i and compare with the
  // published commitment. Tampered logs abort proof generation here.
  env.begin_region("verify_rlog_commitments");
  const Digest32 h = env.sha256(rlog_bytes.value());
  ZKT_TRY(env.assert_eq(h, ref.rlog_hash,
                        "RLog hash vs published commitment"));

  Reader br(rlog_bytes.value());
  auto batch = RLogBatch::deserialize(br);
  if (!batch.ok()) return batch.error();
  if (!br.done()) {
    return Error{Errc::guest_abort, "trailing bytes in RLog batch"};
  }
  ZKT_TRY(assert_eq_u64(env, batch.value().router_id, ref.router_id,
                        "batch router id vs commitment"));
  ZKT_TRY(assert_eq_u64(env, batch.value().window_id, ref.window_id,
                        "batch window id vs commitment"));
  ZKT_TRY(assert_eq_u64(env, batch.value().records.size(), ref.record_count,
                        "batch record count vs commitment"));
  return std::make_pair(ref, std::move(batch.value()));
}

Result<SketchFold> read_sketch_state(Env& env, bool genesis) {
  SketchFold fold;
  auto has = env.read_u8();
  if (!has.ok()) return has.error();
  if (has.value() > 1) {
    return Error{Errc::guest_abort, "bad sketch flag in aggregation input"};
  }
  if (has.value() == 0) return fold;
  fold.enabled = true;

  auto bytes = env.read_blob();
  if (!bytes.ok()) return bytes.error();
  // One traced hash binds the ENTIRE previous sketch; the per-record fold
  // below is the only way its counters legitimately change.
  env.begin_region("sketch_fold");
  fold.prev_digest = env.sha256(bytes.value());
  Reader sr(bytes.value());
  auto sketch = netflow::RoundSketch::deserialize(sr);
  if (!sketch.ok()) return sketch.error();
  if (!sr.done()) {
    return Error{Errc::guest_abort, "trailing bytes in sketch state"};
  }
  fold.sketch = std::move(sketch.value());

  if (genesis) {
    // A chain cannot start from seeded counts: the genesis sketch must be
    // all-zero (the auditor independently pins prev_sketch_digest to the
    // empty sketch's hash, but the in-trace check makes the receipt itself
    // unforgeable on this point).
    bool zero = fold.sketch.total() == 0 &&
                fold.sketch.heavy().size() == 0 &&
                fold.sketch.heavy().total() == 0;
    const auto& cm = fold.sketch.cm();
    for (u32 row = 0; zero && row < cm.params().depth; ++row) {
      zero = cm.nonzero_in_row(row) == 0;
    }
    ZKT_TRY(env.assert_true(zero, "genesis sketch must be empty"));
  }
  return fold;
}

void publish_sketch(Env& env, const SketchFold& fold, AggJournal& journal) {
  if (!fold.enabled) return;
  journal.has_sketch = true;
  journal.sketch_params = fold.sketch.params();
  journal.prev_sketch_digest = fold.prev_digest;
  journal.sketch_digest = sketch_digest_traced(env, fold.sketch);
  journal.sketch_total = fold.sketch.total();
}

Digest32 hash_update_refs(Env& env, const std::vector<UpdateRef>& updates) {
  Writer w;
  w.str("zkt.agg.updates.v1");
  w.varint(updates.size());
  for (const auto& u : updates) {
    w.u64v(u.index);
    w.u8v(u.created ? 1 : 0);
    w.fixed(u.new_leaf.bytes);
  }
  return env.sha256(w.bytes());
}

}  // namespace detail

bool is_aggregation_image(const zvm::ImageID& image) {
  return image == guest_images().aggregate ||
         image == guest_images().aggregate_incremental;
}

const zvm::ImageID& aggregation_image(RoundKind kind) {
  return kind == RoundKind::incremental ? guest_images().aggregate_incremental
                                      : guest_images().aggregate;
}

namespace {

using detail::assert_eq_u64;
using detail::merge_traced;

/// Traced construction of every Merkle level (levels[0] = padded leaves,
/// levels.back() = {root}).
std::vector<std::vector<Digest32>> merkle_levels_traced(
    zvm::Env& env, std::vector<Digest32> leaves) {
  const u64 padded = std::bit_ceil(std::max<u64>(leaves.size(), 1));
  leaves.resize(padded, crypto::MerkleTree::empty_leaf());
  std::vector<std::vector<Digest32>> levels;
  levels.push_back(std::move(leaves));
  while (levels.back().size() > 1) {
    const auto& below = levels.back();
    std::vector<Digest32> above(below.size() / 2);
    for (size_t i = 0; i < above.size(); ++i) {
      above[i] = env.hash_node(below[2 * i], below[2 * i + 1]);
    }
    levels.push_back(std::move(above));
  }
  return levels;
}

/// Algorithm 1, line 16: traced re-verification of one leaf's path against
/// the (already recomputed) tree — the per-record VerifyMerkle(T_prev, f)
/// step whose in-zkVM hashing dominates the paper's aggregation cost.
Status verify_path_traced(zvm::Env& env,
                          const std::vector<std::vector<Digest32>>& levels,
                          u64 index, const Digest32& root) {
  Digest32 acc = levels[0][index];
  u64 idx = index;
  for (size_t level = 0; level + 1 < levels.size(); ++level) {
    const Digest32& sibling = levels[level][idx ^ 1];
    acc = (idx & 1) ? env.hash_node(sibling, acc) : env.hash_node(acc, sibling);
    idx >>= 1;
  }
  return env.assert_eq(acc, root, "per-record Merkle verification");
}

/// True iff `sorted` has an element in [lo, hi).
bool range_has(const std::vector<u64>& sorted, u64 lo, u64 hi) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), lo);
  return it != sorted.end() && *it < hi;
}

/// Traced root computation over the round's final leaves that reuses
/// untouched subtree digests from `prev_levels` (the levels built while
/// verifying the previous state) instead of re-hashing them. A prev node is
/// reusable iff its leaf span lies entirely below `stable_limit` (the first
/// index whose position shifted — below it old index == new index) and
/// contains no in-place-changed leaf. All-padding subtrees cost one traced
/// hash per level instead of one per node. Bit-identical to
/// merkle_root_traced over the same leaves.
Digest32 merkle_root_reuse_traced(
    zvm::Env& env, std::vector<Digest32> leaves,
    const std::vector<std::vector<Digest32>>& prev_levels,
    const std::vector<u64>& changed_in_place, u64 stable_limit) {
  const u64 real = leaves.size();
  const u64 padded = std::bit_ceil(std::max<u64>(real, 1));
  leaves.resize(padded, crypto::MerkleTree::empty_leaf());
  std::vector<Digest32> cur = std::move(leaves);
  Digest32 empty_sub = crypto::MerkleTree::empty_leaf();
  u32 level = 0;
  while (cur.size() > 1) {
    std::vector<Digest32> above(cur.size() / 2);
    const u64 span = 1ULL << (level + 1);
    const Digest32 empty_next = env.hash_node(empty_sub, empty_sub);
    for (size_t j = 0; j < above.size(); ++j) {
      const u64 lo = j * span;
      if (lo >= real) {
        above[j] = empty_next;
        continue;
      }
      const u64 hi = lo + span;
      const bool in_prev = level + 1 < prev_levels.size() &&
                           j < prev_levels[level + 1].size();
      if (in_prev && hi <= stable_limit &&
          !range_has(changed_in_place, lo, hi)) {
        above[j] = prev_levels[level + 1][j];
        continue;
      }
      above[j] = env.hash_node(cur[2 * j], cur[2 * j + 1]);
    }
    cur = std::move(above);
    empty_sub = empty_next;
    ++level;
  }
  return cur[0];
}

}  // namespace

Digest32 merkle_root_traced(zvm::Env& env, std::vector<Digest32> leaves) {
  return merkle_levels_traced(env, std::move(leaves)).back()[0];
}

// ---------------------------------------------------------------------------
// Journal schemas

void write_commitment_ref(Writer& w, const CommitmentRef& ref) {
  w.u8v(static_cast<u8>(ref.kind));
  w.u32v(ref.router_id);
  w.u64v(ref.window_id);
  w.fixed(ref.rlog_hash.bytes);
  w.u64v(ref.record_count);
}

Result<CommitmentRef> parse_commitment_ref(Reader& r) {
  CommitmentRef ref;
  auto kind = r.u8v();
  if (!kind.ok()) return kind.error();
  if (kind.value() != static_cast<u8>(CommitmentKind::rlog)) {
    return Error{Errc::parse_error, "unknown commitment kind"};
  }
  ref.kind = CommitmentKind::rlog;
  auto rid = r.u32v();
  if (!rid.ok()) return rid.error();
  ref.router_id = rid.value();
  auto wid = r.u64v();
  if (!wid.ok()) return wid.error();
  ref.window_id = wid.value();
  ZKT_TRY(r.fixed(ref.rlog_hash.bytes));
  auto rc = r.u64v();
  if (!rc.ok()) return rc.error();
  ref.record_count = rc.value();
  return ref;
}

void AggJournal::write(Writer& w) const {
  w.str(kind == RoundKind::incremental ? "AGGI" : "AGG1");
  w.u8v(has_prev ? 1 : 0);
  w.fixed(prev_claim_digest.bytes);
  w.fixed(prev_root.bytes);
  w.fixed(new_root.bytes);
  w.u64v(prev_entry_count);
  w.u64v(new_entry_count);
  w.varint(commitments.size());
  for (const auto& c : commitments) {
    write_commitment_ref(w, c);
  }
  w.u64v(update_count);
  w.fixed(updates_digest.bytes);
  if (kind == RoundKind::incremental) {
    w.u64v(touched_entries);
    w.u64v(multiproof_siblings);
  }
  w.u8v(has_sketch ? 1 : 0);
  if (has_sketch) {
    w.u32v(sketch_params.cm.width);
    w.u32v(sketch_params.cm.depth);
    w.u64v(sketch_params.cm.seed);
    w.u32v(sketch_params.heavy_capacity);
    w.fixed(prev_sketch_digest.bytes);
    w.fixed(sketch_digest.bytes);
    w.u64v(sketch_total);
  }
}

Result<AggJournal> AggJournal::parse(BytesView journal) {
  Reader r(journal);
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "AGG1" && magic.value() != "AGGI") {
    return Error{Errc::parse_error, "bad aggregation journal magic"};
  }
  AggJournal j;
  j.kind = magic.value() == "AGGI" ? RoundKind::incremental : RoundKind::full;
  auto hp = r.u8v();
  if (!hp.ok()) return hp.error();
  j.has_prev = hp.value() != 0;
  ZKT_TRY(r.fixed(j.prev_claim_digest.bytes));
  ZKT_TRY(r.fixed(j.prev_root.bytes));
  ZKT_TRY(r.fixed(j.new_root.bytes));
  auto pec = r.u64v();
  if (!pec.ok()) return pec.error();
  j.prev_entry_count = pec.value();
  auto nec = r.u64v();
  if (!nec.ok()) return nec.error();
  j.new_entry_count = nec.value();
  auto nc = r.varint();
  if (!nc.ok()) return nc.error();
  if (nc.value() > (1u << 20)) {
    return Error{Errc::parse_error, "too many commitments"};
  }
  j.commitments.resize(nc.value());
  for (auto& c : j.commitments) {
    auto ref = parse_commitment_ref(r);
    if (!ref.ok()) return ref.error();
    c = ref.value();
  }
  auto nu = r.u64v();
  if (!nu.ok()) return nu.error();
  j.update_count = nu.value();
  ZKT_TRY(r.fixed(j.updates_digest.bytes));
  if (j.kind == RoundKind::incremental) {
    auto te = r.u64v();
    if (!te.ok()) return te.error();
    j.touched_entries = te.value();
    auto ms = r.u64v();
    if (!ms.ok()) return ms.error();
    j.multiproof_siblings = ms.value();
  }
  auto hs = r.u8v();
  if (!hs.ok()) return hs.error();
  if (hs.value() > 1) {
    return Error{Errc::parse_error, "bad sketch flag"};
  }
  j.has_sketch = hs.value() != 0;
  if (j.has_sketch) {
    auto width = r.u32v();
    if (!width.ok()) return width.error();
    j.sketch_params.cm.width = width.value();
    auto depth = r.u32v();
    if (!depth.ok()) return depth.error();
    j.sketch_params.cm.depth = depth.value();
    auto seed = r.u64v();
    if (!seed.ok()) return seed.error();
    j.sketch_params.cm.seed = seed.value();
    auto cap = r.u32v();
    if (!cap.ok()) return cap.error();
    j.sketch_params.heavy_capacity = cap.value();
    if (j.sketch_params.cm.width == 0 || j.sketch_params.cm.depth == 0 ||
        j.sketch_params.heavy_capacity == 0) {
      return Error{Errc::parse_error, "degenerate sketch params"};
    }
    ZKT_TRY(r.fixed(j.prev_sketch_digest.bytes));
    ZKT_TRY(r.fixed(j.sketch_digest.bytes));
    auto st = r.u64v();
    if (!st.ok()) return st.error();
    j.sketch_total = st.value();
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing aggregation journal bytes"};
  }
  return j;
}

void QueryJournal::write(Writer& w) const {
  w.str("QRY1");
  w.u8v(static_cast<u8>(mode));
  w.fixed(agg_claim_digest.bytes);
  w.fixed(agg_root.bytes);
  w.u64v(entry_count);
  w.blob(query.to_bytes());
  w.u64v(result.matched);
  w.u64v(result.scanned);
  w.u64v(result.sum);
  w.u64v(result.min);
  w.u64v(result.max);
}

Result<QueryJournal> QueryJournal::parse(BytesView journal) {
  Reader r(journal);
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "QRY1") {
    return Error{Errc::parse_error, "bad query journal magic"};
  }
  QueryJournal j;
  auto mode = r.u8v();
  if (!mode.ok()) return mode.error();
  if (mode.value() > 1) return Error{Errc::parse_error, "bad query mode"};
  j.mode = static_cast<QueryMode>(mode.value());
  ZKT_TRY(r.fixed(j.agg_claim_digest.bytes));
  ZKT_TRY(r.fixed(j.agg_root.bytes));
  auto ec = r.u64v();
  if (!ec.ok()) return ec.error();
  j.entry_count = ec.value();
  auto qb = r.blob();
  if (!qb.ok()) return qb.error();
  auto q = Query::from_bytes(qb.value());
  if (!q.ok()) return q.error();
  j.query = std::move(q.value());
  u64* fields[] = {&j.result.matched, &j.result.scanned, &j.result.sum,
                   &j.result.min, &j.result.max};
  for (u64* f : fields) {
    auto v = r.u64v();
    if (!v.ok()) return v.error();
    *f = v.value();
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing query journal bytes"};
  }
  return j;
}

// ---------------------------------------------------------------------------
// Input framing

Bytes AggregateInput::to_bytes() const {
  Writer w;
  w.u8v(has_prev ? 1 : 0);
  w.fixed(prev_claim_digest.bytes);
  w.u8v(static_cast<u8>(prev_image_kind));
  w.fixed(prev_root.bytes);
  w.u8v(has_sketch ? 1 : 0);
  if (has_sketch) w.blob(prev_sketch);
  write_full_state(w, prev_entries);
  w.u64v(batches.size());
  for (const auto& [ref, rlog] : batches) {
    w.u32v(ref.router_id);
    w.u64v(ref.window_id);
    w.fixed(ref.rlog_hash.bytes);
    w.u64v(ref.record_count);
    w.blob(rlog);
  }
  return std::move(w).take();
}

Bytes DeltaAggregateInput::to_bytes() const {
  Writer w;
  w.fixed(prev_claim_digest.bytes);
  w.u8v(static_cast<u8>(prev_image_kind));
  w.fixed(prev_root.bytes);
  w.u8v(has_sketch ? 1 : 0);
  if (has_sketch) w.blob(prev_sketch);
  w.u64v(prev_entry_count);
  w.u64v(opened.size());
  for (const auto& o : opened) {
    w.u64v(o.index);
    w.blob(o.entry);
  }
  {
    Writer pw;
    proof.serialize(pw);
    w.blob(pw.bytes());
  }
  w.u64v(batches.size());
  for (const auto& [ref, rlog] : batches) {
    w.u32v(ref.router_id);
    w.u64v(ref.window_id);
    w.fixed(ref.rlog_hash.bytes);
    w.u64v(ref.record_count);
    w.blob(rlog);
  }
  return std::move(w).take();
}

void write_full_state(Writer& w, std::span<const CLogEntry> entries) {
  constexpr size_t kSize = CLogEntry::kCanonicalSize;
  static_assert(kSize < 0x80, "an entry's blob length is one varint byte");
  w.reserve(sizeof(u64) + entries.size() * (1 + kSize));
  w.u64v(entries.size());
  for (const CLogEntry& entry : entries) {
    w.varint(kSize);
    entry.serialize(w);
  }
}

void QueryInput::write(Writer& w) const {
  write_full_state(w, entries);
  w.blob(query.to_bytes());
}

void SelectiveQueryInput::write(Writer& w) const {
  w.blob(query.to_bytes());
  w.u64v(opened.size());
  for (const auto& o : opened) {
    w.u64v(o.index);
    w.blob(o.entry);
  }
  if (!opened.empty()) {
    Writer pw;
    proof.serialize(pw);
    w.blob(pw.bytes());
  }
}

// ---------------------------------------------------------------------------
// Aggregation guest (Algorithm 1)

namespace {

/// One working entry of the full-rebuild guest: the record under
/// aggregation plus where it came from in the previous (key-sorted) state.
struct WorkEntry {
  FlowRecord entry;
  u64 old_index = 0;     ///< index in the previous state (when !created)
  bool created = false;  ///< inserted this round (no prev path)
  bool merged = false;   ///< received at least one record this round
};

Status aggregate_guest(Env& env) {
  AggJournal journal;
  journal.kind = RoundKind::full;

  // ---- Parse the head of the input.
  auto has_prev = env.read_u8();
  if (!has_prev.ok()) return has_prev.error();
  journal.has_prev = has_prev.value() != 0;

  auto prev_claim = env.read_digest();
  if (!prev_claim.ok()) return prev_claim.error();
  journal.prev_claim_digest = prev_claim.value();

  auto prev_kind = env.read_u8();
  if (!prev_kind.ok()) return prev_kind.error();
  if (prev_kind.value() > 1) {
    return Error{Errc::guest_abort, "bad previous aggregation kind"};
  }

  auto prev_root = env.read_digest();
  if (!prev_root.ok()) return prev_root.error();
  journal.prev_root = prev_root.value();

  // ---- Step 1 (Algorithm 1): verify the previous aggregation proof. The
  // predecessor may be either aggregation flavour; the claim digest binds
  // the image, so lying about the kind fails the assumption check.
  if (journal.has_prev) {
    ZKT_TRY(env.verify_assumption(
        aggregation_image(static_cast<RoundKind>(prev_kind.value())),
        journal.prev_claim_digest));
  } else {
    ZKT_TRY(env.assert_eq(journal.prev_claim_digest, Digest32{},
                          "genesis round must carry a zero prev claim"));
  }

  // ---- Authenticate the proof-carrying sketch state (when enabled).
  auto sketch_fold = detail::read_sketch_state(env, !journal.has_prev);
  if (!sketch_fold.ok()) return sketch_fold.error();

  // ---- Load and authenticate the previous CLog state.
  auto prev_count = env.read_u64();
  if (!prev_count.ok()) return prev_count.error();
  journal.prev_entry_count = prev_count.value();
  if (!journal.has_prev) {
    ZKT_TRY(assert_eq_u64(env, journal.prev_entry_count, 0,
                          "genesis round starts empty"));
  }

  env.begin_region("verify_prev_state");
  std::vector<WorkEntry> work;
  std::vector<Digest32> leaves;
  work.reserve(journal.prev_entry_count);
  leaves.reserve(journal.prev_entry_count);
  for (u64 i = 0; i < journal.prev_entry_count; ++i) {
    auto bytes = env.read_blob();
    if (!bytes.ok()) return bytes.error();
    leaves.push_back(env.hash_leaf(bytes.value()));
    Reader er(bytes.value());
    auto entry = FlowRecord::deserialize(er);
    if (!entry.ok()) return entry.error();
    if (!er.done()) {
      return Error{Errc::guest_abort, "trailing bytes in CLog entry"};
    }
    // Strictly ascending keys: the sorted order IS the key index (binary
    // search below), and strictness rules out duplicates.
    ZKT_TRY(env.assert_true(
        work.empty() || work.back().entry.key < entry.value().key,
        "previous CLog state must be strictly key-sorted"));
    work.push_back(WorkEntry{std::move(entry.value()), i, false, false});
  }
  const auto prev_levels = merkle_levels_traced(env, leaves);
  ZKT_TRY(env.assert_eq(prev_levels.back()[0], journal.prev_root,
                        "previous CLog state vs committed root"));

  // ---- Step 2: verify authenticity of the raw logs, then Step 3: merge.
  auto n_batches = env.read_u64();
  if (!n_batches.ok()) return n_batches.error();

  // Flows created this round live in a side map instead of being spliced
  // into `work` per record — a sorted-vector insert there re-shuffles O(n)
  // entries per new flow, which turns genesis-shaped rounds quadratic in
  // untraced host time. The traced op sequence is unchanged: prev-state
  // flows verify their path and merge exactly as before, created flows
  // merge with no path, and the side map joins `work` in key order for the
  // rebuild pass below.
  std::map<FlowKey, WorkEntry> created_flows;
  for (u64 b = 0; b < n_batches.value(); ++b) {
    auto batch = detail::read_verified_batch(env);
    if (!batch.ok()) return batch.error();
    journal.commitments.push_back(batch.value().first);

    for (const auto& record : batch.value().second.records) {
      auto it = std::lower_bound(
          work.begin(), work.end(), record.key,
          [](const WorkEntry& w, const FlowKey& k) { return w.entry.key < k; });
      if (it != work.end() && it->entry.key == record.key) {
        // Algorithm 1, lines 15-18: the flow exists in C_prev — verify its
        // Merkle path against T_prev before aggregating into it.
        env.begin_region("per_record_merkle_verify");
        ZKT_TRY(verify_path_traced(env, prev_levels, it->old_index,
                                   journal.prev_root));
        env.begin_region("aggregate_records");
        merge_traced(env, it->entry, record);
        it->merged = true;
      } else if (auto created = created_flows.find(record.key);
                 created != created_flows.end()) {
        // Re-observed flow created earlier this round: no prev path.
        env.begin_region("aggregate_records");
        merge_traced(env, created->second.entry, record);
      } else {
        // New flow, first sighting this round.
        created_flows.emplace(record.key, WorkEntry{record, 0, true, true});
      }
      if (sketch_fold.value().enabled) {
        // Fold the record into the round sketch: depth traced index hashes
        // + saturating counter adds, weighted by the record's packets so
        // estimates cross-check against the exact CLog entry.
        env.begin_region("sketch_fold");
        sketch_fold_record_traced(env, sketch_fold.value().sketch, record.key,
                                  record.packets);
      }
    }
  }

  // ---- Recompute leaves for touched entries and derive the new root,
  // reusing the prev-state subtrees whose leaves did not change or move
  // instead of re-hashing the whole tree a second time. Walk the original
  // entries and this round's created flows as one key-sorted sequence — the
  // same order a direct sorted insert would have produced.
  env.begin_region("rebuild_merkle_tree");
  const u64 new_count = work.size() + created_flows.size();
  std::vector<Digest32> new_leaves(new_count);
  std::vector<UpdateRef> updates;
  std::vector<u64> changed_in_place;
  u64 stable_limit = new_count;  // first index whose position shifted
  auto original = work.begin();
  auto fresh = created_flows.begin();
  for (u64 j = 0; j < new_count; ++j) {
    const bool take_fresh =
        fresh != created_flows.end() &&
        (original == work.end() || fresh->first < original->entry.key);
    const WorkEntry& item = take_fresh ? fresh->second : *original;
    if (take_fresh) {
      ++fresh;
    } else {
      ++original;
    }
    if (item.created && j < stable_limit) stable_limit = j;
    if (item.created || item.merged) {
      new_leaves[j] = env.hash_leaf(item.entry.canonical_bytes());
      updates.push_back(UpdateRef{j, item.created, new_leaves[j]});
      if (!item.created) changed_in_place.push_back(j);
    } else {
      new_leaves[j] = prev_levels[0][item.old_index];
    }
  }
  journal.new_root = merkle_root_reuse_traced(
      env, std::move(new_leaves), prev_levels, changed_in_place, stable_limit);
  env.end_region();
  journal.new_entry_count = new_count;
  journal.update_count = updates.size();
  journal.updates_digest = detail::hash_update_refs(env, updates);

  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in aggregation input"};
  }

  detail::publish_sketch(env, sketch_fold.value(), journal);

  Writer jw;
  journal.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

// ---------------------------------------------------------------------------
// Query guests

}  // namespace

namespace detail {

/// Traced field extraction: the derived fields cost ALU rows, plain loads
/// are free (data movement).
u64 extract_field_traced(Env& env, const FlowRecord& e, QField field) {
  switch (field) {
    case QField::duration_ms:
      return env.alu(AluOp::sub, e.last_ms, e.first_ms);
    case QField::rtt_avg_us:
      return env.alu(AluOp::divu, e.rtt_sum_us, e.rtt_count);
    case QField::jitter_avg_us:
      return env.alu(AluOp::divu, e.jitter_sum_us, e.jitter_count);
    default:
      return extract_field(e, field);
  }
}

namespace {

/// Traced condition evaluation -> 0/1.
u64 eval_condition_traced(Env& env, const Condition& c, const FlowRecord& e) {
  const u64 v = extract_field_traced(env, e, c.field);
  switch (c.op) {
    case CmpOp::eq: return env.alu(AluOp::eq, v, c.value);
    case CmpOp::ne: return env.alu(AluOp::xor_, env.alu(AluOp::eq, v, c.value), 1);
    case CmpOp::lt: return env.alu(AluOp::ltu, v, c.value);
    case CmpOp::le: return env.alu(AluOp::xor_, env.alu(AluOp::ltu, c.value, v), 1);
    case CmpOp::gt: return env.alu(AluOp::ltu, c.value, v);
    case CmpOp::ge: return env.alu(AluOp::xor_, env.alu(AluOp::ltu, v, c.value), 1);
  }
  return 0;
}

}  // namespace

Result<ReceiptBinding> bind_receipt(Env& env,
                                    bool (*image_ok)(const zvm::ImageID&),
                                    std::string_view context) {
  ReceiptBinding binding;
  zvm::Claim& claim = binding.claim;
  auto img = env.read_digest();
  if (!img.ok()) return img.error();
  claim.image_id = img.value();
  auto input_digest = env.read_digest();
  if (!input_digest.ok()) return input_digest.error();
  claim.input_digest = input_digest.value();
  auto journal_digest = env.read_digest();
  if (!journal_digest.ok()) return journal_digest.error();
  claim.journal_digest = journal_digest.value();
  auto cycles = env.read_u64();
  if (!cycles.ok()) return cycles.error();
  claim.cycle_count = cycles.value();
  // The claim arrives in its canonical serialization (varint-counted
  // assumption list), exactly as Claim::serialize produces it.
  auto n_assumptions = env.read_varint();
  if (!n_assumptions.ok()) return n_assumptions.error();
  if (n_assumptions.value() > 4096) {
    return Error{Errc::guest_abort, "too many claim assumptions"};
  }
  claim.assumptions.resize(n_assumptions.value());
  for (auto& a : claim.assumptions) {
    auto aid = env.read_digest();
    if (!aid.ok()) return aid.error();
    a.image_id = aid.value();
    auto acd = env.read_digest();
    if (!acd.ok()) return acd.error();
    a.claim_digest = acd.value();
  }
  ZKT_TRY(env.assert_true(image_ok(claim.image_id), context));

  Writer cw;
  cw.str("zkt.claim.v1");
  claim.serialize(cw);
  binding.claim_digest = env.sha256(cw.bytes());
  ZKT_TRY(env.verify_assumption(claim.image_id, binding.claim_digest));

  auto journal_bytes = env.read_blob();
  if (!journal_bytes.ok()) return journal_bytes.error();
  const Digest32 jd = env.sha256(journal_bytes.value());
  ZKT_TRY(env.assert_eq(jd, claim.journal_digest, "child journal vs claim"));
  binding.journal = std::move(journal_bytes.value());
  return binding;
}

Result<AggBinding> bind_aggregation(Env& env) {
  // Either aggregation flavour is a valid binding target: full and
  // incremental rounds chain interchangeably and publish the same journal
  // schema.
  auto bound = bind_receipt(env, is_aggregation_image,
                            "query must target an aggregation receipt");
  if (!bound.ok()) return bound.error();
  AggBinding binding;
  binding.claim_digest = bound.value().claim_digest;
  auto agg_journal = AggJournal::parse(bound.value().journal);
  if (!agg_journal.ok()) return agg_journal.error();
  binding.journal = std::move(agg_journal.value());
  return binding;
}

Result<Query> read_query(Env& env) {
  auto query_bytes = env.read_blob();
  if (!query_bytes.ok()) return query_bytes.error();
  Reader qr(query_bytes.value());
  return Query::deserialize(qr);
}

Result<std::vector<FlowRecord>> load_full_state(
    Env& env, u64 entry_count, const Digest32& root,
    std::string_view count_context) {
  auto n_entries = env.read_u64();
  if (!n_entries.ok()) return n_entries.error();
  ZKT_TRY(assert_eq_u64(env, n_entries.value(), entry_count, count_context));
  std::vector<FlowRecord> entries;
  std::vector<Digest32> leaves;
  entries.reserve(n_entries.value());
  leaves.reserve(n_entries.value());
  for (u64 i = 0; i < n_entries.value(); ++i) {
    auto bytes = env.read_blob();
    if (!bytes.ok()) return bytes.error();
    leaves.push_back(env.hash_leaf(bytes.value()));
    Reader er(bytes.value());
    auto entry = FlowRecord::deserialize(er);
    if (!entry.ok()) return entry.error();
    entries.push_back(std::move(entry.value()));
  }
  const Digest32 recomputed = merkle_root_traced(env, std::move(leaves));
  ZKT_TRY(env.assert_eq(recomputed, root, "CLog state vs aggregation root"));
  return entries;
}

u64 eval_predicate_traced(Env& env, const Query& query,
                          const FlowRecord& entry) {
  u64 matched = 1;
  for (const auto& clause : query.where) {
    u64 any = 0;
    for (const auto& cond : clause) {
      any = env.alu(AluOp::or_, any, eval_condition_traced(env, cond, entry));
    }
    matched = env.alu(AluOp::and_, matched, any);
  }
  return matched;
}

void select_min_max_traced(Env& env, QueryResult& acc, u64 v,
                           std::optional<u64> mask) {
  // Wrap-safe because take ∈ {0,1}.
  {
    u64 take = env.alu(AluOp::ltu, v, acc.min);
    if (mask.has_value()) take = env.alu(AluOp::and_, *mask, take);
    const u64 diff = env.alu(AluOp::sub, v, acc.min);
    acc.min = env.alu(AluOp::add, acc.min, env.alu(AluOp::mul, take, diff));
  }
  {
    u64 take = env.alu(AluOp::ltu, acc.max, v);
    if (mask.has_value()) take = env.alu(AluOp::and_, *mask, take);
    const u64 diff = env.alu(AluOp::sub, v, acc.max);
    acc.max = env.alu(AluOp::add, acc.max, env.alu(AluOp::mul, take, diff));
  }
}

}  // namespace detail

namespace {

using detail::bind_aggregation;
using detail::extract_field_traced;

Status query_guest(Env& env) {
  auto binding = bind_aggregation(env);
  if (!binding.ok()) return binding.error();

  QueryJournal out;
  out.mode = QueryMode::complete;
  out.agg_claim_digest = binding.value().claim_digest;
  out.agg_root = binding.value().journal.new_root;
  out.entry_count = binding.value().journal.new_entry_count;

  auto entries = detail::load_full_state(
      env, out.entry_count, out.agg_root,
      "query must scan the complete CLog state");
  if (!entries.ok()) return entries.error();
  auto query = detail::read_query(env);
  if (!query.ok()) return query.error();
  out.query = std::move(query.value());
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in query input"};
  }

  // ---- Evaluate over every entry with traced arithmetic.
  QueryResult result;
  result.min = ~0ULL;
  for (const auto& entry : entries.value()) {
    result.scanned = env.alu(AluOp::add, result.scanned, 1);
    const u64 matched = detail::eval_predicate_traced(env, out.query, entry);
    result.matched = env.alu(AluOp::add, result.matched, matched);
    const u64 v = extract_field_traced(env, entry, out.query.agg_field);
    result.sum = env.alu(AluOp::add, result.sum,
                         env.alu(AluOp::mul, matched, v));
    detail::select_min_max_traced(env, result, v, matched);
  }
  out.result = result;

  Writer jw;
  out.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

// Selective query guest (§4.2 of the paper): the prover opens only the
// entries relevant to the query, each authenticated by a Merkle inclusion
// proof against the aggregation root, and proves they all match the
// predicate and aggregate to the result. Cheaper than the complete scan but
// does not prove that no other entry matches (see QueryMode).
Status selective_query_guest(Env& env) {
  auto binding = bind_aggregation(env);
  if (!binding.ok()) return binding.error();

  QueryJournal out;
  out.mode = QueryMode::selective;
  out.agg_claim_digest = binding.value().claim_digest;
  out.agg_root = binding.value().journal.new_root;
  out.entry_count = binding.value().journal.new_entry_count;

  auto query = detail::read_query(env);
  if (!query.ok()) return query.error();
  out.query = std::move(query.value());

  auto n_opened = env.read_u64();
  if (!n_opened.ok()) return n_opened.error();
  ZKT_TRY(env.assert_true(n_opened.value() <= out.entry_count,
                          "cannot open more entries than exist"));

  QueryResult result;
  result.min = ~0ULL;
  std::vector<std::pair<u64, Digest32>> opened_leaves;
  std::vector<FlowRecord> opened_entries;
  opened_leaves.reserve(n_opened.value());
  opened_entries.reserve(n_opened.value());
  for (u64 i = 0; i < n_opened.value(); ++i) {
    auto index = env.read_u64();
    if (!index.ok()) return index.error();
    auto entry_bytes = env.read_blob();
    if (!entry_bytes.ok()) return entry_bytes.error();
    ZKT_TRY(env.assert_true(index.value() < out.entry_count,
                            "opened index out of range"));
    opened_leaves.emplace_back(index.value(),
                               env.hash_leaf(entry_bytes.value()));
    Reader er(entry_bytes.value());
    auto entry = FlowRecord::deserialize(er);
    if (!entry.ok()) return entry.error();
    opened_entries.push_back(std::move(entry.value()));
  }

  if (n_opened.value() > 0) {
    // One batch inclusion proof for every opened entry. Strict index
    // ascension inside the check also rules out double counting.
    auto proof_bytes = env.read_blob();
    if (!proof_bytes.ok()) return proof_bytes.error();
    Reader pr(proof_bytes.value());
    auto proof = crypto::MerkleMultiProof::deserialize(pr);
    if (!proof.ok()) return proof.error();
    ZKT_TRY(assert_eq_u64(env, proof.value().leaf_count, out.entry_count,
                          "proof leaf count vs state size"));
    ZKT_TRY(env.verify_merkle_multi(out.agg_root, opened_leaves,
                                    proof.value()));
  }
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in selective query input"};
  }

  for (const auto& entry : opened_entries) {
    // Every opened entry must satisfy the predicate (the prover cannot
    // smuggle non-matching entries into the aggregate).
    const u64 matched = detail::eval_predicate_traced(env, out.query, entry);
    ZKT_TRY(env.assert_true(matched == 1, "opened entry must match query"));

    result.matched = env.alu(AluOp::add, result.matched, 1);
    result.scanned = env.alu(AluOp::add, result.scanned, 1);
    const u64 v = extract_field_traced(env, entry, out.query.agg_field);
    result.sum = env.alu(AluOp::add, result.sum, v);
    detail::select_min_max_traced(env, result, v, std::nullopt);
  }
  out.result = result;

  Writer jw;
  out.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

}  // namespace

const GuestImages& guest_images() {
  static const GuestImages images = [] {
    GuestImages g;
    g.aggregate =
        zvm::ImageRegistry::instance().add("zkt.guest.aggregate", 1,
                                           aggregate_guest);
    g.aggregate_incremental = zvm::ImageRegistry::instance().add(
        "zkt.guest.aggregate_incremental", 1,
        detail::aggregate_incremental_guest);
    g.query = zvm::ImageRegistry::instance().add("zkt.guest.query", 1,
                                                 query_guest);
    g.query_selective = zvm::ImageRegistry::instance().add(
        "zkt.guest.query_selective", 1, selective_query_guest);
    return g;
  }();
  return images;
}

}  // namespace zkt::core
