#include "zvm/env.h"

#include <algorithm>
#include <mutex>

#include "crypto/sha256.h"

namespace zkt::zvm {

namespace {

/// The buffers of finished segments, waiting for the next segment any Env
/// opens.
struct SegmentFreeList {
  std::mutex mutex;
  // zkt-lint: guarded_by(mutex) Envs on any thread take and give back
  std::vector<TraceSegment> buffers;
};

SegmentFreeList& free_list() {
  static SegmentFreeList list;
  return list;
}

}  // namespace

size_t free_segment_buffers() {
  SegmentFreeList& list = free_list();
  std::lock_guard<std::mutex> lock(list.mutex);
  return list.buffers.size();
}

Env::Env(BytesView input, std::span<const Receipt> assumption_receipts,
         u64 max_segment_rows)
    : input_(input.begin(), input.end()),
      reader_(BytesView(input_.data(), input_.size())),
      max_segment_rows_(std::max<u64>(max_segment_rows, 1)),
      assumption_receipts_(assumption_receipts) {
  open_segment();
}

Env::~Env() {
  SegmentFreeList& list = free_list();
  std::lock_guard<std::mutex> lock(list.mutex);
  for (TraceSegment& segment : segments_) {
    if (list.buffers.size() == kMaxFreeSegmentBuffers) break;
    list.buffers.push_back(std::move(segment));
  }
}

Result<u8> Env::read_u8() { return reader_.u8v(); }
Result<u32> Env::read_u32() { return reader_.u32v(); }
Result<u64> Env::read_u64() { return reader_.u64v(); }
Result<u64> Env::read_varint() { return reader_.varint(); }
Result<Bytes> Env::read_blob() { return reader_.blob(); }

Result<Digest32> Env::read_digest() {
  Digest32 d;
  ZKT_TRY(reader_.fixed(d.bytes));
  return d;
}

size_t Env::input_remaining() const { return reader_.remaining(); }

void Env::commit_u64(u64 v) { journal_.u64v(v); }
void Env::commit_blob(BytesView data) { journal_.blob(data); }
void Env::commit_digest(const Digest32& d) { journal_.fixed(d.bytes); }
void Env::commit_string(std::string_view s) { journal_.str(s); }
void Env::commit_raw(BytesView data) { journal_.raw(data); }

void Env::open_segment() {
  TraceSegment& segment = segments_.emplace_back();
  {
    SegmentFreeList& list = free_list();
    std::lock_guard<std::mutex> lock(list.mutex);
    if (!list.buffers.empty()) {
      segment = std::move(list.buffers.back());
      list.buffers.pop_back();
      ++buffers_reused_;
    }
  }
  segment.bytes.clear();
  segment.ends.clear();
  segment.bytes.reserve(max_segment_rows_ * EncodedRow::kMaxBytes);
  segment.ends.reserve(max_segment_rows_);
}

void Env::record(const EncodedRow& row) {
  if (segments_.back().rows() == max_segment_rows_) open_segment();
  TraceSegment& segment = segments_.back();
  const BytesView bytes = row.view();
  segment.bytes.insert(segment.bytes.end(), bytes.begin(), bytes.end());
  segment.ends.push_back(segment.bytes.size());
  ++cycles_;
  if (segment.rows() == max_segment_rows_ && sink_) sink_(segment);
}

Digest32 Env::traced_sha256(std::optional<u8> tag, BytesView a,
                            BytesView b) {
  // Lay (tag || a || b) into 64-byte blocks with FIPS 180-4 padding,
  // recording one compression row per block.
  crypto::Sha256State state = crypto::Sha256State::initial();
  RowSha256 row{};
  size_t filled = 0;
  auto compress = [&] {
    row.state_in = state;
    state = crypto::sha256_compress(state, row.block);
    row.state_out = state;
    record(encode_row(row));
    ++sha_rows_;
    filled = 0;
  };
  auto absorb_bytes = [&](BytesView data) {
    while (!data.empty()) {
      const size_t take = std::min(row.block.size() - filled, data.size());
      std::copy_n(data.begin(), take, row.block.begin() + filled);
      filled += take;
      data = data.subspan(take);
      if (filled == row.block.size()) compress();
    }
  };
  if (tag.has_value()) absorb_bytes(BytesView(&*tag, 1));
  absorb_bytes(a);
  absorb_bytes(b);

  const u64 bit_len = (u64{tag.has_value()} + a.size() + b.size()) * 8;
  row.block[filled++] = 0x80;
  if (filled > 56) {
    std::fill(row.block.begin() + filled, row.block.end(), u8{0});
    compress();
  }
  std::fill(row.block.begin() + filled, row.block.begin() + 56, u8{0});
  for (int i = 0; i < 8; ++i) {
    row.block[56 + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  compress();
  return state.to_digest();
}

Digest32 Env::sha256(BytesView data) {
  return traced_sha256(std::nullopt, data, {});
}

Digest32 Env::hash_node(const Digest32& left, const Digest32& right) {
  return traced_sha256(u8{0x01}, left.view(), right.view());
}

Digest32 Env::hash_leaf(BytesView data) {
  return traced_sha256(u8{0x00}, data, {});
}

u64 Env::alu(AluOp op, u64 a, u64 b) {
  const RowAlu row{op, a, b, alu_eval(op, a, b)};
  record(encode_row(row));
  return row.c;
}

Status Env::assert_true(bool cond, std::string_view context) {
  RowAssert row;
  row.cond = cond ? 1 : 0;
  row.context = crypto::sha256(context);
  record(encode_row(row));
  if (!cond) {
    return Error{Errc::guest_abort, std::string("assertion failed: ") +
                                        std::string(context)};
  }
  return {};
}

Status Env::assert_eq(const Digest32& a, const Digest32& b,
                      std::string_view context) {
  record(encode_row(RowAssertEqDigest{a, b}));
  if (a != b) {
    return Error{Errc::guest_abort,
                 std::string("digest mismatch: ") + std::string(context)};
  }
  return {};
}

Status Env::verify_merkle(const Digest32& root, const Digest32& leaf,
                          const crypto::MerkleProof& proof) {
  // Same layout rules as crypto::MerkleTree::verify, but every hash and the
  // final comparison are traced so the check is part of the proven execution.
  auto depth = crypto::MerkleTree::depth_for(proof.leaf_count);
  if (!depth.ok()) return assert_true(false, "merkle leaf count range");
  const u32 expect_depth = depth.value();
  const u64 padded = u64{1} << expect_depth;
  ZKT_TRY(assert_true(proof.siblings.size() == expect_depth,
                      "merkle proof depth"));
  ZKT_TRY(assert_true(proof.leaf_index < padded, "merkle leaf index range"));
  Digest32 acc = leaf;
  u64 idx = proof.leaf_index;
  for (const auto& sibling : proof.siblings) {
    acc = (idx & 1) ? hash_node(sibling, acc) : hash_node(acc, sibling);
    idx >>= 1;
  }
  return assert_eq(acc, root, "merkle root");
}

Status Env::verify_merkle_multi(
    const Digest32& root, std::span<const std::pair<u64, Digest32>> leaves,
    const crypto::MerkleMultiProof& proof) {
  // Mirrors crypto::MerkleTree::verify_multi with traced hashing, so batch
  // openings are part of the proven execution.
  ZKT_TRY(assert_true(leaves.size() == proof.indices.size(),
                      "multiproof leaf count"));
  auto proof_depth = crypto::MerkleTree::depth_for(proof.leaf_count);
  if (!proof_depth.ok()) {
    return assert_true(false, "multiproof leaf count range");
  }
  const u32 depth = proof_depth.value();
  const u64 padded = u64{1} << depth;
  ZKT_TRY(assert_true(!leaves.empty(), "multiproof must open something"));
  for (size_t i = 0; i < leaves.size(); ++i) {
    ZKT_TRY(assert_true(leaves[i].first == proof.indices[i],
                        "multiproof index alignment"));
    ZKT_TRY(assert_true(i == 0 || leaves[i].first > leaves[i - 1].first,
                        "multiproof indices ascending"));
    ZKT_TRY(assert_true(leaves[i].first < padded, "multiproof index range"));
  }

  std::vector<std::pair<u64, Digest32>> known(leaves.begin(), leaves.end());
  size_t next_sibling = 0;
  for (u32 level = 0; level < depth; ++level) {
    std::vector<std::pair<u64, Digest32>> parents;
    for (size_t i = 0; i < known.size(); ++i) {
      const u64 idx = known[i].first;
      const u64 sibling_idx = idx ^ 1;
      if (i + 1 < known.size() && known[i + 1].first == sibling_idx) {
        parents.emplace_back(idx >> 1,
                             hash_node(known[i].second, known[i + 1].second));
        ++i;
        continue;
      }
      ZKT_TRY(assert_true(next_sibling < proof.siblings.size(),
                          "multiproof sibling supply"));
      const Digest32& sibling = proof.siblings[next_sibling++];
      parents.emplace_back(idx >> 1,
                           (idx & 1) ? hash_node(sibling, known[i].second)
                                     : hash_node(known[i].second, sibling));
    }
    known = std::move(parents);
  }
  ZKT_TRY(assert_true(next_sibling == proof.siblings.size(),
                      "multiproof siblings all consumed"));
  ZKT_TRY(assert_true(known.size() == 1, "multiproof converges to root"));
  return assert_eq(known[0].second, root, "multiproof root");
}

Status Env::verify_assumption(const Digest32& image_id,
                              const Digest32& claim_digest) {
  for (const auto& receipt : assumption_receipts_) {
    if (receipt.claim.image_id == image_id &&
        receipt.claim.digest() == claim_digest) {
      record(encode_row(RowAssume{image_id, claim_digest}));
      assumptions_.push_back(Assumption{image_id, claim_digest});
      return {};
    }
  }
  return Error{Errc::proof_invalid,
               "no receipt supplied for required assumption"};
}

void Env::begin_region(std::string_view name) {
  end_region();
  open_region_ = std::make_pair(std::string(name), cycles());
}

void Env::end_region() {
  if (!open_region_.has_value()) return;
  const u64 spent = cycles() - open_region_->second;
  for (auto& [name, total] : regions_) {
    if (name == open_region_->first) {
      total += spent;
      open_region_.reset();
      return;
    }
  }
  regions_.emplace_back(std::move(open_region_->first), spent);
  open_region_.reset();
}

Digest32 Env::bind_input() {
  const Digest32 d = sha256(BytesView(input_.data(), input_.size()));
  record(encode_row(RowBindDigest{BindTarget::input, d}));
  return d;
}

Digest32 Env::bind_journal() {
  const Digest32 d = sha256(journal_.bytes());
  record(encode_row(RowBindDigest{BindTarget::journal, d}));
  return d;
}

}  // namespace zkt::zvm
