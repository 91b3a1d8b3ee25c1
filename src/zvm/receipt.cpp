#include "zvm/receipt.h"

#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace zkt::zvm {

void Claim::serialize(Writer& w) const {
  w.fixed(image_id.bytes);
  w.fixed(input_digest.bytes);
  w.fixed(journal_digest.bytes);
  w.u64v(cycle_count);
  w.varint(assumptions.size());
  for (const auto& a : assumptions) {
    w.fixed(a.image_id.bytes);
    w.fixed(a.claim_digest.bytes);
  }
}

Result<Claim> Claim::deserialize(Reader& r) {
  Claim c;
  ZKT_TRY(r.fixed(c.image_id.bytes));
  ZKT_TRY(r.fixed(c.input_digest.bytes));
  ZKT_TRY(r.fixed(c.journal_digest.bytes));
  auto cycles = r.u64v();
  if (!cycles.ok()) return cycles.error();
  c.cycle_count = cycles.value();
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() > 4096) return Error{Errc::parse_error, "too many assumptions"};
  c.assumptions.resize(n.value());
  for (auto& a : c.assumptions) {
    ZKT_TRY(r.fixed(a.image_id.bytes));
    ZKT_TRY(r.fixed(a.claim_digest.bytes));
  }
  return c;
}

Digest32 Claim::digest() const {
  Writer w;
  w.str("zkt.claim.v1");
  serialize(w);
  return crypto::sha256(w.bytes());
}

void SealOpening::serialize(Writer& w) const {
  w.u64v(leaf_index);
  w.blob(leaf_bytes);
  proof.serialize(w);
}

Result<SealOpening> SealOpening::deserialize(Reader& r) {
  SealOpening o;
  auto idx = r.u64v();
  if (!idx.ok()) return idx.error();
  o.leaf_index = idx.value();
  auto lb = r.blob();
  if (!lb.ok()) return lb.error();
  o.leaf_bytes = std::move(lb.value());
  auto p = crypto::MerkleProof::deserialize(r);
  if (!p.ok()) return p.error();
  o.proof = std::move(p.value());
  return o;
}

void SegmentSeal::serialize(Writer& w) const {
  w.fixed(trace_root.bytes);
  w.u64v(row_count);
  w.varint(openings.size());
  for (const auto& o : openings) o.serialize(w);
}

Result<SegmentSeal> SegmentSeal::deserialize(Reader& r) {
  SegmentSeal s;
  ZKT_TRY(r.fixed(s.trace_root.bytes));
  auto rc = r.u64v();
  if (!rc.ok()) return rc.error();
  s.row_count = rc.value();
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() > 65536) return Error{Errc::parse_error, "too many openings"};
  s.openings.resize(n.value());
  for (auto& o : s.openings) {
    auto parsed = SealOpening::deserialize(r);
    if (!parsed.ok()) return parsed.error();
    o = std::move(parsed.value());
  }
  return s;
}

Result<u64> CompositeSeal::total_rows() const {
  u64 total = 0;
  for (const auto& s : segments) {
    if (s.row_count > ~total) {
      return Error{Errc::proof_invalid, "trace row counts overflow"};
    }
    total += s.row_count;
  }
  return total;
}

Digest32 CompositeSeal::roots_digest() const {
  crypto::Sha256 h;
  h.update("zkt.seal.roots.v1");
  const u64 count = segments.size();
  h.update(as_bytes_view(count));
  for (const auto& s : segments) {
    h.update(s.trace_root.view());
    h.update(as_bytes_view(s.row_count));
  }
  return h.finalize();
}

void CompositeSeal::serialize(Writer& w) const {
  w.varint(segments.size());
  for (const auto& s : segments) s.serialize(w);
}

Result<CompositeSeal> CompositeSeal::deserialize(Reader& r) {
  CompositeSeal seal;
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() == 0 || n.value() > 4096) {
    return Error{Errc::parse_error, "bad segment count"};
  }
  seal.segments.resize(n.value());
  for (auto& s : seal.segments) {
    auto parsed = SegmentSeal::deserialize(r);
    if (!parsed.ok()) return parsed.error();
    s = std::move(parsed.value());
  }
  return seal;
}

SuccinctSeal SuccinctSeal::wrap(const Digest32& claim_digest,
                                const Digest32& trace_root) {
  SuccinctSeal seal;
  std::copy(trace_root.bytes.begin(), trace_root.bytes.end(),
            seal.bytes.begin());

  crypto::Sha256 h;
  h.update("zkt.snark.sim.v1");
  h.update(claim_digest.view());
  h.update(trace_root.view());
  const Digest32 binding = h.finalize();
  std::copy(binding.bytes.begin(), binding.bytes.end(),
            seal.bytes.begin() + 32);

  crypto::ChaChaDrbg drbg(binding.view());
  drbg.fill(std::span<u8>(seal.bytes.data() + 64, kSuccinctSealSize - 64));
  return seal;
}

Status SuccinctSeal::check(const Digest32& claim_digest) const {
  Digest32 trace_root;
  std::copy(bytes.begin(), bytes.begin() + 32, trace_root.bytes.begin());
  const SuccinctSeal expect = wrap(claim_digest, trace_root);
  if (!ct_equal(BytesView(bytes.data(), bytes.size()),
                BytesView(expect.bytes.data(), expect.bytes.size()))) {
    return Error{Errc::proof_invalid, "succinct seal binding mismatch"};
  }
  return {};
}

void Receipt::serialize(Writer& w) const {
  w.str("ZKTR1");
  claim.serialize(w);
  w.blob(journal);
  w.u8v(static_cast<u8>(seal_kind));
  if (seal_kind == SealKind::composite) {
    composite.serialize(w);
    w.varint(assumption_receipts.size());
    for (const auto& inner : assumption_receipts) inner.serialize(w);
  } else {
    w.raw(BytesView(succinct.bytes.data(), succinct.bytes.size()));
  }
}

Result<Receipt> Receipt::deserialize(Reader& r) {
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "ZKTR1") {
    return Error{Errc::parse_error, "bad receipt magic"};
  }
  Receipt out;
  auto c = Claim::deserialize(r);
  if (!c.ok()) return c.error();
  out.claim = std::move(c.value());
  auto j = r.blob();
  if (!j.ok()) return j.error();
  out.journal = std::move(j.value());
  auto kind = r.u8v();
  if (!kind.ok()) return kind.error();
  if (kind.value() == static_cast<u8>(SealKind::composite)) {
    out.seal_kind = SealKind::composite;
    auto s = CompositeSeal::deserialize(r);
    if (!s.ok()) return s.error();
    out.composite = std::move(s.value());
    auto n = r.varint();
    if (!n.ok()) return n.error();
    if (n.value() > 1024) {
      return Error{Errc::parse_error, "too many assumption receipts"};
    }
    out.assumption_receipts.reserve(n.value());
    for (u64 i = 0; i < n.value(); ++i) {
      auto inner = Receipt::deserialize(r);
      if (!inner.ok()) return inner.error();
      out.assumption_receipts.push_back(std::move(inner.value()));
    }
  } else if (kind.value() == static_cast<u8>(SealKind::succinct)) {
    out.seal_kind = SealKind::succinct;
    auto raw = r.raw(kSuccinctSealSize);
    if (!raw.ok()) return raw.error();
    std::copy(raw.value().begin(), raw.value().end(),
              out.succinct.bytes.begin());
  } else {
    return Error{Errc::parse_error, "unknown seal kind"};
  }
  return out;
}

Bytes Receipt::to_bytes() const {
  Writer w;
  serialize(w);
  return std::move(w).take();
}

Result<Receipt> Receipt::from_bytes(BytesView data) {
  Reader r(data);
  auto out = deserialize(r);
  if (!out.ok()) return out.error();
  if (!r.done()) return Error{Errc::parse_error, "trailing receipt bytes"};
  return out;
}

size_t Receipt::proof_size_bytes() const {
  return seal_kind == SealKind::succinct ? kSuccinctSealSize
                                         : seal_size_bytes();
}

size_t Receipt::seal_size_bytes() const {
  if (seal_kind == SealKind::succinct) return kSuccinctSealSize;
  Writer w;
  composite.serialize(w);
  return w.size();
}

}  // namespace zkt::zvm
