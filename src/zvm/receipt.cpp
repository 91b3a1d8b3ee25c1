#include "zvm/receipt.h"

#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace zkt::zvm {

Digest32 Claim::digest() const {
  Writer w;
  w.str("zkt.claim.v1");
  serialize(w);
  return crypto::sha256(w.bytes());
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
