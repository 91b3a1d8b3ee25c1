#include "core/commitment.h"

#include "crypto/sha256.h"

namespace zkt::core {

Digest32 Commitment::signing_digest() const {
  Writer w;
  w.str("zkt.commitment.v1");
  FieldWriter walker(w);
  signed_fields(walker, *this);
  return crypto::sha256(w.bytes());
}

Bytes Commitment::to_bytes() const {
  // Sized up front (every field is fixed-width): growing the buffer field
  // by field here draws a false -Warray-bounds/-Wstringop-overflow from
  // GCC 12.
  Writer w;
  w.reserve(4 + 8 + 32 + 8 + 8 + 32 + 64);
  encode(w, *this);
  return std::move(w).take();
}

Result<Commitment> make_commitment(const netflow::RLogBatch& batch,
                                   const crypto::SchnorrKeyPair& key,
                                   u64 published_at_ms) {
  return make_commitment_raw(batch.router_id, batch.window_id, batch.hash(),
                             batch.records.size(), key, published_at_ms);
}

Result<Commitment> make_commitment_raw(u32 router_id, u64 window_id,
                                       const Digest32& payload_hash,
                                       u64 record_count,
                                       const crypto::SchnorrKeyPair& key,
                                       u64 published_at_ms) {
  Commitment c;
  c.router_id = router_id;
  c.window_id = window_id;
  c.rlog_hash = payload_hash;
  c.record_count = record_count;
  c.published_at_ms = published_at_ms;
  c.router_pubkey = key.public_key;
  auto sig = crypto::schnorr_sign(key, c.signing_digest(), {});
  if (!sig.ok()) return sig.error();
  c.signature = sig.value();
  return c;
}

Status verify_commitment(const Commitment& c) {
  return crypto::schnorr_verify(BytesView(c.router_pubkey.data(), 32),
                                c.signing_digest(), c.signature);
}

Status CommitmentBoard::publish(const Commitment& c) {
  ZKT_TRY(verify_commitment(c));
  std::lock_guard<std::mutex> lock(mutex_);
  auto pinned = pinned_keys_.find(c.router_id);
  if (pinned == pinned_keys_.end()) {
    pinned_keys_[c.router_id] = c.router_pubkey;
  } else if (pinned->second != c.router_pubkey) {
    return Error{Errc::signature_invalid,
                 "commitment signed by unregistered key for router " +
                     std::to_string(c.router_id)};
  }
  const auto key = std::make_pair(c.router_id, c.window_id);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.rlog_hash != c.rlog_hash) {
      return Error{Errc::duplicate,
                   "equivocating commitment for router " +
                       std::to_string(c.router_id) + " window " +
                       std::to_string(c.window_id)};
    }
    return {};  // idempotent republish
  }
  entries_.emplace(key, c);
  return {};
}

std::optional<Commitment> CommitmentBoard::get(u32 router_id,
                                               u64 window_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find({router_id, window_id});
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::vector<Commitment> CommitmentBoard::window(u64 window_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Commitment> out;
  for (const auto& [key, c] : entries_) {
    if (key.second == window_id) out.push_back(c);
  }
  return out;
}

std::vector<Commitment> CommitmentBoard::all() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Commitment> out;
  out.reserve(entries_.size());
  for (const auto& [key, c] : entries_) out.push_back(c);
  return out;
}

size_t CommitmentBoard::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void CommitmentBoard::register_router(u32 router_id,
                                      const std::array<u8, 32>& pubkey) {
  std::lock_guard<std::mutex> lock(mutex_);
  pinned_keys_[router_id] = pubkey;
}

}  // namespace zkt::core
