// Per-router hash commitments and the public bulletin board.
//
// Every commitment window (5 s in the paper's evaluation), each router
// computes H_i = SHA-256 over its RLog batch and publishes (router, window,
// H_i, record count), signed with the router's Schnorr key. The board is the
// paper's "published hashes" (Figure 1): any later modification of the RLogs
// is detectable because aggregation re-hashes the raw logs inside the zkVM
// and asserts equality with these published values.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/digest.h"
#include "crypto/schnorr.h"
#include "netflow/record.h"

namespace zkt::core {

using crypto::Digest32;

struct Commitment {
  u32 router_id = 0;
  u64 window_id = 0;
  Digest32 rlog_hash;
  u64 record_count = 0;
  u64 published_at_ms = 0;
  std::array<u8, 32> router_pubkey{};
  crypto::SchnorrSignature signature;

  /// Every field the router signs: all but the signature.
  template <class V, class Self>
  static void signed_fields(V& v, Self& c) {
    v.field("router_id", c.router_id);
    v.field("window_id", c.window_id);
    v.field("rlog_hash", c.rlog_hash);
    v.field("record_count", c.record_count);
    v.field("published_at_ms", c.published_at_ms);
    v.field("router_pubkey", c.router_pubkey);
  }
  template <class V, class Self>
  static void fields(V& v, Self& c) {
    signed_fields(v, c);
    v.field("signature", c.signature);
  }

  /// The digest the router signs: a domain tag, then signed_fields.
  Digest32 signing_digest() const;

  void serialize(Writer& w) const { encode(w, *this); }
  static Result<Commitment> deserialize(Reader& r) {
    return decode<Commitment>(r);
  }
  Bytes to_bytes() const;
};

/// Create and sign a commitment over an RLog batch.
Result<Commitment> make_commitment(const netflow::RLogBatch& batch,
                                   const crypto::SchnorrKeyPair& key,
                                   u64 published_at_ms);

/// Create and sign a commitment over an arbitrary payload hash (e.g. a
/// per-window Count-Min sketch); `record_count` carries the payload's item
/// count (sketch updates, records, ...).
Result<Commitment> make_commitment_raw(u32 router_id, u64 window_id,
                                       const Digest32& payload_hash,
                                       u64 record_count,
                                       const crypto::SchnorrKeyPair& key,
                                       u64 published_at_ms);

/// Verify a commitment's signature.
Status verify_commitment(const Commitment& c);

/// Append-only public bulletin board of commitments. Thread-safe. Publishing
/// twice for the same (router, window) with a different hash is rejected —
/// equivocation is the attack this board exists to prevent.
class CommitmentBoard {
 public:
  /// Validates the signature, then records the commitment.
  Status publish(const Commitment& c);

  std::optional<Commitment> get(u32 router_id, u64 window_id) const;
  std::vector<Commitment> window(u64 window_id) const;
  std::vector<Commitment> all() const;
  size_t size() const;

  /// Pin a router's public key; subsequent commitments from this router id
  /// must be signed by it (first-use pinning otherwise).
  void register_router(u32 router_id, const std::array<u8, 32>& pubkey);

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<u32, u64>, Commitment> entries_;
  std::map<u32, std::array<u8, 32>> pinned_keys_;
};

}  // namespace zkt::core
