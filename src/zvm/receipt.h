// Receipts: the zvm's verifiable output object, mirroring RISC Zero's
// receipt = (journal, seal) structure.
//
//   Claim    — public statement: which image ran, digests binding the private
//              input and the public journal, cycle count, and any assumptions
//              (inner receipts the guest verified).
//   Seal     — the cryptographic argument. Two kinds:
//                composite: trace Merkle root over leaves of kRowsPerLeaf
//                           rows + Fiat–Shamir-sampled leaf openings (grows
//                           ~ queries × (leaf bytes + log(leaves)));
//                succinct:  constant 256 bytes, simulating the Groth16
//                           wrapping RISC Zero applies to compress composite
//                           receipts (see DESIGN.md for the soundness caveat).
//   Receipt  — claim + journal + seal (+ embedded assumption receipts in
//              composite mode).
#pragma once

#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/digest.h"
#include "crypto/merkle.h"
#include "zvm/op.h"

namespace zkt::zvm {

/// Wire limits of a receipt's lists.
inline constexpr u64 kMaxClaimAssumptions = 4096;
inline constexpr u64 kMaxSegmentOpenings = 65536;
inline constexpr u64 kMaxSegments = 4096;
inline constexpr u64 kMaxAssumptionReceipts = 1024;
/// Deepest chain of nested receipts that decodes (a composite chain of R
/// rounds nests R receipts deep): each receipt takes one field-list level,
/// and the innermost one's composite seal four more (common/codec.h).
inline constexpr u32 kMaxReceiptDepth = kMaxFieldDepth - 4;

struct Assumption {
  Digest32 image_id;
  Digest32 claim_digest;

  template <class V, class Self>
  static void fields(V& v, Self& a) {
    v.field("image_id", a.image_id);
    v.field("claim_digest", a.claim_digest);
  }

  friend bool operator==(const Assumption&, const Assumption&) = default;
};

struct Claim {
  Digest32 image_id;
  Digest32 input_digest;    ///< SHA-256 over the (private) guest input
  Digest32 journal_digest;  ///< SHA-256 over the (public) journal bytes
  u64 cycle_count = 0;      ///< trace rows executed
  std::vector<Assumption> assumptions;

  template <class V, class Self>
  static void fields(V& v, Self& c) {
    v.field("image_id", c.image_id);
    v.field("input_digest", c.input_digest);
    v.field("journal_digest", c.journal_digest);
    v.field("cycle_count", c.cycle_count);
    v.list("assumptions", c.assumptions, kMaxClaimAssumptions);
  }
  void serialize(Writer& w) const { encode(w, *this); }
  static Result<Claim> deserialize(Reader& r) { return decode<Claim>(r); }

  /// Canonical digest binding every claim field.
  Digest32 digest() const;

  friend bool operator==(const Claim&, const Claim&) = default;
};

enum class SealKind : u8 { composite = 1, succinct = 2 };

/// Trace rows under one Merkle leaf. Leaf i of a segment holds rows
/// [kRowsPerLeaf·i, kRowsPerLeaf·(i+1)), its preimage is 0x00 ‖ their
/// encoded bytes back to back, and the segment's last leaf may hold fewer
/// rows. An opening reveals a whole leaf, so the verifier checks every row
/// in it.
inline constexpr u64 kRowsPerLeaf = 8;

/// Leaves of a segment of `rows` rows: ceil(rows / kRowsPerLeaf), for every
/// u64 row count.
constexpr u64 leaves_for_rows(u64 rows) {
  return rows / kRowsPerLeaf + (rows % kRowsPerLeaf != 0);
}

/// One opened trace leaf: its index, the encoded bytes of its rows, and its
/// inclusion proof against the trace root.
struct SealOpening {
  u64 leaf_index = 0;
  Bytes leaf_bytes;
  crypto::MerkleProof proof;

  template <class V, class Self>
  static void fields(V& v, Self& o) {
    v.field("leaf_index", o.leaf_index);
    v.bytes("leaf_bytes", o.leaf_bytes);
    v.field("proof", o.proof);
  }
  void serialize(Writer& w) const { encode(w, *this); }
  static Result<SealOpening> deserialize(Reader& r) {
    return decode<SealOpening>(r);
  }

  friend bool operator==(const SealOpening&, const SealOpening&) = default;
};

/// One trace segment's commitment and openings. Long executions are split
/// into segments (RISC Zero's "continuations"): each segment is Merkle-
/// committed and opened independently, so segments can be proven on
/// parallel workers and memory stays bounded regardless of trace length.
struct SegmentSeal {
  Digest32 trace_root;
  u64 row_count = 0;
  std::vector<SealOpening> openings;

  template <class V, class Self>
  static void fields(V& v, Self& s) {
    v.field("trace_root", s.trace_root);
    v.field("row_count", s.row_count);
    v.list("openings", s.openings, kMaxSegmentOpenings);
  }
  void serialize(Writer& w) const { encode(w, *this); }
  static Result<SegmentSeal> deserialize(Reader& r) {
    return decode<SegmentSeal>(r);
  }

  friend bool operator==(const SegmentSeal&, const SegmentSeal&) = default;
};

struct CompositeSeal {
  std::vector<SegmentSeal> segments;

  /// Rows over all segments; proof_invalid when the counts overflow a u64.
  Result<u64> total_rows() const;

  /// Digest binding every segment root (what the succinct wrapper signs
  /// over and what anchors the Fiat–Shamir challenges across segments).
  Digest32 roots_digest() const;

  template <class V, class Self>
  static void fields(V& v, Self& seal) {
    v.list("segments", seal.segments, kMaxSegments);
    v.check(!seal.segments.empty(), "bad segment count");
  }
  void serialize(Writer& w) const { encode(w, *this); }
  static Result<CompositeSeal> deserialize(Reader& r) {
    return decode<CompositeSeal>(r);
  }

  friend bool operator==(const CompositeSeal&, const CompositeSeal&) = default;
};

/// Fixed-size simulated SNARK seal. Layout:
///   [0,32)    trace root
///   [32,64)   binding = SHA-256("zkt.snark.sim.v1" || claim digest || root)
///   [64,256)  deterministic filler derived from the binding
inline constexpr size_t kSuccinctSealSize = 256;

struct SuccinctSeal {
  std::array<u8, kSuccinctSealSize> bytes{};

  static SuccinctSeal wrap(const Digest32& claim_digest,
                           const Digest32& trace_root);
  Status check(const Digest32& claim_digest) const;

  friend bool operator==(const SuccinctSeal&, const SuccinctSeal&) = default;
};

struct Receipt {
  Claim claim;
  Bytes journal;
  SealKind seal_kind = SealKind::composite;
  CompositeSeal composite;   ///< valid when seal_kind == composite
  SuccinctSeal succinct;     ///< valid when seal_kind == succinct
  /// Inner receipts backing claim.assumptions (composite mode; succinct
  /// wrapping resolves/drops them, as in RISC Zero).
  std::vector<Receipt> assumption_receipts;

  template <class V, class Self>
  static void fields(V& v, Self& r) {
    v.magic("ZKTR1");
    v.field("claim", r.claim);
    v.bytes("journal", r.journal);
    v.field("seal_kind", r.seal_kind);
    v.check(r.seal_kind == SealKind::composite ||
                r.seal_kind == SealKind::succinct,
            "unknown seal kind");
    if (r.seal_kind == SealKind::composite) {
      v.field("composite", r.composite);
      v.list("assumption_receipts", r.assumption_receipts,
             kMaxAssumptionReceipts);
    } else {
      v.field("succinct", r.succinct);
    }
  }
  void serialize(Writer& w) const { encode(w, *this); }
  static Result<Receipt> deserialize(Reader& r) { return decode<Receipt>(r); }
  Bytes to_bytes() const { return encode(*this); }
  static Result<Receipt> from_bytes(BytesView data) {
    return decode<Receipt>(data);
  }

  /// "Proof" size as reported in the paper's Table 1: the constant-size
  /// SNARK proof for succinct seals, or the full seal size for composites.
  size_t proof_size_bytes() const;
  /// Seal size (proof + public trace commitment metadata).
  size_t seal_size_bytes() const;
  /// Full serialized receipt size.
  size_t receipt_size_bytes() const { return to_bytes().size(); }

  /// Field by field, so at least as strict as comparing serialized bytes.
  friend bool operator==(const Receipt&, const Receipt&) = default;
};

}  // namespace zkt::zvm
