// Trace rows: the zvm's unit of provable computation.
//
// A guest execution is recorded as an ordered list of rows. Each row is
// *independently checkable*: given only the row's bytes, a verifier can
// recompute its semantics (e.g. rerun the SHA-256 compression function or the
// ALU op). The prover Merkle-commits to all rows and opens Fiat–Shamir-chosen
// ones; this mirrors how a STARK-based zkVM commits to its execution trace
// and convinces the verifier that sampled constraints hold.
//
// Row kinds:
//   sha256_compress — (state_in, block) -> state_out; the workhorse. All
//       guest hashing (input binding, Merkle checks, journal binding) lowers
//       to these, mirroring RISC Zero's SHA-256 accelerator circuit.
//   alu             — 64-bit arithmetic/logic with a recomputable result.
//   assert_true     — a condition the guest required to be nonzero.
//   assert_eq_digest— equality of two 32-byte digests.
//   bind_digest     — ties a computed digest to a claim field (input digest
//       or journal digest), so the trace is anchored to the public claim.
//   assume          — the guest verified an inner receipt (image id + claim
//       digest); mirrors RISC Zero's env::verify / assumption mechanism.
#pragma once

#include <variant>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/digest.h"
#include "crypto/sha256.h"

namespace zkt::zvm {

using crypto::Digest32;

enum class OpKind : u8 {
  sha256_compress = 1,
  alu = 2,
  assert_true = 3,
  assert_eq_digest = 4,
  bind_digest = 5,
  assume = 6,
};

enum class AluOp : u8 {
  add = 1,
  sub,
  mul,
  divu,  // division by zero yields 0 (deterministic rule, checked by verifier)
  remu,  // remainder by zero yields the dividend
  and_,
  or_,
  xor_,
  shl,   // shift amount taken mod 64
  shr,
  eq,    // 1 if equal else 0
  ltu,   // unsigned less-than
};

/// Evaluate an ALU op under the zvm's deterministic semantics.
u64 alu_eval(AluOp op, u64 a, u64 b);

/// Which claim field a bind_digest row anchors to.
enum class BindTarget : u8 { input = 1, journal = 2 };

struct RowSha256 {
  crypto::Sha256State state_in;
  std::array<u8, 64> block;
  crypto::Sha256State state_out;
};

struct RowAlu {
  AluOp op;
  u64 a, b, c;
};

struct RowAssert {
  u64 cond;
  Digest32 context;  ///< hash of the guest's assertion message
};

struct RowAssertEqDigest {
  Digest32 a, b;
};

struct RowBindDigest {
  BindTarget target;
  Digest32 computed;
};

struct RowAssume {
  Digest32 image_id;
  Digest32 claim_digest;
};

/// One row's encoding: its kind byte, then its fields, little-endian. A trace
/// leaf's preimage, and what an opening carries, is these bytes of its
/// kRowsPerLeaf rows back to back (zvm/receipt.h).
struct EncodedRow {
  /// The largest row kind, sha256_compress: 1 + 32 + 64 + 32 bytes.
  static constexpr size_t kMaxBytes = 129;

  // Not zeroed: every traced row passes through one of these, and clearing
  // all 129 bytes per row took about a sixth of a complete scan's time
  // (docs/PERFORMANCE.md). Only the `size` bytes encode_row writes are read.
  std::array<u8, kMaxBytes> bytes;
  size_t size = 0;

  BytesView view() const { return BytesView(bytes.data(), size); }
};

/// The byte layout of each row kind, defined once: Env records these bytes
/// straight into its trace log, and TraceRow::serialize writes the same.
EncodedRow encode_row(const RowSha256& row);
EncodedRow encode_row(const RowAlu& row);
EncodedRow encode_row(const RowAssert& row);
EncodedRow encode_row(const RowAssertEqDigest& row);
EncodedRow encode_row(const RowBindDigest& row);
EncodedRow encode_row(const RowAssume& row);

struct TraceRow {
  std::variant<RowSha256, RowAlu, RowAssert, RowAssertEqDigest, RowBindDigest,
               RowAssume>
      op;

  OpKind kind() const;
  void serialize(Writer& w) const;
  static Result<TraceRow> deserialize(Reader& r);

  /// Digest of a trace leaf holding this row alone: hash_leaf of its
  /// encoding.
  Digest32 leaf_digest() const;

  /// Recheck this row's internal semantics (recompute hash/ALU, check
  /// asserted conditions). bind/assume rows are checked against the claim by
  /// the verifier separately.
  Status check() const;
};

}  // namespace zkt::zvm
