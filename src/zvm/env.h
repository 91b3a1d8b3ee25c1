// Env — the guest's window onto the zkVM, mirroring RISC Zero's guest env:
//
//   env::read / env::commit        -> Env::read_* / Env::commit_*
//   SHA-256 accelerator            -> Env::sha256 (one trace row per
//                                     compression call)
//   env::verify (assumptions)      -> Env::verify_assumption
//
// Every provable operation records one trace row, once, as its encoded
// bytes (zvm/op.h), into a log cut into segments of max_segment_rows rows.
// Each segment goes to the segment sink the moment it fills, so the prover
// can Merkle-commit it while the guest keeps executing; the whole trace is
// what the prover commits to and the verifier samples. Reads consume the
// private input stream (already bound to the claim by traced hashing);
// commits append to the public journal.
//
// Segment buffers outlive their Env: a destroyed Env gives its segments'
// buffers to a process-wide free list (at most kMaxFreeSegmentBuffers), and
// every segment an Env opens takes one from there, cleared, before it
// allocates. A proof then writes its rows into memory earlier proofs
// already mapped instead of faulting in a fresh reservation per segment.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/merkle.h"
#include "zvm/op.h"
#include "zvm/receipt.h"

namespace zkt::zvm {

/// Rows per trace segment unless the prover asks for another size
/// (ProveOptions::max_segment_rows).
constexpr u64 kDefaultSegmentRows = 1ULL << 14;

/// Segment buffers the free list keeps for later Envs: every segment of a
/// 50k-entry complete scan (74 at kDefaultSegmentRows) comes back, and the
/// list never holds more than ≈180 MB of reservations (2.2 MB each).
constexpr size_t kMaxFreeSegmentBuffers = 80;

/// Segment buffers waiting in the free list for the next Env.
size_t free_segment_buffers();

/// One continuation segment of the trace: its rows' encoded bytes back to
/// back, and where each row ends.
struct TraceSegment {
  Bytes bytes;
  std::vector<u64> ends;

  u64 rows() const { return ends.size(); }
  /// Encoded bytes of row `index` (< rows()).
  BytesView row(u64 index) const {
    const u64 begin = index == 0 ? 0 : ends[index - 1];
    return BytesView(bytes.data() + begin, ends[index] - begin);
  }
  /// Encoded bytes of the rows under trace leaf `index` (see kRowsPerLeaf),
  /// read in place: rows [kRowsPerLeaf·index, min(kRowsPerLeaf·(index+1),
  /// rows())), which must not be empty.
  BytesView leaf(u64 index) const {
    const u64 first = index * kRowsPerLeaf;
    const u64 last = std::min(first + kRowsPerLeaf, rows());
    const u64 begin = first == 0 ? 0 : ends[first - 1];
    return BytesView(bytes.data() + begin, ends[last - 1] - begin);
  }
};

class Env {
 public:
  /// Called once per segment, in trace order, the moment it holds
  /// max_segment_rows rows. A full segment is never written again and never
  /// moves while its Env lives, so the sink may hand it to another thread.
  using SegmentSink = std::function<void(const TraceSegment&)>;

  /// Host-side: construct over the guest input and the receipts backing any
  /// assumptions the guest will make. The trace is cut into segments of
  /// `max_segment_rows` rows (at least 1).
  Env(BytesView input, std::span<const Receipt> assumption_receipts,
      u64 max_segment_rows = kDefaultSegmentRows);
  // The input reader views input_, and the sink hands full segments to
  // other threads: an Env stays where it was built.
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  /// Gives every segment's buffers to the free list, so whoever reads the
  /// segments on other threads must be done first.
  ~Env();

  // ---- Input (private) ----
  Result<u8> read_u8();
  Result<u32> read_u32();
  Result<u64> read_u64();
  Result<u64> read_varint();
  Result<Bytes> read_blob();
  Result<Digest32> read_digest();
  size_t input_remaining() const;

  // ---- Journal (public output) ----
  void commit_u64(u64 v);
  void commit_blob(BytesView data);
  void commit_digest(const Digest32& d);
  void commit_string(std::string_view s);
  /// Append pre-framed bytes verbatim (for canonical journal structs).
  void commit_raw(BytesView data);
  const Bytes& journal() const { return journal_.bytes(); }

  // ---- Provable computation ----
  /// SHA-256 with traced compression rows.
  Digest32 sha256(BytesView data);
  /// Traced Merkle node hash (domain-separated pair hash).
  Digest32 hash_node(const Digest32& left, const Digest32& right);
  /// Traced Merkle leaf hash.
  Digest32 hash_leaf(BytesView data);
  /// Traced ALU operation.
  u64 alu(AluOp op, u64 a, u64 b);
  /// Traced assertion; returns guest_abort if cond is false.
  Status assert_true(bool cond, std::string_view context);
  /// Traced digest equality assertion.
  Status assert_eq(const Digest32& a, const Digest32& b,
                   std::string_view context);
  /// Traced Merkle inclusion verification (lowering to hash + assert rows).
  Status verify_merkle(const Digest32& root, const Digest32& leaf,
                       const crypto::MerkleProof& proof);
  /// Traced batch inclusion verification (shared-path multiproof); `leaves`
  /// must be (index, digest) pairs sorted strictly ascending by index.
  Status verify_merkle_multi(
      const Digest32& root,
      std::span<const std::pair<u64, Digest32>> leaves,
      const crypto::MerkleMultiProof& proof);
  /// Record that this guest relies on an inner receipt with the given image
  /// and claim digest. The host must have supplied a matching (already
  /// proven) receipt, else this fails.
  Status verify_assumption(const Digest32& image_id,
                           const Digest32& claim_digest);

  /// Trace rows executed so far (the zvm's cycle counter).
  u64 cycles() const { return cycles_; }
  /// Of those, SHA-256 compression rows.
  u64 sha_rows() const { return sha_rows_; }
  /// Segments opened on a buffer from the free list, and on a new one.
  u64 segment_buffers_reused() const { return buffers_reused_; }
  u64 segment_buffers_fresh() const {
    return segments_.size() - buffers_reused_;
  }

  // ---- Profiling regions (host-side metadata, not part of the proof) ----
  /// Attribute subsequent cycles to a named region until end_region().
  /// Regions may repeat (cycles accumulate) but do not nest. This is how
  /// the guests expose the per-phase cost breakdown the paper profiles
  /// ("the majority of overhead stems from Merkle tree updates").
  void begin_region(std::string_view name);
  void end_region();
  /// Accumulated (region name -> cycles), in first-seen order.
  const std::vector<std::pair<std::string, u64>>& region_cycles() const {
    return regions_;
  }

  // ---- Host-side hooks (used by the Prover) ----
  /// Hash the full input with traced rows and a bind row; returns the digest.
  Digest32 bind_input();
  /// Hash the journal with traced rows and a bind row; returns the digest.
  Digest32 bind_journal();
  const std::vector<Assumption>& assumptions() const { return assumptions_; }
  /// Install the sink full segments go to (see SegmentSink).
  void set_segment_sink(SegmentSink sink) { sink_ = std::move(sink); }

  // ---- Trace log ----
  /// The trace so far, in order; every segment but the last is full.
  const std::deque<TraceSegment>& segments() const { return segments_; }
  /// Encoded bytes of trace row `index` (< cycles()).
  BytesView row(u64 index) const {
    return segments_[index / max_segment_rows_].row(index % max_segment_rows_);
  }

 private:
  /// Open the next segment on a cleared buffer, from the free list when it
  /// has one, with room for a full segment of the largest rows.
  void open_segment();
  /// Append one encoded row to the open segment; hands the segment to the
  /// sink when it fills.
  void record(const EncodedRow& row);
  /// SHA-256 of (tag byte, if any) || a || b, one traced row per
  /// compression, without materializing the concatenation.
  Digest32 traced_sha256(std::optional<u8> tag, BytesView a, BytesView b);

  Bytes input_;
  Reader reader_;
  Writer journal_;
  u64 max_segment_rows_;
  std::deque<TraceSegment> segments_;  // deque: full segments never move
  SegmentSink sink_;
  u64 cycles_ = 0;
  u64 sha_rows_ = 0;
  u64 buffers_reused_ = 0;
  std::vector<Assumption> assumptions_;
  std::span<const Receipt> assumption_receipts_;
  std::vector<std::pair<std::string, u64>> regions_;
  std::optional<std::pair<std::string, u64>> open_region_;  // (name, start)
};

}  // namespace zkt::zvm
