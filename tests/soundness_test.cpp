// Empirical soundness of the spot-check argument: a cheating prover who
// corrupts exactly one trace row escapes detection only if none of the
// Fiat–Shamir openings land on that row — probability ~ (1 - 1/n)^k for n
// rows and k openings. These tests build genuinely cheating receipts (bad
// row committed in the trace tree, honestly derived openings) and measure
// the detection rate, checking it tracks the analytical bound.
//
// This is the quantitative justification for the verifier's min_queries
// policy and for DESIGN.md's "demo-grade soundness" caveat.
#include <gtest/gtest.h>

#include "crypto/merkle.h"
#include "zvm/env.h"
#include "zvm/image.h"
#include "zvm/prover.h"
#include "zvm/verifier.h"

namespace zkt::zvm {
namespace {

using crypto::Digest32;

// A guest with a wide, flat trace: n ALU rows.
Status wide_guest(Env& env) {
  auto n = env.read_u64();
  if (!n.ok()) return n.error();
  u64 acc = 0;
  for (u64 i = 0; i < n.value(); ++i) {
    acc = env.alu(AluOp::add, acc, i);
  }
  env.commit_u64(acc);
  return {};
}

ImageID wide_image() {
  static const ImageID id =
      ImageRegistry::instance().add("test.wide", 1, wide_guest);
  return id;
}

/// Build a receipt whose trace has one corrupted ALU row (wrong result),
/// committed and opened exactly as an honest prover would — the cheating
/// strategy the FS openings exist to catch. `salt` varies the claim so each
/// receipt gets fresh challenge indices.
Receipt make_cheating_receipt(u64 rows, u32 num_queries, u64 bad_row,
                              u64 salt) {
  Writer input;
  input.u64v(rows);
  input.u64v(salt);  // consumed? no — extra input only changes input digest

  // Execute honestly.
  Env env(input.bytes(), {});
  Claim claim;
  claim.image_id = wide_image();
  claim.input_digest = env.bind_input();
  // Replicate wide_guest without the trailing-input check.
  u64 acc = 0;
  for (u64 i = 0; i < rows; ++i) acc = env.alu(AluOp::add, acc, i);
  env.commit_u64(acc);
  claim.journal_digest = env.bind_journal();
  claim.cycle_count = env.cycles();

  // Decode the recorded rows, then corrupt one ALU row's result.
  std::vector<Bytes> row_bytes;
  std::vector<Digest32> leaves;
  u64 seen_alu = 0;
  for (u64 i = 0; i < env.cycles(); ++i) {
    Reader r(env.row(i));
    auto row = TraceRow::deserialize(r);
    if (!row.ok()) {
      ADD_FAILURE() << "row " << i << ": " << row.error().to_string();
      return {};
    }
    TraceRow copy = row.value();
    if (auto* alu = std::get_if<RowAlu>(&copy.op)) {
      if (seen_alu++ == bad_row) {
        alu->c += 1;  // the lie
      }
    }
    Writer w;
    copy.serialize(w);
    row_bytes.push_back(std::move(w).take());
    leaves.push_back(crypto::MerkleTree::hash_leaf(row_bytes.back()));
  }
  crypto::MerkleTree tree(leaves);

  Receipt receipt;
  receipt.claim = claim;
  receipt.journal = env.journal();
  receipt.seal_kind = SealKind::composite;
  SegmentSeal segment;
  segment.trace_root = tree.root();
  segment.row_count = row_bytes.size();
  receipt.composite.segments.push_back(segment);

  const auto indices = derive_query_indices(
      claim.digest(), receipt.composite.roots_digest(), 0, tree.root(),
      row_bytes.size(), num_queries);
  for (u64 idx : indices) {
    SealOpening opening;
    opening.row_index = idx;
    opening.row_bytes = row_bytes[idx];
    opening.proof = tree.prove(idx);
    receipt.composite.segments[0].openings.push_back(std::move(opening));
  }
  return receipt;
}

TEST(Soundness, HonestReceiptStillVerifies) {
  Prover prover;
  Verifier verifier;
  Writer input;
  input.u64v(50);
  ProveOptions options;
  options.seal_kind = SealKind::composite;
  auto receipt = prover.prove(wide_image(), input.bytes(), options);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(verifier.verify(receipt.value(), wide_image()).ok());
}

TEST(Soundness, DetectionRateTracksAnalyticalBound) {
  // ~60 total rows (50 ALU + hashing/bind rows); with k openings, escape
  // probability ≈ prod_{i<k} (1 - 1/(n-i)). Check low-k detection is in the
  // right band and that k = n detects always.
  constexpr u64 kAluRows = 50;
  constexpr int kTrials = 120;

  struct Band {
    u32 queries;
    double min_rate;
    double max_rate;
  };
  // Total rows = kAluRows + ~7 overhead rows (input/journal hash + binds).
  // Expected detection = 1 - (1 - k/n) roughly; generous bands.
  const Band bands[] = {
      {2, 0.005, 0.20},    // ≈ 2/57 ≈ 3.5%
      {16, 0.12, 0.50},    // ≈ 25%
      {40, 0.45, 0.90},    // ≈ 70%
  };
  Verifier lenient(0);  // accept any opening count; we control k exactly

  for (const auto& band : bands) {
    int detected = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const u64 bad_row = static_cast<u64>(trial) % kAluRows;
      const auto receipt = make_cheating_receipt(kAluRows, band.queries,
                                                 bad_row, trial * 7919);
      if (!lenient.verify(receipt, wide_image()).ok()) ++detected;
    }
    const double rate = static_cast<double>(detected) / kTrials;
    EXPECT_GE(rate, band.min_rate) << "k=" << band.queries;
    EXPECT_LE(rate, band.max_rate) << "k=" << band.queries;
  }
}

TEST(Soundness, FullOpeningAlwaysDetects) {
  Verifier lenient(0);
  for (int trial = 0; trial < 10; ++trial) {
    const auto receipt =
        make_cheating_receipt(30, 1000, trial % 30, trial * 104729);
    EXPECT_FALSE(lenient.verify(receipt, wide_image()).ok()) << trial;
  }
}

TEST(Soundness, DefaultPolicyRejectsUnderOpenedSeals) {
  // A cheating prover who simply omits openings is stopped by the
  // min_queries floor regardless of luck.
  const auto receipt = make_cheating_receipt(50, 2, 0, 1);
  Verifier strict;  // default min_queries = 32
  EXPECT_FALSE(strict.verify(receipt, wide_image()).ok());
}

}  // namespace
}  // namespace zkt::zvm
