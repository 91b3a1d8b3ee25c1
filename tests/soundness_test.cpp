// Empirical soundness of the spot-check argument: a cheating prover who
// corrupts exactly one trace row escapes detection only if none of the
// Fiat–Shamir openings land on the leaf holding that row — probability
// (1 - k/L) for L leaves of kRowsPerLeaf rows and k distinct openings.
// These tests build genuinely cheating receipts (bad row committed in the
// trace tree, honestly derived openings) and measure the detection rate,
// checking it tracks the analytical bound.
//
// This is the quantitative justification for the verifier's min_queries
// policy and for DESIGN.md's "demo-grade soundness" caveat.
#include <gtest/gtest.h>

#include <set>

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

/// A cheating receipt, and where its one corrupted row sits.
struct Cheat {
  Receipt receipt;
  u64 bad_row = 0;  ///< trace index of the corrupted row
  u64 rows = 0;     ///< trace rows in the (single) segment

  u64 bad_leaf() const { return bad_row / kRowsPerLeaf; }
  /// Whether any opening reveals the leaf holding the corrupted row.
  bool bad_leaf_opened() const {
    for (const SegmentSeal& segment : receipt.composite.segments) {
      for (const SealOpening& opening : segment.openings) {
        if (opening.leaf_index == bad_leaf()) return true;
      }
    }
    return false;
  }
};

/// Build a receipt whose trace has one corrupted ALU row (wrong result),
/// committed in leaves of kRowsPerLeaf rows and opened exactly as an honest
/// prover would — the cheating strategy the FS openings exist to catch.
/// `bad_row` counts ALU rows. `salt` varies the claim so each receipt gets
/// fresh challenge indices.
Cheat make_cheating_receipt(u64 rows, u32 num_queries, u64 bad_row,
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

  // Decode the recorded rows, corrupt one ALU row's result, and lay the
  // rows into leaves of kRowsPerLeaf consecutive rows.
  Cheat cheat;
  cheat.rows = env.cycles();
  std::vector<Bytes> leaf_bytes(leaves_for_rows(cheat.rows));
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
        cheat.bad_row = i;
      }
    }
    Writer w;
    copy.serialize(w);
    Bytes& leaf = leaf_bytes[i / kRowsPerLeaf];
    leaf.insert(leaf.end(), w.bytes().begin(), w.bytes().end());
  }
  std::vector<Digest32> leaves;
  for (const Bytes& leaf : leaf_bytes) {
    leaves.push_back(crypto::MerkleTree::hash_leaf(leaf));
  }
  crypto::MerkleTree tree(leaves);

  Receipt& receipt = cheat.receipt;
  receipt.claim = claim;
  receipt.journal = env.journal();
  receipt.seal_kind = SealKind::composite;
  SegmentSeal segment;
  segment.trace_root = tree.root();
  segment.row_count = cheat.rows;
  receipt.composite.segments.push_back(segment);

  const auto indices = derive_query_indices(
      claim.digest(), receipt.composite.roots_digest(), 0, tree.root(),
      cheat.rows, num_queries);
  for (u64 idx : indices) {
    SealOpening opening;
    opening.leaf_index = idx;
    opening.leaf_bytes = leaf_bytes[idx];
    opening.proof = tree.prove(idx);
    receipt.composite.segments[0].openings.push_back(std::move(opening));
  }
  return cheat;
}

struct Band {
  u32 queries;
  double min_rate;
  double max_rate;
};

/// Detection bands, first drawn for a 50-ALU-row trace of one-row leaves.
/// The 400-ALU-row trace of DetectionRateTracksAnalyticalBound has 51
/// leaves, which puts each model value k / L about where it was.
constexpr Band kBands[] = {
      {2, 0.005, 0.20},    // ≈ 2/57 ≈ 3.5%
      {16, 0.12, 0.50},    // ≈ 25%
      {40, 0.45, 0.90},    // ≈ 70%
};

/// Fraction of `trials` cheating receipts over `alu_rows` ALU rows, each
/// with k openings, that a verifier without a floor rejects.
double detection_rate(u64 alu_rows, u32 queries, int trials) {
  Verifier lenient(0);  // accept any opening count; we control k exactly
  int detected = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const u64 bad_row = static_cast<u64>(trial) % alu_rows;
    const Cheat cheat =
        make_cheating_receipt(alu_rows, queries, bad_row, trial * 7919);
    if (!lenient.verify(cheat.receipt, wide_image()).ok()) ++detected;
  }
  return static_cast<double>(detected) / trials;
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
  // 404 total rows (400 ALU + input/journal hash and bind rows) in L = 51
  // leaves; k distinct openings catch the corrupted row's leaf with
  // probability k / L: ≈ 3.9%, 31% and 78% for the three bands.
  constexpr u64 kAluRows = 400;
  constexpr int kTrials = 120;
  for (const Band& band : kBands) {
    const double rate = detection_rate(kAluRows, band.queries, kTrials);
    EXPECT_GE(rate, band.min_rate) << "k=" << band.queries;
    EXPECT_LE(rate, band.max_rate) << "k=" << band.queries;
  }
}

TEST(Soundness, OldTraceSizeDetectsAtLeastItsOldBand) {
  // The 54-row trace the bands were first drawn for has 7 leaves: each k
  // opens a larger share of it than it opened rows, so no band's floor
  // drops.
  constexpr u64 kAluRows = 50;
  constexpr int kTrials = 120;
  for (const Band& band : kBands) {
    EXPECT_GE(detection_rate(kAluRows, band.queries, kTrials), band.min_rate)
        << "k=" << band.queries;
  }
}

TEST(Soundness, CorruptRowIsCaughtAtEveryLeafOffset) {
  // 400 ALU rows: the corrupted row lands at every offset of a full leaf,
  // and in the 4-row last leaf. It is caught exactly when its leaf is
  // opened, and opening every leaf always catches it.
  constexpr u64 kAluRows = 400;
  Verifier lenient(0);
  std::set<u64> offsets;
  bool partial_leaf_seen = false;
  std::vector<u64> bad_rows;
  for (u64 row = 0; row < 2 * kRowsPerLeaf; ++row) bad_rows.push_back(row);
  bad_rows.push_back(kAluRows - 2);
  bad_rows.push_back(kAluRows - 1);
  for (u64 bad_row : bad_rows) {
    for (u32 queries : {8u, 1000u}) {
      for (u64 salt = 0; salt < 4; ++salt) {
        const Cheat cheat =
            make_cheating_receipt(kAluRows, queries, bad_row, salt * 104729);
        const bool detected =
            !lenient.verify(cheat.receipt, wide_image()).ok();
        EXPECT_EQ(detected, cheat.bad_leaf_opened())
            << "row " << cheat.bad_row << ", k=" << queries;
        if (queries == 1000u) {
          EXPECT_TRUE(detected) << "row " << cheat.bad_row;
        }
        offsets.insert(cheat.bad_row % kRowsPerLeaf);
        if (cheat.bad_leaf() + 1 == leaves_for_rows(cheat.rows) &&
            cheat.rows % kRowsPerLeaf != 0) {
          partial_leaf_seen = true;
        }
      }
    }
  }
  EXPECT_EQ(offsets.size(), kRowsPerLeaf);
  EXPECT_TRUE(partial_leaf_seen);
}

TEST(Soundness, FullOpeningAlwaysDetects) {
  Verifier lenient(0);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cheat =
        make_cheating_receipt(30, 1000, trial % 30, trial * 104729);
    EXPECT_FALSE(lenient.verify(cheat.receipt, wide_image()).ok()) << trial;
  }
}

TEST(Soundness, DefaultPolicyRejectsUnderOpenedSeals) {
  // A cheating prover who simply omits openings is stopped by the
  // min_queries floor regardless of luck.
  const auto cheat = make_cheating_receipt(50, 2, 0, 1);
  Verifier strict;  // default min_queries = 32
  EXPECT_FALSE(strict.verify(cheat.receipt, wide_image()).ok());
}

}  // namespace
}  // namespace zkt::zvm
