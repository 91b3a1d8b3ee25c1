// Parser-robustness sweeps: every deserializer in the system must survive
// (a) random garbage, (b) truncations of valid encodings, and (c) random
// single-byte mutations of valid encodings — returning errors, never
// crashing or accepting garbage silently. These stand in for a fuzzing
// campaign and run deterministically from seeded DRBGs.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/chain_summary.h"
#include "core/commitment.h"
#include "core/grouped_query.h"
#include "core/guests.h"
#include "core/histogram_query.h"
#include "core/query.h"
#include "core/sketch_query.h"
#include "crypto/chacha20.h"
#include "netflow/record.h"
#include "netflow/sketch.h"
#include "netflow/v9.h"
#include "zvm/env.h"
#include "zvm/prover.h"
#include "zvm/receipt.h"
#include "zvm/verifier.h"

namespace zkt {
namespace {

using crypto::ChaChaDrbg;

// ---------------------------------------------------------------------------
// Random garbage never crashes any deserializer.

class GarbageInputs : public ::testing::TestWithParam<u64> {};

TEST_P(GarbageInputs, AllParsersSurvive) {
  ChaChaDrbg drbg(as_bytes_view(GetParam()));
  for (size_t size : {0u, 1u, 7u, 64u, 300u, 4096u}) {
    const Bytes junk = drbg.bytes(size);

    {
      Reader r(junk);
      (void)netflow::FlowRecord::deserialize(r);
    }
    {
      Reader r(junk);
      (void)netflow::RLogBatch::deserialize(r);
    }
    {
      Reader r(junk);
      (void)netflow::CountMinSketch::deserialize(r);
    }
    {
      Reader r(junk);
      (void)core::Query::deserialize(r);
    }
    {
      Reader r(junk);
      (void)core::Commitment::deserialize(r);
    }
    {
      Reader r(junk);
      (void)crypto::MerkleProof::deserialize(r);
    }
    {
      Reader r(junk);
      (void)zvm::TraceRow::deserialize(r);
    }
    (void)zvm::Receipt::from_bytes(junk);
    (void)core::AggJournal::parse(junk);
    (void)core::QueryJournal::parse(junk);
    (void)core::GroupedQueryJournal::parse(junk);
    (void)core::HistogramQueryJournal::parse(junk);
    (void)core::SketchHeavyJournal::parse(junk);
    (void)core::SketchCardinalityJournal::parse(junk);
    (void)core::ChainSummaryJournal::parse(junk);
    netflow::V9Collector collector;
    (void)collector.ingest(junk);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageInputs,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Truncations of valid encodings are rejected (no partial accepts).

netflow::RLogBatch sample_batch() {
  netflow::RLogBatch batch;
  batch.router_id = 2;
  batch.window_id = 9;
  for (u32 f = 0; f < 5; ++f) {
    netflow::FlowRecord rec;
    netflow::PacketObservation pkt;
    pkt.key = {f + 1, 0x09090909, 1000, 443, 6};
    pkt.timestamp_ms = 100 + f;
    pkt.bytes = 500;
    rec.observe(pkt);
    batch.records.push_back(rec);
  }
  return batch;
}

TEST(Truncation, RLogBatchEveryPrefixRejected) {
  const Bytes full = sample_batch().canonical_bytes();
  for (size_t len = 0; len < full.size(); ++len) {
    Reader r(BytesView(full.data(), len));
    auto parsed = netflow::RLogBatch::deserialize(r);
    // A strict prefix must either fail or leave the reader short (we also
    // require r.done() in real callers); it can never parse the full batch.
    if (parsed.ok()) {
      EXPECT_LT(parsed.value().records.size(),
                sample_batch().records.size() + 1);
      EXPECT_TRUE(len < full.size());
    }
  }
  SUCCEED();
}

TEST(Truncation, ReceiptEveryPrefixRejected) {
  // Build a small real receipt via a trivial guest.
  static const zvm::ImageID image = zvm::ImageRegistry::instance().add(
      "fuzz.trivial", 1, [](zvm::Env& env) -> Status {
        env.commit_u64(env.alu(zvm::AluOp::add, 2, 2));
        return {};
      });
  zvm::Prover prover;
  auto receipt = prover.prove(image, {});
  ASSERT_TRUE(receipt.ok());
  const Bytes full = receipt.value().to_bytes();
  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(zvm::Receipt::from_bytes(BytesView(full.data(), len)).ok())
        << "prefix length " << len;
  }
}

TEST(Truncation, QueryEveryPrefixRejected) {
  core::Query q = core::Query::sum(core::QField::bytes)
                      .and_where(core::QField::protocol, core::CmpOp::eq, 6);
  const Bytes full = q.to_bytes();
  for (size_t len = 0; len < full.size(); ++len) {
    Reader r(BytesView(full.data(), len));
    auto parsed = core::Query::deserialize(r);
    EXPECT_FALSE(parsed.ok() && r.done()) << len;
  }
}

// ---------------------------------------------------------------------------
// The journals the Auditor parses off query receipts and epoch seals: every
// strict prefix fails, and every single-byte mutant either fails with a
// parse error or parses to a value that re-serializes to exactly the
// mutant's bytes (no second encoding of any value).

struct JournalFormat {
  const char* name;
  Bytes valid;
  /// Parse `bytes`; on success, the parsed value's serialization.
  Result<Bytes> (*reserialize)(BytesView bytes);
};

template <class Journal>
Result<Bytes> reserialize(BytesView bytes) {
  auto parsed = Journal::parse(bytes);
  if (!parsed.ok()) return parsed.error();
  Writer w;
  parsed.value().write(w);
  return std::move(w).take();
}

template <class Journal>
JournalFormat format(const char* name, const Journal& journal) {
  Writer w;
  journal.write(w);
  return JournalFormat{name, std::move(w).take(), &reserialize<Journal>};
}

crypto::Digest32 tag(std::string_view label) { return crypto::sha256(label); }

std::vector<JournalFormat> journal_formats() {
  const core::Query query =
      core::Query::sum(core::QField::bytes)
          .and_where(core::QField::protocol, core::CmpOp::eq, 6)
          .and_any({{core::QField::dst_port, core::CmpOp::lt, 1024},
                    {core::QField::packets, core::CmpOp::ge, 300}});
  netflow::SketchParams params;
  params.cm = {.width = 64, .depth = 2, .seed = 7};
  params.heavy_capacity = 8;

  core::GroupedQueryJournal grouped;
  grouped.agg_claim_digest = tag("claim");
  grouped.agg_root = tag("root");
  grouped.entry_count = 40;
  grouped.query = query;
  grouped.group_field = core::QField::dst_port;
  grouped.groups = {{53, {3, 3, 900, 100, 500}}, {443, {9, 9, 7000, 20, 2000}}};

  core::QueryJournal scan;
  scan.mode = core::QueryMode::complete;
  scan.agg_claim_digest = tag("claim");
  scan.agg_root = tag("root");
  scan.entry_count = 40;
  scan.query = query;
  scan.result = {12, 40, 9000, 20, 2000};

  core::HistogramQueryJournal histogram;
  histogram.commitment = {3, 7, tag("histogram"), 1000};
  histogram.bound_us = 65'535;
  histogram.count_below = 912;
  histogram.total = 1000;

  core::SketchHeavyJournal heavy;
  heavy.agg_claim_digest = tag("claim");
  heavy.sketch_digest = tag("sketch");
  heavy.params = params;
  heavy.total = 5000;
  heavy.threshold = 700;
  for (u32 i = 0; i < 3; ++i) {
    heavy.hits.push_back({{0x0A000000 + i, 0x0B000000, 1000, 443, 6},
                          900 - i,
                          i,
                          910 - i});
  }

  core::SketchCardinalityJournal card;
  card.agg_claim_digest = tag("claim");
  card.sketch_digest = tag("sketch");
  card.params = params;
  card.total = 5000;
  card.distinct_flows = 120;
  card.cms_lower_bound = 60;

  core::ChainSummaryJournal summary;
  summary.rounds = 4;
  summary.genesis = true;
  summary.first_claim_digest = tag("first claim");
  summary.first_root = tag("first root");
  summary.final_claim_digest = tag("final claim");
  summary.final_root = tag("final root");
  summary.final_entry_count = 77;
  summary.commitment_count = 8;
  summary.first_commitments_digest = tag("first refs");
  summary.final_commitments_digest = tag("final refs");
  summary.has_sketch = true;
  summary.sketch_params = params;
  summary.first_sketch_digest = tag("first sketch");
  summary.final_sketch_digest = tag("final sketch");
  summary.final_sketch_total = 5000;

  return {format("QRY1", scan), format("GQRY1", grouped),
          format("HQRY1", histogram),
          format("SKHH", heavy), format("SKCD", card),
          format("EPOCH1", summary)};
}

TEST(Truncation, QueryJournalsEveryPrefixRejected) {
  for (const JournalFormat& f : journal_formats()) {
    auto whole = f.reserialize(f.valid);
    ASSERT_TRUE(whole.ok()) << f.name << ": " << whole.error().to_string();
    EXPECT_EQ(whole.value(), f.valid) << f.name;
    for (size_t len = 0; len < f.valid.size(); ++len) {
      EXPECT_FALSE(f.reserialize(BytesView(f.valid.data(), len)).ok())
          << f.name << " prefix length " << len;
    }
  }
}

TEST(Mutation, QueryJournalsParseCanonicallyOrFail) {
  for (const JournalFormat& f : journal_formats()) {
    for (size_t trial = 0; trial < 255 * f.valid.size(); ++trial) {
      Bytes mutated = f.valid;
      const size_t pos = trial % f.valid.size();
      mutated[pos] ^= static_cast<u8>(1 + trial / f.valid.size());
      auto parsed = f.reserialize(mutated);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.error().code, Errc::parse_error)
            << f.name << " byte " << pos << ": "
            << parsed.error().to_string();
        continue;
      }
      EXPECT_EQ(parsed.value(), mutated)
          << f.name << ": byte " << pos << " mutant parsed non-canonically";
    }
  }
}

// ---------------------------------------------------------------------------
// Byte mutations of a valid v9 packet stream never crash the collector.

TEST(Mutation, V9CollectorSurvivesMutations) {
  std::vector<netflow::FlowRecord> records = sample_batch().records;
  netflow::V9Exporter exporter(netflow::V9Config{.source_id = 5});
  const auto packets = exporter.export_records(records, 1000);
  ASSERT_EQ(packets.size(), 1u);

  ChaChaDrbg drbg(std::string_view("v9-mutations"));
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = packets[0];
    const size_t pos = drbg.uniform(mutated.size());
    mutated[pos] ^= static_cast<u8>(1 + drbg.uniform(255));
    netflow::V9Collector collector;
    (void)collector.ingest(packets[0]);  // learn the real template first
    (void)collector.ingest(mutated);     // then feed the mutant
  }
  SUCCEED();
}

TEST(Mutation, ReceiptMutationsNeverVerify) {
  static const zvm::ImageID image = zvm::ImageRegistry::instance().add(
      "fuzz.trivial2", 1, [](zvm::Env& env) -> Status {
        env.commit_blob(bytes_of("output"));
        const auto digest = env.sha256(bytes_of("work"));
        env.commit_digest(digest);
        return {};
      });
  zvm::Prover prover;
  zvm::Verifier verifier;
  auto receipt = prover.prove(image, bytes_of("input"));
  ASSERT_TRUE(receipt.ok());
  const Bytes full = receipt.value().to_bytes();

  ChaChaDrbg drbg(std::string_view("receipt-mutations"));
  int parsed_ok = 0, verified_ok = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Bytes mutated = full;
    const size_t pos = drbg.uniform(mutated.size());
    const u8 bit = static_cast<u8>(1u << drbg.uniform(8));
    mutated[pos] ^= bit;
    auto parsed = zvm::Receipt::from_bytes(mutated);
    if (!parsed.ok()) continue;
    ++parsed_ok;
    if (verifier.verify(parsed.value(), image).ok()) {
      // Only acceptable if the mutation didn't change canonical content.
      if (parsed.value().to_bytes() != full) ++verified_ok;
    }
  }
  EXPECT_EQ(verified_ok, 0) << "a mutated receipt verified (" << parsed_ok
                            << " parsed)";
}

// ---------------------------------------------------------------------------
// Hostile composite seals: leaf counts and row totals read off the wire.

/// The error codes a hostile receipt may fail verification with.
bool is_verification_error(Errc code) {
  return code == Errc::parse_error || code == Errc::hash_mismatch ||
         code == Errc::merkle_mismatch || code == Errc::proof_invalid;
}

const zvm::ImageID& hostile_image() {
  static const zvm::ImageID image = zvm::ImageRegistry::instance().add(
      "fuzz.composite", 1, [](zvm::Env& env) -> Status {
        u64 acc = 0;
        for (u64 i = 0; i < 30; ++i) acc = env.alu(zvm::AluOp::add, acc, i);
        env.commit_u64(acc);
        env.commit_digest(env.sha256(Bytes(300, 0x5A)));
        return {};
      });
  return image;
}

TEST(HostileSeal, HugeSegmentGivesTypedError) {
  // One segment of 2^63 + 1 rows with 32 Fiat–Shamir-consistent openings,
  // through the wire: no tree over that many rows or leaves exists.
  constexpr u64 kRows = (u64{1} << 63) + 1;
  zvm::Receipt probe;
  probe.claim.image_id = hostile_image();
  probe.claim.journal_digest = crypto::sha256(probe.journal);
  probe.claim.cycle_count = kRows;
  probe.seal_kind = zvm::SealKind::composite;
  zvm::SegmentSeal& segment = probe.composite.segments.emplace_back();
  segment.trace_root = crypto::sha256(std::string_view("root"));
  segment.row_count = kRows;
  const auto indices = zvm::derive_query_indices(
      probe.claim.digest(), probe.composite.roots_digest(), 0,
      segment.trace_root, kRows, 32);
  ASSERT_EQ(indices.size(), 32u);
  for (u64 leaf_count : {zvm::leaves_for_rows(kRows), kRows}) {
    segment.openings.clear();
    for (u64 idx : indices) {
      zvm::SealOpening opening;
      opening.leaf_index = idx;
      opening.leaf_bytes = Bytes(9, 0x02);
      opening.proof.leaf_index = idx;
      opening.proof.leaf_count = leaf_count;
      segment.openings.push_back(std::move(opening));
    }
    auto parsed = zvm::Receipt::from_bytes(probe.to_bytes());
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    const Status verified =
        zvm::Verifier().verify(parsed.value(), hostile_image());
    ASSERT_FALSE(verified.ok()) << leaf_count;
    EXPECT_TRUE(is_verification_error(verified.code()))
        << verified.to_string();
  }

  // Each path that sizes a tree from a proof's leaf count.
  crypto::MerkleProof proof;
  proof.leaf_count = kRows;
  const crypto::Digest32 leaf = crypto::MerkleTree::empty_leaf();
  const auto depth = crypto::MerkleTree::depth_for(kRows);
  ASSERT_FALSE(depth.ok());
  EXPECT_EQ(depth.error().code, Errc::merkle_mismatch);
  EXPECT_EQ(crypto::MerkleTree::depth_for(u64{1} << 63).value(), 63u);
  EXPECT_EQ(crypto::MerkleTree::verify(leaf, leaf, proof).code(),
            Errc::merkle_mismatch);
  const crypto::LeafProof item{&leaf, &proof};
  EXPECT_EQ(crypto::MerkleTree::verify_batch(leaf, {&item, 1}).code(),
            Errc::merkle_mismatch);
  crypto::MerkleMultiProof multi;
  multi.leaf_count = kRows;
  multi.indices = {0};
  const std::pair<u64, crypto::Digest32> opened{0, leaf};
  EXPECT_EQ(crypto::MerkleTree::verify_multi(leaf, {&opened, 1}, multi).code(),
            Errc::merkle_mismatch);
  zvm::Env env({}, {});
  EXPECT_EQ(env.verify_merkle(leaf, leaf, proof).code(), Errc::guest_abort);
  EXPECT_EQ(env.verify_merkle_multi(leaf, {&opened, 1}, multi).code(),
            Errc::guest_abort);
}

TEST(HostileSeal, WrappingRowCountsRejected) {
  // Two segments whose row counts wrap around to the claimed cycle count,
  // under a verifier that asks for no openings: nothing but the row total
  // can catch them.
  zvm::ProveOptions options;
  options.seal_kind = zvm::SealKind::composite;
  auto receipt = zvm::Prover().prove(hostile_image(), {}, options);
  ASSERT_TRUE(receipt.ok()) << receipt.error().to_string();
  zvm::Receipt wrapped = receipt.value();
  const u64 cycles = wrapped.claim.cycle_count;
  wrapped.composite.segments.assign(2, zvm::SegmentSeal{});
  wrapped.composite.segments[0].row_count = ~u64{0};
  wrapped.composite.segments[1].row_count = cycles + 1;
  auto parsed = zvm::Receipt::from_bytes(wrapped.to_bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const Status verified =
      zvm::Verifier(0).verify(parsed.value(), hostile_image());
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.code(), Errc::proof_invalid);
}

TEST(Mutation, CompositeReceiptMutationsNeverVerify) {
  // Two segments, the last ending in a partial leaf.
  zvm::ProveOptions options;
  options.seal_kind = zvm::SealKind::composite;
  options.max_segment_rows = 3 * zvm::kRowsPerLeaf;
  auto receipt = zvm::Prover().prove(hostile_image(), bytes_of("input"),
                                     options);
  ASSERT_TRUE(receipt.ok()) << receipt.error().to_string();
  const auto& segments = receipt.value().composite.segments;
  ASSERT_EQ(segments.size(), 2u);
  ASSERT_NE(segments.back().row_count % zvm::kRowsPerLeaf, 0u);
  const Bytes full = receipt.value().to_bytes();
  zvm::Verifier verifier;
  ASSERT_TRUE(verifier.verify(receipt.value(), hostile_image()).ok());

  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(zvm::Receipt::from_bytes(BytesView(full.data(), len)).ok())
        << "prefix length " << len;
  }

  // Where the last segment's seal sits in the receipt.
  Writer last;
  segments.back().serialize(last);
  const auto at = std::search(full.begin(), full.end(), last.bytes().begin(),
                              last.bytes().end());
  ASSERT_NE(at, full.end());
  const size_t first = static_cast<size_t>(at - full.begin());

  ChaChaDrbg drbg(std::string_view("composite-mutations"));
  int verified_ok = 0;
  auto flip_and_verify = [&](size_t pos) {
    Bytes mutated = full;
    mutated[pos] ^= static_cast<u8>(1u << drbg.uniform(8));
    auto parsed = zvm::Receipt::from_bytes(mutated);
    if (!parsed.ok()) return;
    const Status verified = verifier.verify(parsed.value(), hostile_image());
    if (verified.ok()) {
      // Only acceptable if the mutation didn't change canonical content.
      if (parsed.value().to_bytes() != full) ++verified_ok;
      return;
    }
    EXPECT_TRUE(is_verification_error(verified.code()))
        << "byte " << pos << ": " << verified.to_string();
  };
  for (size_t pos = first; pos < first + last.size(); ++pos) {
    flip_and_verify(pos);
  }
  for (int trial = 0; trial < 400; ++trial) {
    flip_and_verify(static_cast<size_t>(drbg.uniform(first)));
  }
  EXPECT_EQ(verified_ok, 0);
}

}  // namespace
}  // namespace zkt
