// Parser-robustness sweeps: every deserializer in the system must survive
// (a) random garbage, (b) truncations of valid encodings, and (c) random
// single-byte mutations of valid encodings — returning errors, never
// crashing or accepting garbage silently. These stand in for a fuzzing
// campaign and run deterministically from seeded DRBGs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "common/log.h"
#include "core/chain_summary.h"
#include "core/commitment.h"
#include "core/describe.h"
#include "core/epoch.h"
#include "core/grouped_query.h"
#include "core/guests.h"
#include "core/histogram_query.h"
#include "core/io.h"
#include "core/join.h"
#include "core/query.h"
#include "core/sharded.h"
#include "core/sketch_query.h"
#include "crypto/chacha20.h"
#include "netflow/histogram.h"
#include "netflow/record.h"
#include "netflow/sketch.h"
#include "netflow/v9.h"
#include "store/logstore.h"
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
    for (const core::JournalCodec& codec : core::journal_codecs()) {
      (void)codec.reencode(junk);
      (void)codec.describe(junk);
    }
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
// Hostile bytes against one wire format, given a valid encoding and the
// format's decode-then-encode: the sample re-encodes to its own bytes,
// every strict prefix fails, and every single-byte mutant either fails with
// parse_error or re-encodes to exactly its own bytes (no second encoding of
// any value). `flip_stride` 1 tries all 255 flips of every byte; a larger
// stride tries every stride-th.

template <class Reencode>
void sweep_format(std::string_view name, const Bytes& valid,
                  const Reencode& reencode, u32 flip_stride = 1) {
  SCOPED_TRACE(std::string(name));
  auto whole = reencode(BytesView(valid));
  ASSERT_TRUE(whole.ok()) << whole.error().to_string();
  ASSERT_EQ(whole.value(), valid);
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(reencode(BytesView(valid.data(), len)).ok())
        << "prefix length " << len;
  }
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    for (u32 flip = 1; flip < 256; flip += flip_stride) {
      Bytes mutated = valid;
      mutated[pos] ^= static_cast<u8>(flip);
      auto parsed = reencode(BytesView(mutated));
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.error().code, Errc::parse_error)
            << "byte " << pos << ": " << parsed.error().to_string();
      } else {
        EXPECT_EQ(parsed.value(), mutated)
            << "byte " << pos << " mutant parsed non-canonically";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Every registered journal format (core::journal_codecs()): the journals
// the Auditor, zkt-verify and zkt-inspect parse off receipts, and the epoch
// seal item.

crypto::Digest32 tag(std::string_view label) { return crypto::sha256(label); }

template <class Journal>
Bytes journal_bytes(const Journal& journal) {
  Writer w;
  journal.write(w);
  return std::move(w).take();
}

core::ChainSummaryJournal sample_summary(const netflow::SketchParams& params) {
  core::ChainSummaryJournal summary;
  summary.rounds = 4;
  summary.genesis = true;
  summary.first_claim_digest = tag("first claim");
  summary.first_root = tag("first root");
  summary.final_claim_digest = tag("final claim");
  summary.final_root = tag("final root");
  summary.final_entry_count = 77;
  summary.commitment_count = 2;
  summary.first_commitments_digest = tag("first refs");
  summary.final_commitments_digest = tag("final refs");
  summary.has_sketch = true;
  summary.sketch_params = params;
  summary.first_sketch_digest = tag("first sketch");
  summary.final_sketch_digest = tag("final sketch");
  summary.final_sketch_total = 5000;
  return summary;
}

netflow::SketchParams sample_params() {
  netflow::SketchParams params;
  params.cm = {.width = 64, .depth = 2, .seed = 7};
  params.heavy_capacity = 8;
  return params;
}

std::vector<core::CommitmentRef> sample_refs() {
  return {{3, 7, tag("rlog a"), 100}, {4, 7, tag("rlog b"), 90}};
}

/// An epoch seal over a hand-made succinct receipt whose journal counts
/// the seal's two refs.
core::EpochSeal sample_epoch_seal() {
  core::EpochSeal seal;
  seal.level = 2;
  seal.start_round = 4;
  seal.rounds = 4;
  seal.first_window = 4;
  seal.last_window = 7;
  seal.journal = sample_summary(sample_params());
  seal.receipt.claim.image_id = core::chain_summary_image();
  seal.receipt.claim.input_digest = tag("summary input");
  seal.receipt.journal = journal_bytes(seal.journal);
  seal.receipt.claim.journal_digest = crypto::sha256(seal.receipt.journal);
  seal.receipt.claim.cycle_count = 5000;
  seal.receipt.seal_kind = zvm::SealKind::succinct;
  seal.receipt.succinct =
      zvm::SuccinctSeal::wrap(seal.receipt.claim.digest(), tag("trace"));
  seal.commitments = sample_refs();
  return seal;
}

/// Valid samples of every registered format, by codec name: one per
/// branch of its layout (AGG1 and AGGI, sketch blocks on and off).
std::map<std::string_view, std::vector<Bytes>> journal_samples() {
  const core::Query query =
      core::Query::sum(core::QField::bytes)
          .and_where(core::QField::protocol, core::CmpOp::eq, 6)
          .and_any({{core::QField::dst_port, core::CmpOp::lt, 1024},
                    {core::QField::packets, core::CmpOp::ge, 300}});
  const netflow::SketchParams params = sample_params();
  const std::vector<core::CommitmentRef> refs = sample_refs();
  std::map<std::string_view, std::vector<Bytes>> samples;

  core::AggJournal full;
  full.prev_root = tag("empty root");
  full.new_root = tag("root");
  full.new_entry_count = 40;
  full.commitments = refs;
  full.update_count = 40;
  full.updates_digest = tag("updates");
  full.has_sketch = true;
  full.sketch_params = params;
  full.prev_sketch_digest = tag("empty sketch");
  full.sketch_digest = tag("sketch");
  full.sketch_total = 190;
  core::AggJournal delta;
  delta.kind = core::RoundKind::incremental;
  delta.has_prev = true;
  delta.prev_claim_digest = tag("claim");
  delta.prev_root = tag("root");
  delta.new_root = tag("next root");
  delta.prev_entry_count = 40;
  delta.new_entry_count = 44;
  delta.commitments = {refs[0]};
  delta.update_count = 9;
  delta.updates_digest = tag("delta updates");
  delta.touched_entries = 5;
  delta.multiproof_siblings = 11;
  samples["AGG1/AGGI"] = {journal_bytes(full), journal_bytes(delta)};

  core::QueryJournal scan;
  scan.mode = core::QueryMode::complete;
  scan.agg_claim_digest = tag("claim");
  scan.agg_root = tag("root");
  scan.entry_count = 40;
  scan.query = query;
  scan.result = {12, 40, 9000, 20, 2000};
  samples["QRY1"] = {journal_bytes(scan)};

  core::GroupedQueryJournal grouped;
  grouped.agg_claim_digest = tag("claim");
  grouped.agg_root = tag("root");
  grouped.entry_count = 40;
  grouped.query = query;
  grouped.group_field = core::QField::dst_port;
  grouped.groups = {{53, {3, 3, 900, 100, 500}}, {443, {9, 9, 7000, 20, 2000}}};
  samples["GQRY1"] = {journal_bytes(grouped)};

  core::HistogramQueryJournal histogram;
  histogram.commitment = {3, 7, tag("histogram"), 1000};
  histogram.bound_us = 65'535;
  histogram.count_below = 912;
  histogram.total = 1000;
  samples["HQRY1"] = {journal_bytes(histogram)};

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
  samples["SKHH"] = {journal_bytes(heavy)};

  core::SketchCardinalityJournal card;
  card.agg_claim_digest = tag("claim");
  card.sketch_digest = tag("sketch");
  card.params = params;
  card.total = 5000;
  card.distinct_flows = 120;
  card.cms_lower_bound = 60;
  samples["SKCD"] = {journal_bytes(card)};

  core::SplitJournal split;
  split.source = refs[0];
  split.shard_count = 2;
  split.shards = {{0, tag("shard 0"), 60}, {1, tag("shard 1"), 40}};
  samples["SPLIT1"] = {journal_bytes(split)};

  core::JoinJournal join;
  join.height = 1;
  join.leaf_count = 2;
  join.total_entries = 70;
  join.fold_digest = tag("fold");
  for (u32 s = 0; s < 2; ++s) {
    core::ShardLink& link = join.links.emplace_back();
    link.claim_digest = tag("leaf claim " + std::to_string(s));
    link.has_prev = s == 0;
    link.prev_claim_digest = tag("prev leaf claim");
    link.prev_root = tag("prev leaf root");
    link.new_root = tag("leaf root");
    link.prev_entry_count = 20 * s;
    link.new_entry_count = 30 + 10 * s;
    link.commitments = {refs[s]};
  }
  core::JoinJournal sketched = join;
  for (core::ShardLink& link : sketched.links) {
    link.has_sketch = true;
    link.prev_sketch_digest = tag("prev leaf sketch");
    link.sketch_digest = tag("leaf sketch");
  }
  sketched.has_sketch = true;
  sketched.sketch_params = params;
  sketched.sketch_digest = tag("merged sketch");
  sketched.sketch_total = 190;
  samples["JOIN1"] = {journal_bytes(join), journal_bytes(sketched)};

  const core::ChainSummaryJournal summary = sample_summary(params);
  core::ChainSummaryJournal plain = summary;
  plain.genesis = false;
  plain.has_sketch = false;
  samples["EPOCH1"] = {journal_bytes(summary), journal_bytes(plain)};

  samples["EPSEAL1"] = {sample_epoch_seal().to_bytes()};
  return samples;
}

TEST(JournalCodecs, EveryFormatHasSamplesThatRoundTrip) {
  const auto samples = journal_samples();
  for (const core::JournalCodec& codec : core::journal_codecs()) {
    SCOPED_TRACE(std::string(codec.name));
    const auto found = samples.find(codec.name);
    ASSERT_NE(found, samples.end()) << "registered format with no sample";
    for (const Bytes& sample : found->second) {
      auto again = codec.reencode(sample);
      ASSERT_TRUE(again.ok()) << again.error().to_string();
      EXPECT_EQ(again.value(), sample);
      auto text = codec.describe(sample);
      ASSERT_TRUE(text.ok()) << text.error().to_string();
      EXPECT_EQ(text.value().find("magic "), 4u) << text.value();
    }
  }
  for (const auto& [name, bytes] : samples) {
    EXPECT_TRUE(std::any_of(
        core::journal_codecs().begin(), core::journal_codecs().end(),
        [&](const core::JournalCodec& c) { return c.name == name; }))
        << name << " samples a format that is not registered";
  }
}

TEST(Mutation, JournalCodecsRejectPrefixesAndSecondEncodings) {
  const auto samples = journal_samples();
  for (const core::JournalCodec& codec : core::journal_codecs()) {
    const auto found = samples.find(codec.name);
    ASSERT_NE(found, samples.end()) << codec.name;
    for (const Bytes& sample : found->second) {
      sweep_format(codec.name, sample, codec.reencode);
    }
  }
}

/// A directory under the system temp directory, removed with its files.
class ScratchDir {
 public:
  explicit ScratchDir(std::string_view name)
      : dir_(std::filesystem::temp_directory_path() /
             ("zkt_fuzz_" + std::to_string(::getpid()) + "_" +
              std::string(name))) {
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }
  std::string path(std::string_view file) const {
    return (dir_ / file).string();
  }

 private:
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// The field-list formats an auditor parses from the prover besides
// journals: receipts and their parts, Merkle proofs, commitments and
// latency histograms.

/// Decode-then-encode through a type's field list.
template <class T>
Result<Bytes> reencode_fields(BytesView bytes) {
  auto value = decode<T>(bytes);
  if (!value.ok()) return value.error();
  return encode(value.value());
}

struct FieldListFormat {
  std::string_view name;
  std::vector<Bytes> samples;
  Result<Bytes> (*reencode)(BytesView);
};

template <class T>
FieldListFormat format_of(std::string_view name, const std::vector<T>& values) {
  FieldListFormat format{name, {}, reencode_fields<T>};
  for (const T& value : values) format.samples.push_back(encode(value));
  return format;
}

/// A hand-made succinct receipt (the codec does not check the seal).
zvm::Receipt sample_succinct_receipt() {
  zvm::Receipt receipt;
  receipt.claim.image_id = tag("image");
  receipt.claim.input_digest = tag("input");
  receipt.journal = bytes_of("journal");
  receipt.claim.journal_digest = crypto::sha256(receipt.journal);
  receipt.claim.cycle_count = 77;
  receipt.seal_kind = zvm::SealKind::succinct;
  receipt.succinct = zvm::SuccinctSeal::wrap(receipt.claim.digest(),
                                             tag("trace"));
  return receipt;
}

/// A hand-made composite seal: one segment with one opened leaf.
zvm::CompositeSeal sample_composite_seal() {
  zvm::SealOpening opening;
  opening.leaf_index = 1;
  opening.leaf_bytes = bytes_of("rows");
  opening.proof.leaf_index = 1;
  opening.proof.leaf_count = 3;
  opening.proof.siblings = {tag("sibling 0"), tag("sibling 1")};
  zvm::CompositeSeal seal;
  seal.segments.push_back({tag("trace root"), 20, {opening}});
  return seal;
}

/// A composite receipt whose claim assumes, and whose seal embeds, one
/// succinct receipt.
zvm::Receipt sample_composite_receipt() {
  const zvm::Receipt inner = sample_succinct_receipt();
  zvm::Receipt receipt;
  receipt.claim.image_id = tag("outer image");
  receipt.claim.input_digest = tag("outer input");
  receipt.claim.journal_digest = crypto::sha256(receipt.journal);
  receipt.claim.cycle_count = 20;
  receipt.claim.assumptions = {{inner.claim.image_id, inner.claim.digest()}};
  receipt.seal_kind = zvm::SealKind::composite;
  receipt.composite = sample_composite_seal();
  receipt.assumption_receipts = {inner};
  return receipt;
}

std::vector<FieldListFormat> field_list_samples() {
  crypto::MerkleTree tree([] {
    std::vector<crypto::Digest32> leaves;
    for (u32 i = 0; i < 11; ++i) leaves.push_back(tag(std::to_string(i)));
    return leaves;
  }());
  const zvm::Receipt composite = sample_composite_receipt();
  const auto key = crypto::schnorr_keygen_from_seed("fuzz-commitment");
  netflow::LatencyHistogram histogram;
  for (u64 i = 0; i < 50; ++i) histogram.add(1000 + (i * 37) % 9000);
  return {
      format_of<crypto::MerkleProof>("MerkleProof", {tree.prove(6)}),
      format_of<crypto::MerkleMultiProof>(
          "MerkleMultiProof",
          {tree.prove_multi(std::vector<u64>{1, 4, 5, 10}).value()}),
      format_of<zvm::Claim>("Claim", {composite.claim}),
      format_of<zvm::SealOpening>(
          "SealOpening", {composite.composite.segments[0].openings[0]}),
      format_of<zvm::SegmentSeal>("SegmentSeal",
                                  {composite.composite.segments[0]}),
      format_of<zvm::CompositeSeal>("CompositeSeal", {composite.composite}),
      format_of<zvm::Receipt>("ZKTR1",
                              {sample_succinct_receipt(), composite}),
      format_of<core::Commitment>(
          "Commitment",
          {core::make_commitment(sample_batch(), key, 500).value()}),
      format_of<netflow::LatencyHistogram>("HIST1", {histogram}),
  };
}

TEST(Mutation, FieldListFormatsRejectPrefixesAndSecondEncodings) {
  for (const FieldListFormat& format : field_list_samples()) {
    for (const Bytes& sample : format.samples) {
      sweep_format(format.name, sample, format.reencode);
    }
  }
}

TEST(FieldLists, CommitmentSignsItsFieldListWithoutTheSignature) {
  const auto key = crypto::schnorr_keygen_from_seed("fuzz-commitment");
  const core::Commitment c =
      core::make_commitment(sample_batch(), key, 500).value();
  const Bytes all = c.to_bytes();
  Writer signed_part;
  signed_part.str("zkt.commitment.v1");
  signed_part.raw(BytesView(all.data(), all.size() - c.signature.bytes.size()));
  EXPECT_EQ(c.signing_digest(), crypto::sha256(signed_part.bytes()));
}

// ---------------------------------------------------------------------------
// Nesting: a receipt holds its assumption receipts, so the decoder bounds
// how deep field lists nest (kMaxFieldDepth) instead of recursing as deep
// as the bytes say.

/// One receipt nested `depth` receipts deep: every level a composite
/// receipt whose one assumption receipt is the next level down, the
/// innermost with a seal that opens one leaf, so its Merkle proof sits
/// four field lists below it.
Bytes nested_receipt_bytes(u32 depth) {
  zvm::Receipt level;
  level.seal_kind = zvm::SealKind::composite;
  level.composite.segments.emplace_back().row_count = 8;
  const Bytes shell = level.to_bytes();  // ends with its receipt count, 0
  level.composite = sample_composite_seal();
  Bytes out;
  for (u32 i = 1; i < depth; ++i) {
    out.insert(out.end(), shell.begin(), shell.end() - 1);
    out.push_back(1);
  }
  const Bytes innermost = level.to_bytes();
  out.insert(out.end(), innermost.begin(), innermost.end());
  return out;
}

TEST(Nesting, ReceiptAtTheDepthLimitParses) {
  const Bytes at_limit = nested_receipt_bytes(zvm::kMaxReceiptDepth);
  auto parsed = zvm::Receipt::from_bytes(at_limit);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().to_bytes(), at_limit);

  auto deeper = zvm::Receipt::from_bytes(
      nested_receipt_bytes(zvm::kMaxReceiptDepth + 1));
  ASSERT_FALSE(deeper.ok());
  EXPECT_EQ(deeper.error().code, Errc::parse_error);
}

TEST(Nesting, DeeplyNestedReceiptIsAParseErrorThroughEveryLoader) {
  // 20,000 levels, about 3 MB: far past what the stack holds.
  const Bytes deep = nested_receipt_bytes(20'000);
  const auto expect_parse_error = [](const Error& e) {
    EXPECT_EQ(e.code, Errc::parse_error) << e.to_string();
  };

  auto direct = zvm::Receipt::from_bytes(deep);
  ASSERT_FALSE(direct.ok());
  expect_parse_error(direct.error());

  ScratchDir dir("nesting");
  const std::string receipts = dir.path("receipts.bin");
  ASSERT_TRUE(
      core::write_file(receipts, core::frame_items("ZKTRCPT1", {deep})).ok());
  auto loaded = core::load_receipts(receipts);
  ASSERT_FALSE(loaded.ok());
  expect_parse_error(loaded.error());
  auto source = core::ReceiptFileSource::open(receipts);
  ASSERT_TRUE(source.ok()) << source.error().to_string();
  auto next = source.value().next();
  ASSERT_FALSE(next.ok());
  expect_parse_error(next.error());

  // The same receipt as an epoch seal's receipt blob.
  const core::EpochSeal seal = sample_epoch_seal();
  const Bytes item = seal.to_bytes();
  const Bytes inner = seal.receipt.to_bytes();
  const auto at = std::search(item.begin(), item.end(), inner.begin(),
                              inner.end());
  ASSERT_NE(at, item.end());
  const size_t begin = static_cast<size_t>(at - item.begin());
  const size_t end = begin + inner.size();
  Writer inner_length;
  inner_length.varint(inner.size());
  Writer hostile;
  hostile.raw(BytesView(item.data(), begin - inner_length.size()));
  hostile.blob(deep);
  hostile.raw(BytesView(item.data() + end, item.size() - end));
  const std::string seals = dir.path("epoch_seals.bin");
  ASSERT_TRUE(core::write_file(seals, core::frame_items(
                                          "ZKTEPCH1", {hostile.bytes()}))
                  .ok());
  auto epochs = core::load_epoch_seals(seals);
  ASSERT_FALSE(epochs.ok());
  expect_parse_error(epochs.error());
}

// ---------------------------------------------------------------------------
// The formats outside the registry: sketches, the artifact file framings
// and WAL frames.

/// Decode-then-encode through a type's own deserialize/serialize.
template <class T>
Result<Bytes> reencode_own(BytesView bytes) {
  Reader r(bytes);
  auto value = T::deserialize(r);
  if (!value.ok()) return value.error();
  if (!r.done()) return Error{Errc::parse_error, "trailing bytes"};
  Writer w;
  value.value().serialize(w);
  return std::move(w).take();
}

TEST(Mutation, SketchesRejectPrefixesAndSecondEncodings) {
  netflow::SketchParams params;
  params.cm = {.width = 16, .depth = 2, .seed = 7};
  params.heavy_capacity = 4;
  netflow::RoundSketch sketch(params);
  for (const netflow::FlowRecord& record : sample_batch().records) {
    sketch.update(record.key, record.packets + record.key.src_ip);
  }
  Writer cms;
  sketch.cm().serialize(cms);
  Writer ssk;
  sketch.heavy().serialize(ssk);

  sweep_format("RSK1", sketch.canonical_bytes(),
               reencode_own<netflow::RoundSketch>);
  sweep_format("CMS1", cms.bytes(), reencode_own<netflow::CountMinSketch>);
  sweep_format("SSK1", ssk.bytes(), reencode_own<netflow::SpaceSaving>);
}

/// Decode-then-encode of an artifact file format through its loader and
/// saver, both of which work on files.
template <class Load, class Save>
auto through_files(const ScratchDir& dir, Load load, Save save) {
  return [in = dir.path("in.bin"), out = dir.path("out.bin"), load,
          save](BytesView bytes) -> Result<Bytes> {
    ZKT_TRY(core::write_file(in, bytes));
    auto loaded = load(in);
    if (!loaded.ok()) return loaded.error();
    ZKT_TRY(save(loaded.value(), out));
    return core::read_file(out);
  };
}

TEST(Mutation, ArtifactFilesRejectPrefixesAndSecondEncodings) {
  // Eight of the 255 flips of every byte: each trial writes and reads
  // files.
  constexpr u32 kFlipStride = 32;

  static const zvm::ImageID image = zvm::ImageRegistry::instance().add(
      "fuzz.framed", 1, [](zvm::Env& env) -> Status {
        env.commit_u64(env.alu(zvm::AluOp::add, 2, 3));
        return {};
      });
  auto receipt = zvm::Prover().prove(image, {});
  ASSERT_TRUE(receipt.ok()) << receipt.error().to_string();
  {
    ScratchDir dir("receipts");
    const std::vector<zvm::Receipt> receipts(2, receipt.value());
    ASSERT_TRUE(core::save_receipts(receipts, dir.path("valid.bin")).ok());
    sweep_format("ZKTRCPT1", core::read_file(dir.path("valid.bin")).value(),
                 through_files(dir, core::load_receipts, core::save_receipts),
                 kFlipStride);
  }
  {
    ScratchDir dir("epochs");
    ASSERT_TRUE(
        core::save_epoch_seals({sample_epoch_seal()}, dir.path("valid.bin"))
            .ok());
    sweep_format(
        "ZKTEPCH1", core::read_file(dir.path("valid.bin")).value(),
        through_files(dir, core::load_epoch_seals, core::save_epoch_seals),
        kFlipStride);
  }
  {
    ScratchDir dir("commitments");
    const auto key = crypto::schnorr_keygen_from_seed("fuzz-commitments");
    core::CommitmentBoard board;
    netflow::RLogBatch batch = sample_batch();
    ASSERT_TRUE(board.publish(core::make_commitment(batch, key, 500).value())
                    .ok());
    batch.window_id += 1;
    ASSERT_TRUE(board.publish(core::make_commitment(batch, key, 900).value())
                    .ok());
    ASSERT_TRUE(core::save_commitments(board, dir.path("valid.bin")).ok());
    const auto load = [](const std::string& path) -> Result<std::vector<core::Commitment>> {
      core::CommitmentBoard loaded;
      ZKT_TRY(core::load_commitments(path, loaded));
      return loaded.all();
    };
    const auto save = [](const std::vector<core::Commitment>& commitments,
                         const std::string& path) -> Status {
      core::CommitmentBoard again;
      for (const core::Commitment& c : commitments) ZKT_TRY(again.publish(c));
      return core::save_commitments(again, path);
    };
    sweep_format("ZKTCOMM1", core::read_file(dir.path("valid.bin")).value(),
                 through_files(dir, load, save), kFlipStride);
  }
}

TEST(Mutation, WalFramesRecoverAnUnchangedPrefix) {
  ScratchDir dir("wal");
  const std::string wal = dir.path("store.wal");
  struct Written {
    std::string table;
    store::StoredRow row;
  };
  std::vector<Written> written;
  {
    store::LogStore s(store::StoreConfig{.wal_path = wal});
    ASSERT_TRUE(s.recover().ok());
    for (u64 i = 0; i < 5; ++i) {
      Written& w = written.emplace_back();
      w.table = i % 2 == 0 ? "rlogs" : "commits";
      w.row = {.k1 = 10 + i,
               .k2 = i,
               .payload = bytes_of("payload " + std::to_string(i))};
      auto id = s.append(w.table, w.row.k1, w.row.k2, w.row.payload);
      ASSERT_TRUE(id.ok());
      w.row.id = id.value();
    }
  }
  const Bytes valid = core::read_file(wal).value();

  // Replay of `bytes` keeps the first recovered_rows() rows, each exactly
  // as written, and nothing else.
  const auto replay_is_prefix = [&](BytesView bytes) -> u64 {
    EXPECT_TRUE(core::write_file(wal, bytes).ok());
    store::LogStore s(store::StoreConfig{.wal_path = wal});
    EXPECT_TRUE(s.recover().ok());
    const u64 kept = s.stats().recovered_rows;
    EXPECT_LE(kept, written.size());
    for (const std::string table : {"rlogs", "commits"}) {
      std::vector<store::StoredRow> expected;
      for (size_t i = 0; i < kept && i < written.size(); ++i) {
        if (written[i].table == table) expected.push_back(written[i].row);
      }
      const auto rows = s.scan(table, 0, ~u64{0});
      EXPECT_EQ(rows.size(), expected.size()) << table;
      for (size_t i = 0; i < std::min(rows.size(), expected.size()); ++i) {
        EXPECT_EQ(rows[i].id, expected[i].id);
        EXPECT_EQ(rows[i].k1, expected[i].k1);
        EXPECT_EQ(rows[i].k2, expected[i].k2);
        EXPECT_EQ(rows[i].payload, expected[i].payload);
      }
    }
    u64 rows = 0;
    for (const std::string& table : s.table_names()) {
      rows += s.row_count(table);
    }
    EXPECT_EQ(rows, kept) << "a row recovered into another table";
    return kept;
  };

  const LogLevel level = log_level();
  set_log_level(LogLevel::error);  // each corrupt frame logs a warning
  EXPECT_EQ(replay_is_prefix(valid), written.size());
  u64 last = 0;
  for (size_t len = 0; len < valid.size(); ++len) {
    const u64 kept = replay_is_prefix(BytesView(valid.data(), len));
    EXPECT_GE(kept, last) << "prefix length " << len;
    EXPECT_LT(kept, written.size()) << "prefix length " << len;
    last = kept;
  }
  // 32 of the 255 flips of every byte: each trial writes and replays a WAL.
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    for (u32 flip = 1; flip < 256; flip += 8) {
      Bytes mutated = valid;
      mutated[pos] ^= static_cast<u8>(flip);
      EXPECT_LT(replay_is_prefix(mutated), written.size()) << "byte " << pos;
    }
  }
  set_log_level(level);
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
