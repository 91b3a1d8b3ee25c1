// Auditor (verifier-side) tests: chain acceptance rules, board cross-checks,
// and query-receipt validation against accepted rounds.
#include <gtest/gtest.h>

#include "core/auditor.h"
#include "core/epoch.h"
#include "core/service.h"

namespace zkt::core {
namespace {

using netflow::FlowRecord;
using netflow::PacketObservation;
using netflow::RLogBatch;

struct Pipeline {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("auditor-t");
  AggregationService service{board};
  u64 next_window = 1;

  RLogBatch make_batch(std::vector<std::pair<u32, u64>> flows) {
    RLogBatch batch;
    batch.router_id = 0;
    batch.window_id = next_window++;
    for (auto [src, packets] : flows) {
      FlowRecord record;
      for (u64 i = 0; i < packets; ++i) {
        PacketObservation pkt;
        pkt.key = {src, 0x09090909, 1000, 443, 6};
        pkt.timestamp_ms = batch.window_id * 5000 + i;
        pkt.bytes = 100;
        pkt.hop_count = 4;
        record.observe(pkt);
      }
      batch.records.push_back(std::move(record));
    }
    EXPECT_TRUE(board
                    .publish(make_commitment(batch, key,
                                             batch.window_id * 5000)
                                 .value())
                    .ok());
    return batch;
  }

  AggregationRound round(std::vector<std::pair<u32, u64>> flows) {
    auto r = service.aggregate({make_batch(std::move(flows))});
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
    return std::move(r.value());
  }
};

TEST(Auditor, AcceptsChainInOrder) {
  Pipeline p;
  Auditor auditor(p.board);
  auto r0 = p.round({{1, 2}});
  auto r1 = p.round({{1, 3}, {2, 1}});
  auto r2 = p.round({{2, 5}});
  ASSERT_TRUE(auditor.accept_round(r0.receipt).ok());
  ASSERT_TRUE(auditor.accept_round(r1.receipt).ok());
  ASSERT_TRUE(auditor.accept_round(r2.receipt).ok());
  EXPECT_EQ(auditor.rounds_accepted(), 3u);
  EXPECT_EQ(auditor.current_entry_count(), 2u);
  EXPECT_EQ(auditor.current_root(), p.service.state().root());
}

TEST(Auditor, RejectsSkippedRound) {
  Pipeline p;
  Auditor auditor(p.board);
  auto r0 = p.round({{1, 2}});
  auto r1 = p.round({{1, 3}});
  auto r2 = p.round({{1, 4}});
  ASSERT_TRUE(auditor.accept_round(r0.receipt).ok());
  // Skipping r1: r2 does not chain onto r0.
  auto rejected = auditor.accept_round(r2.receipt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::chain_broken);
  // r1 then r2 in order still works.
  ASSERT_TRUE(auditor.accept_round(r1.receipt).ok());
  ASSERT_TRUE(auditor.accept_round(r2.receipt).ok());
}

TEST(Auditor, RejectsNonGenesisFirst) {
  Pipeline p;
  auto r0 = p.round({{1, 2}});
  auto r1 = p.round({{1, 3}});
  Auditor auditor(p.board);
  auto rejected = auditor.accept_round(r1.receipt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::chain_broken);
}

TEST(Auditor, RejectsReplayedGenesisAfterProgress) {
  Pipeline p;
  Auditor auditor(p.board);
  auto r0 = p.round({{1, 2}});
  auto r1 = p.round({{1, 3}});
  ASSERT_TRUE(auditor.accept_round(r0.receipt).ok());
  ASSERT_TRUE(auditor.accept_round(r1.receipt).ok());
  EXPECT_FALSE(auditor.accept_round(r0.receipt).ok());
}

TEST(Auditor, RejectsRoundWithUnpublishedCommitment) {
  // Build a separate pipeline whose board the auditor does not trust.
  Pipeline trusted;
  Pipeline rogue;
  auto rogue_round = rogue.round({{1, 2}});
  Auditor auditor(trusted.board);  // auditor watches the trusted board only
  auto rejected = auditor.accept_round(rogue_round.receipt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::commitment_missing);
}

TEST(Auditor, RejectsTamperedRoundJournal) {
  Pipeline p;
  Auditor auditor(p.board);
  auto r0 = p.round({{1, 2}});
  auto tampered = r0.receipt;
  AggJournal j = r0.journal;
  j.new_entry_count += 1;
  Writer w;
  j.write(w);
  tampered.journal = std::move(w).take();
  EXPECT_FALSE(auditor.accept_round(tampered).ok());
}

TEST(Auditor, QueryAgainstUnacceptedRoundRejected) {
  Pipeline p;
  auto r0 = p.round({{1, 2}});
  QueryService queries(p.service);
  auto resp = queries.run(Query::count());
  ASSERT_TRUE(resp.ok());

  Auditor auditor(p.board);  // never accepted any round
  auto rejected = auditor.verify_query(resp.value().receipt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::chain_broken);
}

TEST(Auditor, QueryAgainstOlderAcceptedRoundStillVerifies) {
  Pipeline p;
  Auditor auditor(p.board);
  auto r0 = p.round({{1, 2}});
  ASSERT_TRUE(auditor.accept_round(r0.receipt).ok());

  QueryService queries(p.service);
  auto resp_old = queries.run(Query::count());
  ASSERT_TRUE(resp_old.ok());

  auto r1 = p.round({{2, 2}});
  ASSERT_TRUE(auditor.accept_round(r1.receipt).ok());

  // The earlier query (against round 0) still verifies: it targets an
  // accepted claim, just not the newest one.
  EXPECT_TRUE(auditor.verify_query(resp_old.value().receipt).ok());
}

TEST(Auditor, ExpectedQueryMismatchRejected) {
  Pipeline p;
  Auditor auditor(p.board);
  auto r0 = p.round({{1, 2}});
  ASSERT_TRUE(auditor.accept_round(r0.receipt).ok());
  QueryService queries(p.service);
  const Query asked = Query::sum(QField::packets);
  const Query other = Query::sum(QField::bytes);
  auto resp = queries.run(asked);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(auditor.verify_query(resp.value().receipt, {.expected_query = &asked}).ok());
  auto mismatch = auditor.verify_query(resp.value().receipt, {.expected_query = &other});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.error().code, Errc::proof_invalid);
}

TEST(Auditor, ModeConfusionRejected) {
  // A selective receipt whose journal is rewritten to claim complete mode
  // must fail (journal digest breaks); and vice versa.
  Pipeline p;
  Auditor auditor(p.board);
  auto r0 = p.round({{1, 2}, {2, 3}});
  ASSERT_TRUE(auditor.accept_round(r0.receipt).ok());
  QueryService queries(p.service);
  const Query q = Query::count();
  auto selective = queries.run(q, {.mode = QueryMode::selective});
  ASSERT_TRUE(selective.ok());

  auto confused = selective.value().receipt;
  QueryJournal j = selective.value().journal;
  j.mode = QueryMode::complete;
  Writer w;
  j.write(w);
  confused.journal = std::move(w).take();
  EXPECT_FALSE(auditor.verify_query(confused, {.expected_query = &q}).ok());
}

// ---------------------------------------------------------------------------
// The soundness floor (AuditorOptions::min_queries) reaches every receipt
// kind the auditor verifies.

/// Composite receipts opening 24 leaves per segment: of every query kind,
/// plus one epoch seal over the chain, all against one sketched chain.
/// Each spans more than 24 leaves, so a floor above 24 asks for more
/// openings than it carries. Every one but the histogram spans more than 32;
/// the histogram guest's trace is 221 rows (28 leaves) whatever the
/// histogram holds, which is why the openings are 24 and not 32.
struct FloorReceipts {
  Pipeline p;
  std::vector<zvm::Receipt> rounds;
  CommitmentRef histogram_ref;
  std::vector<std::pair<std::string, zvm::Receipt>> queries;
  EpochSeal seal;

  void prove() {
    // 24 flows at genesis, then seven rounds that each merge two and add
    // one: the epoch seal spans all eight.
    std::vector<std::pair<u32, u64>> genesis;
    for (u32 src = 1; src <= 24; ++src) genesis.emplace_back(src, 1 + src % 4);
    rounds.push_back(p.round(genesis).receipt);
    for (u32 r = 0; r < 7; ++r) {
      rounds.push_back(p.round({{1 + r, 2}, {9 + r, 1}, {25 + r, 3}}).receipt);
    }

    zvm::ProveOptions composite;
    composite.seal_kind = zvm::SealKind::composite;
    composite.num_queries = 24;
    QueryOptions options;
    QueryService service(p.service, QueryServiceOptions{composite});
    const Query q = Query::sum(QField::packets);
    auto add = [&](const std::string& kind, const auto& response) {
      ASSERT_TRUE(response.ok()) << kind << ": " << response.error().to_string();
      queries.emplace_back(kind, response.value().receipt);
    };
    add("complete", service.run(q, options));
    QueryOptions selective = options;
    selective.mode = QueryMode::selective;
    Query some = q;
    some.and_where(QField::src_ip, CmpOp::le, 10);
    add("selective", service.run(some, selective));
    add("grouped", service.grouped(q, QField::packets, options));
    const netflow::RoundSketch& sketch = p.service.sketch();
    add("sketch heavy",
        prove_sketch_heavy(p.service.last_receipt(), sketch,
                           sketch.heavy().total() / sketch.heavy().capacity() +
                               1,
                           composite));
    add("sketch cardinality",
        prove_sketch_cardinality(p.service.last_receipt(), sketch, composite));

    netflow::LatencyHistogram histogram;
    for (u64 i = 0; i < 200; ++i) histogram.add(1000 + 97 * i);
    auto published = make_commitment_raw(9, 1, histogram.hash(),
                                          histogram.total(), p.key, 5000);
    ASSERT_TRUE(published.ok());
    ASSERT_TRUE(p.board.publish(published.value()).ok());
    histogram_ref = {9, 1, histogram.hash(), histogram.total()};
    add("histogram", prove_histogram_query(histogram_ref, histogram, 4095,
                                           composite));

    EpochSpanOptions span_options;
    span_options.prove_options = composite;
    auto summary = prove_epoch_span(rounds, span_options);
    ASSERT_TRUE(summary.ok()) << summary.error().to_string();
    seal.rounds = summary.value().journal.rounds;
    seal.receipt = summary.value().receipt;
    seal.journal = summary.value().journal;
    seal.commitments = summary.value().commitments;
  }

  /// Verify one query receipt on `auditor` by its kind.
  static Status verify(Auditor& auditor, const std::string& kind,
                       const zvm::Receipt& receipt) {
    auto status = [](const auto& verified) -> Status {
      if (!verified.ok()) return verified.error();
      return {};
    };
    if (kind == "grouped") return status(auditor.verify_grouped(receipt));
    if (kind == "sketch heavy") {
      return status(auditor.verify_heavy_hitters(receipt));
    }
    if (kind == "sketch cardinality") {
      return status(auditor.verify_cardinality(receipt));
    }
    if (kind == "histogram") return status(auditor.verify_histogram(receipt));
    return status(auditor.verify_query(receipt));
  }
};

TEST(SoundnessFloor, EveryReceiptKindMeetsTheAuditorsFloor) {
  FloorReceipts fx;
  ASSERT_NO_FATAL_FAILURE(fx.prove());
  ASSERT_EQ(fx.queries.size(), 6u);
  // Every receipt leaves some of its leaves unopened.
  auto opens_fewer_than_all = [](const zvm::Receipt& receipt) {
    for (const zvm::SegmentSeal& segment : receipt.composite.segments) {
      if (segment.openings.size() >= zvm::leaves_for_rows(segment.row_count)) {
        return false;
      }
    }
    return true;
  };
  for (const auto& [kind, receipt] : fx.queries) {
    EXPECT_TRUE(opens_fewer_than_all(receipt)) << kind;
  }
  EXPECT_TRUE(opens_fewer_than_all(fx.seal.receipt));

  // An auditor whose floor is 24 accepts every receipt (one that fell back
  // to the default floor of 32 would not)...
  AuditorOptions floor24;
  floor24.min_queries = 24;
  Auditor lenient(fx.p.board, floor24);
  ASSERT_TRUE(lenient.accept_rounds(fx.rounds).ok());
  for (const auto& [kind, receipt] : fx.queries) {
    const Status verified = FloorReceipts::verify(lenient, kind, receipt);
    EXPECT_TRUE(verified.ok()) << kind << ": " << verified.to_string();
  }
  Auditor lenient_cold(fx.p.board, floor24);
  auto caught = lenient_cold.catch_up(std::span<const EpochSeal>(&fx.seal, 1),
                                      {});
  EXPECT_TRUE(caught.ok()) << caught.error().to_string();

  // ...and one that demands 64 openings rejects each of them, on the same
  // accepted chain.
  AuditorOptions floor64;
  floor64.min_queries = 64;
  Auditor strict(fx.p.board, floor64);
  ASSERT_TRUE(strict.accept_rounds(fx.rounds).ok());
  for (const auto& [kind, receipt] : fx.queries) {
    const Status verified = FloorReceipts::verify(strict, kind, receipt);
    ASSERT_FALSE(verified.ok()) << kind;
    EXPECT_EQ(verified.code(), Errc::proof_invalid) << kind;
  }
  Auditor strict_cold(fx.p.board, floor64);
  auto rejected = strict_cold.catch_up(std::span<const EpochSeal>(&fx.seal, 1),
                                       {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::proof_invalid);
  EXPECT_EQ(strict_cold.rounds_accepted(), 0u);
}

// ---------------------------------------------------------------------------
// The one chain-link rule (ChainPosition::extend) on hand-built spans.

Digest32 tag(std::string_view label) { return crypto::sha256(label); }

netflow::SketchParams rule_params() {
  return netflow::SketchParams{.cm = {.width = 16, .depth = 2, .seed = 7},
                               .heavy_capacity = 4};
}

/// A valid genesis span: from the empty state and the empty sketch.
ChainSpan genesis_span() {
  ChainSpan span;
  span.prev_root = crypto::MerkleTree::empty_leaf();
  span.claim_digest = tag("claim-1");
  span.new_root = tag("root-1");
  span.new_entry_count = 1;
  span.has_sketch = true;
  span.sketch_params = rule_params();
  span.prev_sketch_digest = netflow::RoundSketch{rule_params()}.hash();
  span.sketch_digest = tag("sketch-1");
  return span;
}

/// A valid span of `rounds` rounds extending `at`.
ChainSpan next_span(const ChainPosition& at, u64 rounds) {
  ChainSpan span;
  span.rounds = rounds;
  span.has_prev = true;
  span.prev_claim_digest = at.claim_digest;
  span.prev_root = at.root;
  span.prev_entry_count = at.entry_count;
  span.claim_digest = tag("claim-next");
  span.new_root = tag("root-next");
  span.new_entry_count = at.entry_count + 2;
  span.has_sketch = at.has_sketch;
  span.sketch_params = at.sketch_params;
  span.prev_sketch_digest = at.sketch_digest;
  span.sketch_digest = tag("sketch-next");
  return span;
}

struct SpanCase {
  const char* name;
  void (*forge)(ChainSpan&);
};

void expect_rejected_unchanged(const ChainPosition& at, const ChainSpan& span) {
  ChainPosition position = at;
  const Status rejected = position.extend(span);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), Errc::chain_broken);
  EXPECT_EQ(position, at);
}

TEST(ChainLinkRule, GenesisAnchor) {
  const SpanCase cases[] = {
      {"predecessor", [](ChainSpan& s) { s.has_prev = true; }},
      {"non-empty root", [](ChainSpan& s) { s.prev_root = tag("seeded"); }},
      {"non-zero count", [](ChainSpan& s) { s.prev_entry_count = 3; }},
      {"non-empty sketch",
       [](ChainSpan& s) { s.prev_sketch_digest = tag("seeded"); }},
  };
  for (const SpanCase& c : cases) {
    SCOPED_TRACE(c.name);
    ChainSpan span = genesis_span();
    c.forge(span);
    expect_rejected_unchanged(ChainPosition{}, span);
  }

  ChainPosition position;
  ASSERT_TRUE(position.extend(genesis_span()).ok());
  EXPECT_EQ(position.rounds, 1u);
  EXPECT_EQ(position.claim_digest, tag("claim-1"));
  EXPECT_EQ(position.root, tag("root-1"));
  EXPECT_EQ(position.entry_count, 1u);
  EXPECT_TRUE(position.has_sketch);
  EXPECT_EQ(position.sketch_digest, tag("sketch-1"));
}

TEST(ChainLinkRule, LinkOntoAnchoredChain) {
  ChainPosition anchored;
  ASSERT_TRUE(anchored.extend(genesis_span()).ok());
  const SpanCase cases[] = {
      {"wrong previous claim",
       [](ChainSpan& s) { s.prev_claim_digest = tag("other"); }},
      {"wrong root", [](ChainSpan& s) { s.prev_root = tag("other"); }},
      {"wrong count", [](ChainSpan& s) { s.prev_entry_count += 1; }},
      {"wrong sketch digest",
       [](ChainSpan& s) { s.prev_sketch_digest = tag("other"); }},
      {"sketch carriage flip", [](ChainSpan& s) { s.has_sketch = false; }},
      {"params change", [](ChainSpan& s) { s.sketch_params.cm.seed += 1; }},
      {"second genesis", [](ChainSpan& s) { s.has_prev = false; }},
  };
  for (const SpanCase& c : cases) {
    SCOPED_TRACE(c.name);
    ChainSpan span = next_span(anchored, 1);
    c.forge(span);
    expect_rejected_unchanged(anchored, span);
  }

  // An unsketched chain cannot start carrying a sketch either.
  ChainSpan unsketched = genesis_span();
  unsketched.has_sketch = false;
  ChainPosition plain;
  ASSERT_TRUE(plain.extend(unsketched).ok());
  ChainSpan flip = next_span(plain, 1);
  flip.has_sketch = true;
  flip.sketch_params = rule_params();
  expect_rejected_unchanged(plain, flip);

  // A valid span advances the position by its length, to its end.
  ChainPosition position = anchored;
  ASSERT_TRUE(position.extend(next_span(anchored, 5)).ok());
  EXPECT_EQ(position.rounds, 6u);
  EXPECT_EQ(position.claim_digest, tag("claim-next"));
  EXPECT_EQ(position.root, tag("root-next"));
  EXPECT_EQ(position.entry_count, 3u);
  EXPECT_EQ(position.sketch_digest, tag("sketch-next"));
}

}  // namespace
}  // namespace zkt::core
