// zkVM tests: guest environment semantics, trace-row checking, prover/
// verifier round-trips, Fiat–Shamir binding, seal tampering, receipt
// serialization, and the assumption (receipt chaining) mechanism.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "zvm/env.h"
#include "zvm/image.h"
#include "zvm/prover.h"
#include "zvm/verifier.h"

namespace zkt::zvm {
namespace {

using crypto::Digest32;
using crypto::sha256;

// A test guest: reads two u64s and a blob, asserts a < b, hashes the blob,
// and commits results.
Status adder_guest(Env& env) {
  auto a = env.read_u64();
  if (!a.ok()) return a.error();
  auto b = env.read_u64();
  if (!b.ok()) return b.error();
  auto blob = env.read_blob();
  if (!blob.ok()) return blob.error();

  ZKT_TRY(env.assert_true(env.alu(AluOp::ltu, a.value(), b.value()) == 1,
                          "a < b"));
  const u64 sum = env.alu(AluOp::add, a.value(), b.value());
  const Digest32 digest = env.sha256(blob.value());
  env.commit_u64(sum);
  env.commit_digest(digest);
  return {};
}

ImageID register_adder() {
  static const ImageID id =
      ImageRegistry::instance().add("test.adder", 1, adder_guest);
  return id;
}

Bytes adder_input(u64 a, u64 b, std::string_view blob) {
  Writer w;
  w.u64v(a);
  w.u64v(b);
  w.blob(bytes_of(blob));
  return std::move(w).take();
}

// ---------------------------------------------------------------------------
// ALU semantics

struct AluCase {
  AluOp op;
  u64 a, b, expect;
};

class AluEval : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluEval, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(alu_eval(c.op, c.a, c.b), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluEval,
    ::testing::Values(
        AluCase{AluOp::add, 2, 3, 5}, AluCase{AluOp::add, ~0ULL, 1, 0},
        AluCase{AluOp::sub, 3, 5, ~0ULL - 1},
        AluCase{AluOp::mul, 1ULL << 32, 1ULL << 32, 0},
        AluCase{AluOp::divu, 17, 5, 3}, AluCase{AluOp::divu, 17, 0, 0},
        AluCase{AluOp::remu, 17, 5, 2}, AluCase{AluOp::remu, 17, 0, 17},
        AluCase{AluOp::and_, 0b1100, 0b1010, 0b1000},
        AluCase{AluOp::or_, 0b1100, 0b1010, 0b1110},
        AluCase{AluOp::xor_, 0b1100, 0b1010, 0b0110},
        AluCase{AluOp::shl, 1, 8, 256}, AluCase{AluOp::shl, 1, 64, 1},
        AluCase{AluOp::shr, 256, 8, 1}, AluCase{AluOp::shr, 1, 65, 0},
        AluCase{AluOp::eq, 7, 7, 1}, AluCase{AluOp::eq, 7, 8, 0},
        AluCase{AluOp::ltu, 7, 8, 1}, AluCase{AluOp::ltu, 8, 7, 0},
        AluCase{AluOp::ltu, 7, 7, 0}));

// ---------------------------------------------------------------------------
// Env semantics

TEST(Env, TracedSha256MatchesNative) {
  Env env({}, {});
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 200u}) {
    Bytes data(n, static_cast<u8>(n));
    EXPECT_EQ(env.sha256(data), sha256(data)) << n;
  }
}

TEST(Env, HashNodeMatchesMerkle) {
  Env env({}, {});
  const Digest32 a = sha256(std::string_view("a"));
  const Digest32 b = sha256(std::string_view("b"));
  EXPECT_EQ(env.hash_node(a, b), crypto::MerkleTree::hash_node(a, b));
  EXPECT_EQ(env.hash_leaf(bytes_of("x")),
            crypto::MerkleTree::hash_leaf(bytes_of("x")));
}

TEST(Env, CyclesCountRows) {
  Env env({}, {});
  EXPECT_EQ(env.cycles(), 0u);
  env.alu(AluOp::add, 1, 2);
  EXPECT_EQ(env.cycles(), 1u);
  env.sha256(Bytes(64, 0));  // 64 bytes -> 2 compressions
  EXPECT_EQ(env.cycles(), 3u);
}

TEST(Env, AssertFalseAborts) {
  Env env({}, {});
  const Status ok = env.assert_true(true, "fine");
  EXPECT_TRUE(ok.ok());
  const Status bad = env.assert_true(false, "nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::guest_abort);
}

TEST(Env, VerifyMerkleTracedAgreesWithNative) {
  std::vector<Digest32> leaves;
  for (int i = 0; i < 9; ++i) {
    leaves.push_back(crypto::MerkleTree::hash_leaf(as_bytes_view(i)));
  }
  crypto::MerkleTree tree(leaves);
  Env env({}, {});
  for (u64 i = 0; i < 9; ++i) {
    EXPECT_TRUE(env.verify_merkle(tree.root(), leaves[i], tree.prove(i)).ok());
  }
  // Wrong root aborts.
  Digest32 bad_root = tree.root();
  bad_root.bytes[5] ^= 1;
  EXPECT_FALSE(env.verify_merkle(bad_root, leaves[0], tree.prove(0)).ok());
}

TEST(Env, VerifyMerkleMultiTracedAgreesWithNative) {
  std::vector<Digest32> leaves;
  for (int i = 0; i < 11; ++i) {
    leaves.push_back(crypto::MerkleTree::hash_leaf(as_bytes_view(i)));
  }
  crypto::MerkleTree tree(leaves);
  const auto proof = tree.prove_multi(std::vector<u64>{1, 4, 5, 10});
  std::vector<std::pair<u64, Digest32>> opened;
  for (u64 i : proof.indices) opened.emplace_back(i, leaves[i]);

  Env env({}, {});
  EXPECT_TRUE(env.verify_merkle_multi(tree.root(), opened, proof).ok());
  EXPECT_GT(env.cycles(), 0u);

  // Wrong root aborts.
  Digest32 bad_root = tree.root();
  bad_root.bytes[0] ^= 1;
  Env env2({}, {});
  EXPECT_FALSE(env2.verify_merkle_multi(bad_root, opened, proof).ok());

  // Misaligned leaf set aborts.
  Env env3({}, {});
  auto shuffled = opened;
  std::swap(shuffled[0], shuffled[1]);
  EXPECT_FALSE(
      env3.verify_merkle_multi(tree.root(), shuffled, proof).ok());
}

TEST(Env, ReadPastEndFails) {
  Writer w;
  w.u64v(1);
  Env env(w.bytes(), {});
  EXPECT_TRUE(env.read_u64().ok());
  EXPECT_FALSE(env.read_u64().ok());
}

TEST(Env, JournalFraming) {
  Env env({}, {});
  env.commit_u64(7);
  env.commit_blob(bytes_of("abc"));
  env.commit_string("str");
  Reader r(env.journal());
  EXPECT_EQ(r.u64v().value(), 7u);
  EXPECT_EQ(r.blob().value(), bytes_of("abc"));
  EXPECT_EQ(r.str().value(), "str");
  EXPECT_TRUE(r.done());
}

TEST(Env, SegmentsCutAtMaxRowsAndSinkSeesEachFullOne) {
  Env env({}, {}, /*max_segment_rows=*/4);
  std::vector<u64> sunk_rows;
  env.set_segment_sink([&](const TraceSegment& segment) {
    sunk_rows.push_back(segment.rows());
  });
  for (u64 i = 0; i < 10; ++i) env.alu(AluOp::add, i, 1);
  EXPECT_EQ(sunk_rows, (std::vector<u64>{4, 4}));
  ASSERT_EQ(env.segments().size(), 3u);
  EXPECT_EQ(env.segments()[2].rows(), 2u);

  for (u64 i = 0; i < env.cycles(); ++i) {
    const BytesView row = env.row(i);
    const BytesView in_segment = env.segments()[i / 4].row(i % 4);
    EXPECT_EQ(Bytes(row.begin(), row.end()),
              Bytes(in_segment.begin(), in_segment.end()));
    Reader r(row);
    auto parsed = TraceRow::deserialize(r);
    ASSERT_TRUE(parsed.ok()) << i;
    const auto* alu = std::get_if<RowAlu>(&parsed.value().op);
    ASSERT_NE(alu, nullptr) << i;
    EXPECT_EQ(alu->a, i);
    EXPECT_EQ(alu->c, i + 1);
  }
}

TEST(Env, RecordedRowsRoundTripThroughTraceRow) {
  // One row of every kind, recorded through the Env API; each decodes with
  // TraceRow::deserialize and re-serializes to exactly the recorded bytes.
  Receipt inner;
  inner.claim.image_id = sha256(std::string_view("inner image"));
  inner.claim.input_digest = sha256(std::string_view("inner input"));
  Env env(bytes_of("input"), std::span<const Receipt>(&inner, 1));
  env.bind_input();
  env.sha256(Bytes(100, 0x5a));
  env.alu(AluOp::mul, 6, 7);
  ASSERT_TRUE(env.assert_true(true, "holds").ok());
  const Digest32 d = sha256(std::string_view("d"));
  ASSERT_TRUE(env.assert_eq(d, d, "same").ok());
  ASSERT_TRUE(
      env.verify_assumption(inner.claim.image_id, inner.claim.digest()).ok());
  env.commit_u64(42);
  env.bind_journal();

  std::set<OpKind> kinds;
  u64 sha_rows = 0;
  for (u64 i = 0; i < env.cycles(); ++i) {
    const BytesView recorded = env.row(i);
    Reader r(recorded);
    auto row = TraceRow::deserialize(r);
    ASSERT_TRUE(row.ok()) << i;
    EXPECT_TRUE(r.done()) << i;
    EXPECT_TRUE(row.value().check().ok()) << i;
    Writer w;
    row.value().serialize(w);
    EXPECT_EQ(w.bytes(), Bytes(recorded.begin(), recorded.end())) << i;
    EXPECT_EQ(row.value().leaf_digest(),
              crypto::MerkleTree::hash_leaf(recorded))
        << i;
    kinds.insert(row.value().kind());
    if (row.value().kind() == OpKind::sha256_compress) ++sha_rows;
  }
  EXPECT_EQ(kinds.size(), 6u);
  EXPECT_EQ(env.sha_rows(), sha_rows);
}

// ---------------------------------------------------------------------------
// Trace rows

TEST(TraceRow, SerializationRoundTripAllKinds) {
  std::vector<TraceRow> rows;
  RowSha256 sha;
  sha.state_in = crypto::Sha256State::initial();
  sha.block.fill(0x42);
  sha.state_out = crypto::sha256_compress(sha.state_in, sha.block);
  rows.push_back(TraceRow{sha});
  rows.push_back(TraceRow{RowAlu{AluOp::mul, 6, 7, 42}});
  rows.push_back(TraceRow{RowAssert{1, sha256(std::string_view("ctx"))}});
  rows.push_back(TraceRow{RowAssertEqDigest{sha256(std::string_view("a")),
                                            sha256(std::string_view("a"))}});
  rows.push_back(
      TraceRow{RowBindDigest{BindTarget::journal, sha256(std::string_view("j"))}});
  rows.push_back(TraceRow{RowAssume{sha256(std::string_view("img")),
                                    sha256(std::string_view("claim"))}});

  for (const auto& row : rows) {
    Writer w;
    row.serialize(w);
    Reader r(w.bytes());
    auto parsed = TraceRow::deserialize(r);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(r.done());
    EXPECT_EQ(parsed.value().kind(), row.kind());
    EXPECT_EQ(parsed.value().leaf_digest(), row.leaf_digest());
    EXPECT_TRUE(parsed.value().check().ok());
  }
}

TEST(TraceRow, CheckCatchesBadSemantics) {
  RowSha256 sha;
  sha.state_in = crypto::Sha256State::initial();
  sha.block.fill(0);
  sha.state_out = sha.state_in;  // wrong
  EXPECT_FALSE(TraceRow{sha}.check().ok());

  const TraceRow bad_alu{RowAlu{AluOp::add, 2, 2, 5}};
  EXPECT_FALSE(bad_alu.check().ok());
  const TraceRow bad_assert{RowAssert{0, {}}};
  EXPECT_FALSE(bad_assert.check().ok());
  const TraceRow bad_eq{RowAssertEqDigest{sha256(std::string_view("a")),
                                          sha256(std::string_view("b"))}};
  EXPECT_FALSE(bad_eq.check().ok());
}

TEST(TraceRow, DeserializeRejectsGarbage) {
  const Bytes junk = {99};
  Reader r(junk);
  EXPECT_FALSE(TraceRow::deserialize(r).ok());
  Reader empty({});
  EXPECT_FALSE(TraceRow::deserialize(empty).ok());
}

// ---------------------------------------------------------------------------
// Prover / Verifier

TEST(ProveVerify, SucceedsAndBindsJournal) {
  Prover prover;
  Verifier verifier;
  ProveInfo info;
  auto receipt = prover.prove(register_adder(), adder_input(2, 40, "data"),
                              {}, &info);
  ASSERT_TRUE(receipt.ok()) << receipt.error().to_string();
  EXPECT_TRUE(verifier.verify(receipt.value(), register_adder()).ok());
  EXPECT_GT(info.cycles, 0u);
  EXPECT_EQ(info.cycles, receipt.value().claim.cycle_count);

  Reader r(receipt.value().journal);
  EXPECT_EQ(r.u64v().value(), 42u);
  Digest32 digest;
  ASSERT_TRUE(r.fixed(digest.bytes).ok());
  EXPECT_EQ(digest, sha256(std::string_view("data")));
}

TEST(ProveVerify, GuestAbortFailsProving) {
  Prover prover;
  auto receipt = prover.prove(register_adder(), adder_input(40, 2, "x"));
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.error().code, Errc::guest_abort);
}

// A guest that records kAbortRows ALU rows — more than four 64-row segments,
// so several segment commits are queued — then fails.
constexpr u64 kAbortSegmentRows = 64;
constexpr u64 kAbortRows = 4 * kAbortSegmentRows + 40;
u64 g_abort_cycles = 0;  // cycles recorded when the guest gave up

Status long_then_abort_guest(Env& env) {
  for (u64 i = 0; i < kAbortRows; ++i) env.alu(AluOp::add, i, i);
  g_abort_cycles = env.cycles() + 1;  // + the failing assertion's row
  return env.assert_true(false, "gives up late");
}

Status long_then_throw_guest(Env& env) {
  for (u64 i = 0; i < kAbortRows; ++i) env.alu(AluOp::add, i, i);
  g_abort_cycles = env.cycles();
  throw std::runtime_error("guest threw");
}

/// Occupies every worker of the shared pool until destroyed, so segment
/// commits submitted meanwhile stay queued: only a caller that help-waits
/// for them can run them.
class PoolBlocker {
 public:
  PoolBlocker() {
    common::ThreadPool& pool = common::ThreadPool::shared();
    const std::shared_future<void> release = release_.get_future().share();
    for (size_t i = 0; i < pool.thread_count(); ++i) {
      blockers_.push_back(pool.submit([this, release] {
        started_.fetch_add(1);
        release.wait();
      }));
    }
    while (started_.load() < pool.thread_count()) std::this_thread::yield();
  }
  ~PoolBlocker() {
    release_.set_value();
    for (auto& blocker : blockers_) blocker.get();
  }

 private:
  std::promise<void> release_;
  std::atomic<size_t> started_{0};
  std::vector<std::future<void>> blockers_;
};

/// Run `prove_and_check` (a prove with 64-row segments) while every pool
/// worker is busy, and return how many segment commits ran before it came
/// back.
template <typename ProveAndCheck>
u64 commits_during_failed_prove(ProveAndCheck prove_and_check) {
  obs::Histogram& commits =
      obs::Registry::instance().histogram("zvm.prover.segment_commit_ms");
  PoolBlocker blocker;
  const u64 before = commits.count();
  ProveOptions options;
  options.max_segment_rows = kAbortSegmentRows;
  prove_and_check(Prover(), options);
  return commits.count() - before;
}

ImageID long_then_abort_image() {
  static const ImageID id = ImageRegistry::instance().add(
      "test.long_then_abort", 1, long_then_abort_guest);
  return id;
}

TEST(ProveVerify, GuestAbortDrainsQueuedSegmentCommits) {
  const u64 commits = commits_during_failed_prove(
      [](const Prover& prover, const ProveOptions& options) {
        auto receipt = prover.prove(long_then_abort_image(), {}, options);
        ASSERT_FALSE(receipt.ok());
        EXPECT_EQ(receipt.error().code, Errc::guest_abort);
      });
  // Every full segment was queued, and every one had finished by the time
  // prove() returned; the partial tail is never committed.
  EXPECT_GE(g_abort_cycles / kAbortSegmentRows, 4u);
  EXPECT_EQ(commits, g_abort_cycles / kAbortSegmentRows);
}

TEST(ProveVerify, GuestExceptionDrainsQueuedSegmentCommits) {
  static const ImageID image = ImageRegistry::instance().add(
      "test.long_then_throw", 1, long_then_throw_guest);
  const u64 commits = commits_during_failed_prove(
      [](const Prover& prover, const ProveOptions& options) {
        EXPECT_THROW((void)prover.prove(image, {}, options),
                     std::runtime_error);
      });
  EXPECT_GE(g_abort_cycles / kAbortSegmentRows, 4u);
  EXPECT_EQ(commits, g_abort_cycles / kAbortSegmentRows);
}

// ---------------------------------------------------------------------------
// Segment buffers reused across proofs

/// ALU-only guest: reads a row count n and records add(i, 1) for i < n.
Status alu_rows_guest(Env& env) {
  auto rows = env.read_u64();
  if (!rows.ok()) return rows.error();
  u64 last = 0;
  for (u64 i = 0; i < rows.value(); ++i) last = env.alu(AluOp::add, i, 1);
  env.commit_u64(last);
  return {};
}

/// SHA-heavy guest: hashes the blob it reads (129-byte rows).
Status sha_blob_guest(Env& env) {
  auto blob = env.read_blob();
  if (!blob.ok()) return blob.error();
  env.commit_digest(env.sha256(blob.value()));
  return {};
}

ImageID alu_rows_image() {
  static const ImageID id =
      ImageRegistry::instance().add("test.alu_rows", 1, alu_rows_guest);
  return id;
}

ImageID sha_blob_image() {
  static const ImageID id =
      ImageRegistry::instance().add("test.sha_blob", 1, sha_blob_guest);
  return id;
}

Bytes rows_input(u64 rows) {
  Writer w;
  w.u64v(rows);
  return std::move(w).take();
}

Bytes blob_input(size_t size, u8 fill) {
  Writer w;
  w.blob(Bytes(size, fill));
  return std::move(w).take();
}

/// Composite seals carry the opened rows, so a receipt shows any stale row
/// a reused buffer might leak into a segment.
ProveOptions reuse_options(u64 segment_rows = kAbortSegmentRows) {
  ProveOptions options;
  options.seal_kind = SealKind::composite;
  options.max_segment_rows = segment_rows;
  return options;
}

Bytes receipt_bytes(const ImageID& image, const Bytes& input,
                    const ProveOptions& options) {
  auto receipt = Prover().prove(image, input, options);
  EXPECT_TRUE(receipt.ok()) << receipt.error().to_string();
  return receipt.ok() ? receipt.value().to_bytes() : Bytes{};
}

TEST(SegmentBuffers, ReusedBuffersHoldOnlyTheirOwnRows) {
  constexpr u64 kRows = 3 * kAbortSegmentRows + 10;
  const Bytes alone =
      receipt_bytes(alu_rows_image(), rows_input(kRows), reuse_options());
  // 640 SHA rows over ten 64-row segments, all given back full.
  ASSERT_FALSE(receipt_bytes(sha_blob_image(), blob_input(40'000, 0xa5),
                             reuse_options())
                   .empty());
  ASSERT_GE(free_segment_buffers(), 4u);

  Env env({}, {}, kAbortSegmentRows);
  for (u64 i = 0; i < kRows; ++i) env.alu(AluOp::add, i, 1);
  ASSERT_EQ(env.segments().size(), 4u);
  EXPECT_EQ(env.segment_buffers_reused(), 4u);
  EXPECT_EQ(env.segment_buffers_fresh(), 0u);
  u64 row = 0;
  for (const TraceSegment& segment : env.segments()) {
    Writer expected;
    std::vector<u64> ends;
    for (u64 i = 0; i < segment.rows(); ++i, ++row) {
      TraceRow{RowAlu{AluOp::add, row, 1, row + 1}}.serialize(expected);
      ends.push_back(expected.size());
    }
    EXPECT_EQ(segment.bytes, expected.bytes()) << "segment at row " << row;
    EXPECT_EQ(segment.ends, ends) << "segment at row " << row;
  }
  EXPECT_EQ(row, kRows);

  EXPECT_EQ(receipt_bytes(alu_rows_image(), rows_input(kRows),
                          reuse_options()),
            alone);
}

TEST(SegmentBuffers, ConcurrentProofsMatchTheirSequentialTwins) {
  struct Job {
    ImageID image;
    Bytes input;
    u64 segment_rows;
  };
  // One segment to many, ALU- and SHA-shaped, two segment sizes.
  const std::vector<Job> jobs = {
      {alu_rows_image(), rows_input(20), kAbortSegmentRows},
      {sha_blob_image(), blob_input(20'000, 0x11), kAbortSegmentRows},
      {alu_rows_image(), rows_input(5 * kAbortSegmentRows + 7),
       kAbortSegmentRows},
      {sha_blob_image(), blob_input(3'000, 0x22), kDefaultSegmentRows},
      {alu_rows_image(), rows_input(kAbortSegmentRows), kAbortSegmentRows},
      {alu_rows_image(), rows_input(1'000), kDefaultSegmentRows},
  };
  std::vector<Bytes> twins;
  for (const Job& job : jobs) {
    twins.push_back(
        receipt_bytes(job.image, job.input, reuse_options(job.segment_rows)));
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 5;
  std::atomic<size_t> proofs{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t j = 0; j < jobs.size(); ++j) {
          const size_t pick = (j + t + round) % jobs.size();
          const Job& job = jobs[pick];
          auto receipt = Prover().prove(job.image, job.input,
                                        reuse_options(job.segment_rows));
          proofs.fetch_add(1);
          if (!receipt.ok() || receipt.value().to_bytes() != twins[pick]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(proofs.load(), kThreads * kRounds * jobs.size());
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SegmentBuffers, GuestAbortGivesEachBufferBackOnceAfterItsCommits) {
  const Bytes before = receipt_bytes(alu_rows_image(), rows_input(kAbortRows),
                                     reuse_options());
  obs::Registry& metrics = obs::Registry::instance();
  obs::Counter& reused = metrics.counter("zvm.prover.segment_buffers_reused");
  obs::Counter& fresh = metrics.counter("zvm.prover.segment_buffers_fresh");
  obs::Histogram& batches = metrics.histogram("zvm.prover.leaf_batch_rows");
  const size_t free_before = free_segment_buffers();
  const u64 reused_before = reused.value();
  const u64 fresh_before = fresh.value();
  const u64 batches_before = batches.count();

  commits_during_failed_prove(
      [](const Prover& prover, const ProveOptions& options) {
        auto receipt = prover.prove(long_then_abort_image(), {}, options);
        ASSERT_FALSE(receipt.ok());
        EXPECT_EQ(receipt.error().code, Errc::guest_abort);
      });
  const u64 segments = (g_abort_cycles + kAbortSegmentRows - 1) /
                       kAbortSegmentRows;
  const u64 took = reused.value() - reused_before;
  const u64 made = fresh.value() - fresh_before;
  EXPECT_EQ(took + made, segments);
  // Every buffer the Env held came back, once: the ones it took and the
  // ones it made.
  EXPECT_EQ(free_segment_buffers(),
            std::min<size_t>(free_before + made, kMaxFreeSegmentBuffers));
  // The queued commits (one 64-row leaf batch per full segment) read the
  // segments' rows before the buffers went back.
  EXPECT_EQ(batches.count() - batches_before,
            g_abort_cycles / kAbortSegmentRows);

  EXPECT_EQ(receipt_bytes(alu_rows_image(), rows_input(kAbortRows),
                          reuse_options()),
            before);
}

TEST(ProveVerify, UnknownImageFails) {
  Prover prover;
  const ImageID bogus = compute_image_id("does.not.exist", 1);
  EXPECT_FALSE(prover.prove(bogus, {}).ok());
}

TEST(ProveVerify, WrongExpectedImageRejected) {
  Prover prover;
  Verifier verifier;
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "x"));
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(
      verifier.verify(receipt.value(), compute_image_id("other", 1)).ok());
}

class SealKinds : public ::testing::TestWithParam<SealKind> {};

TEST_P(SealKinds, TamperedJournalRejected) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = GetParam();
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "x"),
                              options);
  ASSERT_TRUE(receipt.ok());
  auto tampered = receipt.value();
  tampered.journal[0] ^= 1;
  EXPECT_FALSE(verifier.verify(tampered, register_adder()).ok());
}

TEST_P(SealKinds, TamperedClaimRejected) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = GetParam();
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "x"),
                              options);
  ASSERT_TRUE(receipt.ok());
  auto tampered = receipt.value();
  tampered.claim.input_digest.bytes[0] ^= 1;
  EXPECT_FALSE(verifier.verify(tampered, register_adder()).ok());
  auto tampered2 = receipt.value();
  tampered2.claim.cycle_count += 1;
  EXPECT_FALSE(verifier.verify(tampered2, register_adder()).ok());
}

TEST_P(SealKinds, ReceiptSerializationRoundTrip) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = GetParam();
  auto receipt = prover.prove(register_adder(), adder_input(5, 6, "blob"),
                              options);
  ASSERT_TRUE(receipt.ok());
  const Bytes wire = receipt.value().to_bytes();
  auto parsed = Receipt::from_bytes(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(verifier.verify(parsed.value(), register_adder()).ok());
  EXPECT_EQ(parsed.value().claim.digest(), receipt.value().claim.digest());
  EXPECT_EQ(parsed.value().journal, receipt.value().journal);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SealKinds,
                         ::testing::Values(SealKind::composite,
                                           SealKind::succinct));

TEST(ProveVerify, SuccinctSealIsConstantSize) {
  Prover prover;
  for (int blob_size : {10, 1000, 50'000}) {
    auto receipt = prover.prove(
        register_adder(), adder_input(1, 2, std::string(blob_size, 'x')));
    ASSERT_TRUE(receipt.ok());
    EXPECT_EQ(receipt.value().proof_size_bytes(), kSuccinctSealSize);
  }
}

TEST(ProveVerify, SuccinctSealByteFlipsRejected) {
  Prover prover;
  Verifier verifier;
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "x"));
  ASSERT_TRUE(receipt.ok());
  for (size_t i = 0; i < kSuccinctSealSize; i += 17) {
    auto tampered = receipt.value();
    tampered.succinct.bytes[i] ^= 1;
    EXPECT_FALSE(verifier.verify(tampered, register_adder()).ok())
        << "byte " << i;
  }
}

TEST(ProveVerify, CompositeOpeningTamperRejected) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = SealKind::composite;
  auto receipt = prover.prove(register_adder(), adder_input(1, 2, "payload"),
                              options);
  ASSERT_TRUE(receipt.ok());
  ASSERT_EQ(receipt.value().composite.segments.size(), 1u);
  ASSERT_FALSE(receipt.value().composite.segments[0].openings.empty());

  // Tamper with an opened leaf's bytes.
  auto t1 = receipt.value();
  t1.composite.segments[0].openings[0].leaf_bytes[1] ^= 1;
  EXPECT_FALSE(verifier.verify(t1, register_adder()).ok());

  // Tamper with the trace root.
  auto t2 = receipt.value();
  t2.composite.segments[0].trace_root.bytes[0] ^= 1;
  EXPECT_FALSE(verifier.verify(t2, register_adder()).ok());

  // Claim a different row count.
  auto t3 = receipt.value();
  t3.composite.segments[0].row_count += 1;
  EXPECT_FALSE(verifier.verify(t3, register_adder()).ok());

  // Drop an opening.
  auto t4 = receipt.value();
  t4.composite.segments[0].openings.pop_back();
  EXPECT_FALSE(verifier.verify(t4, register_adder()).ok());

  // Drop a whole segment (with a multi-segment receipt). Segments of four
  // leaves, so each one's openings come in its own Fiat–Shamir draw order,
  // which the swap below breaks.
  ProveOptions small_segments = options;
  small_segments.max_segment_rows = 4 * kRowsPerLeaf;
  auto multi = prover.prove(register_adder(),
                            adder_input(1, 2, std::string(2000, 'p')),
                            small_segments);
  ASSERT_TRUE(multi.ok());
  ASSERT_GT(multi.value().composite.segments.size(), 2u);
  EXPECT_TRUE(verifier.verify(multi.value(), register_adder()).ok());
  auto t5 = multi.value();
  t5.composite.segments.pop_back();
  EXPECT_FALSE(verifier.verify(t5, register_adder()).ok());

  // Swap two segments.
  auto t6 = multi.value();
  std::swap(t6.composite.segments[0], t6.composite.segments[1]);
  EXPECT_FALSE(verifier.verify(t6, register_adder()).ok());
}

/// Rewrites one leaf's bytes, given the segment's honest rows.
using LeafMutation = std::function<void(Bytes&, const TraceSegment&)>;

/// An adder execution committed in leaves of kRowsPerLeaf rows by a prover
/// that lies about the shape of one leaf: `mutate` rewrites leaf `target`
/// before the trace is committed, and every leaf is opened.
Receipt commit_with_bad_leaf(u64 target, const LeafMutation& mutate) {
  Env env(adder_input(1, 2, std::string(500, 'q')), {});
  Claim claim;
  claim.image_id = register_adder();
  claim.input_digest = env.bind_input();
  EXPECT_TRUE(adder_guest(env).ok());
  claim.journal_digest = env.bind_journal();
  claim.cycle_count = env.cycles();

  const TraceSegment& trace = env.segments().front();
  std::vector<Bytes> leaf_bytes;
  std::vector<Digest32> leaves;
  for (u64 i = 0; i < leaves_for_rows(trace.rows()); ++i) {
    const BytesView leaf = trace.leaf(i);
    leaf_bytes.emplace_back(leaf.begin(), leaf.end());
    if (i == target) mutate(leaf_bytes.back(), trace);
    leaves.push_back(crypto::MerkleTree::hash_leaf(leaf_bytes.back()));
  }
  const crypto::MerkleTree tree(leaves);

  Receipt receipt;
  receipt.claim = claim;
  receipt.journal = env.journal();
  receipt.seal_kind = SealKind::composite;
  SegmentSeal& segment = receipt.composite.segments.emplace_back();
  segment.trace_root = tree.root();
  segment.row_count = trace.rows();
  for (u64 idx : derive_query_indices(claim.digest(),
                                      receipt.composite.roots_digest(), 0,
                                      tree.root(), trace.rows(), 1000)) {
    segment.openings.push_back({idx, leaf_bytes[idx], tree.prove(idx)});
  }
  return receipt;
}

TEST(ProveVerify, LeafWithWrongRowCountRejected) {
  Verifier verifier;
  const auto unchanged = [](Bytes&, const TraceSegment&) {};
  const Receipt honest = commit_with_bad_leaf(1, unchanged);
  const u64 rows = honest.composite.segments[0].row_count;
  ASSERT_GT(rows, 2 * kRowsPerLeaf);
  ASSERT_NE(rows % kRowsPerLeaf, 0u);  // the last leaf is partial
  ASSERT_TRUE(verifier.verify(honest, register_adder()).ok());

  const auto rejected = [&](u64 leaf, const char* what,
                            const LeafMutation& mutate) {
    const Status verified =
        verifier.verify(commit_with_bad_leaf(leaf, mutate), register_adder());
    ASSERT_FALSE(verified.ok()) << what;
    EXPECT_EQ(verified.code(), Errc::proof_invalid) << what;
  };
  const auto append_row = [](u64 row) {
    return [row](Bytes& leaf, const TraceSegment& trace) {
      const BytesView extra = trace.row(row);
      leaf.insert(leaf.end(), extra.begin(), extra.end());
    };
  };
  // Leaf 1 holds rows 8..15.
  rejected(1, "one row too few", [](Bytes& leaf, const TraceSegment& trace) {
    leaf.resize(leaf.size() - trace.row(15).size());
  });
  rejected(1, "one row too many", append_row(16));
  rejected(1, "one trailing byte",
           [](Bytes& leaf, const TraceSegment&) { leaf.push_back(0); });
  rejected(leaves_for_rows(rows) - 1, "one row too many in the last leaf",
           append_row(0));
}

TEST(Segments, SegmentedProofsVerifyAndMatchUnsegmented) {
  Prover prover;
  Verifier verifier;
  const Bytes input = adder_input(3, 5, std::string(500, 'q'));

  ProveOptions one_segment;
  one_segment.seal_kind = SealKind::composite;
  auto whole = prover.prove(register_adder(), input, one_segment);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().composite.segments.size(), 1u);

  for (u64 max_rows : {1ULL, 3ULL, 8ULL, 64ULL}) {
    ProveOptions options;
    options.seal_kind = SealKind::composite;
    options.max_segment_rows = max_rows;
    ProveInfo info;
    auto receipt = prover.prove(register_adder(), input, options, &info);
    ASSERT_TRUE(receipt.ok()) << max_rows;
    const u64 expect_segments =
        (info.cycles + max_rows - 1) / max_rows;
    EXPECT_EQ(info.segments, expect_segments);
    EXPECT_EQ(receipt.value().composite.segments.size(), expect_segments);
    EXPECT_TRUE(verifier.verify(receipt.value(), register_adder()).ok())
        << max_rows;
    // Same claim regardless of segmentation.
    EXPECT_EQ(receipt.value().claim.digest(), whole.value().claim.digest());
  }
}

TEST(Segments, SuccinctWrapCoversSegmentedSeal) {
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = SealKind::succinct;
  options.max_segment_rows = 8;
  auto receipt = prover.prove(register_adder(),
                              adder_input(1, 2, std::string(300, 'z')),
                              options);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.value().proof_size_bytes(), kSuccinctSealSize);
  EXPECT_TRUE(verifier.verify(receipt.value(), register_adder()).ok());
}

TEST(ProveVerify, SmallTraceOpensEverything) {
  // A guest with fewer leaves than num_queries: every leaf opened, so every
  // row is checked, and the receipt is still valid.
  static const ImageID tiny = ImageRegistry::instance().add(
      "test.tiny", 1, [](Env& env) -> Status {
        env.commit_u64(env.alu(AluOp::add, 1, 1));
        return {};
      });
  Prover prover;
  Verifier verifier;
  ProveOptions options;
  options.seal_kind = SealKind::composite;
  options.num_queries = 1000;
  auto receipt = prover.prove(tiny, {}, options);
  ASSERT_TRUE(receipt.ok());
  ASSERT_EQ(receipt.value().composite.segments.size(), 1u);
  const SegmentSeal& segment = receipt.value().composite.segments[0];
  EXPECT_EQ(segment.openings.size(), leaves_for_rows(segment.row_count));
  std::set<u64> rows_covered;
  for (const SealOpening& opening : segment.openings) {
    for (u64 row = opening.leaf_index * kRowsPerLeaf;
         row < std::min(segment.row_count,
                        (opening.leaf_index + 1) * kRowsPerLeaf);
         ++row) {
      rows_covered.insert(row);
    }
  }
  EXPECT_EQ(rows_covered.size(), segment.row_count);
  EXPECT_TRUE(verifier.verify(receipt.value(), tiny).ok());
}

TEST(QueryIndices, DeterministicAndDistinct) {
  const Digest32 claim = sha256(std::string_view("claim"));
  const Digest32 roots = sha256(std::string_view("roots"));
  const Digest32 root = sha256(std::string_view("root"));
  const auto a = derive_query_indices(claim, roots, 0, root, 1000, 32);
  const auto b = derive_query_indices(claim, roots, 0, root, 1000, 32);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 32u);
  std::set<u64> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
  for (u64 idx : a) EXPECT_LT(idx, 1000u);

  // Any change to the binding context changes the indices.
  EXPECT_NE(a, derive_query_indices(claim, roots, 0,
                                    sha256(std::string_view("r2")), 1000, 32));
  EXPECT_NE(a, derive_query_indices(claim, roots, 1, root, 1000, 32));
  EXPECT_NE(a, derive_query_indices(claim, sha256(std::string_view("other")),
                                    0, root, 1000, 32));
}

// ---------------------------------------------------------------------------
// Assumptions (receipt chaining)

Status chained_guest(Env& env) {
  auto image = env.read_digest();
  if (!image.ok()) return image.error();
  auto claim = env.read_digest();
  if (!claim.ok()) return claim.error();
  ZKT_TRY(env.verify_assumption(image.value(), claim.value()));
  env.commit_digest(claim.value());
  return {};
}

ImageID register_chained() {
  static const ImageID id =
      ImageRegistry::instance().add("test.chained", 1, chained_guest);
  return id;
}

TEST(Assumptions, ProveWithInnerReceipt) {
  Prover prover;
  Verifier verifier;
  auto inner = prover.prove(register_adder(), adder_input(1, 2, "inner"));
  ASSERT_TRUE(inner.ok());

  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(inner.value().claim.digest().bytes);
  ProveOptions options;
  options.assumptions.push_back(inner.value());
  auto outer = prover.prove(register_chained(), w.bytes(), options);
  ASSERT_TRUE(outer.ok()) << outer.error().to_string();
  EXPECT_EQ(outer.value().claim.assumptions.size(), 1u);
  EXPECT_TRUE(verifier.verify(outer.value(), register_chained()).ok());
}

TEST(Assumptions, MissingInnerReceiptFailsProving) {
  Prover prover;
  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(sha256(std::string_view("no such claim")).bytes);
  auto outer = prover.prove(register_chained(), w.bytes(), {});
  EXPECT_FALSE(outer.ok());
}

TEST(Assumptions, CompositeEmbedsAndChecksInner) {
  Prover prover;
  Verifier verifier;
  auto inner = prover.prove(register_adder(), adder_input(1, 2, "inner"));
  ASSERT_TRUE(inner.ok());

  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(inner.value().claim.digest().bytes);
  ProveOptions options;
  options.seal_kind = SealKind::composite;
  options.assumptions.push_back(inner.value());
  auto outer = prover.prove(register_chained(), w.bytes(), options);
  ASSERT_TRUE(outer.ok());
  ASSERT_EQ(outer.value().assumption_receipts.size(), 1u);
  EXPECT_TRUE(verifier.verify(outer.value(), register_chained()).ok());

  // Removing the embedded inner receipt breaks verification.
  auto stripped = outer.value();
  stripped.assumption_receipts.clear();
  EXPECT_FALSE(verifier.verify(stripped, register_chained()).ok());
}

TEST(Assumptions, VerifiedReceiptResolvesOnlyTheIdenticalInnerReceipt) {
  // A skip stands for re-verifying the very same receipt: an embedded copy
  // with the verified receipt's claim but a forged seal is verified, and
  // fails.
  Prover prover;
  Verifier verifier;
  ProveOptions composite;
  composite.seal_kind = SealKind::composite;
  auto inner =
      prover.prove(register_adder(), adder_input(1, 2, "inner"), composite);
  ASSERT_TRUE(inner.ok());
  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(inner.value().claim.digest().bytes);
  ProveOptions options = composite;
  options.assumptions.push_back(inner.value());
  auto outer = prover.prove(register_chained(), w.bytes(), options);
  ASSERT_TRUE(outer.ok());

  VerifyStats stats;
  ASSERT_TRUE(verifier
                  .verify(outer.value(), register_chained(),
                          {&inner.value(), &stats})
                  .ok());
  EXPECT_EQ(stats.assumptions_skipped, 1u);

  auto forged = outer.value();
  Receipt& embedded = forged.assumption_receipts.at(0);
  embedded.composite.segments.at(0).openings.at(0).leaf_bytes.at(1) ^= 1;
  ASSERT_EQ(embedded.claim.digest(), inner.value().claim.digest());
  EXPECT_FALSE(
      verifier.verify(forged, register_chained(), {&inner.value(), nullptr})
          .ok());
}

TEST(Assumptions, InvalidInnerReceiptRejectedAtProveTime) {
  Prover prover;
  auto inner = prover.prove(register_adder(), adder_input(1, 2, "inner"));
  ASSERT_TRUE(inner.ok());
  auto corrupted = inner.value();
  corrupted.journal[0] ^= 1;

  Writer w;
  w.fixed(register_adder().bytes);
  w.fixed(corrupted.claim.digest().bytes);
  ProveOptions options;
  options.assumptions.push_back(corrupted);
  EXPECT_FALSE(prover.prove(register_chained(), w.bytes(), options).ok());
}

// ---------------------------------------------------------------------------
// Images

TEST(Images, IdsAreStableAndDistinct) {
  EXPECT_EQ(compute_image_id("a", 1), compute_image_id("a", 1));
  EXPECT_NE(compute_image_id("a", 1), compute_image_id("a", 2));
  EXPECT_NE(compute_image_id("a", 1), compute_image_id("b", 1));
}

TEST(Images, RegistryFinds) {
  const ImageID id = register_adder();
  const Image* image = ImageRegistry::instance().find(id);
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(image->name, "test.adder");
  EXPECT_EQ(ImageRegistry::instance().find(compute_image_id("nope", 9)),
            nullptr);
}

}  // namespace
}  // namespace zkt::zvm
