// Artifact-file tests: commitment/receipt save-load round-trips, CRC
// protection, read and write failures, and CLI flag parsing.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/flags.h"
#include "core/epoch.h"
#include "core/io.h"
#include "core/auditor.h"
#include "core/service.h"

namespace zkt::core {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zkt_io_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

netflow::RLogBatch small_batch(u32 router, u64 window) {
  netflow::RLogBatch batch;
  batch.router_id = router;
  batch.window_id = window;
  netflow::FlowRecord rec;
  netflow::PacketObservation pkt;
  pkt.key = {router + 1, 0x09090909, 1000, 443, 6};
  pkt.timestamp_ms = window;
  pkt.bytes = 100;
  rec.observe(pkt);
  batch.records.push_back(rec);
  return batch;
}

TEST_F(IoTest, CommitmentsRoundTrip) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("io-commit");
  for (u32 r = 0; r < 3; ++r) {
    for (u64 w = 1; w <= 2; ++w) {
      ASSERT_TRUE(
          board.publish(make_commitment(small_batch(r, w), key, w).value())
              .ok());
    }
  }
  ASSERT_TRUE(save_commitments(board, path("comm.bin")).ok());

  CommitmentBoard loaded;
  ASSERT_TRUE(load_commitments(path("comm.bin"), loaded).ok());
  EXPECT_EQ(loaded.size(), 6u);
  EXPECT_EQ(loaded.get(2, 1)->rlog_hash, board.get(2, 1)->rlog_hash);
}

TEST_F(IoTest, ReceiptsRoundTrip) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("io-receipts");
  auto batch = small_batch(0, 1);
  ASSERT_TRUE(board.publish(make_commitment(batch, key, 1).value()).ok());
  AggregationService service(board);
  auto round = service.aggregate({batch});
  ASSERT_TRUE(round.ok());

  ASSERT_TRUE(save_receipts({round.value().receipt}, path("r.bin")).ok());
  auto loaded = load_receipts(path("r.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].claim.digest(),
            round.value().receipt.claim.digest());

  // The loaded receipt still verifies in a fresh auditor over the loaded
  // board file.
  ASSERT_TRUE(save_commitments(board, path("comm.bin")).ok());
  CommitmentBoard board2;
  ASSERT_TRUE(load_commitments(path("comm.bin"), board2).ok());
  Auditor auditor(board2);
  EXPECT_TRUE(auditor.accept_round(loaded.value()[0]).ok());
}

TEST_F(IoTest, EmptyListsRoundTrip) {
  CommitmentBoard board;
  ASSERT_TRUE(save_commitments(board, path("empty_c.bin")).ok());
  CommitmentBoard loaded;
  EXPECT_TRUE(load_commitments(path("empty_c.bin"), loaded).ok());
  EXPECT_EQ(loaded.size(), 0u);

  ASSERT_TRUE(save_receipts({}, path("empty_r.bin")).ok());
  auto receipts = load_receipts(path("empty_r.bin"));
  ASSERT_TRUE(receipts.ok());
  EXPECT_TRUE(receipts.value().empty());
}

TEST_F(IoTest, CorruptFileRejected) {
  CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("io-corrupt");
  ASSERT_TRUE(
      board.publish(make_commitment(small_batch(0, 1), key, 1).value()).ok());
  ASSERT_TRUE(save_commitments(board, path("c.bin")).ok());

  auto data = read_file(path("c.bin"));
  ASSERT_TRUE(data.ok());
  Bytes corrupted = data.value();
  corrupted[corrupted.size() / 2] ^= 0xFF;
  ASSERT_TRUE(write_file(path("c.bin"), corrupted).ok());

  CommitmentBoard loaded;
  EXPECT_FALSE(load_commitments(path("c.bin"), loaded).ok());
}

TEST_F(IoTest, WrongMagicRejected) {
  ASSERT_TRUE(write_file(path("junk.bin"), bytes_of("not a zkt file")).ok());
  CommitmentBoard board;
  EXPECT_FALSE(load_commitments(path("junk.bin"), board).ok());
  EXPECT_FALSE(load_receipts(path("junk.bin")).ok());
}

TEST_F(IoTest, MissingFileReported) {
  CommitmentBoard board;
  EXPECT_FALSE(load_commitments(path("nope.bin"), board).ok());
  EXPECT_FALSE(load_receipts(path("nope.bin")).ok());
}

TEST_F(IoTest, FailedReadIsIoError) {
  // A directory opens for reading, but every read of it fails (EISDIR):
  // that is the device's fault, not a short or malformed file.
  const std::string dir = dir_.string();
  auto data = read_file(dir);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.error().code, Errc::io_error) << data.error().to_string();

  CommitmentBoard board;
  const Status commitments = load_commitments(dir, board);
  EXPECT_EQ(commitments.code(), Errc::io_error) << commitments.to_string();

  auto receipts = load_receipts(dir);
  ASSERT_FALSE(receipts.ok());
  EXPECT_EQ(receipts.error().code, Errc::io_error)
      << receipts.error().to_string();

  auto seals = load_epoch_seals(dir);
  ASSERT_FALSE(seals.ok());
  EXPECT_EQ(seals.error().code, Errc::io_error) << seals.error().to_string();

  auto source = ReceiptFileSource::open(dir);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.error().code, Errc::io_error)
      << source.error().to_string();
}

TEST_F(IoTest, WriteFailingAtFlushReported) {
  // /dev/full accepts the buffered write and fails the flush with ENOSPC.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Status written = write_file("/dev/full", bytes_of("a small artifact"));
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), Errc::io_error);
}

}  // namespace
}  // namespace zkt::core

namespace zkt {
namespace {

Flags make_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()), args.data(),
               {"out-dir", "count", "rate", "verbose", "next-flag", "flag",
                "n"});
}

TEST(Flags, NamedWithEquals) {
  auto f = make_flags({"--out-dir=/tmp/x", "--count=5"});
  EXPECT_EQ(f.get("out-dir"), "/tmp/x");
  EXPECT_EQ(f.get_u64("count", 0), 5u);
}

TEST(Flags, NamedWithSpace) {
  auto f = make_flags({"--out-dir", "/tmp/y", "--rate", "0.25"});
  EXPECT_EQ(f.get("out-dir"), "/tmp/y");
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 0.25);
}

TEST(Flags, BareSwitchAndDefaults) {
  auto f = make_flags({"--verbose", "--next-flag=1"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_EQ(f.get("verbose"), "");
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.get("missing", "fallback"), "fallback");
  EXPECT_EQ(f.get_u64("missing", 7), 7u);
}

TEST(Flags, Positional) {
  auto f = make_flags({"input.bin", "--flag=x", "output.bin"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.bin");
  EXPECT_EQ(f.positional()[1], "output.bin");
}

TEST(Flags, BadNumberFallsBack) {
  auto f = make_flags({"--n=abc"});
  EXPECT_EQ(f.get_u64("n", 9), 9u);
}

}  // namespace
}  // namespace zkt
