// LogStore tests: CRUD semantics, scans, WAL persistence and recovery
// (including torn/corrupt tails), and concurrent producers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/serial.h"
#include "store/logstore.h"

namespace zkt::store {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ = std::filesystem::temp_directory_path() /
                ("zkt_store_test_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()
                 + ".wal");
    std::filesystem::remove(wal_path_);
    std::filesystem::remove(wal_path_.string() + ".snap");
    std::filesystem::remove(wal_path_.string() + ".snap.tmp");
  }
  void TearDown() override {
    std::filesystem::remove(wal_path_);
    std::filesystem::remove(wal_path_.string() + ".snap");
    std::filesystem::remove(wal_path_.string() + ".snap.tmp");
  }

  std::filesystem::path wal_path_;
};

TEST(Crc32, KnownVector) {
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(LogStoreMem, AppendAndScan) {
  LogStore store;
  for (u64 w = 1; w <= 3; ++w) {
    for (u64 r = 0; r < 4; ++r) {
      auto id = store.append("rlogs", w, r, bytes_of("payload"));
      ASSERT_TRUE(id.ok());
    }
  }
  EXPECT_EQ(store.row_count("rlogs"), 12u);
  EXPECT_EQ(store.scan("rlogs", 2, 2).size(), 4u);
  EXPECT_EQ(store.scan("rlogs", 1, 3).size(), 12u);
  EXPECT_EQ(store.scan("rlogs", 9, 9).size(), 0u);
  EXPECT_EQ(store.scan_exact("rlogs", 2, 3).size(), 1u);
  EXPECT_EQ(store.scan("missing", 0, ~0ULL).size(), 0u);
}

TEST(LogStoreMem, RowIdsMonotonicPerTable) {
  LogStore store;
  EXPECT_EQ(store.append("a", 0, 0, {}).value(), 0u);
  EXPECT_EQ(store.append("a", 0, 0, {}).value(), 1u);
  EXPECT_EQ(store.append("b", 0, 0, {}).value(), 0u);
}

TEST(LogStoreMem, LatestAndLastRow) {
  LogStore store;
  (void)store.append("t", 5, 1, bytes_of("first"));
  (void)store.append("t", 5, 2, bytes_of("second"));
  (void)store.append("t", 6, 1, bytes_of("third"));
  auto latest5 = store.latest("t", 5);
  ASSERT_TRUE(latest5.has_value());
  EXPECT_EQ(latest5->payload, bytes_of("second"));
  auto last = store.last_row("t");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->payload, bytes_of("third"));
  EXPECT_FALSE(store.latest("t", 9).has_value());
  EXPECT_FALSE(store.last_row("empty").has_value());
}

TEST(LogStoreMem, TableNames) {
  LogStore store;
  (void)store.append("zeta", 0, 0, {});
  (void)store.append("alpha", 0, 0, {});
  const auto names = store.table_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");  // sorted by map order
  EXPECT_EQ(names[1], "zeta");
}

TEST_F(StoreTest, WalPersistsAcrossRestart) {
  {
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.append("rlogs", i / 4, i % 4,
                               bytes_of("row-" + std::to_string(i)))
                      .ok());
    }
  }
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("rlogs"), 20u);
  EXPECT_EQ(reopened.stats().recovered_rows, 20u);
  auto rows = reopened.scan("rlogs", 2, 2);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].payload, bytes_of("row-8"));
  // And the store keeps appending after recovery.
  ASSERT_TRUE(reopened.append("rlogs", 9, 9, bytes_of("more")).ok());
}

TEST_F(StoreTest, AppendWithoutRecoverFails) {
  LogStore store(StoreConfig{.wal_path = wal_path_.string()});
  EXPECT_FALSE(store.append("t", 0, 0, {}).ok());
}

TEST_F(StoreTest, TruncatedTailFrameDropped) {
  {
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 i = 0; i < 5; ++i) {
      ASSERT_TRUE(store.append("t", i, 0, Bytes(100, 'x')).ok());
    }
  }
  // Simulate a torn write: chop off the last 30 bytes.
  const auto full = std::filesystem::file_size(wal_path_);
  std::filesystem::resize_file(wal_path_, full - 30);

  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 4u);
  EXPECT_EQ(reopened.stats().truncated_frames, 1u);
}

TEST_F(StoreTest, CorruptPayloadDetectedByCrc) {
  {
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    ASSERT_TRUE(store.append("t", 1, 0, Bytes(64, 'a')).ok());
    ASSERT_TRUE(store.append("t", 2, 0, Bytes(64, 'b')).ok());
  }
  // Flip a byte inside the second frame's payload.
  {
    std::FILE* f = std::fopen(wal_path_.string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const auto size = std::filesystem::file_size(wal_path_);
    std::fseek(f, static_cast<long>(size - 20), SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 1u);  // second frame rejected
  EXPECT_EQ(reopened.stats().truncated_frames, 1u);
}

TEST_F(StoreTest, RecoverOnMissingFileIsOk) {
  LogStore store(StoreConfig{.wal_path = wal_path_.string()});
  EXPECT_TRUE(store.recover().ok());
  EXPECT_TRUE(store.append("t", 0, 0, {}).ok());
}

TEST_F(StoreTest, CheckpointCompactsAndRecovers) {
  {
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.append("t", i, 0, Bytes(200, 'a')).ok());
    }
    ASSERT_TRUE(store.checkpoint().ok());
    // WAL is now empty; more appends land in the fresh WAL.
    for (u64 i = 10; i < 15; ++i) {
      ASSERT_TRUE(store.append("t", i, 0, Bytes(200, 'b')).ok());
    }
    EXPECT_EQ(store.stats().checkpoints, 1u);
  }
  // The WAL only holds the post-checkpoint tail.
  EXPECT_LT(std::filesystem::file_size(wal_path_), 5u * 300u);

  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 15u);
  EXPECT_EQ(reopened.stats().snapshot_rows, 10u);
  EXPECT_EQ(reopened.stats().recovered_rows, 5u);
  EXPECT_EQ(reopened.scan("t", 3, 3).size(), 1u);
  EXPECT_EQ(reopened.scan("t", 12, 12).size(), 1u);
}

TEST_F(StoreTest, DoubleCheckpointIsIdempotentish) {
  LogStore store(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(store.recover().ok());
  ASSERT_TRUE(store.append("t", 1, 1, bytes_of("x")).ok());
  ASSERT_TRUE(store.checkpoint().ok());
  ASSERT_TRUE(store.checkpoint().ok());
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 1u);
}

TEST_F(StoreTest, FailedSnapshotFlushKeepsSnapshotAndWal) {
  // /dev/full accepts the buffered snapshot write and fails its flush with
  // ENOSPC; the checkpoint must fail before renaming it over the snapshot.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string tmp = wal_path_.string() + ".snap.tmp";
  {
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.append("t", i, 0, bytes_of("row")).ok());
    }
    ASSERT_TRUE(store.checkpoint().ok());
    ASSERT_TRUE(store.append("t", 3, 0, bytes_of("tail")).ok());
    std::filesystem::create_symlink("/dev/full", tmp);
    const Status failed = store.checkpoint();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), Errc::io_error);
    EXPECT_EQ(store.stats().checkpoints, 1u);
  }
  std::filesystem::remove(tmp);

  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 4u);
  EXPECT_EQ(reopened.stats().snapshot_rows, 3u);
  EXPECT_EQ(reopened.stats().recovered_rows, 1u);
}

TEST_F(StoreTest, CorruptSnapshotRejected) {
  {
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    ASSERT_TRUE(store.append("t", 1, 1, Bytes(100, 'z')).ok());
    ASSERT_TRUE(store.checkpoint().ok());
  }
  const std::string snap = wal_path_.string() + ".snap";
  {
    std::FILE* f = std::fopen(snap.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  EXPECT_FALSE(reopened.recover().ok());
}

TEST(LogStoreMem, DropRowsByWindow) {
  LogStore store;
  for (u64 w = 1; w <= 5; ++w) {
    for (u64 r = 0; r < 2; ++r) {
      ASSERT_TRUE(store.append("rlogs", w, r, bytes_of("x")).ok());
    }
  }
  EXPECT_EQ(store.drop_rows("rlogs", 3).value(), 6u);
  EXPECT_EQ(store.row_count("rlogs"), 4u);
  EXPECT_TRUE(store.scan("rlogs", 1, 3).empty());
  EXPECT_EQ(store.scan("rlogs", 4, 5).size(), 4u);
  EXPECT_EQ(store.drop_rows("rlogs", 3).value(), 0u);     // idempotent
  EXPECT_EQ(store.drop_rows("missing", 99).value(), 0u);  // unknown table
}

TEST(LogStoreMem, CheckpointNoopWithoutWal) {
  LogStore store;
  EXPECT_TRUE(store.checkpoint().ok());
}

TEST(LogStoreMem, ForEachVisitsRangeInAppendOrder) {
  LogStore store;
  for (u64 w = 1; w <= 3; ++w) {
    for (u64 r = 0; r < 2; ++r) {
      ASSERT_TRUE(store.append("t", w, r, bytes_of("x")).ok());
    }
  }
  std::vector<std::pair<u64, u64>> seen;
  ASSERT_TRUE(store
                  .for_each("t", 2, 3,
                            [&](const StoredRow& row) {
                              seen.emplace_back(row.k1, row.k2);
                            })
                  .ok());
  const std::vector<std::pair<u64, u64>> want = {
      {2, 0}, {2, 1}, {3, 0}, {3, 1}};
  EXPECT_EQ(seen, want);
  // Unknown tables visit nothing but are not an error.
  EXPECT_TRUE(store.for_each("missing", 0, ~0ULL,
                             [&](const StoredRow&) { FAIL(); })
                  .ok());
}

TEST(FaultInjector, OneShotCountdownSemantics) {
  FaultInjector faults;
  EXPECT_FALSE(faults.armed(FaultPoint::scan));
  EXPECT_FALSE(faults.fire(FaultPoint::scan));  // unarmed: never fires
  faults.arm(FaultPoint::scan, 2);
  EXPECT_TRUE(faults.armed(FaultPoint::scan));
  EXPECT_FALSE(faults.fire(FaultPoint::scan));  // two hits pass...
  EXPECT_FALSE(faults.fire(FaultPoint::scan));
  EXPECT_TRUE(faults.fire(FaultPoint::scan));   // ...then fire once
  EXPECT_FALSE(faults.fire(FaultPoint::scan));  // plan consumed
  EXPECT_EQ(faults.injected(), 1u);

  faults.arm(FaultPoint::fsync);
  faults.disarm(FaultPoint::fsync);
  EXPECT_FALSE(faults.fire(FaultPoint::fsync));
  faults.arm(FaultPoint::wal_append);
  faults.disarm_all();
  EXPECT_FALSE(faults.armed(FaultPoint::wal_append));
  EXPECT_EQ(faults.injected(), 1u);
}

TEST(LogStoreMem, InjectedScanFaultFailsForEachOnce) {
  LogStore store;
  ASSERT_TRUE(store.append("t", 1, 0, bytes_of("x")).ok());
  FaultInjector faults;
  store.set_fault_injector(&faults);
  faults.arm(FaultPoint::scan);
  auto status = store.for_each("t", 0, ~0ULL, [](const StoredRow&) {});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Errc::io_error);
  // One-shot: the next visit succeeds (a transient fault, retryable).
  EXPECT_TRUE(store.for_each("t", 0, ~0ULL, [](const StoredRow&) {}).ok());
  store.set_fault_injector(nullptr);
}

TEST_F(StoreTest, InjectedAppendFaultFailsBeforeAnyWrite) {
  {
    FaultInjector faults;
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    store.set_fault_injector(&faults);
    faults.arm(FaultPoint::wal_append);
    auto id = store.append("t", 1, 0, bytes_of("x"));
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.error().code, Errc::io_error);
    EXPECT_EQ(store.row_count("t"), 0u);  // failed append leaves no row
    // The retry lands cleanly: nothing reached the WAL the first time.
    ASSERT_TRUE(store.append("t", 1, 0, bytes_of("x")).ok());
  }
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 1u);
  EXPECT_EQ(reopened.stats().truncated_frames, 0u);
  EXPECT_EQ(reopened.stats().deduped_frames, 0u);
}

TEST_F(StoreTest, InjectedFsyncFaultMakesRetrySafeViaDedup) {
  // The fsync ambiguity: the frame IS on disk but the append reports
  // failure. A retry writes a second frame with the same row id; replay
  // deduplicates, so "retry on transient error" is safe.
  {
    FaultInjector faults;
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    ASSERT_TRUE(store.append("t", 1, 0, bytes_of("a")).ok());
    store.set_fault_injector(&faults);
    faults.arm(FaultPoint::fsync);
    auto id = store.append("t", 2, 0, bytes_of("b"));
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.error().code, Errc::io_error);
    EXPECT_EQ(store.row_count("t"), 1u);
    ASSERT_TRUE(store.append("t", 2, 0, bytes_of("b")).ok());  // the retry
    EXPECT_EQ(store.row_count("t"), 2u);
  }
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 2u);  // not 3: duplicate frame skipped
  EXPECT_EQ(reopened.stats().deduped_frames, 1u);
  EXPECT_EQ(reopened.stats().truncated_frames, 0u);
}

TEST_F(StoreTest, InjectedTornWriteKillsHandleUntilRestart) {
  LogStore store(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(store.recover().ok());
  for (u64 i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.append("t", i, 0, Bytes(100, 'x')).ok());
  }
  FaultInjector faults;
  store.set_fault_injector(&faults);
  faults.arm(FaultPoint::wal_torn_write);
  auto id = store.append("t", 3, 0, Bytes(100, 'y'));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code, Errc::io_error);
  // The "process" is dead: appending past a torn frame would make the WAL
  // tail unreadable, so every further append fails until a restart.
  EXPECT_FALSE(store.append("t", 4, 0, bytes_of("z")).ok());
  store.set_fault_injector(nullptr);

  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 3u);  // prefix intact, torn frame gone
  EXPECT_EQ(reopened.stats().truncated_frames, 1u);
  ASSERT_TRUE(reopened.append("t", 3, 0, Bytes(100, 'y')).ok());
}

TEST_F(StoreTest, CheckpointSnapshotWriteCrashKeepsWalAuthoritative) {
  {
    FaultInjector faults;
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 i = 0; i < 5; ++i) {
      ASSERT_TRUE(store.append("t", i, 0, Bytes(100, 'a')).ok());
    }
    store.set_fault_injector(&faults);
    faults.arm(FaultPoint::checkpoint_snapshot_write);
    auto status = store.checkpoint();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), Errc::io_error);
    EXPECT_EQ(store.stats().checkpoints, 0u);
  }
  // The partial .tmp is ignored; the WAL still holds everything.
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 5u);
  EXPECT_EQ(reopened.stats().snapshot_rows, 0u);
  EXPECT_EQ(reopened.stats().recovered_rows, 5u);
}

TEST_F(StoreTest, CheckpointRenameCrashKeepsOldSnapshot) {
  {
    FaultInjector faults;
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.append("t", i, 0, Bytes(100, 'a')).ok());
    }
    ASSERT_TRUE(store.checkpoint().ok());  // snapshot v1: rows 0..2
    for (u64 i = 3; i < 5; ++i) {
      ASSERT_TRUE(store.append("t", i, 0, Bytes(100, 'b')).ok());
    }
    store.set_fault_injector(&faults);
    faults.arm(FaultPoint::checkpoint_rename);
    ASSERT_FALSE(store.checkpoint().ok());
  }
  // Old snapshot + post-v1 WAL tail remain the authoritative pair.
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 5u);
  EXPECT_EQ(reopened.stats().snapshot_rows, 3u);
  EXPECT_EQ(reopened.stats().recovered_rows, 2u);
}

TEST_F(StoreTest, CheckpointTruncateCrashDedupesStaleWal) {
  {
    FaultInjector faults;
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 i = 0; i < 4; ++i) {
      ASSERT_TRUE(store.append("t", i, 0, Bytes(100, 'a')).ok());
    }
    store.set_fault_injector(&faults);
    faults.arm(FaultPoint::checkpoint_wal_truncate);
    // Crash after the snapshot rename, before the WAL truncation: the new
    // snapshot and the full stale WAL coexist on disk.
    ASSERT_FALSE(store.checkpoint().ok());
  }
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  EXPECT_EQ(reopened.row_count("t"), 4u);  // no double-apply
  EXPECT_EQ(reopened.stats().snapshot_rows, 4u);
  EXPECT_EQ(reopened.stats().deduped_frames, 4u);
  EXPECT_EQ(reopened.stats().recovered_rows, 0u);
  // And the reopened store keeps working.
  ASSERT_TRUE(reopened.append("t", 9, 0, bytes_of("c")).ok());
}

TEST_F(StoreTest, DroppedRowsStayDroppedAndLaterRowsStay) {
  {
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 w = 1; w <= 2; ++w) {
      ASSERT_TRUE(store.append(kTableRlogs, w, 0, bytes_of("old")).ok());
    }
    auto dropped = store.drop_rows(kTableRlogs, 2);
    ASSERT_TRUE(dropped.ok()) << dropped.error().to_string();
    EXPECT_EQ(dropped.value(), 2u);
    EXPECT_EQ(store.stats().checkpoints, 1u);
    ASSERT_TRUE(store.append(kTableRlogs, 3, 0, bytes_of("new")).ok());
  }
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  const auto rows = reopened.scan(kTableRlogs, 0, ~0ULL);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].k1, 3u);
  EXPECT_EQ(rows[0].payload, bytes_of("new"));
  EXPECT_EQ(reopened.stats().deduped_frames, 0u);
}

// The drop's checkpoint crashes after its rename: the stale WAL still holds
// every dropped row's frame, and replay must bring none of them back.
TEST_F(StoreTest, TruncateCrashAfterDropResurrectsNothing) {
  {
    FaultInjector faults;
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    for (u64 w = 1; w <= 4; ++w) {
      ASSERT_TRUE(store.append(kTableRlogs, w, 0, bytes_of("x")).ok());
    }
    store.set_fault_injector(&faults);
    faults.arm(FaultPoint::checkpoint_wal_truncate);
    auto dropped = store.drop_rows(kTableRlogs, 2);
    ASSERT_FALSE(dropped.ok());
    EXPECT_EQ(dropped.error().code, Errc::io_error);
  }
  {
    LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(reopened.recover().ok());
    const auto rows = reopened.scan(kTableRlogs, 0, ~0ULL);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].k1, 3u);
    EXPECT_EQ(rows[1].k1, 4u);
    EXPECT_EQ(reopened.stats().deduped_frames, 4u);
    EXPECT_EQ(reopened.stats().recovered_rows, 0u);
    // Later appends take fresh ids, so they survive the next reopen too.
    ASSERT_TRUE(reopened.append(kTableRlogs, 5, 0, bytes_of("y")).ok());
  }
  LogStore again(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(again.recover().ok());
  EXPECT_EQ(again.row_count(kTableRlogs), 3u);
}

// A "ZKS1" snapshot from before snapshots recorded each table's next row
// id: its rows load, and later appends take ids after them.
TEST_F(StoreTest, Zks1SnapshotStillLoads) {
  {
    Writer w;
    w.u32v(0x5A4B5331);  // "ZKS1"
    w.varint(1);
    w.str("t");
    w.varint(2);
    for (u64 k1 = 1; k1 <= 2; ++k1) {
      w.u64v(k1);
      w.u64v(0);
      w.blob(bytes_of("old"));
      w.u32v(crc32(bytes_of("old")));
    }
    std::FILE* f = std::fopen((wal_path_.string() + ".snap").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(w.bytes().data(), 1, w.size(), f);
    std::fclose(f);
  }
  {
    LogStore store(StoreConfig{.wal_path = wal_path_.string()});
    ASSERT_TRUE(store.recover().ok());
    EXPECT_EQ(store.stats().snapshot_rows, 2u);
    auto id = store.append("t", 3, 0, bytes_of("new"));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.value(), 2u);
  }
  LogStore reopened(StoreConfig{.wal_path = wal_path_.string()});
  ASSERT_TRUE(reopened.recover().ok());
  const auto rows = reopened.scan("t", 0, ~0ULL);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2].payload, bytes_of("new"));
  EXPECT_EQ(reopened.stats().deduped_frames, 0u);
}

TEST(LogStoreMem, ConcurrentAppendsSafe) {
  LogStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto id = store.append("rlogs", static_cast<u64>(t), i,
                               bytes_of(std::to_string(i)));
        ASSERT_TRUE(id.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.row_count("rlogs"), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(store.scan("rlogs", t, t).size(), kPerThread);
  }
  EXPECT_EQ(store.stats().appends,
            static_cast<u64>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace zkt::store
