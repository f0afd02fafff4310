// Unit tests for the write-ahead log (memory and file backends).

#include "wal/wal.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(LogRecordTest, PaperNames) {
  EXPECT_EQ(ToString(LogRecordType::kBeginCommit), "begin_commit");
  EXPECT_EQ(ToString(LogRecordType::kReady), "ready");
  EXPECT_EQ(ToString(LogRecordType::kCommitDecision),
            "global-commit-decision-reached");
  EXPECT_EQ(ToString(LogRecordType::kAbortReceived), "global-abort-received");
  EXPECT_EQ(ToString(LogRecordType::kTransactionCommit),
            "transaction-commit");
  EXPECT_EQ(ToString(LogRecordType::kPreCommit), "pre-commit");
}

TEST(MemoryWalTest, AppendAssignsSequentialLsns) {
  MemoryWal wal;
  EXPECT_EQ(wal.Append({0, 1, LogRecordType::kBeginCommit, {}}), 1u);
  EXPECT_EQ(wal.Append({0, 1, LogRecordType::kCommitDecision, {}}), 2u);
  EXPECT_EQ(wal.Size(), 2u);
}

TEST(MemoryWalTest, ScanReturnsAppendOrder) {
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kReady, {}});
  wal.Append({0, 8, LogRecordType::kReady, {}});
  const auto records = wal.Scan();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, 7u);
  EXPECT_EQ(records[1].txn, 8u);
}

TEST(MemoryWalTest, LastForFindsMostRecent) {
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kReady, {}});
  wal.Append({0, 9, LogRecordType::kReady, {}});
  wal.Append({0, 7, LogRecordType::kTransactionCommit, {}});
  const auto last = wal.LastFor(7);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, LogRecordType::kTransactionCommit);
}

TEST(MemoryWalTest, LastForMissingTxn) {
  MemoryWal wal;
  EXPECT_FALSE(wal.LastFor(42).has_value());
}

TEST(MemoryWalTest, ClearEmptiesLog) {
  MemoryWal wal;
  wal.Append({0, 1, LogRecordType::kReady, {}});
  wal.Clear();
  EXPECT_EQ(wal.Size(), 0u);
}

TEST(MemoryWalTest, ParticipantsArePreserved) {
  MemoryWal wal;
  wal.Append({0, 1, LogRecordType::kReady, {3, 1, 4}});
  EXPECT_EQ(wal.LastFor(1)->participants, (std::vector<NodeId>{3, 1, 4}));
}

TEST(FileWalTest, OpenCreatesFile) {
  const std::string path = TempPath("wal_create.log");
  std::remove(path.c_str());
  auto wal = FileWal::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->Size(), 0u);
}

TEST(FileWalTest, AppendAndScan) {
  const std::string path = TempPath("wal_scan.log");
  std::remove(path.c_str());
  auto wal = std::move(FileWal::Open(path)).value();
  wal->Append({0, 11, LogRecordType::kBeginCommit, {}});
  wal->Append({0, 11, LogRecordType::kCommitDecision, {}});
  const auto records = wal->Scan();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, LogRecordType::kBeginCommit);
  EXPECT_EQ(records[1].lsn, 2u);
}

TEST(FileWalTest, SurvivesReopen) {
  const std::string path = TempPath("wal_reopen.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kReady, {0, 1, 2}});
    wal->Append({0, 5, LogRecordType::kCommitReceived, {}});
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_EQ(wal->Size(), 2u);
  const auto last = wal->LastFor(5);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, LogRecordType::kCommitReceived);
  EXPECT_EQ(wal->Scan()[0].participants, (std::vector<NodeId>{0, 1, 2}));
}

TEST(FileWalTest, AppendsAfterReopenContinueLsns) {
  const std::string path = TempPath("wal_continue.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kReady, {}});
  }
  auto wal = std::move(FileWal::Open(path)).value();
  EXPECT_EQ(wal->Append({0, 5, LogRecordType::kTransactionCommit, {}}), 2u);
  EXPECT_EQ(wal->Size(), 2u);
}

TEST(FileWalTest, TornTailIsIgnored) {
  const std::string path = TempPath("wal_torn.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kReady, {}});
    wal->Append({0, 6, LogRecordType::kReady, {}});
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Append garbage (a torn write) at the end.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  const unsigned char junk[5] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  auto wal = std::move(FileWal::Open(path)).value();
  EXPECT_EQ(wal->Size(), 2u);  // valid prefix only
}

TEST(FileWalTest, TornTailAtEveryOffsetIsTruncated) {
  // Three records, then the file is cut at every byte offset inside the
  // last one (k bytes of it survive): reopen, append three more, reopen.
  // All five records must survive the second reopen — Open cuts the torn
  // tail off, so the new appends follow the last good record instead of
  // landing behind garbage the next replay stops at.
  const std::string path = TempPath("wal_torn_every_offset.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 1, LogRecordType::kReady, {0, 1}});
    wal->Append({0, 2, LogRecordType::kReady, {0, 1}});
    ASSERT_TRUE(wal->Flush().ok());
  }
  const uintmax_t two_records = std::filesystem::file_size(path);
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 3, LogRecordType::kCommitDecision, {0, 1, 2}});
  }
  const uintmax_t three_records = std::filesystem::file_size(path);
  std::vector<unsigned char> intact(three_records);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(intact.data(), 1, intact.size(), f), intact.size());
    std::fclose(f);
  }

  for (uintmax_t k = 0; k < three_records - two_records; ++k) {
    SCOPED_TRACE("bytes of the last record kept: " + std::to_string(k));
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fwrite(intact.data(), 1, two_records + k, f);
      std::fclose(f);
    }
    {
      auto wal = std::move(FileWal::Open(path)).value();
      ASSERT_EQ(wal->Size(), 2u);
      EXPECT_EQ(std::filesystem::file_size(path), two_records);
      for (TxnId txn : {4, 5, 6}) {
        wal->Append({0, txn, LogRecordType::kReady, {0, 1}});
      }
      ASSERT_TRUE(wal->Flush().ok());
    }
    auto wal = std::move(FileWal::Open(path)).value();
    const std::vector<LogRecord> records = wal->Scan();
    ASSERT_EQ(records.size(), 5u);
    const TxnId want[] = {1, 2, 4, 5, 6};
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].txn, want[i]) << "record " << i;
      EXPECT_EQ(records[i].lsn, i + 1) << "record " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(FileWalTest, OpenFailsForBadPath) {
  auto wal = FileWal::Open("/nonexistent-dir-xyz/wal.log");
  EXPECT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), Code::kIOError);
}

// --------------------------------------------------------------------------
// Group commit
// --------------------------------------------------------------------------

TEST(FileWalTest, GroupCommitCrashLosesOnlyUnflushedSuffix) {
  const std::string path = TempPath("wal_group_crash.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 1, LogRecordType::kReady, {}});
    wal->Append({0, 2, LogRecordType::kReady, {}});
    ASSERT_TRUE(wal->Flush().ok());  // group boundary: 1-2 durable
    wal->Append({0, 3, LogRecordType::kReady, {}});
    wal->Append({0, 4, LogRecordType::kReady, {}});

    // Staged appends are visible to Scan/LastFor immediately — the engine
    // reads its own writes before the group is flushed.
    EXPECT_EQ(wal->Size(), 4u);
    EXPECT_TRUE(wal->LastFor(4).has_value());
    EXPECT_EQ(wal->group_flushes(), 1u);

    wal->DropUnflushed();  // crash: the unflushed group never hit disk
    EXPECT_EQ(wal->Size(), 2u);
    EXPECT_FALSE(wal->LastFor(3).has_value());
  }
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_EQ(wal->Size(), 2u);  // recovery replays exactly the flushed prefix
  EXPECT_EQ(wal->Scan()[1].txn, 2u);
  // New appends continue the LSN sequence from the surviving prefix.
  EXPECT_EQ(wal->Append({0, 9, LogRecordType::kReady, {}}), 3u);
}

TEST(FileWalTest, DestructorFlushesStagedAppends) {
  // Orderly shutdown is not a crash: staged records reach the file even
  // without an explicit Flush/Sync.
  const std::string path = TempPath("wal_dtor_flush.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kCommitDecision, {}});
  }
  auto wal = std::move(FileWal::Open(path)).value();
  EXPECT_EQ(wal->Size(), 1u);
}

TEST(FileWalTest, AppendBatchIsOneGroup) {
  const std::string path = TempPath("wal_batch.log");
  std::remove(path.c_str());
  auto wal = std::move(FileWal::Open(path)).value();
  std::vector<LogRecord> batch = {
      {0, 1, LogRecordType::kReady, {}},
      {0, 2, LogRecordType::kReady, {}},
      {0, 3, LogRecordType::kReady, {}},
  };
  EXPECT_EQ(wal->AppendBatch(&batch), 3u);  // returns the last LSN
  EXPECT_TRUE(batch.empty());               // drained
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->group_flushes(), 1u);  // three appends, one write+flush
  EXPECT_EQ(wal->Size(), 3u);
}

TEST(FileWalTest, FlushWithNothingPendingIsFree) {
  const std::string path = TempPath("wal_empty_flush.log");
  std::remove(path.c_str());
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_TRUE(wal->Flush().ok());
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->group_flushes(), 0u);  // no pending group, no flush counted
}

TEST(MemoryWalTest, GroupFlushCountsCoveredGroups) {
  MemoryWal wal;
  wal.Append({0, 1, LogRecordType::kReady, {}});
  wal.Append({0, 2, LogRecordType::kReady, {}});
  ASSERT_TRUE(wal.Flush().ok());
  ASSERT_TRUE(wal.Flush().ok());  // empty group: not counted
  wal.Append({0, 3, LogRecordType::kReady, {}});
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(wal.group_flushes(), 2u);
}

}  // namespace
}  // namespace ecdb
