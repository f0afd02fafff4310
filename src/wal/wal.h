#ifndef ECDB_WAL_WAL_H_
#define ECDB_WAL_WAL_H_

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "wal/log_record.h"

namespace ecdb {

/// Abstract write-ahead log. One instance per node; commit protocols append
/// their milestone entries here before acting (write-ahead rule), and the
/// recovery manager scans it after a restart.
class WriteAheadLog {
 public:
  virtual ~WriteAheadLog() = default;

  /// Appends `record`, assigns and returns its LSN (monotonic from 1).
  virtual uint64_t Append(LogRecord record) = 0;

  /// Appends every record in `*records` in order as one group, assigning
  /// consecutive LSNs. `*records` is drained (cleared, capacity kept) so
  /// callers recycle the buffer. Returns the LSN of the last record, or 0
  /// when the batch is empty. The base implementation is a plain Append
  /// loop; buffering logs override it to stage the whole group at once.
  virtual uint64_t AppendBatch(std::vector<LogRecord>* records);

  /// Group commit: makes every record appended since the previous Flush
  /// durable with a single device round-trip. Logs without write
  /// buffering are trivially flushed (default no-op).
  virtual Status Flush() { return Status::OK(); }

  /// Number of flushes that actually covered pending records — each one
  /// stands in for the per-append syncs group commit amortized away.
  /// Always 0 for logs without buffering.
  virtual uint64_t group_flushes() const { return 0; }

  /// Returns every record in append order.
  virtual std::vector<LogRecord> Scan() const = 0;

  /// Returns the last record logged for `txn`, if any. This is the input
  /// to the independent-recovery decision.
  virtual std::optional<LogRecord> LastFor(TxnId txn) const = 0;

  /// Number of appended records.
  virtual uint64_t Size() const = 0;
};

/// In-memory WAL used by the simulator. Survives simulated node crashes
/// (the simulator keeps the object alive across crash/recover), which
/// models stable storage exactly as the paper assumes.
class MemoryWal : public WriteAheadLog {
 public:
  MemoryWal() = default;

  uint64_t Append(LogRecord record) override;
  std::vector<LogRecord> Scan() const override;
  std::optional<LogRecord> LastFor(TxnId txn) const override;
  uint64_t Size() const override { return records_.size(); }

  /// Memory is "durable" the moment Append returns, so Flush only keeps
  /// the group-commit accounting: a flush with appends pending since the
  /// previous one counts, mirroring what a file-backed log would sync.
  Status Flush() override;
  uint64_t group_flushes() const override { return group_flushes_; }

  /// Drops all records; used when a test re-initializes stable storage.
  void Clear() { records_.clear(); }

 private:
  std::vector<LogRecord> records_;
  uint64_t appended_since_flush_ = 0;
  uint64_t group_flushes_ = 0;
};

/// File-backed WAL with a fixed-width binary record format and CRC-style
/// framing check. Used by the threaded runtime examples to demonstrate
/// recovery from an on-disk log.
class FileWal : public WriteAheadLog {
 public:
  /// Opens (creating if needed) the log at `path` and replays existing
  /// records into the in-memory index. A torn or corrupt tail is cut off
  /// the file, so new appends follow the last good record.
  static Result<std::unique_ptr<FileWal>> Open(const std::string& path);

  ~FileWal() override;

  FileWal(const FileWal&) = delete;
  FileWal& operator=(const FileWal&) = delete;

  /// Appends stage the encoded record in an internal buffer; nothing
  /// reaches the file until Flush (group commit). Scan/LastFor see staged
  /// records immediately — the write-ahead rule is enforced by the host
  /// flushing before it acts on the logged decision, not per append.
  uint64_t Append(LogRecord record) override;
  uint64_t AppendBatch(std::vector<LogRecord>* records) override;
  std::vector<LogRecord> Scan() const override;
  std::optional<LogRecord> LastFor(TxnId txn) const override;
  uint64_t Size() const override { return records_.size(); }

  /// Writes every staged record and flushes the OS buffer once — the
  /// single device round-trip that covers the whole group. No-op (and not
  /// counted) when nothing is staged.
  Status Flush() override;
  uint64_t group_flushes() const override { return group_flushes_; }

  /// Flushes buffered appends to the OS. (Group-commit alias: one Sync
  /// covers every Append since the previous one.)
  Status Sync() { return Flush(); }

  /// Crash hook for tests: discards records staged but never flushed, as
  /// a real crash would — the in-memory mirror is truncated back to the
  /// durable prefix so a subsequent Scan matches what reopen would see.
  void DropUnflushed();

  const std::string& path() const { return path_; }

 private:
  explicit FileWal(std::string path, std::FILE* file);

  std::string path_;
  std::FILE* file_;
  std::vector<LogRecord> records_;  // in-memory mirror for Scan/LastFor
  std::vector<unsigned char> pending_;  // encoded, staged since last flush
  size_t flushed_records_ = 0;          // prefix of records_ on disk
  uint64_t group_flushes_ = 0;
};

}  // namespace ecdb

#endif  // ECDB_WAL_WAL_H_
