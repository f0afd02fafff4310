#include "wal/wal.h"

#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/logging.h"

namespace ecdb {

std::string ToString(LogRecordType type) {
  switch (type) {
    case LogRecordType::kBeginCommit:
      return "begin_commit";
    case LogRecordType::kReady:
      return "ready";
    case LogRecordType::kPreCommit:
      return "pre-commit";
    case LogRecordType::kCommitDecision:
      return "global-commit-decision-reached";
    case LogRecordType::kAbortDecision:
      return "global-abort-decision-reached";
    case LogRecordType::kCommitReceived:
      return "global-commit-received";
    case LogRecordType::kAbortReceived:
      return "global-abort-received";
    case LogRecordType::kTransactionCommit:
      return "transaction-commit";
    case LogRecordType::kTransactionAbort:
      return "transaction-abort";
    case LogRecordType::kPreAbort:
      return "pre-abort";
    case LogRecordType::kQuorumState:
      return "quorum-state";
    case LogRecordType::kPaxosState:
      return "paxos-state";
  }
  return "unknown";
}

uint64_t WriteAheadLog::AppendBatch(std::vector<LogRecord>* records) {
  uint64_t last = 0;
  for (LogRecord& r : *records) last = Append(std::move(r));
  records->clear();
  return last;
}

uint64_t MemoryWal::Append(LogRecord record) {
  record.lsn = records_.size() + 1;
  records_.push_back(record);
  appended_since_flush_++;
  return record.lsn;
}

Status MemoryWal::Flush() {
  if (appended_since_flush_ > 0) {
    group_flushes_++;
    appended_since_flush_ = 0;
  }
  return Status::OK();
}

namespace {

// On-disk framing:
// [magic u16][type u8][npart u32][txn u64][lsn u64][participants u32 x n]
// [check u32]. `check` is a simple mix of the fields, enough to catch torn
// writes at the tail. The magic names the format: logs of the earlier
// format (magic 0xECDB, a u8 participant count) are refused, not read.
constexpr uint16_t kRecordMagic = 0xECD2;
constexpr size_t kHeaderBytes = 2 + 1 + 4 + 8 + 8;

uint32_t Checksum(const LogRecord& r) {
  uint64_t h = r.txn * 0x9E3779B97f4A7C15ULL;
  h ^= static_cast<uint64_t>(r.type) << 32;
  h ^= r.lsn * 0xBF58476D1CE4E5B9ULL;
  for (NodeId p : r.participants) {
    h = (h ^ p) * 0x94D049BB133111EBULL;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

// Appends the encoding of `r` to `*out` (the staging buffer), so a whole
// group of records encodes into one contiguous write.
void EncodeRecord(const LogRecord& r, std::vector<unsigned char>* out) {
  const size_t start = out->size();
  out->resize(start + kHeaderBytes + 4 * r.participants.size() + 4);
  unsigned char* p = out->data() + start;
  const uint32_t npart = static_cast<uint32_t>(r.participants.size());
  std::memcpy(p, &kRecordMagic, 2);
  p[2] = static_cast<unsigned char>(r.type);
  std::memcpy(p + 3, &npart, 4);
  std::memcpy(p + 7, &r.txn, 8);
  std::memcpy(p + 15, &r.lsn, 8);
  size_t off = kHeaderBytes;
  for (NodeId part : r.participants) {
    uint32_t v = part;
    std::memcpy(p + off, &v, 4);
    off += 4;
  }
  const uint32_t check = Checksum(r);
  std::memcpy(p + off, &check, 4);
}

// Decodes the records at the front of `bytes` in order, handing each to
// `emit`; stops at the first torn or corrupt one. Returns the number of
// bytes the good records take.
template <typename Emit>
size_t DecodeRecords(const std::vector<unsigned char>& bytes, Emit&& emit) {
  const unsigned char* data = bytes.data();
  size_t off = 0;
  while (bytes.size() - off >= kHeaderBytes) {
    const unsigned char* p = data + off;
    uint16_t magic = 0;
    uint32_t npart = 0;
    std::memcpy(&magic, p, 2);
    std::memcpy(&npart, p + 3, 4);
    const size_t bytes_used = kHeaderBytes + 4 * size_t{npart} + 4;
    if (magic != kRecordMagic || bytes.size() - off < bytes_used) break;
    LogRecord r;
    r.type = static_cast<LogRecordType>(p[2]);
    std::memcpy(&r.txn, p + 7, 8);
    std::memcpy(&r.lsn, p + 15, 8);
    if (npart > 0) {
      std::vector<NodeId>& parts = r.participants.Mutable();
      parts.resize(npart);
      for (uint32_t i = 0; i < npart; ++i) {
        uint32_t v = 0;
        std::memcpy(&v, p + kHeaderBytes + 4 * size_t{i}, 4);
        parts[i] = v;
      }
    }
    uint32_t check = 0;
    std::memcpy(&check, p + bytes_used - 4, 4);
    if (check != Checksum(r)) break;
    emit(std::move(r));
    off += bytes_used;
  }
  return off;
}

// Reads the whole of `file`, leaving its position at the end.
bool ReadFile(std::FILE* file, std::vector<unsigned char>* out) {
  if (std::fseek(file, 0, SEEK_END) != 0) return false;
  const long size = std::ftell(file);
  if (size < 0 || std::fseek(file, 0, SEEK_SET) != 0) return false;
  out->resize(static_cast<size_t>(size));
  const bool ok = std::fread(out->data(), 1, out->size(), file) == out->size();
  return std::fseek(file, 0, SEEK_END) == 0 && ok;
}

}  // namespace

FileWal::FileWal(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

FileWal::~FileWal() {
  // Orderly shutdown is not a crash: staged records go out with the log.
  // Nothing to report a flush failure to here; the file is closing anyway.
  (void)Flush();
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<FileWal>> FileWal::Open(const std::string& path) {
  // a+b: reads allowed anywhere, writes always append.
  std::FILE* file = std::fopen(path.c_str(), "a+b");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL at " + path);
  }
  auto wal = std::unique_ptr<FileWal>(new FileWal(path, file));

  // Count the existing records; stop at the first torn/corrupt frame and
  // cut the file there. Appends always go to the end of the file, so a
  // torn tail left in place would sit between the good prefix and every
  // later record, and the next replay would stop at it again.
  std::vector<unsigned char> bytes;
  if (!ReadFile(file, &bytes)) {
    return Status::IOError("cannot read WAL at " + path);
  }
  const size_t good_end =
      DecodeRecords(bytes, [&](LogRecord&&) { wal->size_++; });
  // A file that does not open with this format's magic is not a torn log
  // but another format (or another file): refuse it rather than cut it.
  uint16_t magic = kRecordMagic;
  if (bytes.size() >= 2) std::memcpy(&magic, bytes.data(), 2);
  if (magic != kRecordMagic) {
    return Status::IOError("not a WAL of this format at " + path);
  }
  if (bytes.size() > good_end) {
    std::error_code ec;
    std::filesystem::resize_file(path, good_end, ec);
    if (ec) return Status::IOError("cannot truncate torn WAL tail at " + path);
    std::fseek(file, 0, SEEK_END);
  }
  wal->flushed_size_ = wal->size_;
  return wal;
}

uint64_t FileWal::Append(LogRecord record) {
  record.lsn = ++size_;
  EncodeRecord(record, &pending_);
  return record.lsn;
}

std::vector<LogRecord> FileWal::Scan() const {
  std::vector<LogRecord> out;
  out.reserve(size_);
  auto emit = [&](LogRecord&& r) { out.push_back(std::move(r)); };
  // Recovering from the staged group alone would forget every durable
  // decision: a log that cannot be read back in full is fail-stop.
  std::vector<unsigned char> bytes;
  ECDB_CHECK(ReadFile(file_, &bytes));
  DecodeRecords(bytes, emit);
  ECDB_CHECK(out.size() == flushed_size_);
  DecodeRecords(pending_, emit);
  return out;
}

Status FileWal::Flush() {
  if (pending_.empty()) return Status::OK();
  if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
      pending_.size()) {
    return Status::IOError("WAL group write failed");
  }
  if (std::fflush(file_) != 0) return Status::IOError("fflush failed");
  pending_.clear();
  flushed_size_ = size_;
  group_flushes_++;
  return Status::OK();
}

void FileWal::DropUnflushed() {
  pending_.clear();
  size_ = flushed_size_;
}

}  // namespace ecdb
