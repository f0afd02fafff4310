#ifndef ECDB_COMMIT_RECOVERY_H_
#define ECDB_COMMIT_RECOVERY_H_

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "wal/wal.h"

namespace ecdb {

/// What a recovering node should do with a transaction that was in flight
/// when it crashed.
enum class RecoveryAction : uint8_t {
  kAbort,         // independently abort (rules i and ii of Section 4.2)
  kCommit,        // independently commit (rule iii, commit decision logged)
  kConsultPeers,  // outcome unknowable locally; ask active participants
};

/// What the recovery pass learns about one transaction from the WAL. The
/// pointers point into the owning WalSummary's `records`.
struct TxnLogSummary {
  /// Type of the last record, snapshots included.
  LogRecordType last_type = LogRecordType::kBeginCommit;
  /// Last protocol milestone: the last record that is not a quorum
  /// snapshot (quorum-state / paxos-state carry epochs, not progress).
  /// Null when the transaction has only snapshots — for Paxos Commit that
  /// means acceptor-only participation.
  const LogRecord* milestone = nullptr;
  /// First begin-commit/ready record carrying a membership list.
  const LogRecord* members = nullptr;
  /// Last snapshot of each kind: promises and accepts only move forward.
  const LogRecord* quorum = nullptr;
  const LogRecord* paxos = nullptr;

  /// No terminal (transaction-commit/abort) record ends the transaction's
  /// log: a recovering node must resolve it.
  bool in_flight() const {
    return last_type != LogRecordType::kTransactionCommit &&
           last_type != LogRecordType::kTransactionAbort;
  }
};

/// Everything recovery reads from a WAL, gathered in one pass. Move-only:
/// the summaries point into `records`, which a copy would not carry along.
struct WalSummary {
  WalSummary() = default;
  WalSummary(WalSummary&&) = default;
  WalSummary& operator=(WalSummary&&) = default;
  WalSummary(const WalSummary&) = delete;
  WalSummary& operator=(const WalSummary&) = delete;

  /// The log, in append order; owns what the summaries point to.
  std::vector<LogRecord> records;
  /// One summary per transaction, inserted in log order. The map's
  /// iteration order fixes the order a recovering node resolves them in.
  std::unordered_map<TxnId, TxnLogSummary> txns;
  /// Every decision the log witnessed, in log order.
  std::vector<std::pair<TxnId, Decision>> decisions;
  /// Highest sequence of a transaction the scanning node coordinated.
  uint64_t max_own_seq = 0;
};

/// Implements the independent-recovery analysis of Section 4.2: given the
/// local WAL, decide each in-flight transaction's fate without (when
/// possible) contacting other nodes.
///
/// Rules, keyed on the last protocol *milestone* for the transaction:
///  * none / begin_commit .......... abort  (failed before voting / before
///                                   reaching a decision — rules i, ii)
///  * ready / pre-commit ........... consult peers (voted commit; the
///                                   global outcome is unknowable locally —
///                                   the case where 2PC/3PC/EC all lack
///                                   independent recovery)
///  * *-commit-decision/received ... commit (rule iii)
///  * *-abort-decision/received .... abort  (rule iii)
///  * transaction-commit/abort ..... already durable; redo is a no-op
class RecoveryManager {
 public:
  /// Action for one transaction from its last milestone (nullopt = no
  /// entry).
  static RecoveryAction AnalyzeRecord(const std::optional<LogRecord>& last);

  /// The recovery pass: one Scan() of `wal`, summarized per transaction,
  /// as read by the node whose id is `self`.
  static WalSummary ScanWal(const WriteAheadLog& wal, NodeId self);
};

}  // namespace ecdb

#endif  // ECDB_COMMIT_RECOVERY_H_
