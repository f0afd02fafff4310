#include "commit/recovery.h"

#include <algorithm>

namespace ecdb {

RecoveryAction RecoveryManager::AnalyzeRecord(
    const std::optional<LogRecord>& last) {
  if (!last.has_value()) return RecoveryAction::kAbort;
  switch (last->type) {
    case LogRecordType::kBeginCommit:
      // Coordinator failed before reaching a decision (rule ii).
      return RecoveryAction::kAbort;
    case LogRecordType::kReady:
    case LogRecordType::kPreCommit:
    case LogRecordType::kPreAbort:
      // Voted commit (or accepted a quorum-termination attempt); the
      // decision may have gone either way.
      return RecoveryAction::kConsultPeers;
    case LogRecordType::kQuorumState:
    case LogRecordType::kPaxosState:
      // Quorum-protocol snapshot records carry epochs/ballots, not an
      // outcome. ScanWal never hands one in as a milestone: the hosts
      // reseed the engine from the snapshots and decide from the milestone.
      return RecoveryAction::kConsultPeers;
    case LogRecordType::kCommitDecision:
    case LogRecordType::kCommitReceived:
    case LogRecordType::kTransactionCommit:
      return RecoveryAction::kCommit;
    case LogRecordType::kAbortDecision:
    case LogRecordType::kAbortReceived:
    case LogRecordType::kTransactionAbort:
      return RecoveryAction::kAbort;
  }
  return RecoveryAction::kConsultPeers;
}

namespace {

bool LoggedDecision(LogRecordType type, Decision* decision) {
  switch (type) {
    case LogRecordType::kCommitDecision:
    case LogRecordType::kCommitReceived:
    case LogRecordType::kTransactionCommit:
      *decision = Decision::kCommit;
      return true;
    case LogRecordType::kAbortDecision:
    case LogRecordType::kAbortReceived:
    case LogRecordType::kTransactionAbort:
      *decision = Decision::kAbort;
      return true;
    default:
      return false;
  }
}

}  // namespace

WalSummary RecoveryManager::ScanWal(const WriteAheadLog& wal, NodeId self) {
  WalSummary out;
  out.records = wal.Scan();
  for (const LogRecord& r : out.records) {
    TxnLogSummary& t = out.txns[r.txn];
    t.last_type = r.type;
    if (r.type == LogRecordType::kQuorumState) {
      t.quorum = &r;
    } else if (r.type == LogRecordType::kPaxosState) {
      t.paxos = &r;
    } else {
      t.milestone = &r;
      // Snapshot records reuse `participants` as a packed payload channel;
      // only begin-commit/ready carry a membership list.
      if (t.members == nullptr && !r.participants.empty() &&
          (r.type == LogRecordType::kBeginCommit ||
           r.type == LogRecordType::kReady)) {
        t.members = &r;
      }
    }
    Decision d = Decision::kAbort;
    if (LoggedDecision(r.type, &d)) out.decisions.emplace_back(r.txn, d);
    if (TxnCoordinator(r.txn) == self) {
      out.max_own_seq = std::max(out.max_own_seq, TxnSequence(r.txn));
    }
  }
  return out;
}

}  // namespace ecdb
