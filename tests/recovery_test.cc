// Tests for the Section 4.2 independent-recovery analysis.

#include "commit/recovery.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "commit/quorum.h"

namespace ecdb {
namespace {

TEST(RecoveryRulesTest, NoEntryAborts) {
  // Rule (i): failed before voting -> abort on recovery.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(std::nullopt),
            RecoveryAction::kAbort);
}

TEST(RecoveryRulesTest, BeginCommitAborts) {
  // Rule (ii): coordinator failed before reaching a decision.
  LogRecord r{1, 7, LogRecordType::kBeginCommit, {}};
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(r), RecoveryAction::kAbort);
}

TEST(RecoveryRulesTest, ReadyConsultsPeers) {
  // Voted commit, outcome unknown: the case where no protocol has
  // independent recovery.
  LogRecord r{1, 7, LogRecordType::kReady, {0, 1, 2}};
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(r),
            RecoveryAction::kConsultPeers);
}

TEST(RecoveryRulesTest, PreCommitConsultsPeers) {
  LogRecord r{1, 7, LogRecordType::kPreCommit, {}};
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(r),
            RecoveryAction::kConsultPeers);
}

TEST(RecoveryRulesTest, DecisionEntriesFollowDecision) {
  // Rule (iii): the logged decision drives recovery.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(
                LogRecord{1, 7, LogRecordType::kCommitDecision, {}}),
            RecoveryAction::kCommit);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(
                LogRecord{1, 7, LogRecordType::kAbortDecision, {}}),
            RecoveryAction::kAbort);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(
                LogRecord{1, 7, LogRecordType::kCommitReceived, {}}),
            RecoveryAction::kCommit);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(
                LogRecord{1, 7, LogRecordType::kAbortReceived, {}}),
            RecoveryAction::kAbort);
}

TEST(RecoveryRulesTest, TerminalEntriesAreIdempotent) {
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(
                LogRecord{1, 7, LogRecordType::kTransactionCommit, {}}),
            RecoveryAction::kCommit);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(
                LogRecord{1, 7, LogRecordType::kTransactionAbort, {}}),
            RecoveryAction::kAbort);
}

// The transactions of `log` the recovery pass leaves to resolve, sorted.
std::vector<TxnId> InFlight(const WalSummary& log) {
  std::vector<TxnId> out;
  for (const auto& [txn, t] : log.txns) {
    if (t.in_flight()) out.push_back(txn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// What the node decides for `txn` from the pass result: rule (i) when the
// WAL has no milestone for it.
RecoveryAction ActionFor(const WalSummary& log, TxnId txn) {
  const auto it = log.txns.find(txn);
  if (it == log.txns.end() || it->second.milestone == nullptr) {
    return RecoveryManager::AnalyzeRecord(std::nullopt);
  }
  return RecoveryManager::AnalyzeRecord(*it->second.milestone);
}

TEST(RecoveryScanTest, InFlightExcludesTerminated) {
  MemoryWal wal;
  // txn 1: fully committed. txn 2: stuck in READY. txn 3: decision logged
  // but not applied. txn 4: aborted.
  wal.Append({0, 1, LogRecordType::kReady, {}});
  wal.Append({0, 1, LogRecordType::kCommitReceived, {}});
  wal.Append({0, 1, LogRecordType::kTransactionCommit, {}});
  wal.Append({0, 2, LogRecordType::kReady, {}});
  wal.Append({0, 3, LogRecordType::kBeginCommit, {}});
  wal.Append({0, 3, LogRecordType::kCommitDecision, {}});
  wal.Append({0, 4, LogRecordType::kTransactionAbort, {}});

  const WalSummary log = RecoveryManager::ScanWal(wal, /*self=*/0);
  EXPECT_EQ(log.txns.size(), 4u);
  EXPECT_EQ(InFlight(log), (std::vector<TxnId>{2, 3}));
}

TEST(RecoveryScanTest, EmptyWalHasNoInFlight) {
  MemoryWal wal;
  const WalSummary log = RecoveryManager::ScanWal(wal, /*self=*/0);
  EXPECT_TRUE(log.txns.empty());
  EXPECT_TRUE(log.decisions.empty());
  EXPECT_EQ(log.max_own_seq, 0u);
}

TEST(RecoveryScanTest, AnalyzeUsesLastEntry) {
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kReady, {}});
  EXPECT_EQ(ActionFor(RecoveryManager::ScanWal(wal, 0), 7),
            RecoveryAction::kConsultPeers);
  wal.Append({0, 7, LogRecordType::kCommitReceived, {}});
  const WalSummary log = RecoveryManager::ScanWal(wal, 0);
  EXPECT_EQ(ActionFor(log, 7), RecoveryAction::kCommit);
  EXPECT_EQ(ActionFor(log, 99), RecoveryAction::kAbort);
}

TEST(RecoveryScanTest, DecisionBeforeSnapshotRecoversAsCommit) {
  // A decision record followed by a Paxos snapshot for the same
  // transaction: the snapshot is the last record, but it carries a ballot,
  // not progress, so the logged decision still drives recovery.
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kReady, {0, 1, 2}});
  wal.Append({0, 7, LogRecordType::kCommitReceived, {}});
  wal.Append({0, 7, LogRecordType::kPaxosState,
              PackPaxosState(MakeQuorumEpoch(1, 0), {})});
  const WalSummary log = RecoveryManager::ScanWal(wal, 0);
  const TxnLogSummary& t = log.txns.at(7);
  EXPECT_TRUE(t.in_flight());
  EXPECT_EQ(t.last_type, LogRecordType::kPaxosState);
  EXPECT_EQ(ActionFor(log, 7), RecoveryAction::kCommit);
  EXPECT_EQ(log.decisions,
            (std::vector<std::pair<TxnId, Decision>>{{7, Decision::kCommit}}));
}

TEST(RecoveryScanTest, MaxOwnSeqCountsOnlySelfCoordinated) {
  MemoryWal wal;
  wal.Append({0, MakeTxnId(1, 5), LogRecordType::kBeginCommit, {1, 2}});
  wal.Append({0, MakeTxnId(2, 90), LogRecordType::kReady, {2, 1}});
  wal.Append({0, MakeTxnId(1, 3), LogRecordType::kTransactionAbort, {}});
  EXPECT_EQ(RecoveryManager::ScanWal(wal, 1).max_own_seq, 5u);
  EXPECT_EQ(RecoveryManager::ScanWal(wal, 2).max_own_seq, 90u);
  EXPECT_EQ(RecoveryManager::ScanWal(wal, 3).max_own_seq, 0u);
}

// --------------------------------------------------------------------------
// Quorum-variant records (PR 9): PRE-ABORT and the snapshot records.
// --------------------------------------------------------------------------

TEST(RecoveryRulesTest, PreAbortConsultsPeers) {
  // An E3PC attempt that pre-accepted Abort is still only an *attempt*: a
  // later quorum may have committed a different attempt, so the outcome is
  // unknowable locally — same bucket as PRE-COMMIT.
  LogRecord r{1, 7, LogRecordType::kPreAbort, {}};
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(r),
            RecoveryAction::kConsultPeers);
}

TEST(RecoveryRulesTest, QuorumSnapshotsConsultPeers) {
  // Snapshot records carry epochs/ballots, not protocol progress. If one
  // ends up as the analyzed record the transaction was undecided here.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(
                LogRecord{1, 7, LogRecordType::kQuorumState, {}}),
            RecoveryAction::kConsultPeers);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(
                LogRecord{1, 7, LogRecordType::kPaxosState, {}}),
            RecoveryAction::kConsultPeers);
}

TEST(RecoveryScanTest, LastMilestoneSkipsSnapshots) {
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kReady, {0, 1, 2}});
  wal.Append({0, 7, LogRecordType::kQuorumState,
              PackQuorumState(MakeQuorumEpoch(1, 2), kInitialAttemptEpoch,
                              false)});
  wal.Append({0, 7, LogRecordType::kPaxosState, PackPaxosState(0, {})});

  // The last record is the snapshot; the milestone sees through it to
  // READY, and each snapshot is kept for reseeding.
  const WalSummary log = RecoveryManager::ScanWal(wal, 0);
  const TxnLogSummary& t = log.txns.at(7);
  EXPECT_EQ(t.last_type, LogRecordType::kPaxosState);
  ASSERT_NE(t.milestone, nullptr);
  EXPECT_EQ(t.milestone->type, LogRecordType::kReady);
  EXPECT_EQ(t.milestone->participants.vec(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(t.members, t.milestone);
  ASSERT_NE(t.quorum, nullptr);
  EXPECT_EQ(t.quorum->type, LogRecordType::kQuorumState);
  ASSERT_NE(t.paxos, nullptr);
  EXPECT_EQ(t.paxos->type, LogRecordType::kPaxosState);
}

TEST(RecoveryScanTest, LastMilestoneNulloptForAcceptorOnly) {
  // A Paxos acceptor that never hosted the RM role has only snapshot
  // records: no milestone means no local fragment to resolve.
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kPaxosState,
              PackPaxosState(MakeQuorumEpoch(2, 1), {})});
  EXPECT_EQ(RecoveryManager::ScanWal(wal, 0).txns.at(7).milestone, nullptr);
  // Other transactions' milestones do not bleed in.
  wal.Append({0, 8, LogRecordType::kReady, {}});
  const WalSummary log = RecoveryManager::ScanWal(wal, 0);
  EXPECT_EQ(log.txns.at(7).milestone, nullptr);
  ASSERT_NE(log.txns.at(8).milestone, nullptr);
}

TEST(RecoveryScanTest, SnapshotOnlyTxnIsInFlight) {
  // Acceptor-only participation keeps the transaction in the recovery
  // set: the acceptor must be reseeded or a later ballot could double-
  // commit (acceptor amnesia).
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kPaxosState, PackPaxosState(0, {})});
  const WalSummary log = RecoveryManager::ScanWal(wal, 0);
  EXPECT_EQ(InFlight(log), (std::vector<TxnId>{7}));
  EXPECT_NE(log.txns.at(7).paxos, nullptr);
}

TEST(QuorumCodecTest, QuorumStateRoundTrips) {
  const QuorumEpoch le = MakeQuorumEpoch(3, 2);
  const QuorumEpoch la = MakeQuorumEpoch(2, 1);
  const CowVector<NodeId> payload = PackQuorumState(le, la, true);

  QuorumEpoch le2 = 0, la2 = 0;
  bool pre_abort = false;
  ASSERT_TRUE(UnpackQuorumState(payload, &le2, &la2, &pre_abort));
  EXPECT_EQ(le2, le);
  EXPECT_EQ(la2, la);
  EXPECT_TRUE(pre_abort);
}

TEST(QuorumCodecTest, PaxosStateRoundTrips) {
  std::vector<PaxosAccepted> accepted = {
      {2, MakeQuorumEpoch(1, 0), Decision::kCommit},
      {3, kInitialAttemptEpoch, Decision::kAbort},
  };
  const CowVector<NodeId> payload =
      PackPaxosState(MakeQuorumEpoch(4, 3), accepted);

  QuorumEpoch promised = 0;
  std::vector<PaxosAccepted> out;
  ASSERT_TRUE(UnpackPaxosState(payload, &promised, &out));
  EXPECT_EQ(promised, MakeQuorumEpoch(4, 3));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].instance, 2u);
  EXPECT_EQ(out[0].ballot, MakeQuorumEpoch(1, 0));
  EXPECT_EQ(out[0].value, Decision::kCommit);
  EXPECT_EQ(out[1].instance, 3u);
  EXPECT_EQ(out[1].value, Decision::kAbort);
}

TEST(QuorumCodecTest, TruncatedPayloadsAreRejected) {
  // A malformed/truncated snapshot must fail the unpack, not crash
  // recovery or hand back garbage epochs.
  QuorumEpoch le = 0, la = 0;
  bool flag = false;
  EXPECT_FALSE(UnpackQuorumState(CowVector<NodeId>{}, &le, &la, &flag));
  CowVector<NodeId> truncated = PackQuorumState(1, 1, false);
  truncated.Mutable().pop_back();
  EXPECT_FALSE(UnpackQuorumState(truncated, &le, &la, &flag));

  QuorumEpoch promised = 0;
  std::vector<PaxosAccepted> accepted;
  EXPECT_FALSE(UnpackPaxosState(CowVector<NodeId>{}, &promised, &accepted));
  CowVector<NodeId> bad =
      PackPaxosState(1, {{2, 1, Decision::kCommit}});
  bad.Mutable().pop_back();
  EXPECT_FALSE(UnpackPaxosState(bad, &promised, &accepted));
}

TEST(QuorumCodecTest, EpochEncodingOrdersAndUnpacks) {
  // (round << 16) | node: rounds dominate, node ids break ties, and both
  // halves survive the trip.
  const QuorumEpoch a = MakeQuorumEpoch(1, 9);
  const QuorumEpoch b = MakeQuorumEpoch(2, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(kInitialAttemptEpoch, a);
  EXPECT_EQ(QuorumEpochRound(b), 2u);
  EXPECT_EQ(QuorumEpochNode(a), 9u);
  EXPECT_EQ(QuorumSize(3), 2u);
  EXPECT_EQ(QuorumSize(4), 3u);
  EXPECT_EQ(QuorumSize(5), 3u);
}

}  // namespace
}  // namespace ecdb
