#include "checks.h"

#include <algorithm>

namespace perfbench {

void CheckList::Expect(bool ok, const std::string& what) {
  (ok ? passed_ : failures_).push_back(what);
}

void CheckList::Merge(const CheckList& other) {
  // A check passed in several episodes is listed once.
  for (const std::string& what : other.passed_) {
    if (std::find(passed_.begin(), passed_.end(), what) == passed_.end()) {
      passed_.push_back(what);
    }
  }
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

void CheckSafety(const std::vector<ecdb::TxnId>& violations,
                 CheckList* checks) {
  checks->Expect(violations.empty(),
                 "safety: " + std::to_string(violations.size()) +
                     " transactions applied with conflicting decisions");
}

void CheckFaultFree(uint64_t termination_rounds, int64_t redials,
                    CheckList* checks) {
  checks->Expect(termination_rounds == 0,
                 "fault-free: termination_rounds == 0 (read " +
                     std::to_string(termination_rounds) + ")");
  checks->Expect(redials == 0, "fault-free: net.redials == 0 (read " +
                                   std::to_string(redials) + ")");
}

void CheckNonBlocking(uint64_t blocked_txns, CheckList* checks) {
  checks->Expect(blocked_txns == 0, "non-blocking: blocked_txns == 0 (read " +
                                        std::to_string(blocked_txns) + ")");
}

void CheckSocketLedger(const ecdb::SocketRunStats& run, uint32_t num_nodes,
                       CheckList* checks) {
  checks->Expect(run.nodes.size() == num_nodes,
                 "ledger: " + std::to_string(run.nodes.size()) + " of " +
                     std::to_string(num_nodes) + " nodes reported");
  checks->Expect(run.ConservationHolds(),
                 "ledger: offered " + std::to_string(run.Offered()) +
                     " == committed " + std::to_string(run.Committed()) +
                     " + rejected " + std::to_string(run.Rejected()) +
                     " + terminal aborts " +
                     std::to_string(run.TerminalAborted()));
}

void CheckWalReplay(ecdb::NodeId node, uint64_t replayed, uint64_t reported,
                    CheckList* checks) {
  checks->Expect(replayed >= reported,
                 "wal: node " + std::to_string(node) + " replays " +
                     std::to_string(replayed) + " >= " +
                     std::to_string(reported) + " reported records");
}

int64_t Redials(uint64_t reconnects, uint32_t num_nodes) {
  const uint64_t mesh = static_cast<uint64_t>(num_nodes) * (num_nodes - 1);
  return static_cast<int64_t>(reconnects) - static_cast<int64_t>(mesh);
}

}  // namespace perfbench
