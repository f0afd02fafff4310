#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/socket_cluster.h"
#include "common/types.h"

namespace perfbench {

/// Correctness checks of one run. Every check is recorded, passed or not,
/// so the report can list what was verified.
class CheckList {
 public:
  void Expect(bool ok, const std::string& what);
  void Merge(const CheckList& other);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& passed() const { return passed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> passed_;
  std::vector<std::string> failures_;
};

/// No transaction was applied with conflicting decisions
/// (SafetyMonitor::Violations() is empty).
void CheckSafety(const std::vector<ecdb::TxnId>& violations, CheckList* checks);

/// Fault-free runs never enter the termination protocol and never re-dial
/// a peer after the initial mesh.
void CheckFaultFree(uint64_t termination_rounds, int64_t redials,
                    CheckList* checks);

/// EasyCommit's non-blocking claim: no transaction blocked.
void CheckNonBlocking(uint64_t blocked_txns, CheckList* checks);

/// Socket run ledger: every node reported, and offered == committed +
/// rejected + terminally aborted across all of them.
void CheckSocketLedger(const ecdb::SocketRunStats& run, uint32_t num_nodes,
                       CheckList* checks);

/// Durability of the socket run's logs: reopening node `node`'s WAL file
/// replays at least the records the node reported.
void CheckWalReplay(ecdb::NodeId node, uint64_t replayed, uint64_t reported,
                    CheckList* checks);

/// Re-dials beyond the initial mesh. Each process counts every connection
/// it establishes, the first dial included, so a fault-free n-node mesh
/// reads n*(n-1) in total. Negative when part of the mesh never came up.
int64_t Redials(uint64_t reconnects, uint32_t num_nodes);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
