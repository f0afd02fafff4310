#include "stats/metrics.h"

namespace ecdb {

std::string ToString(TimeCategory category) {
  switch (category) {
    case TimeCategory::kUsefulWork:
      return "Useful Work";
    case TimeCategory::kTxnManager:
      return "Txn Manager";
    case TimeCategory::kIndex:
      return "Index";
    case TimeCategory::kAbort:
      return "Abort";
    case TimeCategory::kIdle:
      return "Idle";
    case TimeCategory::kCommit:
      return "Commit";
    case TimeCategory::kOverhead:
      return "Overhead";
  }
  return "Unknown";
}

void NodeStats::Merge(const NodeStats& other) {
  txns_committed += other.txns_committed;
  txns_aborted += other.txns_aborted;
  txns_blocked += other.txns_blocked;
  commit_protocol_runs += other.commit_protocol_runs;
  termination_rounds += other.termination_rounds;
  acceptor_rounds += other.acceptor_rounds;
  ballots_promoted += other.ballots_promoted;
  quorum_lost_rounds += other.quorum_lost_rounds;
  open_loop_offered += other.open_loop_offered;
  open_loop_rejected += other.open_loop_rejected;
  open_loop_aborted += other.open_loop_aborted;
  for (size_t i = 0; i < kNumTimeCategories; ++i) {
    time_us[i] += other.time_us[i];
  }
  latency.Merge(other.latency);
  phase_vote.Merge(other.phase_vote);
  phase_transmit.Merge(other.phase_transmit);
  phase_apply.Merge(other.phase_apply);
}

double ClusterStats::TimeFraction(TimeCategory category) const {
  uint64_t sum = 0;
  for (size_t i = 0; i < kNumTimeCategories; ++i) sum += total.time_us[i];
  if (sum == 0) return 0.0;
  return static_cast<double>(total.TimeIn(category)) /
         static_cast<double>(sum);
}

}  // namespace ecdb
