#ifndef ECDB_CLUSTER_SIM_NODE_H_
#define ECDB_CLUSTER_SIM_NODE_H_

#include <array>
#include <deque>
#include <vector>

#include "cluster/config.h"
#include "cluster/node_core.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace ecdb {

/// One simulated server process: a NodeCore (storage, locks, WAL, commit
/// engine, clients) hosted on the shared discrete-event scheduler. The host
/// adds what only a simulation has: a pool of worker threads modeled as
/// capacity on the scheduler, charging ServiceCosts for every task the core
/// runs (the charged time is recorded per Figure 12 category); scheduler
/// timers guarded by a crash epoch; and registration with the simulated
/// network.
class SimNode : public NodeCore {
 public:
  SimNode(NodeId id, const ClusterConfig& config, Scheduler* scheduler,
          SimNetwork* network, Workload* workload, SafetyMonitor* monitor,
          uint64_t seed, MetricsHandle metrics);
  ~SimNode() override;

  /// Loads this node's partition and registers with the network.
  void Bootstrap();

  Micros NowUs() const override { return scheduler_->Now(); }
  using NodeCore::CancelTimer;

  MemoryWal& wal() { return static_cast<MemoryWal&>(NodeCore::wal()); }

  // --- Fault injection ---

  /// Fail-stop crash: volatile state (locks, fragments, in-flight jobs)
  /// is lost; the WAL survives (stable storage).
  void Crash();

  /// Restart after a crash: re-registers with the network and runs the
  /// Section 4.2 independent-recovery analysis over the WAL; transactions
  /// it cannot resolve locally are handed to the termination protocol.
  void Recover();

 protected:
  // --- NodeCore host interface ---
  void Transmit(Message msg) override { network_->Send(std::move(msg)); }
  TimerId StartTimer(Micros delay_us, NodeTimer timer) override;
  void CancelTimer(TimerId id) override;
  void Run(Work work, TaskFn task) override;

 private:
  using CostVector = std::array<Micros, kNumTimeCategories>;

  CostVector CostOf(const Work& work) const;

  // Worker pool model. Jobs are TaskFn rather than std::function: the
  // common capture shapes fit the inline buffer, so queueing and completing
  // a job does not allocate. A running job parks in a pooled slot and the
  // scheduler event is a 16-byte trampoline; nesting the job callable
  // inside the completion lambda would overflow any inline buffer and force
  // a heap allocation per job (i.e. per message).
  void StartJob(CostVector cost, TaskFn fn);
  void FinishJobSlot(uint32_t idx);

  const ClusterConfig& config_;
  Scheduler* scheduler_;
  SimNetwork* network_;

  /// One in-flight worker job, parked until its completion event fires.
  /// `epoch` guards against completions that straddle a crash.
  struct RunningJob {
    CostVector cost;
    TaskFn fn;
    uint32_t epoch = 0;
  };

  uint32_t busy_workers_ = 0;
  std::deque<std::pair<CostVector, TaskFn>> job_queue_;
  std::vector<RunningJob> running_jobs_;
  std::vector<uint32_t> free_job_slots_;
  uint32_t epoch_ = 0;  // bumped on crash; stale continuations are dropped
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_SIM_NODE_H_
