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
/// runs; scheduler timers guarded by a crash epoch; registration with the
/// simulated network; and the measurement-window counters.
class SimNode : public NodeCore {
 public:
  SimNode(NodeId id, const ClusterConfig& config, Scheduler* scheduler,
          SimNetwork* network, Workload* workload, SafetyMonitor* monitor,
          uint64_t seed);
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

  // --- Introspection ---

  /// Starts a fresh measurement window (clears the stats counters and
  /// remembers the busy-time baseline used to derive idle time).
  void BeginMeasurement();

  /// Worker-busy microseconds accumulated since construction.
  uint64_t total_busy_us() const { return total_busy_us_; }
  uint64_t busy_us_at_window_start() const { return busy_at_window_start_; }

  /// Termination-protocol rounds initiated since BeginMeasurement(). The
  /// engine's counter resets when a crash recreates the engine, so the
  /// difference is clamped at zero.
  uint64_t TerminationRoundsThisWindow() const {
    return SinceWindowStart(engine().termination_rounds(),
                            term_rounds_at_window_start_);
  }

  /// Quorum-protocol counters since BeginMeasurement(), with the same
  /// crash-reset clamping as TerminationRoundsThisWindow().
  uint64_t AcceptorRoundsThisWindow() const {
    return SinceWindowStart(engine().acceptor_rounds(),
                            acceptor_rounds_at_window_start_);
  }
  uint64_t BallotsPromotedThisWindow() const {
    return SinceWindowStart(engine().ballots_promoted(),
                            ballots_promoted_at_window_start_);
  }
  uint64_t QuorumLostRoundsThisWindow() const {
    return SinceWindowStart(engine().quorum_lost_rounds(),
                            quorum_lost_at_window_start_);
  }

 protected:
  // --- NodeCore host interface ---
  void Transmit(Message msg) override { network_->Send(std::move(msg)); }
  TimerId StartTimer(Micros delay_us, NodeTimer timer) override;
  void CancelTimer(TimerId id) override;
  void Run(Work work, TaskFn task) override;

 private:
  using CostVector = std::array<Micros, kNumTimeCategories>;

  static uint64_t SinceWindowStart(uint64_t now, uint64_t start) {
    return now > start ? now - start : 0;
  }

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

  uint64_t total_busy_us_ = 0;
  uint64_t busy_at_window_start_ = 0;
  uint64_t term_rounds_at_window_start_ = 0;
  uint64_t acceptor_rounds_at_window_start_ = 0;
  uint64_t ballots_promoted_at_window_start_ = 0;
  uint64_t quorum_lost_at_window_start_ = 0;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_SIM_NODE_H_
