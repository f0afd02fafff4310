#include "cluster/sim_node.h"

#include <utility>

#include "common/logging.h"
#include "common/slot_pool.h"

namespace ecdb {

SimNode::SimNode(NodeId id, const ClusterConfig& config, Scheduler* scheduler,
                 SimNetwork* network, Workload* workload,
                 SafetyMonitor* monitor, uint64_t seed, MetricsHandle metrics)
    : NodeCore(id,
               Params::From(config, config.exec_timeout_us,
                            config.release_locks_at_decision),
               std::make_unique<MemoryWal>(), workload, monitor, seed,
               metrics),
      config_(config),
      scheduler_(scheduler),
      network_(network) {}

SimNode::~SimNode() = default;

void SimNode::Bootstrap() {
  NodeCore::Bootstrap();
  network_->RegisterNode(self(), [this](const Message& msg) {
    if (!crashed()) Deliver(msg);
  });
}

// --------------------------------------------------------------------------
// Host interface
// --------------------------------------------------------------------------

TimerId SimNode::StartTimer(Micros delay_us, NodeTimer timer) {
  timer.epoch = epoch_;
  return static_cast<TimerId>(
      scheduler_->ScheduleAfter(delay_us, [this, timer]() {
        if (crashed() || timer.epoch != epoch_) return;
        OnTimer(timer);
      }));
}

void SimNode::CancelTimer(TimerId id) {
  scheduler_->Cancel(static_cast<Scheduler::TaskId>(id));
}

void SimNode::Run(Work work, TaskFn task) {
  if (crashed()) return;
  const CostVector cost = CostOf(work);
  if (busy_workers_ < config_.workers_per_node) {
    StartJob(cost, std::move(task));
  } else {
    job_queue_.emplace_back(cost, std::move(task));
  }
}

SimNode::CostVector SimNode::CostOf(const Work& work) const {
  const ServiceCosts& c = config_.costs;
  CostVector v{};
  auto charge = [&v](TimeCategory category, Micros us) {
    v[static_cast<size_t>(category)] += us;
  };
  switch (work.kind) {
    case WorkKind::kExecute:
      charge(TimeCategory::kUsefulWork, c.useful_work_per_op_us * work.ops);
      charge(TimeCategory::kIndex, c.index_per_op_us * work.ops);
      charge(TimeCategory::kTxnManager, c.txn_manager_us);
      break;
    case WorkKind::kExecReply:
      charge(TimeCategory::kTxnManager, c.remote_reply_us);
      break;
    case WorkKind::kAbort:
      charge(TimeCategory::kAbort, c.abort_cleanup_us);
      break;
    case WorkKind::kCommitMsg:
      charge(TimeCategory::kCommit, c.commit_msg_us);
      break;
    case WorkKind::kCleanup:
      charge(TimeCategory::kOverhead, c.overhead_us);
      break;
  }
  return v;
}

// --------------------------------------------------------------------------
// Worker pool model
// --------------------------------------------------------------------------

void SimNode::StartJob(CostVector cost, TaskFn fn) {
  busy_workers_++;
  Micros total = 0;
  for (Micros c : cost) total += c;
  const uint32_t idx = TakeSlot(&running_jobs_, &free_job_slots_);
  RunningJob& job = running_jobs_[idx];
  job.cost = cost;
  job.fn = std::move(fn);
  job.epoch = epoch_;
  scheduler_->ScheduleAfter(total, [this, idx]() { FinishJobSlot(idx); });
}

void SimNode::FinishJobSlot(uint32_t idx) {
  // Move the job out before running it: the callable may start new jobs,
  // growing (and reallocating) the pool under us.
  RunningJob job = std::move(running_jobs_[idx]);
  free_job_slots_.push_back(idx);
  if (crashed() || job.epoch != epoch_) return;
  const MetricsHandle& m = metrics();
  for (size_t i = 0; i < kNumTimeCategories; ++i) {
    // kIdle is never charged (and has no counter): idle is derived.
    if (job.cost[i] != 0) {
      m.registry->Add(m.shard, m.ids->time_us[i], job.cost[i]);
    }
  }
  job.fn();
  busy_workers_--;
  if (!job_queue_.empty() && busy_workers_ < config_.workers_per_node) {
    auto [next_cost, next_fn] = std::move(job_queue_.front());
    job_queue_.pop_front();
    StartJob(next_cost, std::move(next_fn));
  }
}

// --------------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------------

void SimNode::Crash() {
  epoch_++;  // invalidates every scheduled continuation of this node
  network_->CrashNode(self());
  NodeCore::Crash();
  job_queue_.clear();
  busy_workers_ = 0;
}

void SimNode::Recover() {
  ECDB_CHECK(crashed());
  network_->RecoverNode(self());
  NodeCore::Recover();
}

}  // namespace ecdb
