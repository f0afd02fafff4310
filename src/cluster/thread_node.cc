#include "cluster/thread_node.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/logging.h"

namespace ecdb {

namespace {

std::unique_ptr<WriteAheadLog> OpenWal(const ThreadClusterConfig& config,
                                       NodeId id) {
  if (config.wal_dir.empty()) return std::make_unique<MemoryWal>();
  auto wal =
      FileWal::Open(config.wal_dir + "/node" + std::to_string(id) + ".wal");
  ECDB_CHECK(wal.ok());
  return std::move(wal).value();
}

}  // namespace

ThreadNode::ThreadNode(NodeId id, const ThreadClusterConfig& config,
                       ThreadNetwork* network, Workload* workload,
                       SafetyMonitor* monitor, uint64_t seed,
                       MetricsHandle metrics)
    // Wall-clock runs have no separate execution-timeout knob: four
    // protocol timeouts.
    : NodeCore(id,
               Params::From(config, config.commit.timeout_us * 4,
                            /*release_locks_at_decision=*/false),
               OpenWal(config, id), workload, monitor, seed, metrics),
      config_(config),
      network_(network) {
  if (config_.coalesce_transport) send_buffers_.resize(config_.num_nodes);
}

ThreadNode::~ThreadNode() = default;

Micros ThreadNode::NowUs() const {
  return static_cast<Micros>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_start_)
          .count());
}

void ThreadNode::OnLoopStart(std::chrono::steady_clock::time_point epoch) {
  epoch_start_ = epoch;
  // A node crashed before its loop began (a process restarted over its old
  // log) starts no client here: NodeCore::Recover starts them once the
  // recovery pass has reseeded the TxnId allocator, or the first
  // transactions would reuse ids peers' decision ledgers still hold.
  if (!crashed()) StartClients();
}

void ThreadNode::ProcessControl() {
  if (crash_requested_.exchange(false)) {
    // Every timer this node has in the worker's shared heap goes stale in
    // O(1): the epoch bump orphans them and the worker skips orphans at
    // pop time, leaving co-hosted nodes' timers alone.
    ++timer_epoch_;
    NodeCore::Crash();
    // Unflushed frames never made it onto the wire: fail-stop means a
    // crashed node's buffered sends die with its volatile state.
    for (NodeId dst : dirty_dsts_) send_buffers_[dst].clear();
    dirty_dsts_.clear();
  }
  if (recover_requested_.exchange(false)) NodeCore::Recover();
}

bool ThreadNode::LocalFastPathOpen(NodeId dst) const {
  // The fast path must not change observable semantics: with faults armed
  // (loss, link cuts, delays) or either endpoint crashed, the message goes
  // through ThreadNetwork so drops are sampled and counted exactly as for
  // cross-worker traffic.
  return !network_->FaultsArmed() && !crashed() &&
         !network_->IsCrashed(dst);
}

void ThreadNode::FlushWal() {
  WriteAheadLog& log = wal();
  // Time the device round trip, but only count flushes that covered staged
  // records (group_flushes() moves iff the flush did work).
  const uint64_t flushes_before = log.group_flushes();
  const auto t0 = std::chrono::steady_clock::now();
  const Status flushed = log.Flush();
  if (!flushed.ok()) {
    // Write-ahead rule: nothing the unflushed records announce may leave
    // this node. Fail-stop before any message of the iteration is sent.
    ECDB_LOG(kError, "node %u: WAL flush failed: %s", self(),
             flushed.ToString().c_str());
    std::abort();
  }
  if (log.group_flushes() > flushes_before) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    metrics().Add(&CoreMetrics::wal_flushes);
    metrics().Observe(&CoreMetrics::wal_flush_us, static_cast<uint64_t>(us));
  }
}

void ThreadNode::FlushOutput() {
  // Write-ahead order: this iteration's WAL group becomes durable before
  // any message announcing its decisions reaches another node's mailbox.
  FlushWal();
  for (NodeId dst : dirty_dsts_) {
    std::vector<Message>& buf = send_buffers_[dst];
    if (dst != self() && host_->Hosts(dst) && LocalFastPathOpen(dst)) {
      host_->EnqueueLocalBatch(&buf);
    } else {
      network_->SendBatch(self(), dst, &buf);
    }
  }
  dirty_dsts_.clear();
}

// --------------------------------------------------------------------------
// Host interface
// --------------------------------------------------------------------------

void ThreadNode::Transmit(Message msg) {
  if (config_.coalesce_transport) {
    if (msg.dst >= send_buffers_.size()) return;  // network drops these too
    std::vector<Message>& buf = send_buffers_[msg.dst];
    if (buf.empty()) dirty_dsts_.push_back(msg.dst);
    buf.push_back(std::move(msg));
    return;
  }
  // Write-ahead order without a flush point: whatever this message reports
  // must be durable before it leaves. A no-op when nothing is staged.
  FlushWal();
  // Same-worker fast path: a co-hosted destination's message hops onto the
  // worker's local queue — no channel lock, no condvar wake — and is
  // handled this loop iteration.
  if (msg.dst < config_.num_nodes && msg.dst != self() && host_ != nullptr &&
      host_->Hosts(msg.dst) && LocalFastPathOpen(msg.dst)) {
    host_->EnqueueLocal(std::move(msg));
    return;
  }
  network_->Send(std::move(msg));
}

TimerId ThreadNode::StartTimer(Micros delay_us, NodeTimer timer) {
  timer.node = self();
  timer.epoch = timer_epoch_;
  return static_cast<TimerId>(host_->ScheduleTimer(NowUs() + delay_us, timer));
}

void ThreadNode::CancelTimer(TimerId id) {
  host_->CancelTimer(static_cast<WorkerTimerHeap::Id>(id));
}

void ThreadNode::Run(Work work, TaskFn task) {
  (void)work;  // real CPU time is spent, not modeled
  task();
}

// --------------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------------

void ThreadNode::Crash() {
  // Marked before the network cut: once the cut is visible the node
  // handles no input and applies no decision.
  MarkCrashed();
  network_->CrashNode(self());
  crash_requested_.store(true);
}

void ThreadNode::Recover() {
  network_->RecoverNode(self());
  recover_requested_.store(true);
}

// --------------------------------------------------------------------------
// ThreadCluster
// --------------------------------------------------------------------------

ThreadCluster::ThreadCluster(const ThreadClusterConfig& config,
                             std::unique_ptr<Workload> workload)
    : config_(config),
      workload_(std::move(workload)),
      telemetry_(config_.telemetry, config_.num_nodes) {
  // worker_threads == 0 is thread-per-node: W == num_nodes, one node per
  // worker, and the per-worker mailbox degenerates to the old per-node
  // mailbox — one code path serves both deployment shapes.
  const uint32_t workers =
      config_.worker_threads == 0
          ? config_.num_nodes
          : std::min<uint32_t>(config_.worker_threads, config_.num_nodes);
  network_ = std::make_unique<ThreadNetwork>(config_.num_nodes, workers);
  workers_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<ThreadWorker>(
        w, workers, network_.get(), config_.coalesce_transport,
        telemetry_.Shard(w)));
  }
  Rng root(config_.seed);
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<ThreadNode>(
        id, config_, network_.get(), workload_.get(), &monitor_, root.Next(),
        telemetry_.Shard(id)));
    workers_[id % workers]->AddNode(nodes_.back().get());
  }
  // Only lock-free sources here: the sampler thread runs concurrently with
  // the workers, and ThreadNetwork's counters are atomics.
  telemetry_.SetPoll(
      [this] { telemetry_.SetNetworkGauges(network_->stats()); });
}

ThreadCluster::~ThreadCluster() { Stop(); }

void ThreadCluster::Start() {
  ECDB_CHECK(!started_);
  started_ = true;
  for (auto& node : nodes_) node->Bootstrap();
  for (auto& worker : workers_) worker->Start();
  telemetry_.StartSamplerThread();
}

void ThreadCluster::RunFor(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void ThreadCluster::Quiesce(double drain_seconds) {
  for (auto& node : nodes_) node->Quiesce();
  RunFor(drain_seconds);
}

void ThreadCluster::Stop() {
  if (!started_) return;
  // Signal everyone first so the joins overlap the (up to 1ms) mailbox
  // waits instead of serializing them.
  for (auto& worker : workers_) worker->SignalStop();
  for (auto& worker : workers_) worker->Stop();
  network_->Shutdown();
  // Workers are joined: thread-confined sources (trace rings) are now safe
  // to fold into the final sample.
  telemetry_.StopSamplerThread([this] {
    uint64_t trace_drops = 0;
    for (const auto& node : nodes_) trace_drops += node->trace().dropped();
    telemetry_.registry().Set(telemetry_.ids().trace_events_dropped,
                              trace_drops);
  });
  started_ = false;
}

uint64_t ThreadCluster::TotalCommitted() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->committed();
  return total;
}

ClusterStats ThreadCluster::CollectStats(double duration_seconds) const {
  ClusterStats out =
      NodeCore::Aggregate(nodes_, duration_seconds,
                          /*worker_capacity_us=*/0, network_->stats());
  out.worker_threads = workers_.size();
  for (const auto& worker : workers_) {
    const WorkerStats ws = worker->stats();
    out.worker_mailbox_messages += ws.mailbox_messages;
    out.worker_local_messages += ws.local_messages;
  }
  return out;
}

std::vector<WorkerStats> ThreadCluster::CollectWorkerStats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) out.push_back(worker->stats());
  return out;
}

void ThreadCluster::EnableTracing(size_t capacity) {
  for (auto& node : nodes_) node->EnableTracing(capacity);
}

std::vector<const TraceRecorder*> ThreadCluster::recorders() const {
  std::vector<const TraceRecorder*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(&node->trace());
  return out;
}

}  // namespace ecdb
