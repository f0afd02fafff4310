#ifndef ECDB_CLUSTER_THREAD_NODE_H_
#define ECDB_CLUSTER_THREAD_NODE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node_core.h"
#include "cluster/worker.h"
#include "commit/commit_engine.h"
#include "commit/invariants.h"
#include "net/channel.h"
#include "obs/telemetry.h"
#include "stats/metrics.h"
#include "trace/trace_recorder.h"
#include "workload/open_loop.h"
#include "workload/workload.h"

namespace ecdb {

/// Configuration of the threaded (real OS threads, wall-clock time)
/// runtime. Protocol timeouts are inherited from CommitEngineConfig but
/// interpreted as real microseconds.
struct ThreadClusterConfig {
  uint32_t num_nodes = 4;
  uint32_t clients_per_node = 4;
  CommitProtocol protocol = CommitProtocol::kEasyCommit;
  CcPolicy cc_policy = CcPolicy::kNoWait;
  CommitEngineConfig commit{.timeout_us = 50'000,
                            .termination_window_us = 20'000,
                            .keep_decision_ledger = true};
  Micros backoff_base_us = 200;
  uint32_t backoff_max_shift = 6;
  uint64_t seed = 42;

  /// Worker-pool size for the shard-per-core runtime: nodes are hosted
  /// M:N on `worker_threads` event-loop workers (node_id % workers), each
  /// with one mailbox and one shared timer heap. 0 keeps the historical
  /// thread-per-node behaviour (one worker per node). Values above
  /// num_nodes are clamped. For a fixed pool sized to the machine, pass
  /// std::thread::hardware_concurrency().
  uint32_t worker_threads = 0;

  /// Transport coalescing + WAL group commit: each event-loop iteration
  /// buffers outgoing messages per destination and ships each buffer as
  /// one SendBatch (one mailbox lock, at most one wake, per destination
  /// per iteration), and the iteration's WAL appends become durable with
  /// a single Flush issued before the network flush (write-ahead order).
  /// Off by default: throughput benchmarks opt in.
  bool coalesce_transport = false;

  /// Optional directory for file-backed WALs (one per node). Empty keeps
  /// the logs in memory.
  std::string wal_dir;

  /// Open-loop load generation (off: clients run the classic closed loop).
  /// Arrivals are wall-clock timer events on the hosting worker; the
  /// admission window replaces clients_per_node as the slot population.
  OpenLoopConfig open_loop;

  /// Time-series telemetry (off by default). When enabled the cluster
  /// runs a wall-clock sampler thread over the metrics registry, which
  /// every node and worker records into on its own shard through relaxed
  /// atomics, so the sampler never touches thread-confined state.
  TelemetryConfig telemetry;
};

/// One server node of the threaded runtime: a NodeCore hosted on the
/// ThreadWorker that owns it (node_id % workers). All node state is
/// thread-confined to that worker; cross-worker communication goes through
/// ThreadNetwork mailboxes, same-worker sends ride the worker's local
/// queue. The same core the simulator hosts runs here against wall-clock
/// timers, with every task run inline.
///
/// The host adds the worker binding and its shared timer heap, the
/// per-destination coalescing buffers flushed once per loop iteration (WAL
/// group first, write-ahead), the same-worker fast path, and crash/recover
/// requests that other threads post and the worker applies between
/// batches.
class ThreadNode : public NodeCore {
 public:
  ThreadNode(NodeId id, const ThreadClusterConfig& config,
             ThreadNetwork* network, Workload* workload,
             SafetyMonitor* monitor, uint64_t seed, MetricsHandle metrics);
  ~ThreadNode() override;

  /// Wall-clock microseconds on the hosting worker's time axis.
  Micros NowUs() const override;
  using NodeCore::CancelTimer;

  /// Crash (fail-stop), safe from any thread: the node stops accepting
  /// input at once and the hosting worker wipes its volatile state before
  /// its next batch — co-hosted nodes are untouched. Recover() re-enables
  /// processing and runs the WAL recovery analysis on the worker.
  void Crash();
  void Recover();

 protected:
  // --- NodeCore host interface (hosting worker thread only) ---
  void Transmit(Message msg) override;
  TimerId StartTimer(Micros delay_us, NodeTimer timer) override;
  void CancelTimer(TimerId id) override;
  void Run(Work work, TaskFn task) override;

 private:
  friend class ThreadWorker;

  // --- Hooks for the hosting ThreadWorker (worker thread only) ---

  /// Registers the hosting worker (once, before it starts).
  void BindHost(ThreadWorker* host) { host_ = host; }

  /// First thing the worker loop does: adopts the worker's clock base (all
  /// co-hosted nodes share one time axis for the shared timer heap) and
  /// starts the clients, unless the node is crashed (its recovery starts
  /// them).
  void OnLoopStart(std::chrono::steady_clock::time_point epoch);

  /// Applies pending crash/recover requests (once per loop iteration).
  void ProcessControl();

  /// Timer generation: bumped on crash so every timer armed before the
  /// crash is stale in the worker's shared heap.
  uint32_t timer_epoch() const { return timer_epoch_; }

  /// Coalescing flush point (end of every loop iteration): first makes
  /// this iteration's WAL appends durable as one group, then ships each
  /// dirty per-destination send buffer as one frame — same-worker buffers
  /// hop onto the worker's local queue, cross-worker ones go out as one
  /// SendBatch.
  void FlushOutput();

  /// Makes every staged WAL append durable as one group (counted and timed
  /// into the wal_flushes metrics). Runs before any message
  /// leaves: at the coalescing flush point, or per send when uncoalesced.
  void FlushWal();

  /// True when a message to `dst` may take the same-worker local queue:
  /// faults unarmed and neither endpoint crashed, so the fast path cannot
  /// change loss/link/delay or fail-stop semantics.
  bool LocalFastPathOpen(NodeId dst) const;

  const ThreadClusterConfig& config_;
  ThreadNetwork* network_;
  ThreadWorker* host_ = nullptr;

  uint32_t timer_epoch_ = 1;

  // Coalescing state (coalesce_transport only; owned by the hosting
  // worker). One open send buffer per destination plus the list of
  // destinations touched this iteration; buffers are drained by SendBatch
  // (or the worker's local queue) keeping their capacity, so steady state
  // allocates nothing.
  std::vector<std::vector<Message>> send_buffers_;
  std::vector<NodeId> dirty_dsts_;

  std::atomic<bool> crash_requested_{false};
  std::atomic<bool> recover_requested_{false};

  std::chrono::steady_clock::time_point epoch_start_;
};

/// The threaded deployment: N ThreadNodes hosted M:N on a pool of
/// ThreadWorkers over a ThreadNetwork with one mailbox per worker.
class ThreadCluster {
 public:
  ThreadCluster(const ThreadClusterConfig& config,
                std::unique_ptr<Workload> workload);
  ~ThreadCluster();

  /// Bootstraps every node and starts the worker pool.
  void Start();

  /// Lets the cluster run for `seconds` of wall-clock time.
  void RunFor(double seconds);

  /// Stops all workers and joins their threads.
  void Stop();

  /// Quiesces every node and waits for in-flight transactions to drain.
  void Quiesce(double drain_seconds = 0.5);

  ThreadNode& node(NodeId id) { return *nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_workers() const { return workers_.size(); }
  ThreadNetwork& network() { return *network_; }
  SafetyMonitor& monitor() { return monitor_; }

  /// Total committed transactions across nodes (live, approximate).
  uint64_t TotalCommitted() const;

  /// Merges per-node stats into a ClusterStats for a window of
  /// `duration_seconds`. The engine counters in them are thread-confined,
  /// so call only after Stop().
  ClusterStats CollectStats(double duration_seconds) const;

  /// Per-worker event-loop counters (occupancy, mailbox/local message
  /// split). Read only after Stop().
  std::vector<WorkerStats> CollectWorkerStats() const;

  /// Turns on protocol tracing on every node. Call before Start().
  void EnableTracing(size_t capacity = TraceRecorder::kDefaultCapacity);

  /// Per-node recorders, for CollectEvents + the exporters. Read only
  /// after Stop().
  std::vector<const TraceRecorder*> recorders() const;

  /// The time-series sampler, or nullptr when config.telemetry.enabled is
  /// false. Slices are safe to read after Stop() (the sampler thread is
  /// joined there, taking one final sample).
  TelemetrySampler* telemetry() { return telemetry_.sampler(); }

 private:
  ThreadClusterConfig config_;
  std::unique_ptr<ThreadNetwork> network_;
  std::unique_ptr<Workload> workload_;
  SafetyMonitor monitor_;  // guarded by monitor_mu_ inside nodes
  // Node `id` records on shard `id`. Worker `w` hosts node `w` and records
  // its loop counters on that node's shard: each shard keeps one writer.
  Telemetry telemetry_;
  std::vector<std::unique_ptr<ThreadNode>> nodes_;
  // Declared after nodes_: workers are destroyed (joined) first, so no
  // worker thread can touch a node mid-destruction.
  std::vector<std::unique_ptr<ThreadWorker>> workers_;
  bool started_ = false;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_THREAD_NODE_H_
