#ifndef ECDB_CLUSTER_NODE_CORE_H_
#define ECDB_CLUSTER_NODE_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cc/lock_table.h"
#include "commit/commit_engine.h"
#include "commit/commit_env.h"
#include "commit/invariants.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "net/network.h"
#include "obs/metrics_registry.h"
#include "sim/task.h"
#include "stats/metrics.h"
#include "storage/table.h"
#include "trace/trace_recorder.h"
#include "txn/transaction.h"
#include "wal/wal.h"
#include "workload/open_loop.h"
#include "workload/workload.h"

namespace ecdb {

/// Kinds of timers a node arms: protocol timeouts, the remote-execution
/// watchdog, client retry backoff, and open-loop arrivals.
enum class NodeTimerKind : uint8_t { kProtocol, kExec, kRetry, kArrival };

/// Payload of one node timer. The core fills `kind`, `txn` and `slot`;
/// hosts that share one timer queue among several nodes stamp `node` (to
/// route the firing) and `epoch` (their crash generation at arm time, so
/// timers armed before a crash are discarded when they pop).
struct NodeTimer {
  NodeTimerKind kind = NodeTimerKind::kProtocol;
  TxnId txn = kInvalidTxn;
  uint32_t slot = 0;
  NodeId node = kInvalidNode;
  uint32_t epoch = 0;
};

/// Host-issued handle of an armed timer (0 = none). A distinct type so the
/// host's CancelTimer(TimerId) cannot be confused with the commit engine's
/// CancelTimer(TxnId).
enum class TimerId : uint64_t { kNone = 0 };

/// The CPU work one Run() task stands for, in the categories the
/// simulator's ServiceCosts model charges. `ops` sizes kExecute.
enum class WorkKind : uint8_t {
  kExecute,    // run a fragment's operations (+ transaction bookkeeping)
  kExecReply,  // handle a remote-execution reply
  kAbort,      // roll back an aborted attempt or fragment
  kCommitMsg,  // handle one commit-protocol message
  kCleanup,    // release a finished transaction's resources
};

struct Work {
  WorkKind kind = WorkKind::kCommitMsg;
  size_t ops = 0;
};

/// The commit engine's own counters. A crash replaces a node's engine;
/// the node keeps the totals of the engines it retired.
struct EngineCounters {
  uint64_t termination_rounds = 0;
  uint64_t acceptor_rounds = 0;
  uint64_t ballots_promoted = 0;
  uint64_t quorum_lost_rounds = 0;
  uint64_t duplicate_decisions_suppressed = 0;
};

/// Everything a node does, independent of how it is hosted: partition
/// storage, lock table, WAL, commit-protocol engine, client slots,
/// open-loop admission, coordinator and fragment execution, crash wipe and
/// Section 4.2 WAL recovery. NodeCore is sans-I/O in the same sense as the
/// CommitEngine it hosts: it is the engine's CommitEnv, and it reaches the
/// outside world only through five calls its host implements —
///
///   NowUs()                    the host's clock;
///   Transmit(msg)              put a message on the host's transport;
///   StartTimer(delay, timer)   fire OnTimer(timer) after `delay`, and
///   CancelTimer(id)            cancel it;
///   Run(work, task)            run `task`. The simulator charges `work`
///                              on its worker-pool model and runs the task
///                              when the modeled CPU time has passed; the
///                              threaded host runs it inline.
///
/// Hosts feed it input through Deliver() (a message arrived) and OnTimer()
/// (a timer fired), and drive crashes through Crash()/Recover().
/// Every event it counts is recorded once, on its shard of the host's
/// metrics registry; stats() reads the shard back.
class NodeCore : public CommitEnv {
 public:
  /// What the node logic reads from its host's configuration.
  struct Params {
    uint32_t num_nodes = 0;
    uint32_t clients_per_node = 0;
    CommitProtocol protocol = CommitProtocol::kEasyCommit;
    CcPolicy cc_policy = CcPolicy::kNoWait;
    CommitEngineConfig commit;
    Micros backoff_base_us = 0;
    uint32_t backoff_max_shift = 0;
    /// Abort an attempt whose remote fragments have not all answered
    /// within this bound (covers execution-phase node failures).
    Micros exec_timeout_us = 0;
    /// A3 ablation: release locks when the decision is applied rather
    /// than at cleanup.
    bool release_locks_at_decision = false;
    OpenLoopConfig open_loop;

    /// From a host configuration (ClusterConfig, ThreadClusterConfig):
    /// both name the shared fields alike.
    template <typename Config>
    static Params From(const Config& c, Micros exec_timeout_us,
                       bool release_locks_at_decision) {
      return {c.num_nodes,       c.clients_per_node,
              c.protocol,        c.cc_policy,
              c.commit,          c.backoff_base_us,
              c.backoff_max_shift, exec_timeout_us,
              release_locks_at_decision, c.open_loop};
    }
  };

  NodeCore(NodeId id, const Params& params, std::unique_ptr<WriteAheadLog> wal,
           Workload* workload, SafetyMonitor* monitor, uint64_t seed,
           MetricsHandle metrics);
  ~NodeCore() override;

  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  /// Loads this node's partition.
  void Bootstrap();

  /// Spawns the client connections: closed loop, every slot submits a
  /// transaction; open loop, the arrival stream starts.
  void StartClients();

  /// A message arrived for this node.
  void Deliver(Message msg);

  /// A timer armed through StartTimer fired (and was not cancelled).
  void OnTimer(const NodeTimer& timer);

  /// Fail-stop crash: volatile state (locks, attempts, fragments, the
  /// engine, protocol timers) is lost; the WAL survives (stable storage).
  void Crash();

  /// Restart after a crash: runs the Section 4.2 independent-recovery
  /// analysis over the WAL, hands transactions it cannot resolve locally
  /// to the termination protocol, seeds the decision ledger, allocates
  /// TxnIds past every one the node logged as coordinator, and (unless
  /// quiesced) puts the clients back to work.
  void Recover();

  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  /// Stops the clients: no new transactions are issued and aborted
  /// attempts are not retried, so in-flight work drains. Sticky across
  /// crash/recover and irreversible. Safe from any thread.
  void Quiesce() { quiesced_.store(true, std::memory_order_relaxed); }
  bool quiesced() const { return quiesced_.load(std::memory_order_relaxed); }

  /// When enabled, records the TxnId of every transaction whose commit ran
  /// the commit protocol and was acked to a client — the durability set of
  /// the consistency audits. (Single-partition and read-only commits write
  /// no log records, so they are excluded.) Survives Crash(): an ack the
  /// client saw cannot be un-sent by the server crashing.
  void TrackAckedCommits(bool on) { track_acked_ = on; }
  const std::vector<TxnId>& acked_commits() const { return acked_commits_; }

  /// Overrides participant votes (fault-injection tests force aborts).
  using VoteOverride = std::function<Decision(TxnId)>;
  void set_vote_override(VoteOverride fn) { vote_override_ = std::move(fn); }

  /// Turns on protocol tracing (inert under ECDB_TRACE=OFF).
  void EnableTracing(size_t capacity = TraceRecorder::kDefaultCapacity) {
    trace_.Enable(capacity);
  }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  /// Counters since the last BeginMeasurement() (or construction): the
  /// registry shard plus the engines' totals. The engine counters are
  /// thread-confined: on a threaded host, read once the worker stopped.
  NodeStats stats() const;

  /// Opens a measurement window (from the hosting thread).
  void BeginMeasurement();

  /// Merges the windows of `nodes` (NodeCore pointers) and the network's
  /// whole-run counters: the one aggregation behind every host's
  /// CollectStats and the socket STATS line. With `worker_capacity_us` > 0
  /// (the simulator's modeled workers over the window) the capacity a node
  /// did not charge to any category counts as idle.
  template <typename NodePtrs>
  static ClusterStats Aggregate(const NodePtrs& nodes, double duration_seconds,
                                uint64_t worker_capacity_us,
                                const NetworkStats& net) {
    ClusterStats out;
    out.duration_seconds = duration_seconds;
    out.num_nodes = static_cast<uint32_t>(std::size(nodes));
    for (const auto& node : nodes) node->AddTo(&out, worker_capacity_us);
    out.net_messages_from_crashed = net.messages_from_crashed;
    out.net_messages_to_crashed = net.messages_to_crashed;
    out.net_frames_sent = net.frames_sent;
    out.net_messages_coalesced = net.messages_coalesced;
    return out;
  }

  /// Committed transactions since construction; safe from any thread.
  uint64_t committed() const {
    return metrics_.Count(&CoreMetrics::txns_committed);
  }

  CommitEngine& engine() { return *engine_; }
  const CommitEngine& engine() const { return *engine_; }
  PartitionStore& store() { return store_; }
  WriteAheadLog& wal() { return *wal_; }
  const WriteAheadLog& wal() const { return *wal_; }
  LockTable& locks() { return locks_; }

  /// Client slots with no transaction in flight.
  size_t IdleClientCount() const;

  /// Client slots currently carrying a transaction. Under the open loop
  /// this is the admission-control occupancy; at drain it reaches zero,
  /// closing the conservation law offered == committed + rejected +
  /// terminal aborts.
  size_t InFlightClientCount() const {
    return clients_.size() - IdleClientCount();
  }

  /// Rollbacks that arrived before the execution they cancel finished.
  size_t PendingRollbackCount() const { return pending_rollbacks_.size(); }

  // --- CommitEnv ---
  NodeId self() const override { return id_; }
  void Send(Message msg) override;
  void Log(TxnId txn, LogRecordType type) override;
  void LogPayload(TxnId txn, LogRecordType type,
                  const CowVector<NodeId>& payload) override;
  void ArmTimer(TxnId txn, Micros delay_us) override;
  void CancelTimer(TxnId txn) override;
  Decision VoteFor(TxnId txn) override;
  void ApplyDecision(TxnId txn, Decision decision) override;
  void OnBlocked(TxnId txn) override;
  void OnCleanup(TxnId txn) override;
  void OnPhaseSample(TxnId txn, CommitPhase phase,
                     Micros elapsed_us) override;

  // --- The host interface ---
  Micros NowUs() const override = 0;

 protected:
  virtual void Transmit(Message msg) = 0;
  virtual TimerId StartTimer(Micros delay_us, NodeTimer timer) = 0;
  virtual void CancelTimer(TimerId id) = 0;
  virtual void Run(Work work, TaskFn task) = 0;

  /// Marks the node fail-stopped at once, ahead of the Crash() wipe, for
  /// hosts whose crash requests reach the node's thread later: decisions
  /// reached in the meantime are not applied.
  void MarkCrashed() { crashed_.store(true, std::memory_order_relaxed); }

  const MetricsHandle& metrics() const { return metrics_; }

 private:
  /// One client connection (closed loop) or admission slot (open loop).
  struct ClientSlot {
    TxnRequest request;
    Micros first_start_us = 0;
    uint32_t attempts = 0;
    bool in_flight = false;
  };

  /// One remote partition's slice of an attempt. Pooled with its
  /// AttemptState: Reset() clears the ops but keeps the vector's capacity.
  struct RemoteFragment {
    NodeId node = kInvalidNode;
    std::vector<Operation> ops;
    bool ok = false;  // replied kRemoteExecOk
  };

  /// Coordinator-side state of one transaction attempt. Remote fragments
  /// are dispatched *sequentially* (Deneva/ExpoDB execute a transaction
  /// until it needs remote data, wait for that server's reply, then
  /// continue), so execution latency grows with the partition count.
  /// Instances live in attempt_pool_ and are recycled through Reset(), so
  /// their vectors' capacities survive across transactions.
  struct AttemptState {
    uint32_t slot = 0;
    std::vector<Operation> local_ops;
    /// Remote slices sorted by node; only the first num_remotes entries
    /// are live (the tail keeps recycled capacity).
    std::vector<RemoteFragment> remotes;
    size_t num_remotes = 0;
    size_t next_remote = 0;
    std::vector<UndoRecord> local_undo;
    NodeId pending_remote = kInvalidNode;
    // Copy-on-write: one buffer, shared by every fragment message, the
    // engine's record, and the begin-commit/ready WAL entries.
    CowVector<NodeId> participants;
    bool has_writes = false;
    bool protocol_started = false;
    bool aborting = false;
    TimerId exec_timer = TimerId::kNone;

    /// Clears live state but keeps every vector's capacity for reuse.
    void Reset();
    RemoteFragment* FindRemote(NodeId node);
  };

  /// A fragment execution in progress: the local part of an attempt, or a
  /// fragment run for a remote coordinator. Execution is resumable — under
  /// WAIT_DIE it suspends on a lock wait and the grant callback resumes it
  /// — so the state lives in a pooled context addressed by index.
  struct ExecContext {
    TxnId txn = kInvalidTxn;
    uint64_t priority_ts = 0;
    std::vector<Operation> ops;
    size_t next_op = 0;
    std::vector<UndoRecord> undo;
    // Remote fragments only: where the reply goes and what the fragment
    // state records.
    bool remote = false;
    NodeId coordinator = kInvalidNode;
    CowVector<NodeId> participants;
    bool txn_has_writes = false;
  };

  // Message handling.
  void HandleRemoteExec(const Message& msg);
  void HandleRemoteExecReply(const Message& msg, bool ok);
  void HandleRemoteRollback(const Message& msg);
  /// Removes `txn` from the rollback stash; false if it was not there.
  bool TakePendingRollback(TxnId txn);

  // Open-loop admission.
  void ScheduleNextArrival();
  void OnArrival();

  // Coordinator paths.
  void StartNewClientTxn(uint32_t slot);
  void StartAttempt(uint32_t slot);
  void LocalExecDone(TxnId txn, bool ok, std::vector<UndoRecord>* undo);
  void SendNextFragment(TxnId txn);
  void AllFragmentsReady(TxnId txn);
  void AbortAttempt(TxnId txn, bool send_rollbacks);
  void CompleteWithoutProtocol(TxnId txn);
  void FinishCommitted(TxnId txn);
  /// Schedules a backoff retry, or — open loop only — terminally aborts
  /// once the attempt budget is spent (or quiesce is draining) and returns
  /// the slot to the admission window.
  void ScheduleRetry(uint32_t slot);
  void CancelExecTimer(AttemptState& attempt);
  void SendRollback(TxnId txn, NodeId dst);

  // Attempt pool. References into the pool are invalidated by NewAttempt
  // (growth): never hold one across a call that may start a new attempt.
  AttemptState& NewAttempt(TxnId txn);
  AttemptState* FindAttempt(TxnId txn);
  void EraseAttempt(TxnId txn);

  // Execution engine.
  uint32_t NewExecContext(TxnId txn, uint64_t priority_ts);
  void ExecLoop(uint32_t ctx);
  void FinishExec(uint32_t ctx, bool ok);
  bool ApplyOp(const Operation& op, std::vector<UndoRecord>* undo);
  void UndoWrites(const std::vector<UndoRecord>& undo);

  /// Recovery: consumes RecoveryManager::ScanWal's one pass over the WAL to
  /// resolve every in-flight transaction, reseed the TxnId allocator and
  /// seed the fresh engine's decision ledger.
  void RecoverFromWal();

  /// Aggregate's per-node step.
  void AddTo(ClusterStats* out, uint64_t worker_capacity_us) const;
  /// Engine counters over every engine this node ran.
  EngineCounters engine_totals() const;

  NodeId id_;
  Params params_;
  Workload* workload_;
  SafetyMonitor* monitor_;
  Rng rng_;

  PartitionStore store_;
  KeyPartitioner partitioner_;
  LockTable locks_;
  std::unique_ptr<WriteAheadLog> wal_;
  TraceRecorder trace_;
  std::unique_ptr<CommitEngine> engine_;

  std::vector<ClientSlot> clients_;
  // Open loop only: idle slot indices (clients_ sized to the admission
  // cap), the arrival-gap generator, and the running arrival deadline.
  std::vector<uint32_t> free_client_slots_;
  ArrivalSchedule arrivals_;
  Micros next_arrival_us_ = 0;

  // Per-txn state: flat indices into recycled pools (attempts, execution
  // contexts) and flat value storage (fragments). pending_rollbacks_ holds
  // the rare rollback-before-exec races and stays tiny.
  FlatMap<TxnId, uint32_t> attempts_;
  std::vector<AttemptState> attempt_pool_;
  std::vector<uint32_t> free_attempt_slots_;
  std::vector<ExecContext> exec_pool_;
  std::vector<uint32_t> free_exec_slots_;
  FlatMap<TxnId, FragmentState> fragments_;
  std::vector<TxnId> pending_rollbacks_;
  FlatMap<TxnId, TimerId> protocol_timers_;
  TxnIdAllocator txn_ids_;
  uint64_t next_priority_ts_ = 1;

  std::atomic<bool> crashed_{false};
  std::atomic<bool> quiesced_{false};
  bool track_acked_ = false;
  std::vector<TxnId> acked_commits_;
  VoteOverride vote_override_;

  MetricsHandle metrics_;
  EngineCounters retired_engines_;  // totals of engines crashes replaced
  // The shard and engine totals where the window opened (empty/zero
  // before any BeginMeasurement).
  MetricsSnapshot window_base_;
  EngineCounters window_engines_;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_NODE_CORE_H_
