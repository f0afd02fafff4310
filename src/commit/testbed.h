#ifndef ECDB_COMMIT_TESTBED_H_
#define ECDB_COMMIT_TESTBED_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "commit/commit_engine.h"
#include "commit/commit_env.h"
#include "commit/invariants.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "trace/trace_recorder.h"
#include "wal/wal.h"

namespace ecdb {
namespace testbed {

/// Protocol test/experimentation kit: bare hosts and a scripted cluster
/// for driving the commit engines without the full database. Used by the
/// unit tests, the exhaustive failure sweeps and the ablation benchmarks;
/// exposed as a library so downstream users can script their own failure
/// scenarios.
///
/// A bare protocol host: one CommitEngine wired to the simulated network,
/// scheduler-backed timers, an in-memory WAL and a decision recorder. This
/// is the minimal CommitEnv — no storage, no locks — so protocol unit and
/// property tests can script exact scenarios.
class ProtocolHost : public CommitEnv {
 public:
  ProtocolHost(NodeId id, CommitProtocol protocol, Scheduler* scheduler,
               SimNetwork* network, SafetyMonitor* monitor,
               CommitEngineConfig config = {})
      : id_(id),
        trace_(id),
        scheduler_(scheduler),
        network_(network),
        monitor_(monitor) {
    config.keep_decision_ledger = true;
    engine_ = std::make_unique<CommitEngine>(protocol, this, config);
    engine_->set_trace(&trace_);
    network_->RegisterNode(id_, [this](const Message& msg) {
      if (network_->IsCrashed(id_)) return;
      if (trace_.enabled()) {
        trace_.Record(TraceEventType::kMsgRecv, scheduler_->Now(), msg.txn,
                      msg.trace_seq, msg.src,
                      static_cast<uint8_t>(msg.type));
      }
      engine_->OnMessage(msg);
    });
  }

  // --- CommitEnv ---
  NodeId self() const override { return id_; }

  Micros NowUs() const override { return scheduler_->Now(); }

  void Send(Message msg) override {
    msg.src = id_;
    if (trace_.enabled()) {
      msg.trace_seq = trace_.NextSeq();
      trace_.Record(TraceEventType::kMsgSend, scheduler_->Now(), msg.txn,
                    msg.trace_seq, msg.dst, static_cast<uint8_t>(msg.type));
    }
    network_->Send(std::move(msg));
  }

  void Log(TxnId txn, LogRecordType type) override {
    if (trace_.enabled()) {
      trace_.Record(TraceEventType::kWalWrite, scheduler_->Now(), txn, 0,
                    kInvalidNode, static_cast<uint8_t>(type));
    }
    wal_.Append({0, txn, type, {}});
  }

  void LogPayload(TxnId txn, LogRecordType type,
                  const CowVector<NodeId>& payload) override {
    if (trace_.enabled()) {
      trace_.Record(TraceEventType::kWalWrite, scheduler_->Now(), txn, 0,
                    kInvalidNode, static_cast<uint8_t>(type));
    }
    wal_.Append({0, txn, type, payload});
  }

  void ArmTimer(TxnId txn, Micros delay_us) override {
    CancelTimer(txn);
    if (trace_.enabled()) {
      trace_.Record(TraceEventType::kTimerArm, scheduler_->Now(), txn,
                    delay_us);
    }
    timers_[txn] = scheduler_->ScheduleAfter(delay_us, [this, txn]() {
      timers_.erase(txn);
      if (network_->IsCrashed(id_)) return;
      if (trace_.enabled()) {
        trace_.Record(TraceEventType::kTimerFire, scheduler_->Now(), txn);
      }
      engine_->OnTimeout(txn);
    });
  }

  void CancelTimer(TxnId txn) override {
    auto it = timers_.find(txn);
    if (it == timers_.end()) return;
    if (trace_.enabled()) {
      trace_.Record(TraceEventType::kTimerCancel, scheduler_->Now(), txn);
    }
    scheduler_->Cancel(it->second);
    timers_.erase(it);
  }

  Decision VoteFor(TxnId txn) override {
    (void)txn;
    return vote_;
  }

  void ApplyDecision(TxnId txn, Decision decision) override {
    // A node whose crash truncated its own decision broadcast (send-filter
    // fault injection) never reaches the commit/abort step: under EC the
    // local apply strictly follows a *completed* transmission.
    if (network_->IsCrashed(id_)) return;
    applied_[txn] = decision;
    if (monitor_ != nullptr) monitor_->RecordApplied(txn, id_, decision);
    if (crash_after_apply_) {
      // Fail-stop immediately after the local commit/abort step: the
      // narrowest window in which a decided node can disappear.
      network_->CrashNode(id_);
    }
  }

  void OnBlocked(TxnId txn) override {
    blocked_count_++;
    if (monitor_ != nullptr) monitor_->RecordBlocked(txn, id_);
  }

  void OnCleanup(TxnId txn) override { cleaned_.insert(txn); }

  // --- Test controls ---
  void set_vote(Decision vote) { vote_ = vote; }
  void set_crash_after_apply(bool v) { crash_after_apply_ = v; }

  /// Turns on event tracing for this host (inert under ECDB_TRACE=OFF).
  void EnableTracing(size_t capacity = TraceRecorder::kDefaultCapacity) {
    trace_.Enable(capacity);
  }

  CommitEngine& engine() { return *engine_; }
  MemoryWal& wal() { return wal_; }
  TraceRecorder& trace() { return trace_; }

  std::optional<Decision> applied(TxnId txn) const {
    auto it = applied_.find(txn);
    if (it == applied_.end()) return std::nullopt;
    return it->second;
  }
  bool cleaned(TxnId txn) const { return cleaned_.count(txn) > 0; }
  uint64_t blocked_count() const { return blocked_count_; }

  /// Log entry types for `txn`, in order.
  std::vector<LogRecordType> LogTypes(TxnId txn) const {
    std::vector<LogRecordType> out;
    for (const LogRecord& r : wal_.Scan()) {
      if (r.txn == txn) out.push_back(r.type);
    }
    return out;
  }

 private:
  NodeId id_;
  TraceRecorder trace_;
  Scheduler* scheduler_;
  SimNetwork* network_;
  SafetyMonitor* monitor_;
  std::unique_ptr<CommitEngine> engine_;
  MemoryWal wal_;
  Decision vote_ = Decision::kCommit;
  std::unordered_map<TxnId, Decision> applied_;
  std::unordered_set<TxnId> cleaned_;
  std::unordered_map<TxnId, Scheduler::TaskId> timers_;
  uint64_t blocked_count_ = 0;
  bool crash_after_apply_ = false;
};

/// A cluster of ProtocolHosts over a SimNetwork: the fixture for protocol
/// unit tests and the exhaustive failure sweeps.
class ProtocolTestbed {
 public:
  ProtocolTestbed(CommitProtocol protocol, uint32_t num_nodes,
                  NetworkConfig net = {}, CommitEngineConfig commit = {},
                  uint64_t seed = 7)
      : network_(&scheduler_, net, seed) {
    for (NodeId id = 0; id < num_nodes; ++id) {
      hosts_.push_back(std::make_unique<ProtocolHost>(
          id, protocol, &scheduler_, &network_, &monitor_, commit));
    }
  }

  /// Starts the commit protocol for one transaction spanning all nodes,
  /// coordinated by node 0. Returns the txn id.
  TxnId StartAll(Decision coordinator_vote = Decision::kCommit) {
    const TxnId txn = MakeTxnId(0, ++seq_);
    // One copy-on-write buffer, shared by all n engine records — at large
    // n a per-host deep copy would be O(n^2) bytes per round.
    CowVector<NodeId> participants;
    {
      std::vector<NodeId>& p = participants.Mutable();
      for (NodeId id = 0; id < hosts_.size(); ++id) p.push_back(id);
    }
    for (NodeId id = 1; id < hosts_.size(); ++id) {
      hosts_[id]->engine().ExpectPrepare(txn, 0, participants);
    }
    hosts_[0]->engine().StartCommit(txn, participants, coordinator_vote);
    return txn;
  }

  /// Runs the simulation to quiescence (or the event cap).
  size_t Settle(size_t max_events = 1'000'000) {
    return scheduler_.RunAll(max_events);
  }

  /// Turns on tracing on every host. Call before the scenario runs.
  void EnableTracing(size_t capacity = TraceRecorder::kDefaultCapacity) {
    for (auto& h : hosts_) h->EnableTracing(capacity);
  }

  /// Per-node recorders, for CollectEvents + the exporters.
  std::vector<const TraceRecorder*> recorders() const {
    std::vector<const TraceRecorder*> out;
    out.reserve(hosts_.size());
    for (const auto& h : hosts_) out.push_back(&h->trace());
    return out;
  }

  ProtocolHost& host(NodeId id) { return *hosts_[id]; }
  size_t num_nodes() const { return hosts_.size(); }
  Scheduler& scheduler() { return scheduler_; }
  SimNetwork& network() { return network_; }
  SafetyMonitor& monitor() { return monitor_; }

  /// True when every non-crashed node applied a decision for `txn`.
  bool AllActiveDecided(TxnId txn) const {
    for (NodeId id = 0; id < hosts_.size(); ++id) {
      if (network_.IsCrashed(id)) continue;
      if (!hosts_[id]->applied(txn).has_value()) return false;
    }
    return true;
  }

 private:
  Scheduler scheduler_;
  SimNetwork network_;
  SafetyMonitor monitor_;
  std::vector<std::unique_ptr<ProtocolHost>> hosts_;
  uint64_t seq_ = 0;
};

}  // namespace testbed
}  // namespace ecdb

#endif  // ECDB_COMMIT_TESTBED_H_
