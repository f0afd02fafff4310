#include "cluster/node_core.h"

#include <algorithm>
#include <utility>

#include "commit/quorum.h"
#include "commit/recovery.h"
#include "common/slot_pool.h"

namespace ecdb {

NodeCore::NodeCore(NodeId id, const Params& params,
                   std::unique_ptr<WriteAheadLog> wal, Workload* workload,
                   SafetyMonitor* monitor, uint64_t seed,
                   MetricsHandle metrics)
    : id_(id),
      params_(params),
      workload_(workload),
      monitor_(monitor),
      rng_(seed),
      store_(id),
      partitioner_(params.num_nodes),
      locks_(params.cc_policy),
      wal_(std::move(wal)),
      // The arrival stream's seed is derived from (not equal to) the node
      // seed so it does not correlate with the workload rng_.
      arrivals_(params.open_loop, seed ^ 0x9e3779b97f4a7c15ULL),
      txn_ids_(id),
      metrics_(metrics) {
  trace_.set_node(id_);
  engine_ = std::make_unique<CommitEngine>(params_.protocol, this,
                                           params_.commit);
  engine_->set_trace(&trace_);
  // Under the open loop the slots are the admission-control window, not a
  // fixed population of closed-loop clients.
  clients_.resize(params_.open_loop.enabled
                      ? params_.open_loop.max_in_flight_per_node
                      : params_.clients_per_node);
}

NodeCore::~NodeCore() = default;

void NodeCore::Bootstrap() { workload_->LoadPartition(&store_, partitioner_); }

void NodeCore::StartClients() {
  if (params_.open_loop.enabled) {
    free_client_slots_.reserve(clients_.size());
    for (uint32_t slot = 0; slot < clients_.size(); ++slot) {
      free_client_slots_.push_back(slot);
    }
    next_arrival_us_ = NowUs();
    ScheduleNextArrival();
    return;
  }
  for (uint32_t slot = 0; slot < clients_.size(); ++slot) {
    StartNewClientTxn(slot);
  }
}

// --------------------------------------------------------------------------
// Host input
// --------------------------------------------------------------------------

void NodeCore::Deliver(Message msg) {
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kMsgRecv, NowUs(), msg.txn, msg.trace_seq,
                  msg.src, static_cast<uint8_t>(msg.type));
  }
  // Each task captures exactly [this, msg], which fills TaskFn's inline
  // buffer: one more capture would cost a heap allocation per message.
  switch (msg.type) {
    case MsgType::kRemoteExec: {
      const Work work{WorkKind::kExecute, msg.ops.size()};
      Run(work, [this, msg = std::move(msg)] { HandleRemoteExec(msg); });
      return;
    }
    case MsgType::kRemoteExecOk:
    case MsgType::kRemoteExecFail:
      Run({WorkKind::kExecReply}, [this, msg = std::move(msg)] {
        HandleRemoteExecReply(msg, msg.type == MsgType::kRemoteExecOk);
      });
      return;
    case MsgType::kRemoteRollback:
      Run({WorkKind::kAbort},
          [this, msg = std::move(msg)] { HandleRemoteRollback(msg); });
      return;
    default:
      // Commit-protocol and termination messages.
      Run({WorkKind::kCommitMsg},
          [this, msg = std::move(msg)] { engine_->OnMessage(msg); });
      return;
  }
}

void NodeCore::OnTimer(const NodeTimer& timer) {
  switch (timer.kind) {
    case NodeTimerKind::kProtocol:
      protocol_timers_.Erase(timer.txn);
      if (trace_.enabled()) {
        trace_.Record(TraceEventType::kTimerFire, NowUs(), timer.txn);
      }
      engine_->OnTimeout(timer.txn);
      return;
    case NodeTimerKind::kExec: {
      AttemptState* attempt = FindAttempt(timer.txn);
      if (attempt == nullptr) return;
      attempt->exec_timer = TimerId::kNone;
      if (!attempt->protocol_started &&
          attempt->pending_remote != kInvalidNode) {
        AbortAttempt(timer.txn, /*send_rollbacks=*/true);
      }
      return;
    }
    case NodeTimerKind::kRetry:
      StartAttempt(timer.slot);
      return;
    case NodeTimerKind::kArrival:
      // Quiesce ends the chain: no further arrivals, in-flight drains.
      if (quiesced()) return;
      OnArrival();
      ScheduleNextArrival();
      return;
  }
}

// --------------------------------------------------------------------------
// Open-loop admission
// --------------------------------------------------------------------------

void NodeCore::ScheduleNextArrival() {
  // Paced from the previous deadline, not from "now": a host that fell
  // behind finds the next deadline already due and admits it at once, so no
  // arrival is dropped. Overdue arrivals are admitted here in a loop.
  for (;;) {
    next_arrival_us_ += arrivals_.NextGapUs();
    const Micros now = NowUs();
    if (next_arrival_us_ > now) {
      StartTimer(next_arrival_us_ - now, NodeTimer{NodeTimerKind::kArrival});
      return;
    }
    if (quiesced()) return;
    OnArrival();
  }
}

void NodeCore::OnArrival() {
  metrics_.Add(&CoreMetrics::open_loop_offered);
  if (free_client_slots_.empty()) {
    // Admission control: shed the arrival (counted, never queued) so an
    // overloaded node's backlog stays bounded.
    metrics_.Add(&CoreMetrics::open_loop_rejected);
    return;
  }
  const uint32_t slot = free_client_slots_.back();
  free_client_slots_.pop_back();
  StartNewClientTxn(slot);
}

// --------------------------------------------------------------------------
// CommitEnv
// --------------------------------------------------------------------------

void NodeCore::Send(Message msg) {
  msg.src = id_;
  if (trace_.enabled()) {
    msg.trace_seq = trace_.NextSeq();
    trace_.Record(TraceEventType::kMsgSend, NowUs(), msg.txn, msg.trace_seq,
                  msg.dst, static_cast<uint8_t>(msg.type));
  }
  Transmit(std::move(msg));
}

void NodeCore::Log(TxnId txn, LogRecordType type) {
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kWalWrite, NowUs(), txn, 0, kInvalidNode,
                  static_cast<uint8_t>(type));
  }
  LogRecord record;
  record.txn = txn;
  record.type = type;
  if (type == LogRecordType::kBeginCommit || type == LogRecordType::kReady) {
    if (AttemptState* attempt = FindAttempt(txn); attempt != nullptr) {
      record.participants = attempt->participants;
    } else if (FragmentState* frag = fragments_.Find(txn); frag != nullptr) {
      record.participants = frag->participants;
    }
  }
  wal_->Append(std::move(record));
  metrics_.Add(&CoreMetrics::wal_appends);
}

void NodeCore::LogPayload(TxnId txn, LogRecordType type,
                          const CowVector<NodeId>& payload) {
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kWalWrite, NowUs(), txn, 0, kInvalidNode,
                  static_cast<uint8_t>(type));
  }
  // Quorum snapshot records ride their packed epoch/ballot payload in the
  // participants field (the WAL's one variable-length channel).
  wal_->Append({0, txn, type, payload});
  metrics_.Add(&CoreMetrics::wal_appends);
}

void NodeCore::ArmTimer(TxnId txn, Micros delay_us) {
  CancelTimer(txn);
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kTimerArm, NowUs(), txn, delay_us);
  }
  protocol_timers_[txn] =
      StartTimer(delay_us, NodeTimer{NodeTimerKind::kProtocol, txn});
}

void NodeCore::CancelTimer(TxnId txn) {
  TimerId* id = protocol_timers_.Find(txn);
  if (id == nullptr) return;
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kTimerCancel, NowUs(), txn);
  }
  CancelTimer(*id);
  protocol_timers_.Erase(txn);
}

Decision NodeCore::VoteFor(TxnId txn) {
  if (vote_override_) return vote_override_(txn);
  return fragments_.Contains(txn) ? Decision::kCommit : Decision::kAbort;
}

void NodeCore::ApplyDecision(TxnId txn, Decision decision) {
  // A node cut off mid-event is already (conceptually) crashed; its local
  // commit/abort never happened.
  if (crashed()) return;
  if (monitor_ != nullptr) monitor_->RecordApplied(txn, id_, decision);

  if (AttemptState* attempt = FindAttempt(txn); attempt != nullptr) {
    // Coordinator side: this node's fragment plus client accounting.
    if (decision == Decision::kAbort) {
      UndoWrites(attempt->local_undo);
      attempt->local_undo.clear();
      metrics_.Add(&CoreMetrics::txns_aborted);
      ScheduleRetry(attempt->slot);
    } else {
      FinishCommitted(txn);
    }
  } else if (FragmentState* frag = fragments_.Find(txn);
             frag != nullptr && decision == Decision::kAbort) {
    UndoWrites(frag->undo);
    frag->undo.clear();
  }
  // Locks are normally released at cleanup time (Section 5.3:
  // transactional resources are freed only once no further messages can
  // arrive); the A3 ablation releases them here instead.
  if (params_.release_locks_at_decision) locks_.ReleaseAll(txn);
}

void NodeCore::OnBlocked(TxnId txn) {
  metrics_.Add(&CoreMetrics::txns_blocked);
  if (monitor_ != nullptr) monitor_->RecordBlocked(txn, id_);
}

void NodeCore::OnCleanup(TxnId txn) {
  Run({WorkKind::kCleanup}, [this, txn] {
    locks_.ReleaseAll(txn);
    EraseAttempt(txn);
    fragments_.Erase(txn);
  });
}

void NodeCore::OnPhaseSample(TxnId txn, CommitPhase phase,
                             Micros elapsed_us) {
  (void)txn;
  switch (phase) {
    case CommitPhase::kVoteCollection:
      metrics_.Observe(&CoreMetrics::phase_vote_us, elapsed_us);
      break;
    case CommitPhase::kDecisionTransmit:
      metrics_.Observe(&CoreMetrics::phase_transmit_us, elapsed_us);
      break;
    case CommitPhase::kDecisionApply:
      metrics_.Observe(&CoreMetrics::phase_apply_us, elapsed_us);
      break;
  }
}

// --------------------------------------------------------------------------
// Message handling
// --------------------------------------------------------------------------

void NodeCore::HandleRemoteExec(const Message& msg) {
  // A rollback can outrun the exec request it cancels; the stash turns
  // the late exec into a no-op.
  if (TakePendingRollback(msg.txn)) return;
  const uint32_t idx = NewExecContext(msg.txn, msg.priority_ts);
  ExecContext& ctx = exec_pool_[idx];
  ctx.ops.assign(msg.ops.begin(), msg.ops.end());
  ctx.remote = true;
  ctx.coordinator = msg.src;
  ctx.participants = msg.participants;
  ctx.txn_has_writes = msg.txn_has_writes;
  ExecLoop(idx);
}

void NodeCore::HandleRemoteExecReply(const Message& msg, bool ok) {
  AttemptState* attempt = FindAttempt(msg.txn);
  if (attempt == nullptr || attempt->aborting) {
    // The attempt was aborted while this reply was in flight; the remote
    // fragment (if it succeeded) must be rolled back.
    if (ok) SendRollback(msg.txn, msg.src);
    return;
  }
  if (attempt->pending_remote == msg.src) {
    attempt->pending_remote = kInvalidNode;
  }
  if (!ok) {
    AbortAttempt(msg.txn, /*send_rollbacks=*/true);
    return;
  }
  if (RemoteFragment* frag = attempt->FindRemote(msg.src)) frag->ok = true;
  if (attempt->next_remote < attempt->num_remotes) {
    SendNextFragment(msg.txn);  // sequential dispatch: next partition
  } else if (attempt->pending_remote == kInvalidNode) {
    AllFragmentsReady(msg.txn);
  }
}

void NodeCore::HandleRemoteRollback(const Message& msg) {
  FragmentState* frag = fragments_.Find(msg.txn);
  if (frag == nullptr) {
    // Rollback overtook the fragment execution (network reordering).
    if (std::find(pending_rollbacks_.begin(), pending_rollbacks_.end(),
                  msg.txn) == pending_rollbacks_.end()) {
      pending_rollbacks_.push_back(msg.txn);
    }
    return;
  }
  UndoWrites(frag->undo);
  locks_.ReleaseAll(msg.txn);
  fragments_.Erase(msg.txn);
  engine_->Forget(msg.txn);
}

bool NodeCore::TakePendingRollback(TxnId txn) {
  auto it = std::find(pending_rollbacks_.begin(), pending_rollbacks_.end(),
                      txn);
  if (it == pending_rollbacks_.end()) return false;
  *it = pending_rollbacks_.back();
  pending_rollbacks_.pop_back();
  return true;
}

// --------------------------------------------------------------------------
// Coordinator paths
// --------------------------------------------------------------------------

void NodeCore::StartNewClientTxn(uint32_t slot) {
  if (quiesced()) return;
  ClientSlot& client = clients_[slot];
  client.request = workload_->NextTxn(id_, rng_);
  client.first_start_us = NowUs();
  client.attempts = 0;
  client.in_flight = true;
  StartAttempt(slot);
}

void NodeCore::StartAttempt(uint32_t slot) {
  ClientSlot& client = clients_[slot];
  client.attempts++;
  const TxnId txn = txn_ids_.Next();

  AttemptState& attempt = NewAttempt(txn);
  attempt.slot = slot;
  attempt.has_writes = client.request.HasWrites();
  for (const Operation& op : client.request.ops) {
    const PartitionId part = partitioner_.PartitionOf(op.key);
    if (part == id_) {
      attempt.local_ops.push_back(op);
      continue;
    }
    RemoteFragment* frag = attempt.FindRemote(part);
    if (frag == nullptr) {
      if (attempt.num_remotes == attempt.remotes.size()) {
        attempt.remotes.emplace_back();
      }
      frag = &attempt.remotes[attempt.num_remotes++];
      frag->node = part;
    }
    frag->ops.push_back(op);
  }
  std::sort(attempt.remotes.begin(),
            attempt.remotes.begin() + attempt.num_remotes,
            [](const RemoteFragment& a, const RemoteFragment& b) {
              return a.node < b.node;
            });
  {
    std::vector<NodeId>& parts = attempt.participants.Mutable();
    parts.push_back(id_);
    for (size_t i = 0; i < attempt.num_remotes; ++i) {
      parts.push_back(attempt.remotes[i].node);
    }
  }

  Run({WorkKind::kExecute, attempt.local_ops.size()}, [this, txn] {
    AttemptState* attempt = FindAttempt(txn);
    if (attempt == nullptr) return;
    const uint32_t idx = NewExecContext(txn, next_priority_ts_++);
    exec_pool_[idx].ops = attempt->local_ops;
    ExecLoop(idx);
  });
}

void NodeCore::LocalExecDone(TxnId txn, bool ok,
                             std::vector<UndoRecord>* undo) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  // Swap rather than move: both vectors keep their capacity in the pools.
  attempt->local_undo.swap(*undo);
  if (!ok) {
    AbortAttempt(txn, /*send_rollbacks=*/false);
    return;
  }
  if (attempt->num_remotes == 0) {
    // Single-partition transactions skip the commit protocol entirely
    // (Section 5.2).
    CompleteWithoutProtocol(txn);
    return;
  }
  // The remote fragments run at the priority after the local part's (the
  // attempt draws two timestamps).
  next_priority_ts_++;
  attempt->exec_timer = StartTimer(params_.exec_timeout_us,
                                   NodeTimer{NodeTimerKind::kExec, txn});
  SendNextFragment(txn);
}

void NodeCore::SendNextFragment(TxnId txn) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  RemoteFragment& frag = attempt->remotes[attempt->next_remote++];
  attempt->pending_remote = frag.node;
  Message msg;
  msg.type = MsgType::kRemoteExec;
  msg.txn = txn;
  msg.dst = frag.node;
  msg.ops = frag.ops;
  msg.participants = attempt->participants;
  msg.txn_has_writes = attempt->has_writes;
  msg.priority_ts = next_priority_ts_ - 1;
  Send(std::move(msg));
}

void NodeCore::AllFragmentsReady(TxnId txn) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  CancelExecTimer(*attempt);
  if (!attempt->has_writes) {
    // Multi-partition read-only: no commit protocol (Section 5.2); tell
    // remotes to release their read locks.
    CompleteWithoutProtocol(txn);
    return;
  }
  attempt->protocol_started = true;
  metrics_.Add(&CoreMetrics::commit_protocol_runs);
  engine_->StartCommit(txn, attempt->participants, Decision::kCommit);
}

void NodeCore::CompleteWithoutProtocol(TxnId txn) {
  // Under WAIT_DIE the release may resume other executions, which can grow
  // the attempt pool: look the attempt up afterwards.
  locks_.ReleaseAll(txn);
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  for (size_t i = 0; i < attempt->num_remotes; ++i) {
    // Release-only rollback (no undo recorded), in ascending node id.
    if (attempt->remotes[i].ok) SendRollback(txn, attempt->remotes[i].node);
  }
  FinishCommitted(txn);  // may start a new attempt: `attempt` is dead here
  Run({WorkKind::kCleanup}, [this, txn] { EraseAttempt(txn); });
}

void NodeCore::FinishCommitted(TxnId txn) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  const uint32_t slot = attempt->slot;
  ClientSlot& client = clients_[slot];
  metrics_.Add(&CoreMetrics::txns_committed);
  if (track_acked_ && attempt->protocol_started) {
    acked_commits_.push_back(txn);
  }
  metrics_.Observe(&CoreMetrics::latency_us, NowUs() - client.first_start_us);
  client.in_flight = false;
  if (params_.open_loop.enabled) {
    // Open loop: the slot returns to the admission window; the next
    // transaction arrives when the arrival process says so.
    free_client_slots_.push_back(slot);
    return;
  }
  // Closed loop: the client immediately submits its next transaction.
  StartNewClientTxn(slot);
}

void NodeCore::AbortAttempt(TxnId txn, bool send_rollbacks) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  if (attempt->aborting || attempt->protocol_started) return;
  attempt->aborting = true;
  CancelExecTimer(*attempt);
  UndoWrites(attempt->local_undo);
  // Under WAIT_DIE the release may resume other executions, which can grow
  // the attempt pool: look the attempt up afterwards.
  locks_.ReleaseAll(txn);
  attempt = FindAttempt(txn);
  if (send_rollbacks) {
    // Everyone who acknowledged plus the one still in flight, in ascending
    // node id; nodes are unique and the in-flight one's ok flag is still
    // false, so none is sent twice.
    for (size_t i = 0; i < attempt->num_remotes; ++i) {
      const RemoteFragment& frag = attempt->remotes[i];
      if (frag.ok || frag.node == attempt->pending_remote) {
        SendRollback(txn, frag.node);
      }
    }
  }
  metrics_.Add(&CoreMetrics::txns_aborted);
  const uint32_t slot = attempt->slot;
  Run({WorkKind::kAbort}, [this, txn, slot] {
    EraseAttempt(txn);
    ScheduleRetry(slot);
  });
}

void NodeCore::ScheduleRetry(uint32_t slot) {
  ClientSlot& client = clients_[slot];
  if (params_.open_loop.enabled &&
      (quiesced() || client.attempts >= params_.open_loop.max_attempts)) {
    // Terminal abort: the retry budget ran out (or quiesce is draining the
    // node). Bounded retries keep the conservation law exact.
    metrics_.Add(&CoreMetrics::open_loop_aborted);
    client.in_flight = false;
    free_client_slots_.push_back(slot);
    return;
  }
  if (quiesced()) {
    client.in_flight = false;
    return;
  }
  const uint32_t shift = std::min(client.attempts, params_.backoff_max_shift);
  const Micros backoff = static_cast<Micros>(
      rng_.NextDouble() * static_cast<double>(params_.backoff_base_us) *
      static_cast<double>(1ULL << shift));
  StartTimer(backoff + 1,
             NodeTimer{NodeTimerKind::kRetry, kInvalidTxn, slot});
}

void NodeCore::CancelExecTimer(AttemptState& attempt) {
  if (attempt.exec_timer != TimerId::kNone) {
    CancelTimer(attempt.exec_timer);
    attempt.exec_timer = TimerId::kNone;
  }
}

void NodeCore::SendRollback(TxnId txn, NodeId dst) {
  Message msg;
  msg.type = MsgType::kRemoteRollback;
  msg.txn = txn;
  msg.dst = dst;
  Send(std::move(msg));
}

// --------------------------------------------------------------------------
// Attempt pool
// --------------------------------------------------------------------------

void NodeCore::AttemptState::Reset() {
  slot = 0;
  local_ops.clear();
  for (size_t i = 0; i < num_remotes; ++i) {
    remotes[i].node = kInvalidNode;
    remotes[i].ops.clear();
    remotes[i].ok = false;
  }
  num_remotes = 0;
  next_remote = 0;
  local_undo.clear();
  pending_remote = kInvalidNode;
  participants.clear();
  has_writes = false;
  protocol_started = false;
  aborting = false;
  exec_timer = TimerId::kNone;
}

NodeCore::RemoteFragment* NodeCore::AttemptState::FindRemote(NodeId node) {
  for (size_t i = 0; i < num_remotes; ++i) {
    if (remotes[i].node == node) return &remotes[i];
  }
  return nullptr;
}

NodeCore::AttemptState& NodeCore::NewAttempt(TxnId txn) {
  const uint32_t idx = TakeSlot(&attempt_pool_, &free_attempt_slots_);
  attempts_.Emplace(txn, uint32_t(idx));
  return attempt_pool_[idx];
}

NodeCore::AttemptState* NodeCore::FindAttempt(TxnId txn) {
  uint32_t* idx = attempts_.Find(txn);
  return idx == nullptr ? nullptr : &attempt_pool_[*idx];
}

void NodeCore::EraseAttempt(TxnId txn) {
  uint32_t* idx = attempts_.Find(txn);
  if (idx == nullptr) return;
  attempt_pool_[*idx].Reset();
  free_attempt_slots_.push_back(*idx);
  attempts_.Erase(txn);
}

// --------------------------------------------------------------------------
// Execution engine
// --------------------------------------------------------------------------

uint32_t NodeCore::NewExecContext(TxnId txn, uint64_t priority_ts) {
  const uint32_t idx = TakeSlot(&exec_pool_, &free_exec_slots_);
  ExecContext& ctx = exec_pool_[idx];
  ctx.txn = txn;
  ctx.priority_ts = priority_ts;
  ctx.next_op = 0;
  ctx.remote = false;
  return idx;
}

void NodeCore::ExecLoop(uint32_t idx) {
  for (;;) {
    ExecContext& ctx = exec_pool_[idx];
    if (ctx.next_op == ctx.ops.size()) {
      FinishExec(idx, /*ok=*/true);
      return;
    }
    const Operation& op = ctx.ops[ctx.next_op];
    const LockMode mode =
        op.is_write() ? LockMode::kExclusive : LockMode::kShared;
    const AcquireResult result = locks_.Acquire(
        ctx.txn, ctx.priority_ts, op.table, op.key, mode, [this, idx] {
          // WAIT_DIE grant, fired from another transaction's ReleaseAll:
          // the lock is held now, so apply the operation and go on. (A
          // crash replaces the lock table, dropping stale grants.)
          ExecContext& waiting = exec_pool_[idx];
          if (!ApplyOp(waiting.ops[waiting.next_op], &waiting.undo)) {
            FinishExec(idx, /*ok=*/false);
            return;
          }
          waiting.next_op++;
          ExecLoop(idx);
        });
    if (result == AcquireResult::kWaiting) return;  // resumed on grant
    if (result == AcquireResult::kAbort || !ApplyOp(op, &ctx.undo)) {
      FinishExec(idx, /*ok=*/false);
      return;
    }
    ctx.next_op++;
  }
}

void NodeCore::FinishExec(uint32_t idx, bool ok) {
  const TxnId txn = exec_pool_[idx].txn;
  if (!ok) {
    UndoWrites(exec_pool_[idx].undo);
    exec_pool_[idx].undo.clear();
    // May resume other suspended executions, growing the pool.
    locks_.ReleaseAll(txn);
  }
  // The slot stays taken until the continuation returns: it may start new
  // executions (growing the pool), but none of them can reuse it.
  if (!exec_pool_[idx].remote) {
    LocalExecDone(txn, ok, &exec_pool_[idx].undo);
  } else if (TakePendingRollback(txn)) {
    // The coordinator rolled back while this execution waited on a lock
    // (WAIT_DIE): undo it here and send no reply.
    ExecContext& ctx = exec_pool_[idx];
    UndoWrites(ctx.undo);
    ctx.undo.clear();
    ctx.participants.clear();
    locks_.ReleaseAll(txn);
  } else {
    ExecContext& ctx = exec_pool_[idx];
    Message reply;
    reply.txn = txn;
    reply.dst = ctx.coordinator;
    if (ok) {
      FragmentState& frag = fragments_[txn];
      frag.txn = txn;
      frag.coordinator = ctx.coordinator;
      frag.participants = std::move(ctx.participants);
      frag.undo = std::move(ctx.undo);
      ctx.undo.clear();
      if (ctx.txn_has_writes) {
        engine_->ExpectPrepare(txn, frag.coordinator, frag.participants);
      }
      reply.type = MsgType::kRemoteExecOk;
    } else {
      reply.type = MsgType::kRemoteExecFail;
    }
    ctx.participants.clear();
    Send(std::move(reply));
  }
  free_exec_slots_.push_back(idx);
}

bool NodeCore::ApplyOp(const Operation& op, std::vector<UndoRecord>* undo) {
  Table* table = store_.GetTable(op.table);
  if (table == nullptr) return false;
  auto row = table->GetMutable(op.key);
  if (!row.ok()) return false;
  if (op.is_write()) {
    Row* r = row.value();
    uint64_t& column0 = table->Columns(r)[0];
    undo->push_back({op.table, op.key, column0, r->version});
    column0++;
    r->version++;
  }
  return true;
}

void NodeCore::UndoWrites(const std::vector<UndoRecord>& undo) {
  // Reverse order so repeated writes to a row restore the oldest image.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Table* table = store_.GetTable(it->table);
    if (table == nullptr) continue;
    auto row = table->GetMutable(it->key);
    if (!row.ok()) continue;
    table->Columns(row.value())[0] = it->old_column0;
    row.value()->version = it->old_version;
  }
}

// --------------------------------------------------------------------------
// Crash and recovery
// --------------------------------------------------------------------------

void NodeCore::Crash() {
  crashed_.store(true, std::memory_order_relaxed);
  // Volatile state is lost; the WAL (stable storage) survives. Replacing
  // the lock table also drops every suspended execution's grant callback.
  locks_ = LockTable(params_.cc_policy);
  attempts_.Clear();
  attempt_pool_.clear();
  free_attempt_slots_.clear();
  exec_pool_.clear();
  free_exec_slots_.clear();
  fragments_.Clear();
  pending_rollbacks_.clear();
  for (auto& entry : protocol_timers_) CancelTimer(entry.value);
  protocol_timers_.Clear();
  // The replaced engine's counters live on in the node's totals.
  retired_engines_ = engine_totals();
  engine_ = std::make_unique<CommitEngine>(params_.protocol, this,
                                           params_.commit);
  engine_->set_trace(&trace_);
  if (params_.open_loop.enabled) {
    // Admitted in-flight transactions die with the volatile state; count
    // them as terminal aborts so the conservation law survives crashes.
    free_client_slots_.clear();
    for (uint32_t slot = 0; slot < clients_.size(); ++slot) {
      if (clients_[slot].in_flight) {
        metrics_.Add(&CoreMetrics::open_loop_aborted);
      }
      clients_[slot].in_flight = false;
      free_client_slots_.push_back(slot);
    }
    return;
  }
  for (ClientSlot& client : clients_) client.in_flight = false;
}

void NodeCore::Recover() {
  crashed_.store(false, std::memory_order_relaxed);
  RecoverFromWal();
  // The node is back in service. Open loop: the crash killed the arrival
  // chain, so restart it from now (the downtime does not replay as a
  // burst); closed loop: clients reconnect and resume (their pre-crash
  // transactions died with the volatile state).
  if (quiesced()) return;
  if (params_.open_loop.enabled) {
    next_arrival_us_ = NowUs();
    ScheduleNextArrival();
    return;
  }
  for (uint32_t slot = 0; slot < clients_.size(); ++slot) {
    if (!clients_[slot].in_flight) StartNewClientTxn(slot);
  }
}

void NodeCore::RecoverFromWal() {
  WalSummary log = RecoveryManager::ScanWal(*wal_, id_);
  // A restarted process builds a fresh allocator over the old log: allocate
  // past every logged self-coordinated id, or new ids would collide with
  // pre-crash transactions still in peers' decision ledgers. In-process
  // hosts keep their allocator, which is already past them.
  txn_ids_.Reseed(log.max_own_seq);

  // Section 4.2 independent recovery of every in-flight transaction.
  for (const auto& [txn, t] : log.txns) {
    if (!t.in_flight()) continue;
    if (t.milestone != nullptr) {
      const RecoveryAction action =
          RecoveryManager::AnalyzeRecord(*t.milestone);
      if (action != RecoveryAction::kConsultPeers) {
        const Decision d = action == RecoveryAction::kCommit
                               ? Decision::kCommit
                               : Decision::kAbort;
        const LogRecordType terminal = d == Decision::kCommit
                                           ? LogRecordType::kTransactionCommit
                                           : LogRecordType::kTransactionAbort;
        wal_->Append({0, txn, terminal, {}});
        log.decisions.emplace_back(txn, d);
        if (monitor_ != nullptr) monitor_->RecordApplied(txn, id_, d);
        continue;
      }
      // Re-enter the commit protocol in the logged state; the armed
      // timeout triggers the termination protocol, which consults the
      // participants recorded in the WAL.
      CohortState state = CohortState::kReady;
      if (t.milestone->type == LogRecordType::kPreCommit) {
        state = CohortState::kPreCommit;
      } else if (t.milestone->type == LogRecordType::kPreAbort) {
        state = CohortState::kPreAbort;
      }
      CowVector<NodeId> participants = t.milestone->participants;
      if (participants.empty() && t.members != nullptr) {
        participants = t.members->participants;
      }
      engine_->ResumeAfterRecovery(txn, TxnCoordinator(txn),
                                   std::move(participants), state);
    }
    // A snapshot-only transaction is Paxos acceptor duty for a transaction
    // this node never carried as an RM: its promises/accepts must survive
    // the crash (acceptor amnesia lets two ballots choose differently), but
    // there is no RM state machine to resume.
    if (t.quorum != nullptr) {
      QuorumEpoch last_elected = 0;
      QuorumEpoch last_attempt = 0;
      bool pre_abort = false;
      if (UnpackQuorumState(t.quorum->participants, &last_elected,
                            &last_attempt, &pre_abort)) {
        engine_->SeedQuorumState(txn, last_elected, last_attempt, pre_abort);
      }
    }
    if (t.paxos != nullptr) {
      QuorumEpoch promised = 0;
      std::vector<PaxosAccepted> accepted;
      if (UnpackPaxosState(t.paxos->participants, &promised, &accepted)) {
        engine_->SeedPaxosAcceptor(txn, promised, std::move(accepted));
      }
    }
  }

  // Seed the fresh engine's decision ledger with every decision the WAL
  // witnessed, including the terminal records written above. The pre-crash
  // ledger died with its engine, but peers running the termination
  // protocol must still get an answer for transactions decided before the
  // crash; without this, two recovered nodes consulting each other about
  // an already-decided transaction would defer forever.
  for (const auto& [txn, d] : log.decisions) engine_->SeedDecision(txn, d);
}

// --------------------------------------------------------------------------
// Stats: views over the registry shard and the engines' counters
// --------------------------------------------------------------------------

EngineCounters NodeCore::engine_totals() const {
  const EngineCounters& r = retired_engines_;
  const CommitEngine& e = *engine_;
  return {r.termination_rounds + e.termination_rounds(),
          r.acceptor_rounds + e.acceptor_rounds(),
          r.ballots_promoted + e.ballots_promoted(),
          r.quorum_lost_rounds + e.quorum_lost_rounds(),
          r.duplicate_decisions_suppressed +
              e.duplicate_decisions_suppressed()};
}

void NodeCore::BeginMeasurement() {
  window_base_ = metrics_.registry->ShardSnapshot(metrics_.shard);
  window_engines_ = engine_totals();
  metrics_.registry->ResetExtremes(metrics_.shard);
}

NodeStats NodeCore::stats() const {
  const MetricsRegistry& registry = *metrics_.registry;
  const CoreMetrics& ids = *metrics_.ids;
  // Every total only grows, so a window is a plain difference.
  auto count = [&](CounterId id) {
    const uint64_t base =
        window_base_.counters.empty() ? 0 : window_base_.counters[id];
    return registry.Count(metrics_.shard, id) - base;
  };
  auto hist = [&](HistId id) {
    return registry.ShardHistogram(metrics_.shard, id, window_base_);
  };
  NodeStats s;
  s.txns_committed = count(ids.txns_committed);
  s.txns_aborted = count(ids.txns_aborted);
  s.txns_blocked = count(ids.txns_blocked);
  s.commit_protocol_runs = count(ids.commit_protocol_runs);
  s.open_loop_offered = count(ids.open_loop_offered);
  s.open_loop_rejected = count(ids.open_loop_rejected);
  s.open_loop_aborted = count(ids.open_loop_aborted);
  for (size_t i = 0; i < kNumTimeCategories; ++i) {
    if (i != static_cast<size_t>(TimeCategory::kIdle)) {
      s.time_us[i] = count(ids.time_us[i]);
    }
  }
  s.latency = hist(ids.latency_us);
  s.phase_vote = hist(ids.phase_vote_us);
  s.phase_transmit = hist(ids.phase_transmit_us);
  s.phase_apply = hist(ids.phase_apply_us);
  const EngineCounters engine = engine_totals();
  const EngineCounters& base = window_engines_;
  s.termination_rounds = engine.termination_rounds - base.termination_rounds;
  s.acceptor_rounds = engine.acceptor_rounds - base.acceptor_rounds;
  s.ballots_promoted = engine.ballots_promoted - base.ballots_promoted;
  s.quorum_lost_rounds = engine.quorum_lost_rounds - base.quorum_lost_rounds;
  return s;
}

void NodeCore::AddTo(ClusterStats* out, uint64_t worker_capacity_us) const {
  NodeStats s = stats();
  if (worker_capacity_us > 0) {
    uint64_t busy = 0;
    for (uint64_t us : s.time_us) busy += us;
    s.AddTime(TimeCategory::kIdle,
              worker_capacity_us > busy ? worker_capacity_us - busy : 0);
  }
  out->total.Merge(s);
  // Whole-run counters: the engines' and the WAL's own records.
  out->duplicate_decisions_suppressed +=
      engine_totals().duplicate_decisions_suppressed;
  out->wal_group_flushes += wal_->group_flushes();
  out->trace_events_dropped += trace_.dropped();
}

size_t NodeCore::IdleClientCount() const {
  size_t idle = 0;
  for (const ClientSlot& client : clients_) {
    if (!client.in_flight) idle++;
  }
  return idle;
}

}  // namespace ecdb
