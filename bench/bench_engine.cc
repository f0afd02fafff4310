// Engine micro-benchmarks (google-benchmark): the discrete-event hot paths
// every experiment in this repo is built on. Three layers are measured:
//
//   1. Scheduler   — schedule/run/cancel throughput, with and without a
//                    standing backlog (the steady-state shape of a loaded
//                    simulation, where thousands of timers are pending).
//   2. SimNetwork  — broadcast fan-out: one logical decision delivered to
//                    n recipients, the dominant cost of EasyCommit's O(n^2)
//                    decision re-broadcast (paper Section 5.3).
//   3. End to end  — complete commit rounds per wall-clock second for
//                    2PC / 3PC / EC on a ProtocolTestbed.
//   4. Storage     — bulk-loading a YCSB-shaped table and keyed row access
//                    on it: the row store every transaction operation hits.
//
// `scripts/bench_to_json.py` runs this binary and appends a labeled entry
// to BENCH_engine.json, the repo's perf-trajectory file. The acceptance
// gate for engine changes is "no silent regressions" — see
// docs/PERFORMANCE.md.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "commit/testbed.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "storage/table.h"

namespace {

using namespace ecdb;
using ecdb::testbed::ProtocolTestbed;

// --------------------------------------------------------------------------
// 1. Scheduler
// --------------------------------------------------------------------------

// Schedule one event, run it. The queue stays near-empty: this isolates the
// fixed per-event overhead (allocation, bookkeeping) from queue depth.
void BM_SchedulerScheduleRun(benchmark::State& state) {
  Scheduler sched;
  for (auto _ : state) {
    sched.ScheduleAfter(1, [] {});
    sched.RunOne();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerScheduleRun);

// Steady-state churn: a standing backlog of pending timers (range(0)) while
// events are scheduled and retired one-for-one. This is the shape of a
// loaded simulation — every in-flight message and armed timeout is a
// pending event.
void BM_SchedulerChurn(benchmark::State& state) {
  const size_t backlog = static_cast<size_t>(state.range(0));
  Scheduler sched;
  for (size_t i = 0; i < backlog; ++i) {
    sched.ScheduleAfter(1 + (i % 97), [] {});
  }
  for (auto _ : state) {
    sched.ScheduleAfter(101, [] {});
    sched.RunOne();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerChurn)->Arg(64)->Arg(1024)->Arg(16384);

// Schedule two events, cancel one, run the other. Covers the cancel path
// plus the cancelled-entry skip during pop (armed-then-cancelled timers are
// the common case: every message that arrives in time cancels a timeout).
void BM_SchedulerScheduleCancelRun(benchmark::State& state) {
  Scheduler sched;
  for (auto _ : state) {
    const auto doomed = sched.ScheduleAfter(1, [] {});
    sched.ScheduleAfter(2, [] {});
    sched.Cancel(doomed);
    sched.RunOne();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerScheduleCancelRun);

// --------------------------------------------------------------------------
// 2. SimNetwork broadcast fan-out
// --------------------------------------------------------------------------

// One kGlobalCommit carrying an n-entry participant list, fanned out to
// n-1 recipients and delivered. This is exactly what a coordinator (and,
// under EC, every cohort) does per decision.
void BM_NetworkBroadcast(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Scheduler sched;
  NetworkConfig cfg;
  cfg.base_latency_us = 1;
  cfg.jitter_us = 0;
  SimNetwork net(&sched, cfg, /*seed=*/1);
  for (NodeId id = 0; id < n; ++id) {
    net.RegisterNode(id, [](const Message&) {});
  }
  std::vector<NodeId> participants;
  for (NodeId id = 0; id < n; ++id) participants.push_back(id);

  for (auto _ : state) {
    Message base;
    base.type = MsgType::kGlobalCommit;
    base.src = 0;
    base.txn = MakeTxnId(0, 1);
    base.participants = participants;
    for (NodeId dst = 1; dst < n; ++dst) {
      Message m = base;  // per-recipient copy: the fan-out cost under test
      m.dst = dst;
      net.Send(std::move(m));
    }
    sched.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_NetworkBroadcast)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// --------------------------------------------------------------------------
// 3. End-to-end commit rounds
// --------------------------------------------------------------------------

// The round benchmarks measure the coalesced transport (the configuration
// the cluster experiments run with): all messages a node emits in one
// scheduler step share a frame, and equal-latency frames share a single
// delivery event. BM_EasyCommitRoundUncoalesced keeps the per-message
// delivery path measured as an ablation baseline.
void BM_CommitRound(benchmark::State& state, CommitProtocol protocol,
                    bool coalesce = true) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  NetworkConfig net;
  net.base_latency_us = 1;
  net.jitter_us = 0;
  CommitEngineConfig commit;
  ProtocolTestbed bed(protocol, n, net, commit, /*seed=*/7);
  if (coalesce) bed.network().EnableCoalescing(true);
  const uint64_t msgs_before = bed.network().stats().messages_sent;
  for (auto _ : state) {
    const TxnId txn = bed.StartAll();
    bed.Settle();
    benchmark::DoNotOptimize(bed.host(0).applied(txn));
  }
  state.SetItemsProcessed(state.iterations());
  // Message complexity per commit round — the cost axis the quorum
  // variants (Paxos Commit's acceptor round, E3PC's identical-to-3PC
  // failure-free path) are compared on against 2PC/3PC/EC.
  const uint64_t msgs = bed.network().stats().messages_sent - msgs_before;
  state.counters["messages_per_txn"] =
      state.iterations() > 0
          ? static_cast<double>(msgs) / static_cast<double>(state.iterations())
          : 0.0;
}

void BM_TwoPhaseRound(benchmark::State& state) {
  BM_CommitRound(state, CommitProtocol::kTwoPhase);
}
void BM_ThreePhaseRound(benchmark::State& state) {
  BM_CommitRound(state, CommitProtocol::kThreePhase);
}
void BM_EasyCommitRound(benchmark::State& state) {
  BM_CommitRound(state, CommitProtocol::kEasyCommit);
}
void BM_EasyCommitRoundUncoalesced(benchmark::State& state) {
  BM_CommitRound(state, CommitProtocol::kEasyCommit, /*coalesce=*/false);
}
// Quorum-hardened variants (PR 9): E3PC's failure-free path is 3PC's
// (the epochs only matter during termination), so its round cost should
// track BM_ThreePhaseRound; Paxos Commit pays the acceptor round — each
// RM's vote broadcast to all n acceptors — so its message count grows
// O(n^2) even failure-free. These rounds plus the messages_per_txn
// counter are the quorum-cost evidence in BENCH_engine.json.
void BM_E3pcRound(benchmark::State& state) {
  BM_CommitRound(state, CommitProtocol::kThreePhaseE3PC);
}
void BM_PaxosCommitRound(benchmark::State& state) {
  BM_CommitRound(state, CommitProtocol::kPaxosCommit);
}
BENCHMARK(BM_TwoPhaseRound)->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_ThreePhaseRound)->Arg(4)->Arg(8)->Arg(16)->Arg(32);
// The scale axis: 256/1024/4096 stress the O(active)-link network state
// and the pooled engine records; a full EC round at n=4096 is ~16.8M
// cohort-to-cohort decision messages (paper Section 5.3's O(n^2)).
BENCHMARK(BM_EasyCommitRound)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EasyCommitRoundUncoalesced)->Arg(32);
BENCHMARK(BM_E3pcRound)->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_PaxosCommitRound)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Many concurrent commit rounds with coordinators spread round-robin over
// the cluster — the shape where coalescing actually packs frames: each
// scheduler step can emit messages for several transactions toward the
// same destination, and the transmit-phase cross-broadcasts of different
// transactions overlap. Measures txns/s, not rounds/s.
void BM_EasyCommitConcurrent(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  constexpr uint32_t kInflight = 64;
  NetworkConfig net;
  net.base_latency_us = 1;
  net.jitter_us = 0;
  CommitEngineConfig commit;
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, n, net, commit);
  bed.network().EnableCoalescing(true);
  uint64_t seq = 0;
  for (auto _ : state) {
    for (uint32_t k = 0; k < kInflight; ++k) {
      const NodeId coord = k % n;
      const TxnId txn = MakeTxnId(coord, ++seq);
      // StartCommit requires the coordinator at participants[0].
      std::vector<NodeId> participants;
      participants.push_back(coord);
      for (NodeId id = 0; id < n; ++id) {
        if (id != coord) participants.push_back(id);
      }
      for (NodeId id = 0; id < n; ++id) {
        if (id == coord) continue;
        bed.host(id).engine().ExpectPrepare(txn, coord, participants);
      }
      bed.host(coord).engine().StartCommit(txn, participants,
                                           Decision::kCommit);
    }
    bed.Settle();
    benchmark::DoNotOptimize(bed.host(0).blocked_count());
  }
  state.SetItemsProcessed(state.iterations() * kInflight);
}
BENCHMARK(BM_EasyCommitConcurrent)->Arg(8)->Arg(32);

// --------------------------------------------------------------------------
// 4. Storage
// --------------------------------------------------------------------------

// One YCSB-shaped partition: 2^17 rows of 10 columns, the per-node table
// size of the repository benchmark's 2M-row, 16-node cluster.
constexpr Key kTableRows = 131072;
constexpr uint32_t kTableColumns = 10;

// Bulk load the way YcsbWorkload::LoadPartition does it: Reserve, then one
// Insert per row. Items are rows, so ns per row = 1e9 / items_per_second.
// Freeing the table is not part of the load and runs untimed.
void BM_TableLoad(benchmark::State& state) {
  for (auto _ : state) {
    auto table = std::make_unique<Table>(0, "usertable", kTableColumns);
    table->Reserve(kTableRows);
    for (Key key = 0; key < kTableRows; ++key) {
      benchmark::DoNotOptimize(table->Insert(key));
    }
    state.PauseTiming();
    table.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kTableRows);
}
BENCHMARK(BM_TableLoad)->Unit(benchmark::kMillisecond);

// The execution engine's write access: look a key up and bump the row's
// version, over Zipf(0.6) keys (the benchmark's YCSB skew) drawn ahead of
// the timed loop.
void BM_TableGetMutable(benchmark::State& state) {
  Table table(0, "usertable", kTableColumns);
  table.Reserve(kTableRows);
  for (Key key = 0; key < kTableRows; ++key) (void)table.Insert(key);
  const ZipfianGenerator zipf(kTableRows, 0.6);
  Rng rng(1);
  std::vector<Key> keys(1 << 16);
  for (Key& key : keys) key = zipf.Next(rng);
  size_t i = 0;
  for (auto _ : state) {
    auto row = table.GetMutable(keys[i++ & (keys.size() - 1)]);
    row.value()->version++;
    benchmark::DoNotOptimize(row);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableGetMutable);

}  // namespace

BENCHMARK_MAIN();
