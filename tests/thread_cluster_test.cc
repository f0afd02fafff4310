// Integration tests for the threaded (real OS threads) runtime: the same
// protocol engines under wall-clock time and real concurrency.

#include "cluster/thread_node.h"

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "workload/ycsb.h"

namespace ecdb {
namespace {

ThreadClusterConfig SmallConfig(CommitProtocol protocol) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 2;
  cfg.protocol = protocol;
  cfg.seed = 99;
  // Wall-clock timeouts must stay well above worst-case scheduling delays
  // on a loaded CI machine: a spuriously expired timeout acts like the
  // Section 4.1 message-delay scenario and can (legitimately!) break
  // safety. Generous values keep the tests deterministic.
  cfg.commit.timeout_us = 250'000;
  cfg.commit.termination_window_us = 80'000;
  return cfg;
}

YcsbConfig SmallYcsb() {
  YcsbConfig cfg;
  cfg.num_partitions = 3;
  cfg.rows_per_partition = 2048;
  cfg.theta = 0.3;
  cfg.partitions_per_txn = 2;
  return cfg;
}

class ThreadClusterProtocolTest
    : public ::testing::TestWithParam<CommitProtocol> {};

TEST_P(ThreadClusterProtocolTest, CommitsUnderRealThreads) {
  ThreadCluster cluster(SmallConfig(GetParam()),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.8);
  cluster.Stop();
  EXPECT_GT(cluster.TotalCommitted(), 20u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  uint64_t blocked = 0;
  for (NodeId id = 0; id < 3; ++id) {
    blocked += cluster.node(id).stats().txns_blocked;
  }
  EXPECT_EQ(blocked, 0u);
}

TEST_P(ThreadClusterProtocolTest, LatenciesAreRecorded) {
  ThreadCluster cluster(SmallConfig(GetParam()),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.5);
  cluster.Stop();
  uint64_t samples = 0;
  for (NodeId id = 0; id < 3; ++id) {
    samples += cluster.node(id).stats().latency.count();
  }
  EXPECT_GT(samples, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ThreadClusterProtocolTest,
                         ::testing::Values(CommitProtocol::kTwoPhase,
                                           CommitProtocol::kThreePhase,
                                           CommitProtocol::kEasyCommit),
                         [](const auto& info) { return ToString(info.param); });

TEST(ThreadClusterTest, WalRecordsProtocolMilestones) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kEasyCommit),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.5);
  cluster.Stop();
  bool saw_begin = false, saw_received = false, saw_terminal = false;
  for (NodeId id = 0; id < 3; ++id) {
    for (const LogRecord& r : cluster.node(id).wal().Scan()) {
      saw_begin |= r.type == LogRecordType::kBeginCommit;
      saw_received |= r.type == LogRecordType::kCommitReceived;
      saw_terminal |= r.type == LogRecordType::kTransactionCommit;
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_received);
  EXPECT_TRUE(saw_terminal);
}

TEST(ThreadClusterTest, FileWalPersistsAcrossRun) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.wal_dir = ::testing::TempDir();
  {
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
    cluster.Start();
    cluster.RunFor(0.4);
    cluster.Stop();
    EXPECT_GT(cluster.node(0).wal().Size(), 0u);
  }
  // Reopen the WAL file directly and confirm the records survived.
  auto wal = FileWal::Open(cfg.wal_dir + "/node0.wal");
  ASSERT_TRUE(wal.ok());
  EXPECT_GT(wal.value()->Size(), 0u);
  std::remove((cfg.wal_dir + "/node0.wal").c_str());
  std::remove((cfg.wal_dir + "/node1.wal").c_str());
  std::remove((cfg.wal_dir + "/node2.wal").c_str());
}

TEST(ThreadClusterTest, UncoalescedFileWalIsWrittenAhead) {
  // Without coalescing each message leaves as soon as it is produced, so
  // there is no end-of-iteration flush point: the WAL group behind a
  // message must reach the file before the message does. Checked while
  // the cluster is still running, which is what a SIGKILL would keep.
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  ASSERT_FALSE(cfg.coalesce_transport);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "uncoalesced_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  cfg.wal_dir = dir.string();
  uintmax_t bytes_while_running = 0;
  {
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
    cluster.Start();
    cluster.RunFor(0.5);
    for (NodeId id = 0; id < 3; ++id) {
      bytes_while_running += std::filesystem::file_size(
          dir / ("node" + std::to_string(id) + ".wal"));
    }
    cluster.Stop();
    EXPECT_GT(cluster.TotalCommitted(), 0u);
  }
  EXPECT_GT(bytes_while_running, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ThreadClusterDeathTest, WalFlushFailureStopsTheNode) {
  // Node 0's log is a device on which every write fails. The write-ahead
  // rule forbids sending what an unflushed record announces, so the first
  // failed group flush must stop the process before any message leaves.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "wal_flush_fails";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir / "node0.wal");
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.wal_dir = dir.string();
  EXPECT_DEATH(
      {
        ThreadCluster cluster(cfg,
                              std::make_unique<YcsbWorkload>(SmallYcsb()));
        cluster.Start();
        cluster.RunFor(5.0);
      },
      "node 0: WAL flush failed");
  std::filesystem::remove_all(dir);
}

TEST(ThreadClusterTest, RestartedNodeAllocatesPastItsLoggedTxnIds) {
  // A process restarted over its old log, as SocketNode runs one: crash
  // and recover are requested before the worker starts. No message the
  // node sends may carry a TxnId it logged as coordinator before the
  // restart — peers' decision ledgers still hold those ids.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "restarted_txn_ids";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    auto wal = std::move(FileWal::Open((dir / "node0.wal").string())).value();
    const TxnId logged = MakeTxnId(0, 42);
    wal->Append({0, logged, LogRecordType::kBeginCommit, {}});
    wal->Append({0, logged, LogRecordType::kTransactionAbort, {}});
    ASSERT_TRUE(wal->Flush().ok());
  }
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.wal_dir = dir.string();
  {
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
    // Room for every event of the short run: the first sends must not be
    // overwritten in the ring.
    cluster.EnableTracing(/*capacity=*/1 << 18);
    cluster.node(0).Crash();
    cluster.node(0).Recover();
    cluster.Start();
    cluster.RunFor(0.05);
    cluster.Stop();
    ASSERT_EQ(cluster.node(0).trace().dropped(), 0u);
    size_t own = 0;
    size_t reused = 0;
    for (const TraceEvent& ev : cluster.node(0).trace().Events()) {
      if (ev.type != TraceEventType::kMsgSend) continue;
      if (TxnCoordinator(ev.txn) != 0) continue;
      own++;
      if (TxnSequence(ev.txn) <= 42) reused++;
    }
    EXPECT_GT(own, 0u);
    EXPECT_EQ(reused, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ThreadClusterTest, SurvivesNodeCrashWithoutBlocking) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kEasyCommit),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.3);
  cluster.node(2).Crash();
  const uint64_t at_crash = cluster.TotalCommitted();
  // Survivors keep committing (their single-partition and 0-1 spanning
  // transactions at least). The window is wall-clock, so under CPU
  // oversubscription (ctest -j) a single fixed interval can elapse before
  // the worker threads are ever scheduled — poll with a generous deadline.
  uint64_t after = at_crash;
  // Budget ~36 s: every failed attempt burns a 250 ms commit timeout plus
  // backoff before the client redraws, and co-scheduled wall-clock tests
  // can time-slice this cluster down to a fraction of the core.
  for (int i = 0; i < 120 && after <= at_crash; ++i) {
    cluster.RunFor(0.3);
    after = cluster.TotalCommitted();
  }
  cluster.Stop();
  EXPECT_GT(after, at_crash);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  uint64_t blocked = 0;
  for (NodeId id = 0; id < 2; ++id) {
    blocked += cluster.node(id).stats().txns_blocked;
  }
  EXPECT_EQ(blocked, 0u);
}

TEST(ThreadClusterTest, CrashedNodeRecoversConsistently) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kEasyCommit),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.3);
  cluster.node(1).Crash();
  cluster.RunFor(0.3);
  cluster.node(1).Recover();
  cluster.RunFor(1.0);
  cluster.Stop();
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// Quiesce is sticky across crash/recover: a node that recovers after the
// cluster was quiesced must not restart its closed loop.
TEST(ThreadClusterTest, RecoveredNodeStaysQuiesced) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kEasyCommit),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.3);
  cluster.Quiesce(0.5);
  cluster.node(2).Crash();
  cluster.RunFor(0.1);
  // Counted at the coordinator: nothing node 2 coordinates is in flight
  // once its crash has been applied.
  const uint64_t before = cluster.node(2).committed();
  cluster.node(2).Recover();
  cluster.RunFor(0.5);
  cluster.Stop();
  EXPECT_EQ(cluster.node(2).committed(), before);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// WAIT_DIE on the threaded host: a conflicting older transaction suspends
// on the lock and resumes on the grant instead of aborting. The hot key
// range makes waits common; after quiesce every client slot drains.
TEST(ThreadClusterTest, WaitDieCommitsAndQuiesces) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.cc_policy = CcPolicy::kWaitDie;
  cfg.clients_per_node = 4;
  YcsbConfig ycsb = SmallYcsb();
  ycsb.rows_per_partition = 64;
  ycsb.theta = 0.9;
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  // Poll rather than a fixed window: on a loaded CI machine the node
  // threads can be starved for long stretches.
  for (int i = 0; i < 60 && cluster.TotalCommitted() < 20; ++i) {
    cluster.RunFor(0.2);
  }
  cluster.Quiesce(0.5);
  // Drained once commits stop for a while; in-flight state is
  // thread-confined, so it is read after Stop().
  uint64_t last = cluster.TotalCommitted();
  for (int quiet = 0, i = 0; quiet < 6 && i < 120; ++i) {
    cluster.RunFor(0.25);
    const uint64_t now = cluster.TotalCommitted();
    quiet = now == last ? quiet + 1 : 0;
    last = now;
  }
  cluster.Stop();
  EXPECT_GE(cluster.TotalCommitted(), 20u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    EXPECT_EQ(cluster.node(id).InFlightClientCount(), 0u) << "node " << id;
    EXPECT_EQ(cluster.node(id).locks().ActiveEntries(), 0u) << "node " << id;
    EXPECT_EQ(cluster.node(id).PendingRollbackCount(), 0u) << "node " << id;
  }
}

TEST(ThreadClusterTest, OpenLoopGeneratesLoadAndConserves) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = 500.0;
  cfg.open_loop.max_in_flight_per_node = 8;
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  // Poll rather than a fixed window: on a loaded CI machine the node
  // threads can be starved for long stretches.
  uint64_t committed = 0;
  for (int i = 0; i < 40 && committed == 0; ++i) {
    cluster.RunFor(0.2);
    committed = cluster.TotalCommitted();
  }
  cluster.Quiesce();
  cluster.Stop();
  EXPECT_GT(committed, 0u);

  uint64_t offered = 0, accounted = cluster.TotalCommitted();
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    const NodeStats& s = cluster.node(id).stats();
    offered += s.open_loop_offered;
    accounted += s.open_loop_rejected + s.open_loop_aborted;
  }
  EXPECT_GT(offered, 0u);
  // Conservation, with slack for transactions still in flight when the
  // drain window closed: nothing is ever counted twice, so accounted can
  // trail offered by at most the cluster-wide admission cap.
  EXPECT_LE(accounted, offered);
  EXPECT_GE(accounted + static_cast<uint64_t>(cfg.num_nodes) *
                            cfg.open_loop.max_in_flight_per_node,
            offered);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// --- Shard-per-core worker pool (worker_threads > 0) ---

ThreadClusterConfig WorkerPoolConfig(uint32_t nodes, uint32_t workers) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.clients_per_node = 2;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.worker_threads = workers;
  cfg.seed = 7;
  cfg.commit.timeout_us = 250'000;
  cfg.commit.termination_window_us = 80'000;
  return cfg;
}

YcsbConfig WorkerPoolYcsb(uint32_t nodes) {
  YcsbConfig cfg;
  cfg.num_partitions = nodes;
  cfg.rows_per_partition = 1024;
  cfg.theta = 0.3;
  cfg.partitions_per_txn = 2;
  return cfg;
}

// Stress for the M:N runtime under TSan: 12 nodes on 3 workers, so every
// worker demuxes a shared mailbox AND the same-worker fast path carries
// real traffic (each worker co-hosts 4 nodes). Commits prove no lost
// wakeups — a swallowed wake would stall a whole 4-node shard, not one
// node — and the stats split proves both delivery paths were exercised.
TEST(ThreadClusterWorkerPoolTest, SharedWorkersCommitOnBothDeliveryPaths) {
  for (const bool coalesce : {false, true}) {
    ThreadClusterConfig cfg = WorkerPoolConfig(12, 3);
    cfg.coalesce_transport = coalesce;
    ThreadCluster cluster(cfg,
                          std::make_unique<YcsbWorkload>(WorkerPoolYcsb(12)));
    cluster.Start();
    // Poll: on a loaded CI machine 3 workers for 12 nodes can be starved.
    uint64_t committed = 0;
    for (int i = 0; i < 60 && committed < 50; ++i) {
      cluster.RunFor(0.2);
      committed = cluster.TotalCommitted();
    }
    cluster.Stop();
    EXPECT_GT(committed, 20u) << "coalesce=" << coalesce;
    EXPECT_TRUE(cluster.monitor().Violations().empty());
    uint64_t blocked = 0;
    for (NodeId id = 0; id < cfg.num_nodes; ++id) {
      blocked += cluster.node(id).stats().txns_blocked;
    }
    EXPECT_EQ(blocked, 0u);

    const std::vector<WorkerStats> workers = cluster.CollectWorkerStats();
    ASSERT_EQ(workers.size(), 3u);
    uint32_t hosted = 0;
    for (const WorkerStats& w : workers) hosted += w.nodes_hosted;
    EXPECT_EQ(hosted, cfg.num_nodes);

    const ClusterStats stats = cluster.CollectStats(1.0);
    EXPECT_EQ(stats.worker_threads, 3u);
    // Cross-worker deliveries crossed a mailbox; co-hosted destinations
    // rode the local queue. Both must be non-zero at this shape.
    EXPECT_GT(stats.worker_mailbox_messages, 0u) << "coalesce=" << coalesce;
    EXPECT_GT(stats.worker_local_messages, 0u) << "coalesce=" << coalesce;
  }
}

// Crashing one hosted node must wipe ONLY that node: its timers and its
// open-loop arrival chain go stale via the epoch bump, while the co-hosted
// node on the same worker (same shared timer heap, same mailbox) keeps
// committing. Recovery rebases the arrival chain and the node resumes.
// Worker layout at n=4, W=2: worker 0 hosts {0, 2}, worker 1 hosts {1, 3}.
TEST(ThreadClusterWorkerPoolTest, CrashIsolatesCoHostedNodes) {
  ThreadClusterConfig cfg = WorkerPoolConfig(4, 2);
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = 400.0;
  cfg.open_loop.max_in_flight_per_node = 8;
  ThreadCluster cluster(cfg,
                        std::make_unique<YcsbWorkload>(WorkerPoolYcsb(4)));
  cluster.Start();
  uint64_t warm = 0;
  for (int i = 0; i < 40 && warm == 0; ++i) {
    cluster.RunFor(0.2);
    warm = cluster.TotalCommitted();
  }
  ASSERT_GT(warm, 0u);

  cluster.node(2).Crash();
  // Let the crash request drain (and any message already mid-dispatch
  // land) before freezing the crashed node's counter.
  cluster.RunFor(0.3);
  const uint64_t crashed_frozen = cluster.node(2).committed();
  const uint64_t cohost_at_crash = cluster.node(0).committed();

  // The co-hosted node 0 shares worker 0 with the crashed node: its
  // timers, arrivals, and mailbox share must be undisturbed.
  uint64_t cohost_after = cohost_at_crash;
  for (int i = 0; i < 120 && cohost_after <= cohost_at_crash; ++i) {
    cluster.RunFor(0.3);
    cohost_after = cluster.node(0).committed();
  }
  EXPECT_GT(cohost_after, cohost_at_crash);
  // The crashed node's arrival chain died with its epoch: nothing commits.
  EXPECT_EQ(cluster.node(2).committed(), crashed_frozen);

  cluster.node(2).Recover();
  // Recovery rebases the arrival chain to "now"; new arrivals commit.
  uint64_t recovered = crashed_frozen;
  for (int i = 0; i < 120 && recovered <= crashed_frozen; ++i) {
    cluster.RunFor(0.3);
    recovered = cluster.node(2).committed();
  }
  EXPECT_GT(recovered, crashed_frozen);

  cluster.Quiesce();
  cluster.Stop();
  EXPECT_TRUE(cluster.monitor().Violations().empty());

  // Conservation across the crash/recover cycle: offered ==
  // committed + rejected + terminal aborts, with slack bounded by the
  // cluster-wide admission cap for still-in-flight work at drain close.
  uint64_t offered = 0, accounted = cluster.TotalCommitted();
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    const NodeStats& s = cluster.node(id).stats();
    offered += s.open_loop_offered;
    accounted += s.open_loop_rejected + s.open_loop_aborted;
  }
  EXPECT_LE(accounted, offered);
  EXPECT_GE(accounted + static_cast<uint64_t>(cfg.num_nodes) *
                            cfg.open_loop.max_in_flight_per_node,
            offered);
}

TEST(ThreadClusterWorkerPoolTest, SingleWorkerHostsWholeCluster) {
  // W=1 is the other degenerate case: every node on one event loop, all
  // traffic on the local queue (the bounded drain must not livelock).
  ThreadClusterConfig cfg = WorkerPoolConfig(4, 1);
  ThreadCluster cluster(cfg,
                        std::make_unique<YcsbWorkload>(WorkerPoolYcsb(4)));
  cluster.Start();
  uint64_t committed = 0;
  for (int i = 0; i < 60 && committed < 20; ++i) {
    cluster.RunFor(0.2);
    committed = cluster.TotalCommitted();
  }
  cluster.Stop();
  EXPECT_GT(committed, 10u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  const ClusterStats stats = cluster.CollectStats(1.0);
  // No other worker exists: every cross-node message took the fast path.
  EXPECT_GT(stats.worker_local_messages, 0u);
  EXPECT_EQ(stats.worker_mailbox_messages, 0u);
}

TEST(ThreadClusterTest, StopIsIdempotent) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kTwoPhase),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.1);
  cluster.Stop();
  cluster.Stop();  // must not crash or hang
}

}  // namespace
}  // namespace ecdb
