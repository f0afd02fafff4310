#include "hosts.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "cluster/sim_cluster.h"
#include "cluster/socket_cluster.h"
#include "cluster/thread_node.h"
#include "obs/critical_path.h"
#include "trace/trace_export.h"
#include "trace/trace_reader.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ecdb::NodeId;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Warm-up before the window opens: the mesh is up, caches and lock-table
// capacity are grown, the first closed-loop burst has drained.
constexpr double kWarmupWallS = 0.3;
constexpr double kWarmupSimS = 0.05;
// socket-wal: length of one episode's window (see RunEpisodes).
constexpr double kEpisodeS = 2.0;
// threaded-ycsb episodes are a fixed amount of work, not a fixed time: the
// warm-up and the window each run until this many more commits, so an
// episode's memory (the in-memory WAL and decision ledger grow with every
// commit) does not depend on how fast the host happened to be.
constexpr uint64_t kThreadedWarmupTxns = 10'000;
constexpr uint64_t kThreadedWindowTxns = 40'000;
// A window that has not reached its commits after this long ends anyway.
constexpr double kThreadedWindowCapS = 10.0;
// How often the benchmark's thread checks the commit count.
constexpr double kCommitPollS = 0.001;
// threaded-ycsb hosts its 8 nodes on one worker thread. With workers on
// several cores, every cross-worker message can wait for the hypervisor to
// run an idle vCPU, and on a shared VM the figures then follow the other
// tenants: five 20 s runs in a row read 40k-152k committed/s on 4 workers
// and 44k-86k on 2, against 51.4k-53.3k on 1 (NOTES.md).
constexpr uint32_t kThreadedWorkers = 1;
// threaded-ycsb: the telemetry sampler only has to exist (the benchmark
// snapshots the registry itself at the window's edges), so it wakes once
// an hour, never inside a run.
constexpr ecdb::Micros kSamplerIntervalUs = 3'600'000'000;
// sim-crash fault: this node crashes at 30% of the window and recovers at
// 60%.
constexpr NodeId kCrashNode = 5;
constexpr int kSimChunks = 40;
// Per-node trace ring on traced runs: the critical-path analysis reads the
// most recent events of each node.
constexpr size_t kTraceCapacity = 1 << 14;
// socket-wal: open-loop arrival rate per node, about 45% of the closed-loop
// capacity of two node processes on 4 cores.
constexpr double kSocketArrivalsPerSecPerNode = 5000;
constexpr double kSocketDrainS = 0.3;

ecdb::CommitEngineConfig FaultFreeTimeouts(ecdb::CommitEngineConfig commit) {
  // Failure-free wall-clock runs: protocol timeouts exist to detect
  // crashes, so park them far above scheduling noise.
  commit.timeout_us = 1'000'000;
  commit.termination_window_us = 200'000;
  return commit;
}

/// Appends the critical-path medians of a traced run: for every committed
/// transaction whose backward walk is complete, the time its critical path
/// spends in each category; the median over those transactions.
void AddPathMetrics(const std::vector<const ecdb::TraceRecorder*>& recorders,
                    const char* runtime, uint32_t num_nodes, HostRun* out) {
  ecdb::TraceMeta meta;
  meta.runtime = runtime;
  meta.protocol = ecdb::ToString(ecdb::CommitProtocol::kEasyCommit);
  meta.num_nodes = num_nodes;
  for (const ecdb::TraceRecorder* r : recorders) {
    meta.dropped.push_back(r->dropped());
  }
  std::ostringstream jsonl;
  ecdb::WriteJsonl(meta, ecdb::CollectEvents(recorders), jsonl);
  std::istringstream in(jsonl.str());
  ecdb::ParsedTrace parsed;
  std::string error;
  const bool parsed_ok = ecdb::ReadJsonlTrace(in, &parsed, &error);
  out->checks.Expect(parsed_ok, "trace: export parses back" +
                                    (parsed_ok ? "" : " (" + error + ")"));
  std::unordered_set<ecdb::TxnId> committed;
  for (const ecdb::TraceEvent& ev : parsed.events) {
    if (ev.type == ecdb::TraceEventType::kDecisionApply &&
        ev.a == static_cast<uint8_t>(ecdb::Decision::kCommit)) {
      committed.insert(ev.txn);
    }
  }
  const ecdb::CriticalPathReport report = ecdb::AnalyzeCriticalPaths(parsed);
  static const char* const kCategories[] = {"execution", "queueing", "network",
                                            "transmit", "wal"};
  std::vector<std::vector<double>> per_category(std::size(kCategories));
  uint64_t used = 0;
  for (const ecdb::TxnCriticalPath& path : report.txns) {
    if (!path.complete || committed.count(path.txn) == 0) continue;
    used++;
    std::vector<double> sums(std::size(kCategories), 0.0);
    for (const ecdb::CriticalPathEdge& edge : path.edges) {
      for (size_t c = 0; c < std::size(kCategories); ++c) {
        if (edge.category == kCategories[c]) {
          sums[c] += static_cast<double>(edge.duration_us);
        }
      }
    }
    for (size_t c = 0; c < sums.size(); ++c) per_category[c].push_back(sums[c]);
  }
  for (size_t c = 0; c < std::size(kCategories); ++c) {
    out->layer.Set(std::string("path.") + kCategories[c] + "_us",
                   Median(per_category[c]), "us");
  }
  out->notes.push_back("trace: " + std::to_string(used) +
                       " committed txns with complete critical paths of " +
                       std::to_string(report.txns_analyzed) + " analyzed");
}

/// CPUs the calling thread may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

/// Pins the calling thread to one CPU while in scope, then restores its
/// previous CPU set. The simulator runs on the calling thread, and on a
/// shared host the cores differ in memory speed, so the sim-crash figures
/// are taken on every allowed core in turn rather than on whichever core
/// the scheduler happened to pick.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

void AddThreadsNote(uint32_t started, HostRun* out,
                    const std::string& more = "") {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  out->notes.push_back("threads: nproc=" + std::to_string(nproc) +
                       " started=" + std::to_string(started) +
                       (started > nproc ? " OVERSUBSCRIBED" : " within cores") +
                       more);
}

// ---------------------------------------------------------------------------
// threaded-ycsb: ThreadCluster, closed loop, in-memory WAL.

ecdb::ThreadClusterConfig ThreadedConfig(const WorkloadSpec& spec,
                                         uint64_t seed) {
  ecdb::ThreadClusterConfig cfg;
  cfg.num_nodes = spec.nodes;
  cfg.clients_per_node = spec.clients_per_node;
  cfg.protocol = ecdb::CommitProtocol::kEasyCommit;
  cfg.worker_threads = kThreadedWorkers;
  cfg.seed = seed;
  cfg.commit = FaultFreeTimeouts(cfg.commit);
  cfg.coalesce_transport = true;
  // The telemetry registry is the one latency record that can be read
  // while the workers run (NodeStats are thread-confined until Stop()):
  // the window's latency is the difference of two registry snapshots.
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_interval_us = kSamplerIntervalUs;
  return cfg;
}

/// The histogram named `name` as recorded between two snapshots of a
/// registry; empty if the registry has no such histogram.
ecdb::Histogram HistogramBetween(const ecdb::MetricsRegistry& registry,
                                 const std::string& name,
                                 const ecdb::MetricsSnapshot& before,
                                 const ecdb::MetricsSnapshot& after) {
  ecdb::Histogram h;
  const std::vector<std::string>& names = registry.hist_names();
  const size_t id = static_cast<size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
  if (id == names.size()) return h;
  for (size_t b = 0; b < after.hist_buckets[id].size(); ++b) {
    h.AddBucket(b, after.hist_buckets[id][b] - before.hist_buckets[id][b]);
  }
  return h;
}

/// Builds and starts a threaded cluster with its threads on `cpu`,
/// returning the set-up time. The threads inherit the pin from the calling
/// thread, whose own CPU set is restored once Start() returns.
double SetUpThreaded(const RunOptions& opt, uint64_t seed, int cpu,
                     std::unique_ptr<ecdb::ThreadCluster>* cluster) {
  CpuPin pin(cpu);
  ScopedSpan span(opt.spans, "run.setup");
  const auto t0 = Clock::now();
  *cluster = std::make_unique<ecdb::ThreadCluster>(
      ThreadedConfig(*opt.spec, seed),
      std::make_unique<ecdb::YcsbWorkload>(YcsbFor(*opt.spec)));
  if (opt.traced) (*cluster)->EnableTracing(kTraceCapacity);
  (*cluster)->Start();
  return SecondsSince(t0);
}

/// opt.setups clusters built, started and stopped without a window: their
/// set-up times join the episodes' in setup_s.
std::vector<double> ThreadedSetUps(const RunOptions& opt) {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<double> times;
  for (int i = 0; i < opt.setups; ++i) {
    std::unique_ptr<ecdb::ThreadCluster> cluster;
    times.push_back(SetUpThreaded(
        opt, opt.seed, cpus[static_cast<size_t>(i) % cpus.size()], &cluster));
    cluster->Stop();
  }
  return times;
}

/// Lets `cluster` run until it has committed `txns` more transactions or
/// `cap_s` wall seconds have passed; returns its commit count then.
uint64_t RunForCommits(ecdb::ThreadCluster& cluster, uint64_t txns,
                       double cap_s) {
  const uint64_t target = cluster.TotalCommitted() + txns;
  const auto t0 = Clock::now();
  uint64_t now = 0;
  while ((now = cluster.TotalCommitted()) < target &&
         SecondsSince(t0) < cap_s) {
    cluster.RunFor(kCommitPollS);
  }
  return now;
}

HostRun RunThreadedEpisode(const RunOptions& opt, uint64_t seed, int cpu) {
  const WorkloadSpec& spec = *opt.spec;
  SpanLog& spans = *opt.spans;
  HostRun out;
  // Each episode's peak is its own cluster's: the previous one is gone.
  ResetPeakRss();
  std::unique_ptr<ecdb::ThreadCluster> cluster;
  out.setup_s = SetUpThreaded(opt, seed, cpu, &cluster);
  {
    ScopedSpan span(&spans, "run.warmup");
    RunForCommits(*cluster, kThreadedWarmupTxns, kThreadedWindowCapS);
  }
  const ecdb::MetricsRegistry& registry = *cluster->telemetry()->registry();
  uint64_t before = 0, after = 0;
  double elapsed = 0;
  ecdb::MetricsSnapshot snap_before, snap_after;
  {
    ScopedSpan span(&spans, "run.window");
    snap_before = registry.Snapshot();
    before = cluster->TotalCommitted();
    const auto t0 = Clock::now();
    after = RunForCommits(*cluster, kThreadedWindowTxns, kThreadedWindowCapS);
    elapsed = SecondsSince(t0);
    snap_after = registry.Snapshot();
  }
  {
    ScopedSpan span(&spans, "run.stop");
    cluster->Stop();
  }
  ecdb::ClusterStats stats;
  std::vector<ecdb::WorkerStats> workers;
  {
    ScopedSpan span(&spans, "run.collect_stats");
    stats = cluster->CollectStats(elapsed);
    workers = cluster->CollectWorkerStats();
  }
  const ecdb::NodeStats& t = stats.total;
  const double committed = static_cast<double>(t.txns_committed);
  out.window_s = elapsed;
  out.window_commits = after - before;
  out.committed_per_s = static_cast<double>(after - before) / elapsed;
  // The window's commits only: the warm-up's cold first burst stays out.
  out.latency =
      HistogramBetween(registry, "latency_us", snap_before, snap_after);
  out.checks.Expect(out.latency.count() > 0,
                    "threaded: the window's commit latencies were recorded");
  out.commit_p50_us = HistogramQuantile(out.latency, 0.50);
  out.commit_p99_us = HistogramQuantile(out.latency, 0.99);
  out.peak_rss_mb = PeakRssMb();
  // Closed loop: a client retries until its transaction commits, so
  // nothing is refused or given up; transactions still in flight at
  // Stop() are cut by the benchmark, not failed.
  out.attempted = t.txns_committed;
  out.failed = 0;
  AddThreadsNote(static_cast<uint32_t>(cluster->num_workers()), &out,
                 " (+1 telemetry sampler thread, asleep for the run)");

  uint64_t wal_records = 0;
  for (NodeId id = 0; id < cluster->num_nodes(); ++id) {
    wal_records += cluster->node(id).wal().Size();
  }
  uint64_t busy_us = 0, wall_us = 0;
  for (const ecdb::WorkerStats& w : workers) {
    busy_us += w.busy_us;
    wall_us += w.wall_us;
  }
  MetricSet& m = out.layer;
  m.Set("txn.attempts_per_commit",
        Ratio(committed + static_cast<double>(t.txns_aborted), committed),
        "ratio");
  m.Set("commit.msgs_per_txn",
        Ratio(static_cast<double>(stats.worker_mailbox_messages +
                                  stats.worker_local_messages),
              committed),
        "count");
  m.Set("commit.dup_decisions_per_txn",
        Ratio(static_cast<double>(stats.duplicate_decisions_suppressed),
              committed),
        "count");
  m.Set("commit.vote_p50_us", HistogramQuantile(t.phase_vote, 0.5), "us");
  m.Set("commit.transmit_p50_us", HistogramQuantile(t.phase_transmit, 0.5),
        "us");
  m.Set("commit.apply_p50_us", HistogramQuantile(t.phase_apply, 0.5), "us");
  m.Set("commit.termination_rounds",
        static_cast<double>(t.termination_rounds), "count");
  m.Set("commit.blocked_txns",
        static_cast<double>(cluster->monitor().BlockedTxnCount()), "count");
  m.Set("net.frames_per_txn",
        Ratio(static_cast<double>(stats.net_frames_sent), committed), "count");
  m.Set("net.msgs_per_frame",
        Ratio(static_cast<double>(stats.net_frames_sent +
                                  stats.net_messages_coalesced),
              static_cast<double>(stats.net_frames_sent)),
        "count");
  m.Set("wal.records_per_txn",
        Ratio(static_cast<double>(wal_records), committed), "count");
  m.Set("wal.flushes_per_txn",
        Ratio(static_cast<double>(stats.wal_group_flushes), committed),
        "count");
  m.Set("cluster.worker_busy_frac",
        Ratio(static_cast<double>(busy_us), static_cast<double>(wall_us)),
        "frac");
  m.Set("cluster.mailbox_msgs_per_txn",
        Ratio(static_cast<double>(stats.worker_mailbox_messages), committed),
        "count");

  CheckSafety(cluster->monitor().Violations(), &out.checks);
  // The in-process host has no connections to re-dial.
  CheckFaultFree(t.termination_rounds, /*redials=*/0, &out.checks);
  if (opt.traced) {
    AddPathMetrics(cluster->recorders(), "thread", spec.nodes, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// socket-wal: SocketCluster, open loop, FileWal with group commit.

HostRun RunSocketEpisode(const RunOptions& opt, uint64_t seed,
                         double window_s, int episode) {
  const WorkloadSpec& spec = *opt.spec;
  SpanLog& spans = *opt.spans;
  ecdb::SocketClusterConfig cfg;
  cfg.num_nodes = spec.nodes;
  cfg.protocol = ecdb::CommitProtocol::kEasyCommit;
  cfg.coalesce = true;
  cfg.seed = seed;
  cfg.open_loop = true;
  cfg.arrivals_per_sec_per_node = kSocketArrivalsPerSecPerNode;
  cfg.max_in_flight_per_node = spec.clients_per_node;
  cfg.rows_per_partition = static_cast<uint32_t>(spec.rows_per_partition);
  cfg.partitions_per_txn = spec.partitions_per_txn;
  cfg.theta = YcsbFor(spec).theta;
  // A fresh, empty log directory per episode.
  cfg.wal_dir = opt.scratch_dir + "/wal-" + std::to_string(episode);
  std::filesystem::create_directories(cfg.wal_dir);

  HostRun out;
  std::unique_ptr<ecdb::SocketCluster> cluster;
  {
    ScopedSpan span(&spans, "run.setup");
    const auto t0 = Clock::now();
    cluster = std::make_unique<ecdb::SocketCluster>(cfg);
    const bool started = cluster->Start();
    out.setup_s = SecondsSince(t0);
    out.checks.Expect(started, "socket: every node process came up");
    if (!started) {
      cluster->Stop();
      return out;
    }
  }
  {
    ScopedSpan span(&spans, "run.warmup");
    cluster->RunFor(kWarmupWallS);
  }
  uint64_t before = 0, after = 0;
  double elapsed = 0;
  {
    ScopedSpan span(&spans, "run.window");
    before = cluster->TotalCommitted();
    const auto t0 = Clock::now();
    cluster->RunFor(window_s);
    after = cluster->TotalCommitted();
    elapsed = SecondsSince(t0);
  }
  ecdb::SocketRunStats run;
  {
    ScopedSpan span(&spans, "run.stop");
    // Stop arrivals and let admitted work drain, so the ledger closes.
    cluster->Quiesce(kSocketDrainS);
    run = cluster->Stop();
  }
  const double committed = static_cast<double>(run.Committed());
  out.window_s = elapsed;
  out.window_commits = after - before;
  out.committed_per_s = static_cast<double>(after - before) / elapsed;
  out.latency = run.latency;
  out.commit_p50_us = HistogramQuantile(run.latency, 0.50);
  out.commit_p99_us = HistogramQuantile(run.latency, 0.99);
  // The node processes hold the cluster's memory; the supervisor reaped
  // them in Stop(), so this is the largest node process of the run.
  out.peak_rss_mb = PeakChildRssMb();
  const uint64_t settled =
      run.Committed() + run.Rejected() + run.TerminalAborted();
  const uint64_t unreported =
      run.Offered() > settled ? run.Offered() - settled : 0;
  out.attempted = run.Offered();
  out.failed = run.Rejected() + run.TerminalAborted() + unreported;
  // One io thread and one worker thread per node process.
  AddThreadsNote(2 * spec.nodes, &out);
  out.notes.push_back(
      "wal: FileWal with group commit; flush = fwrite + fflush per group, "
      "no fdatasync (survives process death, not power loss)");

  CheckSocketLedger(run, spec.nodes, &out.checks);
  uint64_t wal_records = 0, wal_flushes = 0, termination_rounds = 0,
           attempts_aborted = 0, file_bytes = 0;
  double open_ms = 0;
  for (const ecdb::SocketNodeReport& node : run.nodes) {
    wal_records += node.wal_records;
    wal_flushes += node.wal_group_flushes;
    termination_rounds += node.termination_rounds;
    attempts_aborted += node.attempts_aborted;
    const std::string path =
        cfg.wal_dir + "/node" + std::to_string(node.id) + ".wal";
    std::error_code ec;
    file_bytes += std::filesystem::file_size(path, ec);
    uint64_t replayed = 0;
    {
      ScopedSpan span(&spans, "run.wal_open");
      const auto t0 = Clock::now();
      auto wal = ecdb::FileWal::Open(path);
      open_ms = std::max(open_ms, SecondsSince(t0) * 1e3);
      if (wal.ok()) replayed = wal.value()->Size();
    }
    CheckWalReplay(node.id, replayed, node.wal_records, &out.checks);
  }
  const ecdb::SocketIoStats io = run.Io();
  const int64_t redials = Redials(io.reconnects, spec.nodes);
  CheckFaultFree(termination_rounds, redials, &out.checks);

  MetricSet& m = out.layer;
  m.Set("txn.attempts_per_commit",
        Ratio(committed + static_cast<double>(attempts_aborted), committed),
        "ratio");
  m.Set("commit.msgs_per_txn",
        Ratio(static_cast<double>(io.messages_out), committed), "count");
  m.Set("commit.dup_decisions_per_txn",
        Ratio(static_cast<double>(run.DuplicateDecisionsSuppressed()),
              committed),
        "count");
  m.Set("commit.termination_rounds", static_cast<double>(termination_rounds),
        "count");
  m.Set("net.frames_per_txn",
        Ratio(static_cast<double>(io.frames_out), committed), "count");
  m.Set("net.msgs_per_frame",
        Ratio(static_cast<double>(io.messages_out),
              static_cast<double>(io.frames_out)),
        "count");
  m.Set("net.syscalls_per_txn",
        Ratio(static_cast<double>(io.Syscalls()), committed), "count");
  m.Set("net.frames_per_writev",
        Ratio(static_cast<double>(io.frames_out),
              static_cast<double>(io.writev_calls)),
        "count");
  m.Set("net.eagain_stalls", static_cast<double>(io.eagain_stalls), "count");
  m.Set("net.redials", static_cast<double>(redials), "count");
  // Reported, never gated: it also counts frames discarded when a
  // connection closes.
  m.Set("net.overflow_drops", static_cast<double>(io.overflow_drops),
        "count");
  m.Set("wal.records_per_txn",
        Ratio(static_cast<double>(wal_records), committed), "count");
  m.Set("wal.flushes_per_txn",
        Ratio(static_cast<double>(wal_flushes), committed), "count");
  m.Set("wal.file_bytes_per_txn",
        Ratio(static_cast<double>(file_bytes), committed), "B");
  m.Set("wal.open_ms", open_ms, "ms");
  std::filesystem::remove_all(cfg.wal_dir);
  return out;
}

// ---------------------------------------------------------------------------
// sim-ycsb, sim-crash: SimCluster, closed loop; sim-crash crashes and
// recovers one node inside the window.

/// Counters the simulator keeps for the whole run, read at the window's
/// edges so the per-transaction ratios cover the window only.
struct SimCounters {
  ecdb::NetworkStats net;
  std::vector<uint64_t> dup_decisions;  // per node; reset by a crash
  uint64_t wal_records = 0;
  uint64_t wal_flushes = 0;
};

SimCounters ReadSimCounters(ecdb::SimCluster& cluster) {
  SimCounters c;
  c.net = cluster.network().stats();
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    ecdb::SimNode& node = cluster.node(id);
    c.dup_decisions.push_back(node.engine().duplicate_decisions_suppressed());
    c.wal_records += node.wal().Size();
    c.wal_flushes += node.wal().group_flushes();
  }
  return c;
}

uint64_t SimCommitted(ecdb::SimCluster& cluster) {
  uint64_t sum = 0;
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    sum += cluster.node(id).stats().txns_committed;
  }
  return sum;
}

HostRun RunSim(const RunOptions& opt) {
  const WorkloadSpec& spec = *opt.spec;
  SpanLog& spans = *opt.spans;
  ecdb::ClusterConfig cfg;
  cfg.num_nodes = spec.nodes;
  cfg.clients_per_node = spec.clients_per_node;
  cfg.protocol = ecdb::CommitProtocol::kEasyCommit;
  cfg.coalesce_transport = true;
  cfg.seed = opt.seed;

  HostRun out;
  const std::vector<int> cpus = AllowedCpus();
  std::vector<double> setup_times;
  // Set-up `i` runs on the i-th allowed core (round robin).
  auto set_up = [&](int i) {
    CpuPin pin(cpus[static_cast<size_t>(i) % cpus.size()]);
    ScopedSpan span(&spans, "run.setup");
    const auto t0 = Clock::now();
    auto c = std::make_unique<ecdb::SimCluster>(
        cfg, std::make_unique<ecdb::YcsbWorkload>(YcsbFor(spec)));
    if (opt.traced) c->EnableTracing(kTraceCapacity);
    c->Start();
    setup_times.push_back(SecondsSince(t0));
    return c;
  };
  // The measured cluster is the first one built, on a fresh heap; the
  // remaining timed set-ups follow the run.
  std::unique_ptr<ecdb::SimCluster> cluster = set_up(0);
  {
    ScopedSpan span(&spans, "run.warmup");
    cluster->RunFor(kWarmupSimS);
  }
  const double span_s = opt.window_s * spec.sim_s_per_window_s;
  cluster->BeginMeasurement();
  const SimCounters start = ReadSimCounters(*cluster);
  uint64_t killed = 0;
  double recover_ms = 0, elapsed = 0;
  uint64_t window_commits = 0;
  {
    ScopedSpan window(&spans, "run.window");
    const auto t0 = Clock::now();
    for (int chunk = 0; chunk < kSimChunks; ++chunk) {
      CpuPin pin(cpus[static_cast<size_t>(chunk) % cpus.size()]);
      if (spec.crash && chunk == kSimChunks * 3 / 10) {
        // Closed-loop transactions coordinated by the crashed node die with
        // it; their clients never hear back.
        killed = cluster->node(kCrashNode).InFlightClientCount();
        cluster->CrashNode(kCrashNode);
      } else if (spec.crash && chunk == kSimChunks * 6 / 10) {
        ScopedSpan span(&spans, "run.recover_node", window.id());
        const auto r0 = Clock::now();
        cluster->RecoverNode(kCrashNode);
        recover_ms = SecondsSince(r0) * 1e3;
      }
      const uint64_t before = SimCommitted(*cluster);
      cluster->RunFor(span_s / kSimChunks);
      window_commits += SimCommitted(*cluster) - before;
    }
    elapsed = SecondsSince(t0);
  }
  ecdb::ClusterStats stats;
  {
    ScopedSpan span(&spans, "run.collect_stats");
    stats = cluster->CollectStats(span_s);
  }
  const SimCounters end = ReadSimCounters(*cluster);
  const ecdb::NodeStats& t = stats.total;
  const double committed = static_cast<double>(t.txns_committed);
  // Simulator speed: the window's commits per wall second, crash and
  // recovery included. Each chunk, a fixed simulated span, runs on the next
  // allowed core, so the figure covers every core alike.
  out.committed_per_s = static_cast<double>(window_commits) / elapsed;
  out.notes.push_back("sim: window " + std::to_string(span_s) +
                      " simulated s in " + std::to_string(elapsed) +
                      " wall s, " + std::to_string(kSimChunks) + " chunks");
  out.commit_p50_us = HistogramQuantile(t.latency, 0.50);  // simulated us
  out.commit_p99_us = HistogramQuantile(t.latency, 0.99);
  out.peak_rss_mb = PeakRssMb();
  out.attempted = t.txns_committed + killed;
  out.failed = killed;
  AddThreadsNote(1, &out);

  uint64_t dup = 0;
  for (size_t i = 0; i < end.dup_decisions.size(); ++i) {
    // A crash recreates the node's engine, restarting its counter.
    const uint64_t a = start.dup_decisions[i], b = end.dup_decisions[i];
    dup += b >= a ? b - a : b;
  }
  const uint64_t msgs = end.net.messages_sent - start.net.messages_sent;
  const uint64_t frames = end.net.frames_sent - start.net.frames_sent;
  const uint64_t coalesced =
      end.net.messages_coalesced - start.net.messages_coalesced;
  const uint64_t blocked = cluster->monitor().BlockedTxnCount();
  MetricSet& m = out.layer;
  m.Set("txn.attempts_per_commit",
        Ratio(committed + static_cast<double>(t.txns_aborted), committed),
        "ratio");
  m.Set("commit.msgs_per_txn", Ratio(static_cast<double>(msgs), committed),
        "count");
  m.Set("commit.dup_decisions_per_txn",
        Ratio(static_cast<double>(dup), committed), "count");
  m.Set("commit.vote_p50_us", HistogramQuantile(t.phase_vote, 0.5), "us");
  m.Set("commit.transmit_p50_us", HistogramQuantile(t.phase_transmit, 0.5),
        "us");
  m.Set("commit.apply_p50_us", HistogramQuantile(t.phase_apply, 0.5), "us");
  m.Set("commit.termination_rounds",
        static_cast<double>(t.termination_rounds), "count");
  m.Set("commit.blocked_txns", static_cast<double>(blocked), "count");
  m.Set("net.frames_per_txn", Ratio(static_cast<double>(frames), committed),
        "count");
  m.Set("net.msgs_per_frame",
        Ratio(static_cast<double>(frames + coalesced),
              static_cast<double>(frames)),
        "count");
  m.Set("wal.records_per_txn",
        Ratio(static_cast<double>(end.wal_records - start.wal_records),
              committed),
        "count");
  m.Set("wal.flushes_per_txn",
        Ratio(static_cast<double>(end.wal_flushes - start.wal_flushes),
              committed),
        "count");
  m.Set("cluster.recover_ms", recover_ms, "ms");
  m.Set("cluster.worker_busy_frac",
        1.0 - stats.TimeFraction(ecdb::TimeCategory::kIdle), "frac");

  // Exact for a given (seed, --seconds): compared across runs by the
  // repeatability test.
  std::ostringstream exact;
  exact << "exact: committed=" << t.txns_committed
        << " aborted=" << t.txns_aborted
        << " termination_rounds=" << t.termination_rounds
        << " killed_in_crash=" << killed << " messages=" << msgs
        << " p50_sim_us=" << t.latency.Percentile(0.50)
        << " p99_sim_us=" << t.latency.Percentile(0.99)
        << " max_sim_us=" << t.latency.max();
  out.notes.push_back(exact.str());
  out.notes.push_back("latency: simulated microseconds; committed_per_s is "
                      "simulated commits per wall second");

  CheckSafety(cluster->monitor().Violations(), &out.checks);
  CheckNonBlocking(blocked, &out.checks);
  // The simulator has no connections to re-dial.
  if (!spec.crash) CheckFaultFree(t.termination_rounds, 0, &out.checks);
  if (opt.traced) {
    AddPathMetrics(cluster->recorders(), "sim", spec.nodes, &out);
  }
  cluster.reset();
  for (int i = 1; i < opt.setups; ++i) set_up(i);
  out.setup_s = Median(setup_times);
  return out;
}

/// Runs a wall-clock host as back-to-back episodes, every one a fresh
/// cluster on its own derived seed, and pools them: committed_per_s is
/// the episodes' window commits over their window seconds, and the latency
/// quantiles are those of the episodes' merged window histograms. On a
/// shared host one episode's speed differs from the next one's by up to a
/// third, so the figures cluster in a fast and a slow group; a median over
/// episodes jumps between the two from run to run, a pooled figure
/// averages them. Episodes run until opt.window_s wall seconds are spent:
/// the last one starts only if an episode of the mean length still fits.
/// `setup` holds set-up times taken before the episodes; each episode's
/// own is added, and setup_s is the mean of all (they are split the same
/// way); peak_rss_mb is the median of the episodes' peaks.
template <typename EpisodeFn>
HostRun RunEpisodes(const RunOptions& opt, EpisodeFn run_episode,
                    std::vector<double> setup) {
  const auto t0 = Clock::now();
  std::vector<HostRun> runs;
  for (int e = 0;; ++e) {
    const uint64_t seed = opt.seed * 1'000'003 + static_cast<uint64_t>(e);
    runs.push_back(run_episode(seed, e));
    if (!runs.back().checks.ok()) break;
    const double spent = SecondsSince(t0);
    if (spent + spent / static_cast<double>(runs.size()) > opt.window_s) {
      break;
    }
  }
  HostRun out;
  std::vector<double> rss;
  for (const HostRun& r : runs) {
    char line[192];
    std::snprintf(line, sizeof(line),
                  "episode %zu: setup_s=%.4g committed_per_s=%.6g "
                  "commit_p50_us=%.5g commit_p99_us=%.5g peak_rss_mb=%.5g",
                  rss.size(), r.setup_s, r.committed_per_s, r.commit_p50_us,
                  r.commit_p99_us, r.peak_rss_mb);
    out.notes.push_back(line);
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    out.window_s += r.window_s;
    out.window_commits += r.window_commits;
    out.latency.Merge(r.latency);
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.checks.Merge(r.checks);
  }

  out.setup_s = Mean(setup);
  out.notes.push_back("setup_s: mean of " + std::to_string(setup.size()) +
                      " set-ups");
  out.committed_per_s = Ratio(static_cast<double>(out.window_commits),
                              out.window_s);
  out.commit_p50_us = HistogramQuantile(out.latency, 0.50);
  out.commit_p99_us = HistogramQuantile(out.latency, 0.99);
  out.peak_rss_mb = Median(rss);
  out.notes.insert(out.notes.begin(), runs.front().notes.begin(),
                   runs.front().notes.end());
  out.notes.push_back("episodes: " + std::to_string(runs.size()) +
                      ", pooled: " + std::to_string(out.window_commits) +
                      " commits in " + std::to_string(out.window_s) +
                      " window s");
  for (const Metric& m : runs.front().layer.all()) {
    std::vector<double> values;
    for (const HostRun& r : runs) {
      if (const Metric* v = r.layer.Find(m.name)) values.push_back(v->value);
    }
    out.layer.Set(m.name, Median(values), m.unit);
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"threaded-ycsb", Host::kThread, 8, 16, 16384, 2, 16},
      {"socket-wal", Host::kSocket, 2, 256, 16384, 2, 4},
      {"sim-ycsb", Host::kSim, 16, 64, 131072, 4, 64, 0.05},
      {"sim-crash", Host::kSim, 16, 64, 131072, 4, 64, 0.1, /*crash=*/true},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

ecdb::YcsbConfig YcsbFor(const WorkloadSpec& spec) {
  ecdb::YcsbConfig ycsb;
  ycsb.num_partitions = spec.nodes;
  ycsb.rows_per_partition = spec.rows_per_partition;
  ycsb.ops_per_txn = 10;
  ycsb.partitions_per_txn = spec.partitions_per_txn;
  ycsb.write_fraction = 0.5;
  ycsb.theta = 0.6;
  return ycsb;
}

bool HostSupportsTracing(const WorkloadSpec& spec) {
  return spec.host != Host::kSocket;
}

HostRun RunHost(const RunOptions& options) {
  switch (options.spec->host) {
    case Host::kThread: {
      // Episode `e` runs on the e-th allowed core (round robin): the
      // host's cores differ in speed, and the pooled figures then cover
      // every core alike rather than the one the scheduler picked.
      const std::vector<int> cpus = AllowedCpus();
      return RunEpisodes(
          options,
          [&](uint64_t seed, int episode) {
            const size_t cpu = static_cast<size_t>(episode) % cpus.size();
            return RunThreadedEpisode(options, seed, cpus[cpu]);
          },
          ThreadedSetUps(options));
    }
    case Host::kSocket: {
      const double window_s = std::min(kEpisodeS, options.window_s);
      return RunEpisodes(options,
                         [&](uint64_t seed, int episode) {
                           return RunSocketEpisode(options, seed, window_s,
                                                   episode);
                         },
                         {});
    }
    case Host::kSim:
      return RunSim(options);
  }
  return {};
}

}  // namespace perfbench
