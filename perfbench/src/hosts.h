#ifndef PERFBENCH_HOSTS_H_
#define PERFBENCH_HOSTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "common/histogram.h"
#include "report.h"
#include "spans.h"
#include "workload/ycsb.h"

namespace perfbench {

enum class Host : uint8_t { kThread, kSocket, kSim };

/// One benchmark workload: which host runs it and the YCSB shape it runs.
/// Every workload runs EasyCommit with coalesced transport and 10-op
/// transactions with 50% writes at Zipfian theta 0.6.
struct WorkloadSpec {
  const char* name;
  Host host;
  uint32_t nodes;
  /// Closed-loop clients per node (socket-wal: the open-loop admission cap).
  uint32_t clients_per_node;
  uint64_t rows_per_partition;
  uint32_t partitions_per_txn;
  /// Transactions holding locks at once in the layer walk's lock table:
  /// the clients per node, or for the open loop its expected concurrency.
  uint32_t walk_in_flight;
  /// Simulator: simulated seconds per window second. The window is a
  /// fixed simulated span, so counts and simulated latencies are exact
  /// for a given (seed, --seconds); the ratio makes the span take about
  /// --seconds of wall time on a 4-core x86 host.
  double sim_s_per_window_s = 0;
  /// Simulator: crash one node and recover it inside the window.
  bool crash = false;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);
ecdb::YcsbConfig YcsbFor(const WorkloadSpec& spec);

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  /// Measured window: wall seconds, except on the simulator, where it sets
  /// the simulated span (see WorkloadSpec::sim_s_per_window_s).
  double window_s = 1;
  /// Set-ups timed for setup_s outside the episodes: the simulator builds
  /// this many clusters (the first is the measured one); the threaded host
  /// builds and stops this many without a window, besides one set-up per
  /// episode; socket-wal times only its episodes' set-ups.
  int setups = 1;
  /// Switch the program's TraceRecorder on (threaded and sim hosts).
  bool traced = false;
  /// Directory for the socket host's WAL files; removed by the caller.
  std::string scratch_dir;
  SpanLog* spans = nullptr;
};

/// What one cluster run measured.
struct HostRun {
  double setup_s = 0;
  double committed_per_s = 0;
  double commit_p50_us = 0;
  double commit_p99_us = 0;
  double peak_rss_mb = 0;
  /// Wall-clock hosts: one episode's measured window, its commits and its
  /// commit latencies. RunEpisodes pools them over the episodes.
  double window_s = 0;
  uint64_t window_commits = 0;
  ecdb::Histogram latency;
  /// Transactions offered or started, and those refused, terminally
  /// aborted or never reported (failed_frac = failed / attempted).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Per-layer counters read from the hosts after Stop(), and on a traced
  /// run the critical-path medians (path.*).
  MetricSet layer;
  CheckList checks;
  /// Report lines (flush policy, exact simulator counts, ...).
  std::vector<std::string> notes;
};

HostRun RunHost(const RunOptions& options);

/// Whether the host of `spec` can record program traces (the socket
/// supervisor does not collect per-process trace rings).
bool HostSupportsTracing(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_HOSTS_H_
